"""Tests for bitmap-encoded safe regions: encode/decode, oracle parity."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.engine.codec import decode_bitmap_region, encode_bitmap_region
from repro.geometry import EPS, Point, Rect, RectilinearRegion
from repro.index import Pyramid, PyramidCell
from repro.saferegion import build_pyramid_bitmap, decode_bitstring

from .pyramid_oracle import (oracle_bitstring, oracle_emission,
                             oracle_measure, oracle_probe)

BASE = Rect(0, 0, 900, 900)


@st.composite
def obstacle_lists(draw, max_count=5):
    count = draw(st.integers(min_value=0, max_value=max_count))
    rects = []
    for _ in range(count):
        x = draw(st.floats(min_value=-50, max_value=880))
        y = draw(st.floats(min_value=-50, max_value=880))
        w = draw(st.floats(min_value=5, max_value=350))
        h = draw(st.floats(min_value=5, max_value=350))
        rects.append(Rect(x, y, x + w, y + h))
    return rects


class TestEagerBitmap:
    def test_no_obstacles_single_one_bit(self):
        pyramid = Pyramid(BASE, height=2)
        bitmap = build_pyramid_bitmap(pyramid, [])
        assert bitmap.to_bitstring() == "1"
        assert bitmap.bit_length() == 1
        assert bitmap.coverage() == pytest.approx(1.0)
        assert not any(bitmap.zeros)

    def test_touching_obstacle_does_not_poison(self):
        """An alarm sharing only an edge with the cell leaves it safe."""
        pyramid = Pyramid(BASE, height=1)
        outside = Rect(900, 0, 1000, 900)  # abuts the right edge
        bitmap = build_pyramid_bitmap(pyramid, [outside])
        assert bitmap.to_bitstring() == "1"

    def test_full_cover_all_zero(self):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=1)
        bitmap = build_pyramid_bitmap(pyramid, [BASE.expanded(10)])
        assert bitmap.to_bitstring() == "0" + "0" * 9
        assert bitmap.coverage() == 0.0

    def test_single_corner_obstacle_level1(self):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=1)
        # obstacle strictly inside the bottom-left level-1 cell
        bitmap = build_pyramid_bitmap(pyramid, [Rect(10, 10, 100, 100)])
        bits = bitmap.to_bitstring()
        # root 0, then raster scan: top row all 1, middle row all 1,
        # bottom row: 0 1 1
        assert bits == "0" + "111" + "111" + "011"

    def test_probe_matches_bits(self):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=2)
        obstacles = [Rect(10, 10, 100, 100), Rect(500, 500, 650, 620)]
        bitmap = build_pyramid_bitmap(pyramid, obstacles)
        rng = random.Random(5)
        for _ in range(300):
            p = Point(rng.uniform(0, 900), rng.uniform(0, 900))
            inside, probes = bitmap.probe(p)
            assert 1 <= probes <= pyramid.height + 1
            if inside:
                # a safe point is never strictly inside an obstacle
                assert not any(o.interior_contains_point(p)
                               for o in obstacles)

    def test_probe_outside_base(self):
        pyramid = Pyramid(BASE, height=1)
        bitmap = build_pyramid_bitmap(pyramid, [])
        assert bitmap.probe(Point(-1, -1)) == (False, 1)

    def test_region_pieces_disjoint_and_safe(self):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=3)
        obstacles = [Rect(100, 100, 400, 300), Rect(300, 500, 700, 760)]
        bitmap = build_pyramid_bitmap(pyramid, obstacles)
        # the serialized 1-bits, placed on the cells they stand for
        cells = [cell for cell, _ in oracle_emission(pyramid, obstacles)]
        region = RectilinearRegion(
            pyramid.cell_rect(cell)
            for cell, bit in zip(cells, bitmap.to_bitstring()) if bit == "1")
        assert region.pieces
        region.validate_disjoint()
        for piece in region.pieces:
            for obstacle in obstacles:
                assert not piece.interior_intersects(obstacle)

    def test_coverage_increases_with_height(self):
        obstacles = [Rect(100, 100, 250, 250), Rect(400, 500, 520, 640)]
        coverages = []
        for height in range(1, 5):
            pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=height)
            bitmap = build_pyramid_bitmap(pyramid, obstacles)
            coverages.append(bitmap.coverage())
        assert coverages == sorted(coverages)
        assert coverages[-1] > coverages[0]


class TestSerialization:
    @settings(max_examples=40, deadline=None)
    @given(obstacle_lists(), st.integers(min_value=1, max_value=3))
    def test_roundtrip(self, obstacles, height):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=height)
        bitmap = build_pyramid_bitmap(pyramid, obstacles)
        encoded = bitmap.to_bitstring()
        decoded = decode_bitstring(pyramid, encoded)
        assert decoded.to_bitstring() == encoded
        assert decoded.bit_length() == bitmap.bit_length() == len(encoded)
        assert decoded.coverage() == bitmap.coverage()

    def test_decode_rejects_short(self):
        pyramid = Pyramid(BASE, height=1)
        with pytest.raises(ValueError):
            decode_bitstring(pyramid, "0" + "0" * 3)

    def test_decode_rejects_long(self):
        pyramid = Pyramid(BASE, height=1)
        with pytest.raises(ValueError):
            decode_bitstring(pyramid, "1" + "111")

    def test_decode_rejects_garbage(self):
        pyramid = Pyramid(BASE, height=1)
        with pytest.raises(ValueError):
            decode_bitstring(pyramid, "2")


class TestLazyEagerParity:
    """The integer-indexed bitmap agrees with the ``Rect`` oracle."""

    @settings(max_examples=40, deadline=None)
    @given(obstacle_lists(), st.integers(min_value=1, max_value=3))
    def test_bit_length_matches(self, obstacles, height):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=height)
        bitmap = build_pyramid_bitmap(pyramid, obstacles)
        bits, _ = oracle_measure(pyramid, obstacles)
        assert bitmap.bit_length() == bits
        assert len(oracle_bitstring(pyramid, obstacles)) == bits

    @settings(max_examples=40, deadline=None)
    @given(obstacle_lists(), st.integers(min_value=1, max_value=3))
    def test_coverage_matches(self, obstacles, height):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=height)
        bitmap = build_pyramid_bitmap(pyramid, obstacles)
        _, safe_area = oracle_measure(pyramid, obstacles)
        assert bitmap.coverage() == safe_area / BASE.area

    @settings(max_examples=25, deadline=None)
    @given(obstacle_lists(max_count=4), st.integers(min_value=1, max_value=3),
           st.floats(min_value=0, max_value=899),
           st.floats(min_value=0, max_value=899))
    def test_probe_matches(self, obstacles, height, x, y):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=height)
        bitmap = build_pyramid_bitmap(pyramid, obstacles)
        bits = dict(oracle_emission(pyramid, obstacles))
        p = Point(x, y)
        assert bitmap.probe(p) == oracle_probe(pyramid, bits, p)

    def test_lazy_handles_deep_pyramids_fast(self):
        """Height-7 full-split counting must not enumerate subtrees."""
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=7)
        obstacles = [Rect(100, 100, 500, 500)]
        bitmap = build_pyramid_bitmap(pyramid, obstacles)
        bits = bitmap.bit_length()
        # a 400x400 obstacle in a 900-cell at height 7 expands into
        # millions of implicit zero bits; the count must reflect them
        assert bits > 100000
        assert bits == oracle_measure(pyramid, obstacles)[0]


# ----------------------------------------------------------------------
# Knife edges: ratio edges that do not nest across levels
# ----------------------------------------------------------------------
KNIFE_BASE = Rect(228.53808248722817, -1355.2396213083184,
                  1809.676882487228, 720.9402249946247)
KNIFE_OBSTACLES = [
    Rect(228.53808248722817, -1714.513623125823,
         271.72199949848687, 28.880276226977003),
    Rect(989.8271343390801, -663.1796725406707,
         1809.676882487228, 166.4187417586843),
    Rect(755.5843491538948, -1739.1376250970682,
         1809.676882487228, 277.254756831976),
    Rect(962.6692441300282, -1340.4109638760237,
         1809.676882487228, -893.8663221298866),
    Rect(1796.358086354138, -970.7618719929586,
         1809.676882487228, 320.7698437955571),
]


class TestKnifeEdgeRegression:
    def test_level_edges_do_not_nest(self):
        pyramid = Pyramid(KNIFE_BASE, fan_cols=3, fan_rows=3, height=3)
        leaf_xs, _ = pyramid.edges(3)
        differing = sum(
            1 for level in (1, 2)
            for k, edge in enumerate(pyramid.edges(level)[0])
            if leaf_xs[k * 3 ** (3 - level)] != edge)
        assert differing > 0

    def test_sizing_serialization_and_decoded_probe_agree(self):
        pyramid = Pyramid(KNIFE_BASE, fan_cols=3, fan_rows=3, height=3)
        bitmap = build_pyramid_bitmap(pyramid, KNIFE_OBSTACLES)
        bits = bitmap.to_bitstring()
        assert bitmap.bit_length() == len(bits) == 568
        assert bits == oracle_bitstring(pyramid, KNIFE_OBSTACLES)
        _, decoded = decode_bitmap_region(encode_bitmap_region(0, bitmap),
                                          pyramid)
        assert decoded.to_bitstring() == bits
        rng = random.Random(3)
        for level in range(4):
            xs, ys = pyramid.edges(level)
            for _ in range(60):
                p = Point(rng.choice(xs), rng.choice(ys))
                assert decoded.probe(p) == bitmap.probe(p)


# ----------------------------------------------------------------------
# Differential: the integer bitmap vs the Rect oracle, on knife edges
# ----------------------------------------------------------------------
MAX_ORACLE_BITS = 4000


def _nudged(draw, value):
    """``value`` as is, or pushed off by one EPS or one ulp."""
    nudge = draw(st.sampled_from(("none", "eps", "ulp")))
    sign = draw(st.sampled_from((-1.0, 1.0)))
    if nudge == "eps":
        return value + sign * EPS
    if nudge == "ulp":
        return math.nextafter(value, sign * math.inf)
    return value


def _edge(draw, pyramid):
    """A ratio edge of some level, or a ``grid_split`` boundary of a cell."""
    level = draw(st.integers(min_value=0, max_value=pyramid.height))
    axis = draw(st.integers(min_value=0, max_value=1))
    if draw(st.booleans()):
        edges = pyramid.edges(level)[axis]
        return axis, edges[draw(st.integers(0, len(edges) - 1))]
    cols, rows = pyramid.grid_dims(level)
    cell = pyramid.cell_rect(PyramidCell(level, draw(st.integers(0, cols - 1)),
                                         draw(st.integers(0, rows - 1))))
    pieces = list(cell.grid_split(pyramid.fan_cols, pyramid.fan_rows))
    piece = pieces[draw(st.integers(0, len(pieces) - 1))]
    if axis == 0:
        return axis, draw(st.sampled_from((piece.min_x, piece.max_x)))
    return axis, draw(st.sampled_from((piece.min_y, piece.max_y)))


@st.composite
def knife_edge_cases(draw):
    fan = draw(st.integers(min_value=2, max_value=4))
    height = draw(st.integers(min_value=1, max_value=5))
    x = draw(st.floats(min_value=-5000, max_value=5000))
    y = draw(st.floats(min_value=-5000, max_value=5000))
    width = draw(st.floats(min_value=1, max_value=5000))
    tall = draw(st.floats(min_value=1, max_value=5000))
    pyramid = Pyramid(Rect(x, y, x + width, y + tall), fan_cols=fan,
                      fan_rows=fan, height=height)
    leaf_w = width / fan ** height
    leaf_h = tall / fan ** height
    obstacles = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        # one side on a (nudged) knife edge, the other a few leaf
        # cells away on either side, so subtrees stay enumerable
        intervals = []
        for axis, leaf in ((0, leaf_w), (1, leaf_h)):
            edge_axis, edge = _edge(draw, pyramid)
            if edge_axis != axis:
                edges = pyramid.edges(draw(st.integers(0, height)))[axis]
                edge = edges[draw(st.integers(0, len(edges) - 1))]
            edge = _nudged(draw, edge)
            span = leaf * draw(st.floats(min_value=0.0, max_value=3.0))
            intervals.append((edge, edge + span) if draw(st.booleans())
                             else (edge - span, edge))
        (x0, x1), (y0, y1) = intervals
        obstacles.append(Rect(x0, y0, x1, y1))
    points = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        coords = []
        for axis in (0, 1):
            edge_axis, edge = _edge(draw, pyramid)
            if edge_axis != axis:
                edge = pyramid.edges(0)[axis][draw(st.integers(0, 1))]
            coords.append(_nudged(draw, edge))
        points.append(Point(*coords))
    return pyramid, obstacles, points


class TestOracleDifferential:
    @settings(max_examples=150, deadline=None)
    @given(knife_edge_cases())
    def test_integer_bitmap_matches_rect_oracle(self, case):
        pyramid, obstacles, points = case
        bitmap = build_pyramid_bitmap(pyramid, obstacles)
        assume(bitmap.bit_length() <= MAX_ORACLE_BITS)
        bits, safe_area = oracle_measure(pyramid, obstacles)
        emission = oracle_emission(pyramid, obstacles)
        serialized = "".join(str(bit) for _, bit in emission)
        assert bitmap.bit_length() == bits == len(serialized)
        assert bitmap.coverage() == safe_area / pyramid.base.area
        assert bitmap.to_bitstring() == serialized

        decoded = decode_bitstring(pyramid, serialized)
        assert decoded.to_bitstring() == serialized
        assert decoded.bit_length() == bits
        assert decoded.coverage() == bitmap.coverage()

        emitted = dict(emission)
        for p in points:
            expected = oracle_probe(pyramid, emitted, p)
            assert bitmap.probe(p) == expected
            assert decoded.probe(p) == expected
