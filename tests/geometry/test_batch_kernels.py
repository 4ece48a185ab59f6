"""Differential suite: batch geometry kernels vs their scalar oracles.

Every kernel in :mod:`repro.geometry.batch` claims bit-identity with
one scalar ``Rect`` predicate; this module enforces the claim two ways.
Property tests draw random populations and compare the kernel verdict
element by element against a Python loop over the scalar method — any
divergence surfaces as a minimal counterexample.  The boundary classes
then pin the knife edges property tests rarely land on: points exactly
on cell edges produced by the ratio-split arithmetic, rectangle
corners, and float pairs exactly EPS apart (the regression the array
forms of ``feq``/``fzero`` exist to prevent).
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.geometry.batch import (PointBatch, RectBatch,
                                  any_interior_contains, clip, contains,
                                  first_outside, first_violation,
                                  interior_contains, interior_intersects,
                                  intersects, rects_feq)
from repro.geometry.eps import EPS, feq, feq_array, fzero, fzero_array

coords = st.floats(min_value=-1e5, max_value=1e5, allow_nan=False,
                   allow_infinity=False)


@st.composite
def rects(draw):
    x1, y1 = draw(coords), draw(coords)
    x2, y2 = draw(coords), draw(coords)
    return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


@st.composite
def point_lists(draw):
    count = draw(st.integers(min_value=0, max_value=32))
    return [Point(draw(coords), draw(coords)) for _ in range(count)]


@st.composite
def rect_lists(draw):
    count = draw(st.integers(min_value=0, max_value=16))
    return [draw(rects()) for _ in range(count)]


# ----------------------------------------------------------------------
# Point-in-rect kernels
# ----------------------------------------------------------------------
class TestPointKernels:
    @given(rects(), point_lists())
    def test_contains_matches_scalar(self, rect, points):
        batch = PointBatch.from_points(points)
        assert contains(rect, batch).tolist() \
            == [rect.contains_point(p) for p in points]

    @given(rects(), point_lists())
    def test_interior_contains_matches_scalar(self, rect, points):
        batch = PointBatch.from_points(points)
        assert interior_contains(rect, batch).tolist() \
            == [rect.interior_contains_point(p) for p in points]

    @given(rect_lists(), point_lists())
    def test_any_interior_contains_matches_scalar(self, rect_list, points):
        batch = RectBatch.from_rects(rect_list)
        expected = [any(r.interior_contains_point(p) for r in rect_list)
                    for p in points]
        assert any_interior_contains(
            batch, PointBatch.from_points(points)).tolist() == expected


# ----------------------------------------------------------------------
# Rect-vs-rect kernels
# ----------------------------------------------------------------------
class TestRectKernels:
    @given(rect_lists(), rects())
    def test_intersects_matches_scalar(self, rect_list, other):
        batch = RectBatch.from_rects(rect_list)
        assert intersects(batch, other).tolist() \
            == [r.intersects(other) for r in rect_list]

    @given(rect_lists(), rects())
    def test_interior_intersects_matches_scalar(self, rect_list, other):
        batch = RectBatch.from_rects(rect_list)
        assert interior_intersects(batch, other).tolist() \
            == [r.interior_intersects(other) for r in rect_list]

    @given(rect_lists(), rects())
    def test_clip_matches_scalar_intersection(self, rect_list, bounds):
        clipped, valid = clip(RectBatch.from_rects(rect_list), bounds)
        for index, rect in enumerate(rect_list):
            hole = rect.intersection(bounds)
            assert bool(valid[index]) == (hole is not None)
            if hole is not None:
                assert clipped.rect(index) == hole

    @given(rect_lists(), rects())
    def test_rects_feq_matches_scalar_four_way(self, rect_list, other):
        batch = RectBatch.from_rects(rect_list)
        expected = [feq(r.min_x, other.min_x) and feq(r.min_y, other.min_y)
                    and feq(r.max_x, other.max_x)
                    and feq(r.max_y, other.max_y) for r in rect_list]
        assert rects_feq(batch, other).tolist() == expected


# ----------------------------------------------------------------------
# Run scanning
# ----------------------------------------------------------------------
class TestRunScanning:
    @given(rects(), point_lists(),
           st.integers(min_value=0, max_value=32))
    def test_first_outside_matches_scalar_scan(self, rect, points, start):
        start = min(start, len(points))
        batch = PointBatch.from_points(points)
        expected = next((index for index in range(start, len(points))
                         if not rect.contains_point(points[index])),
                        len(points))
        assert first_outside(rect, batch, start) == expected

    @given(st.lists(st.booleans(), min_size=0, max_size=300),
           st.integers(min_value=0, max_value=300))
    def test_first_violation_matches_flag_list(self, flags, start):
        start = min(start, len(flags))
        array = np.asarray(flags, dtype=np.bool_)
        expected = next((index for index in range(start, len(flags))
                         if not flags[index]), len(flags))
        assert first_violation(lambda i, j: array[i:j],
                               len(flags), start) == expected


# ----------------------------------------------------------------------
# EPS boundaries
# ----------------------------------------------------------------------
class TestEpsBoundaries:
    """The regression the array comparison forms exist to prevent.

    Before ``feq_array``/``fzero_array``, a vectorized caller would have
    spelled its own tolerance; a kernel whose epsilon drifted from
    ``eps.EPS`` flips verdicts for pairs within one ulp of the
    tolerance.  These cases sit exactly on that edge.
    """

    # Exactly EPS apart is equal; one ulp beyond is not.
    KNIFE_EDGE = (0.0, EPS, -EPS, float(np.nextafter(EPS, 1.0)),
                  float(np.nextafter(EPS, 0.0)), 2.0 * EPS, 1.0, -1.0)

    def test_feq_array_agrees_with_feq_on_the_edge(self):
        values = np.asarray(self.KNIFE_EDGE, dtype=np.float64)
        for reference in self.KNIFE_EDGE:
            assert feq_array(values, reference).tolist() \
                == [feq(value, reference) for value in self.KNIFE_EDGE]

    def test_fzero_array_agrees_with_fzero_on_the_edge(self):
        values = np.asarray(self.KNIFE_EDGE, dtype=np.float64)
        assert fzero_array(values).tolist() \
            == [fzero(value) for value in self.KNIFE_EDGE]

    def test_exactly_eps_is_equal_and_one_ulp_beyond_is_not(self):
        assert feq(EPS, 0.0)
        assert not feq(float(np.nextafter(EPS, 1.0)), 0.0)
        verdicts = feq_array(
            np.asarray([EPS, float(np.nextafter(EPS, 1.0))]), 0.0)
        assert verdicts.tolist() == [True, False]

    @given(st.lists(coords, min_size=0, max_size=32), coords)
    def test_feq_array_matches_scalar_everywhere(self, values, reference):
        array = np.asarray(values, dtype=np.float64)
        assert feq_array(array, reference).tolist() \
            == [feq(value, reference) for value in values]

    @given(st.lists(coords, min_size=0, max_size=32))
    def test_fzero_array_matches_scalar_everywhere(self, values):
        array = np.asarray(values, dtype=np.float64)
        assert fzero_array(array).tolist() \
            == [fzero(value) for value in values]


class TestCellEdgeBoundaries:
    """Points exactly on ratio-split cell edges: kernel == scalar.

    Grid and pyramid cells are built as ``min + extent * k / n``; a
    point placed by the same arithmetic lands bit-exactly on the shared
    edge of two cells, the spot where any drift between the scalar and
    array comparison order would show.
    """

    def test_contains_on_every_grid_edge(self):
        base = Rect(-3.0, 2.0, 1097.0, 902.0)
        columns, rows = 7, 5
        edge_points = []
        for k in range(columns + 1):
            x = base.min_x + base.width * k / columns
            for j in range(rows + 1):
                y = base.min_y + base.height * j / rows
                edge_points.append(Point(x, y))
        batch = PointBatch.from_points(edge_points)
        for cell in base.grid_split(columns, rows):
            assert contains(cell, batch).tolist() \
                == [cell.contains_point(p) for p in edge_points]
            assert interior_contains(cell, batch).tolist() \
                == [cell.interior_contains_point(p) for p in edge_points]

    def test_corners_of_the_rect_itself(self):
        rect = Rect(10.0, 20.0, 30.0, 40.0)
        corners = [Point(rect.min_x, rect.min_y),
                   Point(rect.max_x, rect.min_y),
                   Point(rect.min_x, rect.max_y),
                   Point(rect.max_x, rect.max_y)]
        batch = PointBatch.from_points(corners)
        assert contains(rect, batch).tolist() == [True] * 4
        assert interior_contains(rect, batch).tolist() == [False] * 4
