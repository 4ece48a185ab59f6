"""Differential suite: packed safe-region kernels vs their scalar oracles.

The batch mode's correctness story is that every kernel in
:mod:`repro.saferegion.packed` reproduces one scalar code path bit for
bit; this module holds each pairing to it.  The bitstring codec is
checked against the serialized pyramid bitmaps it packs, the batch
probe against :meth:`PyramidBitmap.probe` verdict-and-count (built and
decoded bitmaps alike), the silent-run scanner against a literal
per-sample replay of the strategy's scalar loop, and the MWPSR
quadrant skyline against the computer's own candidate generation —
including a full ``compute(batched=True)`` vs scalar comparison above
the gate threshold, where the array path actually engages.
"""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.geometry.batch import PointBatch, RectBatch
from repro.index import Pyramid
from repro.saferegion.bitmap import (BitmapSafeRegion, build_pyramid_bitmap,
                                     decode_bitstring)
from repro.saferegion.mwpsr import (_BATCH_MIN_OBSTACLES, _QUADRANT_SIGNS,
                                    MWPSRComputer)
from repro.saferegion.packed import (_SCALAR_PREFIX, PackedBitmap,
                                     bitmap_silent_run, pack_bitstring,
                                     popcount, probe_for, quadrant_skyline,
                                     unpack_bitstring)

bitstrings = st.text(alphabet="01", min_size=0, max_size=300)


# ----------------------------------------------------------------------
# Fixtures: busy pyramids and point populations
# ----------------------------------------------------------------------
BASE = Rect(0.0, 0.0, 900.0, 900.0)


def _obstacles(rng, count=24):
    rects = []
    for _ in range(count):
        x = rng.uniform(0.0, 850.0)
        y = rng.uniform(0.0, 850.0)
        side = rng.uniform(20.0, 120.0)
        rects.append(Rect(x, y, x + side, y + side))
    return rects


def _probe_points(rng, count=400):
    """Random points over (and just beyond) the base, plus exact edges.

    The appended points sit bit-exactly on level-2 cell edges — the
    locate arithmetic's knife edge, where a drifted reimplementation
    would round a point into the neighbouring cell.
    """
    points = [Point(rng.uniform(-10.0, 910.0), rng.uniform(-10.0, 910.0))
              for _ in range(count)]
    for k in range(10):
        edge = BASE.min_x + BASE.width * k / 9
        points.append(Point(edge, BASE.min_y + BASE.height * k / 9))
        points.append(Point(edge, 450.0))
    return points


# ----------------------------------------------------------------------
# Bitstring codec
# ----------------------------------------------------------------------
class TestBitstringCodec:
    @given(bitstrings)
    def test_roundtrip_and_popcount(self, bits):
        words, bit_length = pack_bitstring(bits)
        assert bit_length == len(bits)
        assert unpack_bitstring(words, bit_length) == bits
        assert popcount(words) == bits.count("1")

    @given(bitstrings)
    def test_word_layout_is_little_endian_64(self, bits):
        words, _ = pack_bitstring(bits)
        assert int(words.size) == -(-len(bits) // 64)
        for index, char in enumerate(bits):
            bit = (int(words[index // 64]) >> (index % 64)) & 1
            assert bit == int(char)

    def test_rejects_non_binary_characters(self):
        with pytest.raises(ValueError):
            pack_bitstring("0102")

    def test_unpack_rejects_overlong_bit_length(self):
        words, bit_length = pack_bitstring("1010")
        with pytest.raises(ValueError):
            unpack_bitstring(words, int(words.size) * 64 + 1)


# ----------------------------------------------------------------------
# Batch probes
# ----------------------------------------------------------------------
class TestProbeDifferential:
    @pytest.mark.parametrize("height", (1, 2, 4))
    def test_packed_probe_matches_eager_bitmap(self, height):
        rng = random.Random(height)
        pyramid = Pyramid(BASE, height=height)
        built = build_pyramid_bitmap(pyramid, _obstacles(rng))
        # the client's view: every 0-cell explicit, decoded from the wire
        bitmap = decode_bitstring(pyramid, built.to_bitstring())
        packed = PackedBitmap(bitmap)
        points = _probe_points(rng)
        inside, probes = packed.probe_batch(PointBatch.from_points(points))
        assert [(bool(i), int(n))
                for i, n in zip(inside.tolist(), probes.tolist())] \
            == [bitmap.probe(p) for p in points]

    @pytest.mark.parametrize("height", (1, 2, 4))
    def test_lazy_probe_matches_lazy_bitmap(self, height):
        """Covered subtrees (never enumerated) probe as all-zero."""
        rng = random.Random(10 + height)
        obstacles = _obstacles(rng) + [Rect(0.0, 0.0, 700.0, 400.0)]
        bitmap = build_pyramid_bitmap(Pyramid(BASE, height=height),
                                      obstacles)
        assert height == 1 or any(bitmap.covered)
        probe = PackedBitmap(bitmap)
        points = _probe_points(rng)
        inside, probes = probe.probe_batch(PointBatch.from_points(points))
        assert [(bool(i), int(n))
                for i, n in zip(inside.tolist(), probes.tolist())] \
            == [bitmap.probe(p) for p in points]

    def test_lazy_probe_with_no_obstacles(self):
        probe = PackedBitmap(build_pyramid_bitmap(Pyramid(BASE, height=2),
                                                  []))
        points = [Point(1.0, 1.0), Point(-5.0, 3.0), Point(899.0, 899.0)]
        inside, probes = probe.probe_batch(PointBatch.from_points(points))
        # Level 0 finds nothing relevant inside; outside is (False, 1).
        assert inside.tolist() == [True, False, True]
        assert probes.tolist() == [1, 1, 1]

    def test_probe_for_selects_kernel_and_caches_on_the_region(self):
        rng = random.Random(21)
        region = BitmapSafeRegion(build_pyramid_bitmap(
            Pyramid(BASE, height=2), _obstacles(rng)))
        probe = probe_for(region)
        assert isinstance(probe, PackedBitmap)
        assert probe.bitmap is region.bitmap
        assert probe_for(region) is probe


# ----------------------------------------------------------------------
# Silent-run scanner
# ----------------------------------------------------------------------
def _silent_run_oracle(region, cell, points, start):
    """The scalar strategy loop's view of one silent run: (stop, ops)."""
    index = start
    ops = 0
    while index < len(points):
        point = points.point(index)
        if not cell.contains_point(point):
            return index, ops
        inside, probes = region.probe(point)
        if not inside:
            return index, ops
        ops += probes
        index += 1
    return len(points), ops


class TestBitmapSilentRun:
    def _walk(self, rng, count=600):
        """A continuous random walk: long silent stretches, real exits."""
        x, y = 450.0, 450.0
        points = []
        for _ in range(count):
            x += rng.uniform(-18.0, 18.0)
            y += rng.uniform(-18.0, 18.0)
            points.append(Point(x, y))
        return points

    @pytest.mark.parametrize("lazy", (False, True))
    def test_matches_scalar_replay_over_a_whole_walk(self, lazy):
        rng = random.Random(31)
        pyramid = Pyramid(BASE, height=3)
        obstacles = _obstacles(rng, count=12)
        bitmap = build_pyramid_bitmap(pyramid, obstacles)
        if not lazy:  # the client's view: decoded from the wire bits
            bitmap = decode_bitstring(pyramid, bitmap.to_bitstring())
        region = BitmapSafeRegion(bitmap)
        points = PointBatch.from_points(self._walk(rng))
        index = 0
        runs = 0
        while index < len(points):
            expected = _silent_run_oracle(region, BASE, points, index)
            assert bitmap_silent_run(region, BASE, points, index) \
                == expected
            index = expected[0] + 1
            runs += 1
        # The walk must have produced real runs, not one degenerate scan.
        assert runs > 5

    def test_long_run_crosses_the_scalar_prefix_into_the_kernel(self):
        # No obstacles: the whole in-cell walk is one silent run far
        # longer than the scalar prefix, so the array path must carry
        # the probe accounting (one probe per sample at level 0).
        region = BitmapSafeRegion(
            build_pyramid_bitmap(Pyramid(BASE, height=2), []))
        count = _SCALAR_PREFIX * 40
        xs = np.linspace(10.0, 890.0, count)
        points = PointBatch(xs, np.full(count, 450.0))
        assert bitmap_silent_run(region, BASE, points, 0) == (count, count)

    def test_run_ending_inside_the_scalar_prefix(self):
        region = BitmapSafeRegion(
            build_pyramid_bitmap(Pyramid(BASE, height=2), []))
        points = PointBatch.from_points(
            [Point(1.0, 1.0), Point(2.0, 2.0), Point(-5.0, 0.0)])
        # Two silent samples (one probe each), then the exit — which is
        # not charged here; the scalar path reports it.
        assert bitmap_silent_run(region, BASE, points, 0) == (2, 2)


# ----------------------------------------------------------------------
# MWPSR quadrant skyline
# ----------------------------------------------------------------------
class TestQuadrantSkyline:
    def test_tension_points_match_scalar_per_quadrant(self):
        rng = random.Random(41)
        computer = MWPSRComputer()
        cell = Rect(0.0, 0.0, 1000.0, 1000.0)
        for trial in range(20):
            obstacles = _obstacles(rng, count=rng.randrange(0, 40))
            origin = Point(rng.uniform(1.0, 999.0),
                           rng.uniform(1.0, 999.0))
            batch = RectBatch.from_rects(obstacles)
            for signs in _QUADRANT_SIGNS:
                scalar = computer._quadrant_tension_points(
                    origin, cell, obstacles, signs)
                batched = computer._quadrant_tension_points(
                    origin, cell, obstacles, signs, batch)
                assert batched == scalar, (trial, signs)

    def test_skyline_kernel_handles_duplicates(self):
        # Two identical obstacles: the scalar path dedups via set();
        # the kernel's accumulate scan must drop the twin the same way.
        origin = Point(0.0, 0.0)
        rect = Rect(10.0, 20.0, 30.0, 40.0)
        batch = RectBatch.from_rects([rect, rect])
        assert quadrant_skyline(origin, batch, (1, 1), 100.0, 100.0) \
            == [(10.0, 20.0)]

    def test_full_compute_is_identical_above_the_gate(self):
        rng = random.Random(47)
        computer = MWPSRComputer()
        cell = Rect(0.0, 0.0, 1000.0, 1000.0)
        obstacles = []
        while len(obstacles) < _BATCH_MIN_OBSTACLES + 8:
            x = rng.uniform(0.0, 970.0)
            y = rng.uniform(0.0, 970.0)
            side = rng.uniform(8.0, 30.0)
            candidate = Rect(x, y, x + side, y + side)
            if not candidate.interior_contains_point(Point(500.0, 500.0)):
                obstacles.append(candidate)
        scalar = computer.compute(Point(500.0, 500.0), 0.7, cell,
                                  obstacles)
        batched = computer.compute(Point(500.0, 500.0), 0.7, cell,
                                   obstacles, batched=True)
        assert batched == scalar
