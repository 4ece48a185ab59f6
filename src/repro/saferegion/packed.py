"""Packed bitmap kernels and batched safe-region probes.

Batch-mode counterparts of the scalar safe-region machinery:

* :func:`pack_bitstring` / :func:`unpack_bitstring` / :func:`popcount`
  — the serialized pyramid bitmap as packed uint64 words instead of a
  character string, with bitwise encode/decode and population count.
* :class:`PackedBitmap` — a :class:`PyramidBitmap` flattened to one
  dense boolean array per level, probing a whole population of points
  per interpreter dispatch.
* :func:`quadrant_skyline` — the MWPSR candidate generation and
  dominance pruning (steps 1-2 of the paper's Section 3 algorithm)
  over an obstacle batch.

Every kernel reproduces its scalar oracle bit for bit: same verdicts,
same probe counts, same candidate staircases (see
``docs/VECTORIZATION.md`` for the contract and the differential tests
that enforce it).  Like :mod:`repro.geometry.batch` this module
requires numpy and is imported explicitly, keeping the scalar
safe-region package importable without it.
"""

from __future__ import annotations

from typing import List, Tuple, cast

import numpy as np
from numpy.typing import NDArray

from ..geometry.batch import (INITIAL_SCAN_BLOCK, MAX_SCAN_BLOCK, BoolArray,
                              IntArray, PointBatch, RectBatch, contains)
from ..geometry.point import Point
from ..geometry.rect import Rect
from ..index.pyramid import Pyramid
from .bitmap import BitmapSafeRegion, PyramidBitmap

WordArray = NDArray[np.uint64]

# ----------------------------------------------------------------------
# Packed words: encode / decode / popcount
# ----------------------------------------------------------------------
def pack_bitstring(bits: str) -> Tuple[WordArray, int]:
    """Pack a ``'0'``/``'1'`` string into little-endian uint64 words.

    Bit ``i`` of the serialization lands in word ``i // 64`` at bit
    position ``i % 64``.  Returns ``(words, bit_length)``; the final
    word is zero-padded.
    """
    flags = np.frombuffer(bits.encode("ascii"), dtype=np.uint8)
    if flags.size and bool(((flags != ord("0")) & (flags != ord("1"))).any()):
        raise ValueError("bitstring must contain only '0' and '1'")
    packed = np.packbits(flags - ord("0"), bitorder="little")
    padded = np.zeros(-(-packed.size // 8) * 8, dtype=np.uint8)
    padded[:packed.size] = packed
    return padded.view(np.uint64), len(bits)


def unpack_bitstring(words: WordArray, bit_length: int) -> str:
    """Inverse of :func:`pack_bitstring`."""
    if bit_length > int(words.size) * 64:
        raise ValueError("bit_length exceeds the packed words")
    flags = np.unpackbits(words.view(np.uint8),
                          bitorder="little")[:bit_length]
    return (flags + ord("0")).tobytes().decode("ascii")


def popcount(words: WordArray) -> int:
    """Total number of set bits across the packed words."""
    return int(np.bitwise_count(words).sum())


# ----------------------------------------------------------------------
# Shared level walk
# ----------------------------------------------------------------------
def _locate_level(pyramid: Pyramid, xs: NDArray[np.float64],
                  ys: NDArray[np.float64], level: int
                  ) -> Tuple[IntArray, IntArray, int, int]:
    """Vectorized ``Pyramid.locate``: per-point (col, row) at ``level``.

    Mirrors the scalar arithmetic term for term — same subtraction,
    divide, multiply order, truncation toward zero, then clamping —
    and recomputes each level independently (deriving a child from its
    parent via integer division is *not* float-exact near cell edges).
    """
    cols, rows = pyramid.grid_dims(level)
    base = pyramid.base
    col = ((xs - base.min_x) / base.width * cols).astype(np.int64)
    row = ((ys - base.min_y) / base.height * rows).astype(np.int64)
    np.clip(col, 0, cols - 1, out=col)
    np.clip(row, 0, rows - 1, out=row)
    return col, row, cols, rows


# ----------------------------------------------------------------------
# Bitmaps, packed
# ----------------------------------------------------------------------
class PackedBitmap:
    """A :class:`PyramidBitmap` in batch-probe form.

    ``levels[L]`` is a dense boolean array over every cell of level
    ``L`` (flat index ``row * cols + col``), true where the cell is 0:
    an emitted 0-cell or a descendant of a covered one.  A level of a
    whole point population is then one gather.
    """

    __slots__ = ("bitmap", "levels")

    def __init__(self, bitmap: PyramidBitmap) -> None:
        pyramid = bitmap.pyramid
        self.bitmap = bitmap
        self.levels: List[BoolArray] = []
        for level in range(pyramid.height + 1):
            cols, rows = pyramid.grid_dims(level)
            zero = np.zeros((rows, cols), dtype=np.bool_)
            zero.flat[list(bitmap.zeros[level])] = True
            for ancestor in range(level):
                step_cols, step_rows = pyramid.grid_dims(level - ancestor)
                for flat in bitmap.covered[ancestor]:
                    row, col = divmod(flat, pyramid.fan_cols ** ancestor)
                    zero[row * step_rows:(row + 1) * step_rows,
                         col * step_cols:(col + 1) * step_cols] = True
            self.levels.append(zero.ravel())

    def probe_batch(self, points: PointBatch
                    ) -> Tuple[BoolArray, IntArray]:
        """Per-point ``(inside, probes)``; :meth:`PyramidBitmap.probe`.

        Points outside the base cell report ``(False, 1)``; the rest
        walk the levels together, each point retiring at its first
        cell that is not 0, unsafe leaves costing ``height + 1`` probes
        — the scalar counts exactly.
        """
        pyramid = self.bitmap.pyramid
        count = len(points)
        inside = np.zeros(count, dtype=np.bool_)
        probes = np.ones(count, dtype=np.int64)
        active = np.flatnonzero(contains(pyramid.base, points))
        probes[active] = 0
        for level in range(pyramid.height + 1):
            if active.size == 0:
                break
            probes[active] += 1
            col, row, cols, _rows = _locate_level(
                pyramid, points.xs[active], points.ys[active], level)
            zero = self.levels[level][row * cols + col]
            inside[active[~zero]] = True
            active = active[zero]
        return inside, probes


#: Samples scanned through the scalar oracle before the array kernels
#: engage in :func:`bitmap_silent_run`.  Frequent reporters (GBSR's
#: one-level bitmaps) end most silent runs within a handful of
#: samples, where one array probe's fixed cost dwarfs the whole scalar
#: walk; a run that survives the prefix is long enough to amortize
#: packing and the per-block kernel dispatches.
_SCALAR_PREFIX = 8


def probe_for(region: BitmapSafeRegion) -> PackedBitmap:
    """The batch probe for ``region``, built once and cached on it.

    GBSR/PBSR install fresh :class:`BitmapSafeRegion` instances per
    cell entry, and one region is probed for every subsequent sample
    in the cell — caching on the region amortizes packing across the
    whole residence.
    """
    cached = region.batch_probe
    if cached is None:
        cached = PackedBitmap(region.bitmap)
        region.batch_probe = cached
    return cast(PackedBitmap, cached)


def bitmap_silent_run(region: BitmapSafeRegion, cell: Rect,
                      points: PointBatch, start: int) -> Tuple[int, int]:
    """Scan the silent run of a bitmap-strategy client.

    Returns ``(stop, ops)``: ``stop`` is the first index at/after
    ``start`` that is *not* silent — outside ``cell`` (a region exit)
    or probing unsafe (a report) — or ``len(points)`` when the trace
    ends silent.  ``ops`` is the total probe count over the silent
    prefix ``[start, stop)``, matching the scalar per-sample charges
    exactly; the non-silent sample at ``stop`` is left for the scalar
    path to handle (and charge).
    """
    length = len(points)
    index = start
    ops = 0
    # Scalar prefix: probe the first few samples through the region's
    # own (scalar) bitmap walk.  Short runs return from here without
    # ever touching numpy — or packing the bitmap at all.
    prefix_stop = min(index + _SCALAR_PREFIX, length)
    while index < prefix_stop:
        point = Point(float(points.xs[index]), float(points.ys[index]))
        if not cell.contains_point(point):
            return index, ops
        inside, probes = region.probe(point)
        if not inside:
            return index, ops
        ops += probes
        index += 1
    if index == length:
        return length, ops
    probe = probe_for(region)
    block = INITIAL_SCAN_BLOCK
    while index < length:
        stop = min(index + block, length)
        view = points.slice(index, stop)
        in_cell = contains(cell, view)
        if bool(in_cell.all()):
            limit = stop - index
        else:
            limit = int(np.argmin(in_cell))
        if limit == 0:
            return index, ops
        inside, probes = probe.probe_batch(view.slice(0, limit))
        if not bool(inside.all()):
            silent = int(np.argmin(inside))
            ops += int(probes[:silent].sum())
            return index + silent, ops
        ops += int(probes.sum())
        if limit < stop - index:
            return index + limit, ops
        index = stop
        block = min(block * 2, MAX_SCAN_BLOCK)
    return length, ops


# ----------------------------------------------------------------------
# MWPSR candidate pruning
# ----------------------------------------------------------------------
def quadrant_skyline(origin: Point, obstacles: RectBatch,
                     signs: Tuple[int, int], u_max: float,
                     v_max: float) -> List[Tuple[float, float]]:
    """Candidate generation + dominance pruning for one MWPSR quadrant.

    The batch form of steps 1-2 of ``MWPSRComputer``: per-obstacle
    local offsets via the sign-dependent subtractions, the same
    binds-in-quadrant filters, then the dominance staircase.  The
    scalar path sorts the deduplicated candidates and keeps strict
    ``v`` decreases; a running ``minimum.accumulate`` implements the
    identical scan (duplicates are harmless — a duplicate's ``v``
    never strictly undercuts its twin).  Returns the skyline as plain
    float tuples, bit-compatible with the scalar lists.
    """
    sx, sy = signs
    if sx > 0:
        u_lo = obstacles.min_xs - origin.x
        u_hi = obstacles.max_xs - origin.x
    else:
        u_lo = origin.x - obstacles.max_xs
        u_hi = origin.x - obstacles.min_xs
    if sy > 0:
        v_lo = obstacles.min_ys - origin.y
        v_hi = obstacles.max_ys - origin.y
    else:
        v_lo = origin.y - obstacles.max_ys
        v_hi = origin.y - obstacles.min_ys
    binds = ~((u_hi <= 0.0) | (v_hi <= 0.0))
    cand_u = np.maximum(u_lo, 0.0)
    cand_v = np.maximum(v_lo, 0.0)
    binds &= ~((cand_u >= u_max) | (cand_v >= v_max))
    cand_u = cand_u[binds]
    cand_v = cand_v[binds]
    if cand_u.size == 0:
        return []
    order = np.lexsort((cand_v, cand_u))
    cand_u = cand_u[order]
    cand_v = cand_v[order]
    keep = np.empty(cand_u.size, dtype=np.bool_)
    keep[0] = True
    if cand_u.size > 1:
        best_v = np.minimum.accumulate(cand_v)
        keep[1:] = cand_v[1:] < best_v[:-1]
    return list(zip(cand_u[keep].tolist(), cand_v[keep].tolist()))
