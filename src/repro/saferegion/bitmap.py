"""Bitmap-encoded safe regions (paper Section 4).

A bitmap encoded safe region (BSR) represents the safe region of a grid
cell as a hierarchy of bits over a pyramid decomposition: bit 1 means the
cell belongs entirely to the safe region (it intersects no relevant alarm
region), bit 0 means it does not, and — below the pyramid's maximum
height — 0-cells are split into ``U x V`` children that get bits of their
own.

Serialization (the wire format whose length is the paper's *bitmap size*
metric): the root bit first, then the children of every 0-cell in
breadth-first emission order, each child block in raster-scan order (top
row first, left to right).  This reproduces the paper's Fig. 3 numbers
exactly — 82 bits for the 9x9 GBSR of Fig. 3(c), 64 bits for the
height-2 PBSR of Fig. 3(d) — which the test suite asserts.

The client-side containment probe needs only the bits along the path
from the root to the leaf containing its position: O(h) bit probes per
position fix, the paper's "predefined worst-case number of computations".

Representation: cells are addressed by integer index, ``row * cols +
col`` within their level (Samet's pyramid).  A :class:`PyramidBitmap`
holds, per level, the set of emitted 0-cells and the subset of those
that are *covered* — inside one alarm region, so their whole subtree is
0 and is never enumerated.  Building, sizing, serializing, decoding
and probing all read and write this one structure.

The bit rule: a cell is 0 when its interior meets an obstacle that also
meets every ancestor of the cell; obstacles are narrowed from parent to
child.  Ratio edges do not nest across levels (see
:meth:`~repro.index.Pyramid.edges`), so this differs from testing every
obstacle at every cell on knife-edge inputs; the narrowed rule is the
one the wire accounting was pinned with.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..geometry import Point, Rect
from ..index import Pyramid
from .base import SafeRegion

#: Per-level index sets: ``levels[L]`` holds flat cell indices of level L.
LevelSets = List[Set[int]]


class PyramidBitmap:
    """Bit assignment over a pyramid decomposition of one base cell.

    ``zeros[L]`` holds the flat indices (``row * cols + col``) of the
    emitted 0-cells at level ``L``; ``covered[L]`` the subset whose
    descendants are all 0 without being stored.  Any other cell with no
    covered ancestor is either an emitted 1-cell or was never emitted
    because an ancestor is safe — both are part of the safe region.
    ``bit_length`` and ``coverage`` are computed on construction.
    """

    __slots__ = ("pyramid", "zeros", "covered", "_covered_levels",
                 "_bit_length", "_safe_area")

    def __init__(self, pyramid: Pyramid, zeros: LevelSets,
                 covered: LevelSets) -> None:
        self.pyramid = pyramid
        self.zeros = zeros
        self.covered = covered
        self._covered_levels = tuple(level for level, cells
                                     in enumerate(covered) if cells)
        self._bit_length = self._count_bits()
        self._safe_area = self._measure_area()

    # ------------------------------------------------------------------
    # Size and serialization
    # ------------------------------------------------------------------
    def bit_length(self) -> int:
        """Number of bits in the serialized representation."""
        return self._bit_length

    def _count_bits(self) -> int:
        fanout = self.pyramid.fanout()
        bits = 1
        for level in range(self.pyramid.height):
            covered = len(self.covered[level])
            # a covered cell's all-zero subtree: fanout**1..fanout**depth
            depth = self.pyramid.height - level
            subtree = (fanout ** (depth + 1) - fanout) // (fanout - 1)
            bits += fanout * (len(self.zeros[level]) - covered) \
                + covered * subtree
        return bits

    def to_bitstring(self) -> str:
        """The serialized bitmap as a string of '0'/'1' characters."""
        chunks: List[str] = []
        for level, segments in _emission(self.pyramid, self.zeros,
                                         self.covered):
            zeros = self.zeros[level]
            for segment in segments:
                if segment < 0:
                    chunks.append("0" * -segment)
                else:
                    chunks.append("0" if segment in zeros else "1")
        return "".join(chunks)

    # ------------------------------------------------------------------
    # Containment
    # ------------------------------------------------------------------
    def probe(self, p: Point) -> Tuple[bool, int]:
        """Is ``p`` inside the safe region?  Returns ``(inside, probes)``.

        Walks from the root toward the leaf containing ``p``, stopping at
        the first cell that is not 0 (inside) or after an unsafe leaf
        (outside).  Each level locates ``p`` afresh with
        :meth:`Pyramid.locate`'s arithmetic.  The probe count is the
        number of levels examined — worst case ``height + 1``.
        """
        pyramid = self.pyramid
        base = pyramid.base
        if not base.contains_point(p):
            return (False, 1)
        fx = (p.x - base.min_x) / base.width
        fy = (p.y - base.min_y) / base.height
        zeros = self.zeros
        fan_cols = pyramid.fan_cols
        fan_rows = pyramid.fan_rows
        cols = rows = 1
        for level in range(pyramid.height + 1):
            col = int(fx * cols)
            row = int(fy * rows)
            if col >= cols:
                col = cols - 1
            if row >= rows:
                row = rows - 1
            if (row * cols + col not in zeros[level]
                    and not self._under_covered(level, col, row)):
                return (True, level + 1)
            cols *= fan_cols
            rows *= fan_rows
        return (False, pyramid.height + 1)

    def _under_covered(self, level: int, col: int, row: int) -> bool:
        """Is cell ``(col, row)`` of ``level`` below a covered cell?"""
        pyramid = self.pyramid
        for ancestor in self._covered_levels:
            if ancestor >= level:
                break
            depth = level - ancestor
            flat = ((row // pyramid.fan_rows ** depth)
                    * pyramid.fan_cols ** ancestor
                    + col // pyramid.fan_cols ** depth)
            if flat in self.covered[ancestor]:
                return True
        return False

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def coverage(self) -> float:
        """The paper's coverage metric ``eta``: safe area / cell area."""
        return self._safe_area / self.pyramid.base.area

    def _measure_area(self) -> float:
        """Safe area, summed depth-first over children in raster order."""
        pyramid = self.pyramid
        height = pyramid.height
        fan_cols = pyramid.fan_cols
        fan_rows = pyramid.fan_rows
        edges = [pyramid.edges(level) for level in range(height + 1)]
        zeros = self.zeros
        covered = self.covered

        def split_area(level: int, col: int, row: int) -> float:
            """Area of the safe descendants of a split 0-cell."""
            level += 1
            xs, ys = edges[level]
            cols = len(xs) - 1
            level_zeros = zeros[level]
            first_col = col * fan_cols
            area = 0.0
            for child_row in range(row * fan_rows + fan_rows - 1,
                                   row * fan_rows - 1, -1):
                tall = ys[child_row + 1] - ys[child_row]
                for child_col in range(first_col, first_col + fan_cols):
                    flat = child_row * cols + child_col
                    if flat not in level_zeros:
                        area += (xs[child_col + 1] - xs[child_col]) * tall
                    elif level < height and flat not in covered[level]:
                        area += split_area(level, child_col, child_row)
            return area

        if 0 in covered[0]:
            return 0.0
        if 0 not in zeros[0]:
            xs, ys = edges[0]
            return (xs[1] - xs[0]) * (ys[1] - ys[0])
        return split_area(0, 0, 0)


def _emission(pyramid: Pyramid, zeros: LevelSets, covered: LevelSets
              ) -> Iterator[Tuple[int, List[int]]]:
    """Per level, the emitted cells in serialization order.

    A segment ``s >= 0`` is the explicit cell with flat index ``s``;
    ``s < 0`` is a run of ``-s`` implicit 0-cells under covered
    ancestors.  Each level's ``zeros``/``covered`` are read only after
    its segments were yielded, so a decoder can fill them in between.
    """
    fanout = pyramid.fanout()
    segments = [0]
    for level in range(pyramid.height + 1):
        yield level, segments
        if level == pyramid.height:
            return
        following: List[int] = []
        for segment in segments:
            if segment < 0:
                _append_run(following, segment * fanout)
            elif segment in covered[level]:
                _append_run(following, -fanout)
            elif segment in zeros[level]:
                following.extend(_children(pyramid, level, segment))
        segments = following


def _append_run(segments: List[int], run: int) -> None:
    """Append a run (negative length), merging it into a preceding run."""
    if segments and segments[-1] < 0:
        segments[-1] += run
    else:
        segments.append(run)


def _children(pyramid: Pyramid, level: int, flat: int) -> List[int]:
    """Flat indices of a cell's children, in raster-scan order."""
    fan_cols = pyramid.fan_cols
    fan_rows = pyramid.fan_rows
    row, col = divmod(flat, fan_cols ** level)
    child_cols = fan_cols ** (level + 1)
    first_col = col * fan_cols
    first_row = row * fan_rows
    return [child_row * child_cols + child_col
            for child_row in range(first_row + fan_rows - 1,
                                   first_row - 1, -1)
            for child_col in range(first_col, first_col + fan_cols)]


def _axis_spans(edges: List[float], low: float, high: float
                ) -> Tuple[int, int, int, int]:
    """Cell ranges along one axis for the interval ``[low, high]``.

    ``(first, last, inner_first, inner_last)``: cells ``first..last``
    have ``edges[c] < high and low < edges[c + 1]`` (as
    :meth:`Rect.interior_intersects`), cells ``inner_first..inner_last``
    have ``low <= edges[c] and edges[c + 1] <= high`` (as
    :meth:`Rect.contains_rect`).  Bisecting the exact edge floats gives
    the float comparisons' verdicts.
    """
    return (max(bisect_right(edges, low) - 1, 0),
            min(bisect_left(edges, high) - 1, len(edges) - 2),
            bisect_left(edges, low),
            bisect_right(edges, high) - 2)


def build_pyramid_bitmap(pyramid: Pyramid,
                         obstacles: Sequence[Rect]) -> PyramidBitmap:
    """Assign bits over ``pyramid`` for the given alarm ``obstacles``.

    A cell is safe (bit 1) iff its interior meets no obstacle that binds
    its parent; 0-cells above the maximum level are split, except
    covered ones (inside one binding obstacle), whose subtree is all 0.
    Interior tests mean an alarm merely touching a cell edge does not
    poison the cell — consistent with interior-containment trigger
    semantics.

    Works level by level on index ranges: each obstacle's span of
    touched and contained cells per level is bisected once from the
    level's edge table, and every cell verdict is an integer comparison.
    """
    rects = [obstacle for obstacle in obstacles
             if obstacle.interior_intersects(pyramid.base)]
    height = pyramid.height
    fan_cols = pyramid.fan_cols
    fan_rows = pyramid.fan_rows
    zeros: LevelSets = [set() for _ in range(height + 1)]
    covered: LevelSets = [set() for _ in range(height + 1)]
    # Blocks of sibling cells to classify: (col range, row range, the
    # obstacles binding their parent).  Level 0's block is the root.
    blocks: List[Tuple[int, int, int, int, List[int]]] = [
        (0, 0, 0, 0, list(range(len(rects))))]
    for level in range(height + 1):
        xs, ys = pyramid.edges(level)
        cols = len(xs) - 1
        leaf = level == height
        level_zeros = zeros[level]
        # obstacle -> its x then y spans (see _axis_spans) at this level
        spans: Dict[int, Tuple[int, ...]] = {}
        following: List[Tuple[int, int, int, int, List[int]]] = []
        for first_col, last_col, first_row, last_row, binding in blocks:
            hits: Dict[int, List[int]] = {}
            inside: Set[int] = set()
            for index in binding:
                span = spans.get(index)
                if span is None:
                    rect = rects[index]
                    span = (_axis_spans(xs, rect.min_x, rect.max_x)
                            + _axis_spans(ys, rect.min_y, rect.max_y))
                    spans[index] = span
                x_lo, x_hi, x_in, x_out, y_lo, y_hi, y_in, y_out = span
                # clip to the block (conditionals beat min/max calls)
                col_lo = x_lo if x_lo > first_col else first_col
                col_hi = x_hi if x_hi < last_col else last_col
                row_lo = y_lo if y_lo > first_row else first_row
                row_hi = y_hi if y_hi < last_row else last_row
                if col_lo > col_hi or row_lo > row_hi:
                    continue
                if leaf:
                    # leaves only need their bit: no binding lists
                    for row in range(row_lo, row_hi + 1):
                        offset = row * cols
                        level_zeros.update(range(offset + col_lo,
                                                 offset + col_hi + 1))
                    continue
                for row in range(row_lo, row_hi + 1):
                    offset = row * cols
                    for flat in range(offset + col_lo, offset + col_hi + 1):
                        found = hits.get(flat)
                        if found is None:
                            hits[flat] = [index]
                        else:
                            found.append(index)
                if x_in > x_out or y_in > y_out:
                    continue  # contains no cell of this level
                for row in range(max(y_in, row_lo), min(y_out, row_hi) + 1):
                    offset = row * cols
                    inside.update(range(offset + max(x_in, col_lo),
                                        offset + min(x_out, col_hi) + 1))
            level_zeros.update(hits)
            for flat, child_binding in hits.items():
                if flat in inside:
                    covered[level].add(flat)
                    continue
                row, col = divmod(flat, cols)
                following.append((col * fan_cols,
                                  col * fan_cols + fan_cols - 1,
                                  row * fan_rows,
                                  row * fan_rows + fan_rows - 1,
                                  child_binding))
        blocks = following
    return PyramidBitmap(pyramid, zeros, covered)


def decode_bitstring(pyramid: Pyramid, bitstring: str) -> PyramidBitmap:
    """Reconstruct a :class:`PyramidBitmap` from its serialized form.

    Inverse of :meth:`PyramidBitmap.to_bitstring`; raises ``ValueError``
    when the string is not binary or its length does not match the
    pyramid's split schedule.  Every 0-cell of the string is stored
    explicitly (the wire does not say which subtrees were covered).
    """
    if bitstring.strip("01"):
        raise ValueError("bitstring must contain only '0' and '1'")
    zeros: LevelSets = [set() for _ in range(pyramid.height + 1)]
    covered: LevelSets = [set() for _ in range(pyramid.height + 1)]
    cursor = 0
    for level, segments in _emission(pyramid, zeros, covered):
        end = cursor + len(segments)
        if end > len(bitstring):
            raise ValueError("bitstring too short for the pyramid")
        zeros[level].update(flat for flat, bit
                            in zip(segments, bitstring[cursor:end])
                            if bit == "0")
        cursor = end
    if cursor != len(bitstring):
        raise ValueError("bitstring longer than the pyramid requires")
    return PyramidBitmap(pyramid, zeros, covered)


class BitmapSafeRegion(SafeRegion):
    """A pyramid bitmap in the role of a client safe region."""

    __slots__ = ("bitmap", "batch_probe")

    def __init__(self, bitmap: PyramidBitmap) -> None:
        self.bitmap = bitmap
        # Populated on demand by repro.saferegion.packed.probe_for —
        # the batch-mode probe kernel, cached here so packing amortizes
        # over the region's lifetime.  Typed loosely to keep this
        # module import-independent of the numpy-backed kernels.
        self.batch_probe: Optional[object] = None

    def probe(self, p: Point) -> Tuple[bool, int]:
        return self.bitmap.probe(p)

    def size_bits(self) -> int:
        return self.bitmap.bit_length()

    def area(self) -> float:
        return self.bitmap.coverage() * self.bitmap.pyramid.base.area

    def __repr__(self) -> str:
        return ("BitmapSafeRegion(height=%d, bits=%d)"
                % (self.bitmap.pyramid.height, self.bitmap.bit_length()))
