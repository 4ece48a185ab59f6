"""Reference pyramid bitmaps built cell by cell from ``Rect`` geometry.

The differential oracle for :mod:`repro.saferegion.bitmap`: the same bit
rule, evaluated the slow and obvious way — one validated
:class:`~repro.geometry.Rect` per cell from ``Pyramid.cell_rect`` and
the ``Rect`` predicates themselves, obstacles narrowed from each cell to
its children.  Three views of one rule:

* :func:`oracle_measure` — ``(bits, safe_area)`` by depth-first
  recursion with the closed form for covered subtrees;
* :func:`oracle_emission` — every emitted ``(cell, bit)`` in
  breadth-first serialization order;
* :func:`oracle_probe` — the client probe walking emitted bits from
  the root to the located leaf.
"""

from collections import deque
from typing import Dict, List, Sequence, Tuple

from repro.geometry import Point, Rect
from repro.index import Pyramid, PyramidCell

ROOT = PyramidCell(0, 0, 0)


def relevant(pyramid: Pyramid, obstacles: Sequence[Rect]) -> List[Rect]:
    return [o for o in obstacles if o.interior_intersects(pyramid.base)]


def oracle_measure(pyramid: Pyramid,
                   obstacles: Sequence[Rect]) -> Tuple[int, float]:
    """``(bit_length, safe_area)``, summed depth-first in raster order."""
    fanout = pyramid.fanout()

    def all_zero_subtree_bits(level: int) -> int:
        depth = pyramid.height - level
        return (fanout ** (depth + 1) - fanout) // (fanout - 1)

    def visit(cell: PyramidCell,
              binding_parent: List[Rect]) -> Tuple[int, float]:
        rect = pyramid.cell_rect(cell)
        binding = [o for o in binding_parent if rect.interior_intersects(o)]
        if not binding:
            return (1, rect.area)
        if cell.level == pyramid.height:
            return (1, 0.0)
        if any(o.contains_rect(rect) for o in binding):
            return (1 + all_zero_subtree_bits(cell.level), 0.0)
        bits = 1
        safe_area = 0.0
        for child in pyramid.children(cell):
            child_bits, child_area = visit(child, binding)
            bits += child_bits
            safe_area += child_area
        return (bits, safe_area)

    return visit(ROOT, relevant(pyramid, obstacles))


def oracle_emission(pyramid: Pyramid, obstacles: Sequence[Rect]
                    ) -> List[Tuple[PyramidCell, int]]:
    """Every emitted cell with its bit, in serialization order."""
    emitted: List[Tuple[PyramidCell, int]] = []
    queue = deque([(ROOT, relevant(pyramid, obstacles))])
    while queue:
        cell, binding_parent = queue.popleft()
        rect = pyramid.cell_rect(cell)
        binding = [o for o in binding_parent if rect.interior_intersects(o)]
        emitted.append((cell, 0 if binding else 1))
        if binding and cell.level < pyramid.height:
            queue.extend((child, binding)
                         for child in pyramid.children(cell))
    return emitted


def oracle_bitstring(pyramid: Pyramid, obstacles: Sequence[Rect]) -> str:
    return "".join(str(bit) for _, bit in oracle_emission(pyramid,
                                                          obstacles))


def oracle_probe(pyramid: Pyramid, bits: Dict[PyramidCell, int],
                 p: Point) -> Tuple[bool, int]:
    """Walk the emitted ``bits`` toward the leaf containing ``p``."""
    if not pyramid.base.contains_point(p):
        return (False, 1)
    probes = 0
    for level in range(pyramid.height + 1):
        probes += 1
        bit = bits.get(pyramid.locate(p, level))
        if bit is None or bit == 1:  # never emitted: an ancestor is safe
            return (True, probes)
    return (False, probes)
