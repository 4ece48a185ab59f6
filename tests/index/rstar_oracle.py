"""Reference R*-tree traversals written with the ``Rect`` predicates.

The differential oracle for the query kernels of
:mod:`repro.index.rstar`: the same traversal — LIFO node stack, entries
in slot order, closed descent tests, best-first heap for the nearest
distance — with every comparison made by the ``Rect`` method that
defines it (``intersects``, ``interior_intersects``,
``contains_point``, ``interior_contains_point``,
``distance_to_point``).  Each query function returns the result
together with the number of nodes it visited, which the kernel must add
to ``tree.stats.node_accesses``.  ``oracle_least_overlap_child`` is the
insertion-side counterpart: R* ChooseSubtree above the leaves.
"""

import heapq
import math
from typing import Any, Callable, List, Optional, Tuple

from repro.geometry import Point, Rect
from repro.index import RStarTree

Predicate = Optional[Callable[[Any], bool]]


def oracle_intersecting(tree: RStarTree, rect: Rect,
                        predicate: Predicate = None
                        ) -> Tuple[List[Any], int]:
    results: List[Any] = []
    accesses = 0
    stack = [tree._root]
    while stack:
        node = stack.pop()
        accesses += 1
        for entry in node.entries:
            if not entry.rect.intersects(rect):
                continue
            if node.leaf:
                if predicate is None or predicate(entry.item):
                    results.append(entry.item)
            else:
                stack.append(entry.child)
    return results, accesses


def oracle_interior_intersecting(tree: RStarTree, rect: Rect,
                                 predicate: Predicate = None
                                 ) -> Tuple[List[Any], int]:
    results: List[Any] = []
    accesses = 0
    stack = [tree._root]
    while stack:
        node = stack.pop()
        accesses += 1
        for entry in node.entries:
            if node.leaf:
                if entry.rect.interior_intersects(rect) and (
                        predicate is None or predicate(entry.item)):
                    results.append(entry.item)
            elif entry.rect.intersects(rect):
                stack.append(entry.child)
    return results, accesses


def oracle_containing(tree: RStarTree, point: Point,
                      predicate: Predicate = None,
                      interior: bool = False) -> Tuple[List[Any], int]:
    results: List[Any] = []
    accesses = 0
    stack = [tree._root]
    while stack:
        node = stack.pop()
        accesses += 1
        for entry in node.entries:
            if not entry.rect.contains_point(point):
                continue
            if node.leaf:
                if interior and not entry.rect.interior_contains_point(
                        point):
                    continue
                if predicate is None or predicate(entry.item):
                    results.append(entry.item)
            else:
                stack.append(entry.child)
    return results, accesses


def oracle_nearest_distance(tree: RStarTree, point: Point,
                            predicate: Predicate = None
                            ) -> Tuple[float, int]:
    best = math.inf
    accesses = 0
    counter = 0
    heap: List[Tuple[float, int, Any]] = [(0.0, counter, tree._root)]
    while heap:
        lower_bound, _, node = heapq.heappop(heap)
        if lower_bound >= best:
            break
        accesses += 1
        for entry in node.entries:
            distance = entry.rect.distance_to_point(point)
            if distance >= best:
                continue
            if node.leaf:
                if predicate is None or predicate(entry.item):
                    best = distance
            else:
                counter += 1
                heapq.heappush(heap, (distance, counter, entry.child))
    return best, accesses


def oracle_least_overlap_child(node: Any, rect: Rect) -> Any:
    """R* ChooseSubtree above the leaves, written with ``Rect`` methods."""
    best = None
    best_key = (math.inf, math.inf, math.inf)
    for entry in node.entries:
        enlarged = entry.rect.union(rect)
        overlap_before = 0.0
        overlap_after = 0.0
        for other in node.entries:
            if other is entry:
                continue
            overlap_before += entry.rect.intersection_area(other.rect)
            overlap_after += enlarged.intersection_area(other.rect)
        key = (overlap_after - overlap_before,
               entry.rect.enlargement(rect),
               entry.rect.area)
        if key < best_key:
            best_key = key
            best = entry
    return best
