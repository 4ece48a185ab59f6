"""Differential test: the flat R*-tree query kernels against the oracle.

``RStarTree``'s query kernels inline the ``Rect`` comparisons on
hoisted query coordinates.  For any tree — grown by R* insertion or
packed by STR, any fan-out — every kernel must return the oracle's
result list *in the same order*, add the oracle's visit count to
``stats.node_accesses``, and ``nearest_distance`` must be bit-equal.
The inlined least-overlap ChooseSubtree must pick the oracle's entry,
so trees grow exactly as they did with the ``Rect``-method form.
Items sit on a coarse lattice so shared edges, shared corners and
degenerate (zero-width or zero-height) rectangles are common, and
queries are drawn from item corners and edges as well as at random.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.index import RStarTree
from repro.index.rstar import _Entry, _Node

from .rstar_oracle import (oracle_containing, oracle_interior_intersecting,
                           oracle_intersecting, oracle_least_overlap_child,
                           oracle_nearest_distance)

lattice = st.integers(min_value=-4, max_value=40).map(lambda k: k * 2.5)
extent = st.sampled_from([0.0, 0.0, 2.5, 5.0, 7.5, 12.5, 30.0])
free = st.floats(min_value=-20.0, max_value=120.0, allow_nan=False,
                 allow_infinity=False)


@st.composite
def rects(draw, coordinate=lattice):
    x = draw(coordinate)
    y = draw(coordinate)
    return Rect(x, y, x + draw(extent), y + draw(extent))


@st.composite
def trees(draw):
    """``(tree, items)`` built incrementally or by STR."""
    regions = draw(st.lists(rects(), max_size=90))
    items = list(enumerate(regions))
    max_entries = draw(st.integers(min_value=4, max_value=16))
    if draw(st.booleans()):
        tree = RStarTree.bulk_load(items, max_entries=max_entries)
    else:
        tree = RStarTree(max_entries=max_entries)
        for item, rect in items:
            tree.insert(item, rect)
    tree.validate()
    return tree, items


@st.composite
def query_points(draw, items):
    """Random points, plus corners and edge points of item regions."""
    if items and draw(st.booleans()):
        rect = draw(st.sampled_from(items))[1]
        x = draw(st.sampled_from([rect.min_x, rect.max_x,
                                  rect.center.x]))
        y = draw(st.sampled_from([rect.min_y, rect.max_y,
                                  rect.center.y]))
        return Point(x, y)
    coordinate = draw(st.sampled_from([lattice, free]))
    return Point(draw(coordinate), draw(coordinate))


@st.composite
def query_rects(draw, items):
    """Random, item-touching and degenerate query rectangles."""
    kind = draw(st.sampled_from(["lattice", "free", "touch", "point"]))
    if kind == "touch" and items:
        rect = draw(st.sampled_from(items))[1]
        width = draw(extent)
        # Abut the item's right edge: a shared edge, or a shared corner
        # when the item is degenerate.
        return Rect(rect.max_x, rect.min_y, rect.max_x + width, rect.max_y)
    if kind == "point":
        p = draw(query_points(items))
        return Rect.point_rect(p)
    return draw(rects(free if kind == "free" else lattice))


predicates = st.sampled_from([None, lambda item: item % 2 == 0,
                              lambda item: item % 3 != 1])


def _measured(tree, kernel, *args, **kwargs):
    """``(result, node accesses)`` of one kernel call on ``tree``."""
    before = tree.stats.node_accesses
    result = getattr(tree, kernel)(*args, **kwargs)
    return result, tree.stats.node_accesses - before


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_containing_matches_oracle(data):
    tree, items = data.draw(trees())
    predicate = data.draw(predicates)
    for _ in range(8):
        point = data.draw(query_points(items))
        for interior in (False, True):
            observed = _measured(tree, "search_containing", point,
                                 predicate=predicate, interior=interior)
            assert observed == oracle_containing(tree, point, predicate,
                                                 interior)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_intersecting_matches_oracle(data):
    tree, items = data.draw(trees())
    predicate = data.draw(predicates)
    for _ in range(8):
        rect = data.draw(query_rects(items))
        assert _measured(tree, "search_intersecting", rect,
                         predicate=predicate) == oracle_intersecting(
                             tree, rect, predicate)
        assert _measured(tree, "search_interior_intersecting", rect,
                         predicate=predicate) == \
            oracle_interior_intersecting(tree, rect, predicate)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_nearest_distance_bit_equal(data):
    tree, items = data.draw(trees())
    predicate = data.draw(predicates)
    for _ in range(8):
        point = data.draw(query_points(items))
        distance, accesses = _measured(tree, "nearest_distance", point,
                                       predicate=predicate)
        expected, expected_accesses = oracle_nearest_distance(
            tree, point, predicate)
        assert distance.hex() == expected.hex()
        assert accesses == expected_accesses


class OracleChooseSubtreeTree(RStarTree):
    _least_overlap_child = staticmethod(oracle_least_overlap_child)


def _shape(node):
    if node.leaf:
        return [(entry.item, entry.rect) for entry in node.entries]
    return [(entry.rect, _shape(entry.child)) for entry in node.entries]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_least_overlap_child_matches_oracle(data):
    entries = [_Entry(rect) for rect in data.draw(
        st.lists(rects(), min_size=1, max_size=17))]
    node = _Node(leaf=False)
    node.entries = entries
    for _ in range(8):
        rect = data.draw(query_rects([(None, e.rect) for e in entries]))
        assert RStarTree._least_overlap_child(node, rect) is \
            oracle_least_overlap_child(node, rect)


@settings(max_examples=60, deadline=None)
@given(st.lists(rects(), max_size=120),
       st.integers(min_value=4, max_value=16))
def test_insertion_grows_the_oracle_tree(regions, max_entries):
    grown = RStarTree(max_entries=max_entries)
    reference = OracleChooseSubtreeTree(max_entries=max_entries)
    for item, rect in enumerate(regions):
        grown.insert(item, rect)
        reference.insert(item, rect)
    assert _shape(grown._root) == _shape(reference._root)
    assert grown.stats == reference.stats
