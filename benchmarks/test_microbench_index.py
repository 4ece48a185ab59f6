"""Microbenchmarks: the R*-tree under the server's query mix.

Unlike the figure benches (one-shot harness timings), these are
statistical pytest-benchmark measurements of the individual operations
the alarm server performs millions of times at full scale: point
containment evaluation (every location report), interior range queries
(every safe-region computation), closed range queries and
nearest-distance probes (every safe-period computation); plus
the build-path comparison between incremental insertion and STR bulk
loading (world build uses the latter).  With ``--benchmark-disable``
each query runs once, which makes the file a fast smoke test of every
query kernel and of both build paths' ``validate()``.
"""

import random

import pytest

from repro.geometry import Point, Rect
from repro.index import RStarTree

ALARM_COUNT = 2000


def _items(seed=1, count=ALARM_COUNT):
    rng = random.Random(seed)
    items = []
    for index in range(count):
        x = rng.uniform(0, 10000)
        y = rng.uniform(0, 10000)
        side = rng.uniform(50, 250)
        items.append((index, Rect(x, y, x + side, y + side)))
    return items


@pytest.fixture(scope="module")
def tree():
    return RStarTree.bulk_load(_items(), max_entries=16)


@pytest.fixture(scope="module")
def probe_points():
    rng = random.Random(2)
    return [Point(rng.uniform(0, 10000), rng.uniform(0, 10000))
            for _ in range(256)]


def test_point_containment_query(benchmark, tree, probe_points):
    """The per-location-report evaluation (PRD does this on every fix)."""
    cycler = iter(range(10**9))

    def probe():
        p = probe_points[next(cycler) % len(probe_points)]
        return tree.search_containing(p, interior=True)

    benchmark(probe)


def test_cell_range_query(benchmark, tree, probe_points):
    """The safe-region working-set query (one per recomputation)."""
    cycler = iter(range(10**9))

    def query():
        p = probe_points[next(cycler) % len(probe_points)]
        cell = Rect(p.x - 790, p.y - 790, p.x + 790, p.y + 790)
        return tree.search_interior_intersecting(cell)

    benchmark(query)


def test_closed_range_query(benchmark, tree, probe_points):
    """The closed-intersection range query (shared edges match)."""
    cycler = iter(range(10**9))

    def query():
        p = probe_points[next(cycler) % len(probe_points)]
        return tree.search_intersecting(
            Rect(p.x - 400, p.y - 400, p.x + 400, p.y + 400))

    benchmark(query)


def test_nearest_distance_query(benchmark, tree, probe_points):
    """The safe-period bound (one per SP report)."""
    cycler = iter(range(10**9))

    def nearest():
        p = probe_points[next(cycler) % len(probe_points)]
        return tree.nearest_distance(p)

    benchmark(nearest)


def test_incremental_build(benchmark):
    items = _items(count=500)

    def build():
        tree = RStarTree(max_entries=16)
        for item, rect in items:
            tree.insert(item, rect)
        return tree

    built = benchmark(build)
    built.validate()


def test_str_bulk_load(benchmark):
    items = _items(count=500)
    built = benchmark(RStarTree.bulk_load, items, 16)
    built.validate()
