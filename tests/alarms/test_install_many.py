"""Bulk installation: ``install_many`` against sequential ``install``.

World build installs every alarm in one STR-packed batch.  The batch
must be indistinguishable from the one-at-a-time path it replaced —
same ids, same alarm fields, same listener calls, same query answers —
with only the index layout (and so its node-access counts) allowed to
differ.  The reference registry routes ``install_many`` back through
``install``, so the workload generators and the file loader drive both
paths with identical specs.
"""

import random

import pytest

from repro.alarms import (AlarmRegistry, AlarmScope, AlarmSpec,
                          install_clustered_alarms, install_random_alarms,
                          load_alarms, save_alarms)
from repro.geometry import Point, Rect

UNIVERSE = Rect(0, 0, 10000, 10000)
USERS = list(range(40))


class SequentialRegistry(AlarmRegistry):
    """The reference: one ``install`` (one R* insertion) per alarm."""

    def install_many(self, specs):
        return [self.install(*spec) for spec in specs]


def _recorded(registry):
    calls = []
    registry.add_listener(lambda *call: calls.append(call))
    return calls


def _random(registry):
    return install_random_alarms(registry, UNIVERSE, 600, USERS, seed=41)


def _clustered(registry):
    return install_clustered_alarms(registry, UNIVERSE, 600, USERS,
                                    seed=42)


def _round_trip(path):
    source = AlarmRegistry()
    _random(source)
    source.install(Rect(10, 10, 90, 90), AlarmScope.SHARED, 3,
                   subscribers=[4, 5], moving_target=True, label="bus")
    save_alarms(source, path)

    def load(registry):
        load_alarms(path, registry=registry)
        return registry.all_alarms()

    return load


def _assert_same_answers(bulk, reference, seed):
    rng = random.Random(seed)
    for _ in range(300):
        user = rng.choice(USERS)
        point = Point(rng.uniform(-100, 10100), rng.uniform(-100, 10100))
        side = rng.uniform(0, 1600)
        rect = Rect(point.x, point.y, point.x + side, point.y + side)
        fired = {alarm.alarm_id for alarm in bulk.all_alarms()
                 if rng.random() < 0.05}
        assert bulk.triggered_at(user, point, fired) == \
            reference.triggered_at(user, point, fired)
        assert bulk.relevant_intersecting(user, rect, fired) == \
            reference.relevant_intersecting(user, rect, fired)
        assert bulk.nearest_relevant_distance(user, point, fired) == \
            reference.nearest_relevant_distance(user, point, fired)


@pytest.fixture(params=["random", "clustered", "load_alarms"])
def populate(request, tmp_path):
    if request.param == "random":
        return _random
    if request.param == "clustered":
        return _clustered
    return _round_trip(tmp_path / "alarms.jsonl")


class TestMatchesSequentialInstall:
    def test_same_alarms(self, populate):
        bulk, reference = AlarmRegistry(), SequentialRegistry()
        assert populate(bulk) == populate(reference)
        # dataclass equality: ids, regions, scopes, owners,
        # subscribers, moving_target and labels
        assert bulk.all_alarms() == reference.all_alarms()
        assert [a.alarm_id for a in bulk.all_alarms()] == \
            list(range(len(bulk)))
        bulk.tree.validate()
        assert len(bulk.tree) == len(bulk)

    def test_one_listener_call_per_alarm_in_id_order(self, populate):
        bulk, reference = AlarmRegistry(), SequentialRegistry()
        bulk_calls, reference_calls = _recorded(bulk), _recorded(reference)
        populate(bulk)
        populate(reference)
        assert bulk_calls == reference_calls
        assert bulk_calls == [(alarm.alarm_id, None, alarm.region)
                              for alarm in bulk.all_alarms()]

    def test_same_query_answers(self, populate):
        bulk, reference = AlarmRegistry(), SequentialRegistry()
        populate(bulk)
        populate(reference)
        _assert_same_answers(bulk, reference, seed=43)


class TestNonEmptyRegistry:
    def test_ids_continue(self):
        bulk, reference = AlarmRegistry(), SequentialRegistry()
        for registry in (bulk, reference):
            registry.install(Rect(0, 0, 500, 500), AlarmScope.PUBLIC, 1)
            registry.install(Rect(100, 100, 900, 900), AlarmScope.PRIVATE,
                             2)
            registry.remove(0)
        bulk_calls, reference_calls = _recorded(bulk), _recorded(reference)
        installed = _random(bulk)
        assert installed == _random(reference)
        assert [a.alarm_id for a in installed] == \
            list(range(2, 2 + len(installed)))
        assert bulk.all_alarms() == reference.all_alarms()
        assert bulk_calls == reference_calls
        bulk.tree.validate()
        assert len(bulk.tree) == len(bulk) == 1 + len(installed)
        _assert_same_answers(bulk, reference, seed=44)

    def test_live_updates_after_bulk_install(self):
        registry = AlarmRegistry()
        _random(registry)
        alarm = registry.install(Rect(1, 1, 5, 5), AlarmScope.PUBLIC, 1)
        assert alarm.alarm_id == 600
        assert registry.triggered_at(7, Point(3, 3)) == [alarm]
        registry.relocate(0, Rect(20, 20, 30, 30))
        assert registry.remove(alarm.alarm_id)
        registry.tree.validate()


class TestAtomicity:
    def test_invalid_spec_installs_nothing(self):
        registry = AlarmRegistry()
        calls = _recorded(registry)
        specs = [AlarmSpec(Rect(0, 0, 10, 10), AlarmScope.PUBLIC, 1),
                 AlarmSpec(Rect(5, 5, 15, 15), AlarmScope.SHARED, 1)]
        with pytest.raises(ValueError):
            registry.install_many(specs)
        assert len(registry) == 0 and len(registry.tree) == 0
        assert calls == []
        assert registry.install_many(specs[:1])[0].alarm_id == 0

    def test_empty_batch(self):
        registry = AlarmRegistry()
        assert registry.install_many([]) == []
        registry.tree.validate()

    def test_spec_of_round_trips_an_alarm(self):
        registry = AlarmRegistry()
        alarm = registry.install(Rect(0, 0, 10, 10), AlarmScope.SHARED, 1,
                                 subscribers=[2, 3], moving_target=True,
                                 label="x")
        clone = AlarmRegistry()
        assert clone.install_many([AlarmSpec.of(alarm)]) == [alarm]
