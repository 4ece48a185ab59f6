"""The push-invalidation rule shared by the dynamic and tracking engines,
and the schedule lookup that feeds it.

``is_stale`` decides which clients a new or moved alarm wakes: cell
state by the cell test, MWPSR rectangles by closed contact with the
alarm, and the safe-period timer always.  The hand-built cases pin each
branch; the teeth test shows the accuracy suite catches a rectangle
rule that is too tight.
"""

import random

import pytest

from repro.alarms import AlarmRegistry, AlarmScope
from repro.engine import (AlarmSchedule, InstallAction, RemoveAction,
                          run_dynamic_simulation)
from repro.engine.dynamic import is_stale
from repro.engine.metrics import Metrics
from repro.engine.server import AlarmServer
from repro.geometry import Rect
from repro.index import GridOverlay
from repro.protocol.messages import AlarmRecord
from repro.saferegion import (MWPSRComputer, PBSRComputer,
                              RectangularSafeRegion)
from repro.strategies import (RectangularSafeRegionStrategy,
                              SafePeriodStrategy)
from repro.strategies.base import ClientState

from ..strategies.conftest import make_world
from .test_dynamic import crossing_installs

USER = 7
OTHER = 8
UNIVERSE = Rect(0.0, 0.0, 4000.0, 4000.0)
CELL = Rect(0.0, 0.0, 1000.0, 1000.0)  # the grid cell holding (50, 50)
SAFE_RECT = Rect(0.0, 0.0, 100.0, 100.0)


@pytest.fixture
def server():
    return AlarmServer(AlarmRegistry(), GridOverlay(UNIVERSE, 1.0),
                       Metrics())


def public(server, region):
    return server.registry.install(region, AlarmScope.PUBLIC, owner_id=0)


def mwpsr_client():
    client = ClientState(USER)
    client.safe_region = RectangularSafeRegion(SAFE_RECT)
    return client


def sp_client():
    client = ClientState(USER)
    client.expiry = 30.0
    return client


def bitmap_client():
    client = ClientState(USER)
    client.cell_rect = CELL
    client.safe_region = PBSRComputer(height=3).compute(
        CELL, [Rect(500.0, 500.0, 600.0, 600.0)])
    return client


def opt_client():
    client = ClientState(USER)
    client.cell_rect = CELL
    client.local_alarms = [AlarmRecord(alarm_id=99,
                                       region=Rect(500.0, 500.0,
                                                   600.0, 600.0))]
    return client


class TestScheduleDue:
    def test_due_matches_linear_filter(self):
        rng = random.Random(13)
        times = [float(rng.randrange(0, 40)) for _ in range(200)]
        actions = [InstallAction(t, Rect(0, 0, 1, 1), AlarmScope.PUBLIC,
                                 index)
                   for index, t in enumerate(times)]
        # install #k is the k-th in time order; half its removals tie
        # with an install time, so equal times mix both action kinds
        actions += [RemoveAction(t + 0.5 * (index % 2), install_index=index)
                    for index, t in enumerate(sorted(times)[:50])]
        schedule = AlarmSchedule(actions)
        edges = sorted({action.time for action in schedule.actions})
        windows = [(float("-inf"), edges[0]), (edges[-1], float("inf")),
                   (5.0, 5.0), (-3.0, 0.0), (39.5, 100.0)]
        windows += [(rng.choice(edges), rng.choice(edges))
                    for _ in range(300)]
        windows += [(rng.uniform(-1, 41), rng.uniform(-1, 41))
                    for _ in range(100)]
        for start, end in windows:
            linear = [action for action in schedule.actions
                      if start <= action.time < end]
            assert schedule.due(start, end) == linear, (start, end)

    def test_equal_times_keep_insertion_order(self):
        first = InstallAction(5.0, Rect(0, 0, 1, 1), AlarmScope.PUBLIC, 1)
        second = InstallAction(5.0, Rect(0, 0, 2, 2), AlarmScope.PUBLIC, 2)
        third = InstallAction(5.0, Rect(0, 0, 3, 3), AlarmScope.PUBLIC, 3)
        schedule = AlarmSchedule([first, second, third])
        assert schedule.due(5.0, 5.5) == [first, second, third]
        assert schedule.due(4.0, 5.0) == []


class TestRectangleRule:
    def test_disjoint_install_is_not_pushed(self, server):
        alarm = public(server, Rect(300.0, 300.0, 400.0, 400.0))
        # inside the client's grid cell, but clear of its rectangle
        assert CELL.intersects(alarm.region)
        assert not is_stale(mwpsr_client(), server, alarm)

    @pytest.mark.parametrize("region", (
        Rect(100.0, 20.0, 200.0, 80.0),     # shares the right edge
        Rect(20.0, 100.0, 80.0, 200.0),     # shares the top edge
        Rect(100.0, 100.0, 200.0, 200.0),   # shares one corner only
    ), ids=("edge-x", "edge-y", "corner"))
    def test_contact_is_pushed(self, server, region):
        assert is_stale(mwpsr_client(), server, public(server, region))

    def test_overlap_is_pushed(self, server):
        alarm = public(server, Rect(50.0, 50.0, 150.0, 150.0))
        assert is_stale(mwpsr_client(), server, alarm)

    def test_other_users_private_alarm_is_not_pushed(self, server):
        alarm = server.registry.install(Rect(50.0, 50.0, 150.0, 150.0),
                                        AlarmScope.PRIVATE, owner_id=OTHER)
        assert not is_stale(mwpsr_client(), server, alarm)

    def test_fired_alarm_is_not_pushed(self, server):
        alarm = public(server, Rect(50.0, 50.0, 150.0, 150.0))
        server.fired_for(USER).add(alarm.alarm_id)
        assert not is_stale(mwpsr_client(), server, alarm)

    def test_stateless_client_is_not_pushed(self, server):
        alarm = public(server, Rect(50.0, 50.0, 150.0, 150.0))
        assert not is_stale(ClientState(USER), server, alarm)

    def test_move_is_judged_by_its_new_region(self, server):
        """Leaving the rectangle cannot fire inside it; arriving can."""
        left = public(server, Rect(300.0, 300.0, 400.0, 400.0))
        assert not is_stale(mwpsr_client(), server, left,
                            vacated=Rect(50.0, 50.0, 150.0, 150.0))
        arrived = public(server, Rect(50.0, 50.0, 150.0, 150.0))
        assert is_stale(mwpsr_client(), server, arrived,
                        vacated=Rect(300.0, 300.0, 400.0, 400.0))


class TestOtherRules:
    def test_safe_period_is_pushed_on_every_relevant_install(self, server):
        far = public(server, Rect(3800.0, 3800.0, 3900.0, 3900.0))
        assert is_stale(sp_client(), server, far)
        private = server.registry.install(far.region, AlarmScope.PRIVATE,
                                          owner_id=OTHER)
        assert not is_stale(sp_client(), server, private)

    @pytest.mark.parametrize("make_client", (bitmap_client, opt_client),
                             ids=("bitmap", "opt"))
    def test_cell_state_keeps_the_cell_rule(self, server, make_client):
        # clear of the installed bitmap's blocked area, inside the cell
        in_cell = public(server, Rect(800.0, 800.0, 900.0, 900.0))
        on_edge = public(server, Rect(1000.0, 200.0, 1100.0, 300.0))
        outside = public(server, Rect(2000.0, 2000.0, 2100.0, 2100.0))
        assert is_stale(make_client(), server, in_cell)
        assert is_stale(make_client(), server, on_edge)
        assert not is_stale(make_client(), server, outside)
        # a move out of the cell still reaches OPT's local copy
        assert is_stale(make_client(), server, outside,
                        vacated=Rect(800.0, 800.0, 900.0, 900.0))


class TestRuleHasTeeth:
    @pytest.fixture(scope="class")
    def world(self):
        return make_world(vehicles=8, duration=150.0, alarms=40,
                          public_fraction=0.3)

    def test_rectangle_rule_beats_the_timer_rule(self, world):
        schedule = AlarmSchedule(crossing_installs(world))
        sp = run_dynamic_simulation(
            world, SafePeriodStrategy(world.max_speed()), schedule)
        mwpsr = run_dynamic_simulation(
            world, RectangularSafeRegionStrategy(MWPSRComputer()), schedule)
        assert sp.accuracy.perfect and mwpsr.accuracy.perfect

        def pushes(result):
            # every computation ships one install; the rest are pushes
            return (result.metrics.downlink_messages
                    - result.metrics.safe_region_computations)

        assert 0 < pushes(mwpsr) < pushes(sp)

    def test_a_rule_that_never_pushes_rectangles_misses(self, world,
                                                        monkeypatch):
        monkeypatch.setattr(RectangularSafeRegion, "meets",
                            lambda self, region: False)
        schedule = AlarmSchedule(crossing_installs(world))
        result = run_dynamic_simulation(
            world, RectangularSafeRegionStrategy(MWPSRComputer()), schedule)
        assert not result.accuracy.perfect
        assert result.accuracy.missed or result.accuracy.late
