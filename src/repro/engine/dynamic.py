"""Dynamic alarm lifecycle: installing and removing alarms mid-run.

The paper evaluates a static alarm population, but a deployed spatial
alarm service installs and cancels alarms continuously.  Distributing
safe regions makes this a coordination problem: a client silently
cruising inside its safe region knows nothing about an alarm installed
in front of it.  This module supplies the missing machinery:

* an :class:`AlarmSchedule` of timed install/remove actions;
* :func:`run_dynamic_simulation`, a time-major replay that applies due
  actions each step and *push-invalidates* exactly the clients whose
  cached state the action made stale — on install, every relevant
  client whose state the new alarm can reach (:func:`is_stale`): a
  cell-scoped bitmap or OPT list when the alarm touches the cell, an
  MWPSR rectangle only when the alarm's region meets the rectangle, and
  a safe-period timer always; on removal, every client locally holding
  the alarm (the OPT push list), which would otherwise fire it
  spuriously;
* :func:`compute_dynamic_ground_truth`, the reference trigger set under
  alarm lifetimes (an alarm can only fire while installed).

Invalidation is counted as one downlink push (header-sized) per client;
the invalidated client re-synchronizes on its next position fix, which
is also the earliest sample at which any new alarm could trigger — so
the accuracy contract (zero misses, on-time triggers) extends to the
dynamic setting, and the test suite asserts it.

Runs clone the world's registry, so the (memoized) world is untouched.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional, Set,
                    Tuple, Union)

from ..alarms import AlarmRegistry, AlarmScope, AlarmSpec, SpatialAlarm
from ..geometry import Rect
from ..protocol.messages import InvalidateState
from ..protocol.transport import ClientSession, connect
from ..saferegion import RectangularSafeRegion
from .groundtruth import verify_accuracy
from .metrics import Metrics
from .server import AlarmServer
from .simulation import GroundTruth, SimulationResult, World

if TYPE_CHECKING:  # runtime import would cycle through strategies.base
    from ..strategies.base import ClientState, ProcessingStrategy


@dataclass(frozen=True)
class InstallAction:
    """Install a new alarm at ``time`` (seconds into the run)."""

    time: float
    region: Rect
    scope: AlarmScope
    owner_id: int
    subscribers: Tuple[int, ...] = ()
    label: Optional[str] = None


@dataclass(frozen=True)
class RemoveAction:
    """Remove an alarm at ``time``.

    ``install_index`` refers to the position of the corresponding
    :class:`InstallAction` in the schedule (actions create alarms with
    run-local ids, so references are by schedule position); use ``None``
    in ``alarm_id`` -mode to remove a pre-installed alarm by its id.
    """

    time: float
    install_index: Optional[int] = None
    alarm_id: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.install_index is None) == (self.alarm_id is None):
            raise ValueError(
                "specify exactly one of install_index / alarm_id")


#: Either lifecycle action kind; schedules hold a mix of both.
ScheduleAction = Union[InstallAction, RemoveAction]


class AlarmSchedule:
    """A time-ordered list of alarm lifecycle actions."""

    def __init__(self, actions: Iterable[ScheduleAction]) -> None:
        actions = list(actions)
        for action in actions:
            if not isinstance(action, (InstallAction, RemoveAction)):
                raise TypeError("unknown schedule action: %r" % (action,))
        self.actions = sorted(actions, key=lambda action: action.time)
        self._times = [action.time for action in self.actions]
        install_count = -1
        for action in self.actions:
            if isinstance(action, InstallAction):
                install_count += 1
            elif isinstance(action, RemoveAction):
                if (action.install_index is not None
                        and action.install_index > install_count):
                    raise ValueError(
                        "removal at t=%g references install #%d which is "
                        "not yet scheduled" % (action.time,
                                               action.install_index))

    def due(self, start: float, end: float) -> List[ScheduleAction]:
        """Actions with ``start <= time < end``, in order."""
        return self.actions[bisect.bisect_left(self._times, start):
                            bisect.bisect_left(self._times, end)]

    def __len__(self) -> int:
        return len(self.actions)


def _clone_registry(registry: AlarmRegistry) -> AlarmRegistry:
    """A fresh registry with identical alarms and identical ids."""
    alarms = registry.all_alarms()
    clone = AlarmRegistry()
    installed = clone.install_many(AlarmSpec.of(alarm) for alarm in alarms)
    assert ([alarm.alarm_id for alarm in installed]
            == [alarm.alarm_id for alarm in alarms])
    return clone


class _ScheduleApplier:
    """Applies schedule actions to a registry, tracking run-local ids."""

    def __init__(self, registry: AlarmRegistry,
                 schedule: AlarmSchedule) -> None:
        self.registry = registry
        self.schedule = schedule
        self.installed_ids: List[int] = []

    def apply(self, start: float,
              end: float) -> Tuple[List[SpatialAlarm], List[int]]:
        """Apply due actions; returns (installed alarms, removed ids)."""
        installed: List[SpatialAlarm] = []
        removed: List[int] = []
        for action in self.schedule.due(start, end):
            if isinstance(action, InstallAction):
                alarm = self.registry.install(
                    action.region, action.scope, action.owner_id,
                    subscribers=action.subscribers, label=action.label)
                self.installed_ids.append(alarm.alarm_id)
                installed.append(alarm)
            else:
                if action.install_index is not None:
                    alarm_id = self.installed_ids[action.install_index]
                else:
                    assert action.alarm_id is not None  # __post_init__
                    alarm_id = action.alarm_id
                if self.registry.remove(alarm_id):
                    removed.append(alarm_id)
        return installed, removed


def compute_dynamic_ground_truth(world: World,
                                 schedule: AlarmSchedule) -> GroundTruth:
    """Expected triggers under the schedule's alarm lifetimes."""
    registry = _clone_registry(world.registry)
    applier = _ScheduleApplier(registry, schedule)
    interval = world.traces.sample_interval
    max_steps = max((len(trace) for trace in world.traces), default=0)
    fired: Dict[int, Set[int]] = {trace.vehicle_id: set()
                                  for trace in world.traces}
    expected: Dict[Tuple[int, int], float] = {}
    previous_time = float("-inf")
    for step in range(max_steps):
        step_time = step * interval
        applier.apply(previous_time, step_time + interval / 2.0)
        previous_time = step_time + interval / 2.0
        for trace in world.traces:
            if step >= len(trace):
                continue
            sample = trace[step]
            user_fired = fired[trace.vehicle_id]
            for alarm in registry.triggered_at(trace.vehicle_id,
                                               sample.position,
                                               exclude_ids=user_fired):
                user_fired.add(alarm.alarm_id)
                expected[(trace.vehicle_id, alarm.alarm_id)] = sample.time
    return expected


def run_dynamic_simulation(world: World, strategy: "ProcessingStrategy",
                           schedule: AlarmSchedule) -> SimulationResult:
    """Time-major replay with lifecycle actions and push invalidation."""
    from ..strategies.base import ClientState  # local import: avoid cycle

    registry = _clone_registry(world.registry)
    applier = _ScheduleApplier(registry, schedule)
    metrics = Metrics()
    server = AlarmServer(registry, world.grid, metrics, sizes=world.sizes)
    session = connect(server, strategy)
    clients = {trace.vehicle_id: ClientState(trace.vehicle_id)
               for trace in world.traces}
    interval = world.traces.sample_interval
    max_steps = max((len(trace) for trace in world.traces), default=0)

    started = time.perf_counter()
    previous_time = float("-inf")
    for step in range(max_steps):
        step_time = step * interval
        installed, removed = applier.apply(previous_time,
                                           step_time + interval / 2.0)
        previous_time = step_time + interval / 2.0
        for alarm in installed:
            for client in clients.values():
                if is_stale(client, server, alarm):
                    _invalidate(client, session, step_time)
        for alarm_id in removed:
            for client in clients.values():
                if any(record.alarm_id == alarm_id
                       for record in client.local_alarms):
                    _invalidate(client, session, step_time)
        for trace in world.traces:
            if step < len(trace):
                strategy.on_sample(clients[trace.vehicle_id], trace[step])
    wall_time = time.perf_counter() - started

    accuracy = verify_accuracy(compute_dynamic_ground_truth(world, schedule),
                               metrics)
    return SimulationResult(strategy_name=strategy.name, metrics=metrics,
                            accuracy=accuracy,
                            duration_s=world.duration_s,
                            client_count=len(world.traces),
                            total_samples=world.traces.total_samples,
                            wall_time_s=wall_time,
                            energy_model=world.energy)


def is_stale(client: "ClientState", server: AlarmServer,
             alarm: SpatialAlarm, vacated: Optional[Rect] = None) -> bool:
    """Can a new or moved ``alarm`` fire where this client stays silent?

    ``alarm.region`` is where the alarm is now; ``vacated`` is the
    region a move left (``None`` for an install).  The one staleness
    rule of both the dynamic and the tracking engine:

    1. alarms the client cannot fire (irrelevant, already fired) and
       clients holding no state never need a push;
    2. cell-scoped state (bitmap safe regions, OPT alarm lists) is stale
       when either region touches the client's grid cell — a vacated
       region matters because an OPT list still holds the old copy;
    3. a rectangular safe region is stale only when the alarm's region
       meets the rectangle (closed test, see
       :meth:`RectangularSafeRegion.meets`); a spared rectangle is
       smaller than maximal but still safe;
    4. anything else (the safe-period timer) is a global bound: stale.
    """
    if (not alarm.is_relevant_to(client.user_id)
            or alarm.alarm_id in server.fired_for(client.user_id)):
        return False
    region = client.safe_region
    has_state = (region is not None
                 or client.cell_rect is not None
                 or client.expiry > float("-inf")
                 or bool(client.local_alarms))
    if not has_state:
        return False
    if client.cell_rect is not None:
        return (client.cell_rect.intersects(alarm.region)
                or (vacated is not None
                    and client.cell_rect.intersects(vacated)))
    if isinstance(region, RectangularSafeRegion):
        return region.meets(alarm.region)
    return True


def _invalidate(client: "ClientState", session: ClientSession,
                time_s: float) -> None:
    """Server push: drop the client's cached state; it re-syncs next fix."""
    telemetry = session.telemetry
    if telemetry.enabled and client.region_installed_at is not None:
        telemetry.saferegion_exit(time_s, client.user_id,
                                  time_s - client.region_installed_at)
    client.safe_region = None
    client.cell_rect = None
    client.expiry = float("-inf")
    client.local_alarms = []
    client.region_installed_at = None
    # Header-only InvalidateState push; the transport charges its bytes.
    session.transport.push(client.user_id, InvalidateState(), time_s)
