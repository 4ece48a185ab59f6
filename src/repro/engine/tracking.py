"""Moving alarm targets under distributed safe-region processing.

The paper's third alarm class — moving subscriber with *moving target*
("alert me when the school bus is near") — requires server-side
coordination: a client holding a safe region computed against the
target's old position knows nothing about the target's movement.  The
naive answer is to fall back to periodic processing; this module makes
the distributed architecture handle the class instead:

* a :class:`TargetTrack` gives an alarm's region per time step (e.g.
  derived from the target vehicle's own trace);
* :func:`run_tracking_simulation` replays time-major; each step it
  relocates tracked alarms through the registry and *push-invalidates*
  exactly the clients whose cached state a move can reach, by the
  dynamic engine's rule (:func:`~repro.engine.dynamic.is_stale`):
  cell-scoped state (bitmap safe regions, OPT lists) when the old or
  new region touches the client's cell, a rectangular safe region only
  when the new region meets the rectangle, and non-geometric state
  (safe-period timers) whenever a relevant tracked alarm moved at all;
* :func:`compute_tracking_ground_truth` scores the run against the
  moving reference, so the accuracy contract (zero misses, zero
  spurious, on-time) is *verified*, not assumed, for every strategy.

The economics are the interesting part (see
``tests/engine/test_tracking.py``): safe-period clients degenerate
toward periodic reporting under tracking (their bound is global, so
every target move invalidates every subscriber), while rectangular and
cell-scoped safe regions confine the churn to clients near the target —
the distributed architecture's advantage survives, and the invalidation
push traffic is measured rather than hand-waved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, Set,
                    Tuple)

from ..alarms import SpatialAlarm
from ..geometry import Rect
from ..mobility import Trace
from ..protocol.transport import connect
from ..telemetry.facade import DISABLED, Telemetry
from .dynamic import _clone_registry, _invalidate, is_stale
from .groundtruth import verify_accuracy
from .metrics import Metrics
from .profiling import PhaseProfiler
from .server import AlarmServer
from .simulation import GroundTruth, SimulationResult, World

if TYPE_CHECKING:  # runtime import would cycle through strategies.base
    from ..strategies.base import ProcessingStrategy


@dataclass(frozen=True)
class TargetTrack:
    """Per-step regions of one moving alarm target.

    ``regions[k]`` is the alarm's region during step ``k``; steps past
    the end keep the final region (the target parked).
    """

    alarm_id: int
    regions: Tuple[Rect, ...]

    def __post_init__(self) -> None:
        if not self.regions:
            raise ValueError("a track needs at least one region")

    def region_at(self, step: int) -> Rect:
        if step < 0:
            raise ValueError("step must be non-negative")
        return self.regions[min(step, len(self.regions) - 1)]

    @classmethod
    def following_trace(cls, alarm_id: int, trace: Trace,
                        width: float, height: float) -> "TargetTrack":
        """A track keeping the region centered on a vehicle's trace."""
        regions = tuple(Rect.from_center(sample.position, width, height)
                        for sample in trace)
        return cls(alarm_id=alarm_id, regions=regions)


def compute_tracking_ground_truth(world: World,
                                  tracks: Sequence[TargetTrack]
                                  ) -> GroundTruth:
    """Expected triggers with tracked alarms at their per-step regions."""
    registry = _clone_registry(world.registry)
    max_steps = max((len(trace) for trace in world.traces), default=0)
    fired: Dict[int, Set[int]] = {trace.vehicle_id: set()
                                  for trace in world.traces}
    expected: Dict[Tuple[int, int], float] = {}
    for step in range(max_steps):
        for track in tracks:
            registry.relocate(track.alarm_id, track.region_at(step))
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


def run_tracking_simulation(world: World, strategy: "ProcessingStrategy",
                            tracks: Sequence[TargetTrack],
                            profiler: Optional[PhaseProfiler] = None,
                            telemetry: Optional[Telemetry] = None
                            ) -> SimulationResult:
    """Time-major replay with per-step target moves and invalidation."""
    from ..strategies.base import ClientState  # local import: avoid cycle

    telemetry = telemetry if telemetry is not None else DISABLED
    track_ids = {track.alarm_id for track in tracks}
    registry = _clone_registry(world.registry)
    metrics = Metrics()
    server = AlarmServer(registry, world.grid, metrics, sizes=world.sizes,
                         profiler=profiler, telemetry=telemetry)
    session = connect(server, strategy)
    clients = {trace.vehicle_id: ClientState(trace.vehicle_id)
               for trace in world.traces}
    max_steps = max((len(trace) for trace in world.traces), default=0)

    if telemetry.enabled:
        telemetry.shard_started(len(world.traces))
    started = time.perf_counter()
    for step in range(max_steps):
        step_time = step * world.traces.sample_interval
        moves: List[Tuple[Rect, SpatialAlarm]] = []
        for track in tracks:
            old_region = registry.get(track.alarm_id).region
            new_region = track.region_at(step)
            if new_region != old_region:
                moves.append((old_region,
                              registry.relocate(track.alarm_id, new_region)))
        if moves:
            for client in clients.values():
                if any(is_stale(client, server, alarm, vacated)
                       for vacated, alarm in moves):
                    _invalidate(client, session, step_time)
        for trace in world.traces:
            if step < len(trace):
                strategy.on_sample(clients[trace.vehicle_id], trace[step])
    wall_time = time.perf_counter() - started
    if telemetry.enabled:
        telemetry.shard_finished(len(world.traces), wall_time)

    accuracy = verify_accuracy(
        compute_tracking_ground_truth(world, tracks), metrics)
    return SimulationResult(strategy_name=strategy.name, metrics=metrics,
                            accuracy=accuracy,
                            duration_s=world.duration_s,
                            client_count=len(world.traces),
                            total_samples=world.traces.total_samples,
                            wall_time_s=wall_time,
                            energy_model=world.energy,
                            profile=(profiler.report() if profiler is not None
                                     else None))
