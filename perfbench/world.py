"""Inputs of the benchmark: the world, the churn schedule and the serve
stream.

The world (map, traces, alarms) is the ``bench`` preset's, with the
preset's own seeds, and the churn schedule has a fixed seed too.  They
do not follow the workload seed, because the work they imply varies too
much from one seed to the next: deriving them from the workload seed
spread ``fixes_per_s`` by 13% (``replay``) and 21-23% (``churn``) over
five seeds, and the message and byte counts by up to 17%, while the
benchmark's bounds allow at most 25%.  The workload seed decides what
does not change the amount of work: which users share a connection on
``serve``.  Every generator is seeded and returns a digest, which the
benchmark prints so that two runs can be shown to offer identical input.

The world is built through the public constructors only
(``generate_network``, ``TraceGenerator``, ``install_random_alarms``,
``compute_ground_truth``), each call timed by the caller's span recorder.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.alarms import AlarmRegistry, install_random_alarms
from repro.engine import (AlarmSchedule, InstallAction, RemoveAction,
                          World, compute_ground_truth)
from repro.experiments import BENCH, DEFAULT_CELL_AREA_KM2, TINY
from repro.experiments.configs import WorkloadConfig
from repro.index import GridOverlay
from repro.mobility import MobilityConfig, TraceGenerator
from repro.protocol.framing import FrameKind, encode_frame
from repro.protocol.messages import LocationReport
from repro.protocol.wire import WireCodec
from repro.roadnet import NetworkConfig, generate_network

#: Scale presets: ``bench`` is the measured one; ``tiny`` keeps the
#: benchmark's own tests fast.
SCALES: Dict[str, WorkloadConfig] = {"bench": BENCH, "tiny": TINY}

#: Churn: its seed, mean installs per simulated second, lifetime range.
CHURN_SEED = 29
CHURN_INSTALLS_PER_S = 1.0
CHURN_LIFETIME_S = (30.0, 300.0)


def _timed(spans, name: str, call):
    with spans.span(name):
        return call()


def build_world(config: WorkloadConfig, spans) -> World:
    """Map, traces and alarms, one span each.

    The static ground truth is computed on first use of
    ``world.ground_truth()``, which the caller times as its own span
    (the daemon process never needs it).
    """
    network_config = NetworkConfig(universe_side_m=config.universe_side_m,
                                   lattice_spacing_m=config.lattice_spacing_m)
    network = _timed(spans, "roadnet.build",
                     lambda: generate_network(network_config,
                                              seed=config.map_seed))
    mobility = MobilityConfig(vehicle_count=config.vehicle_count,
                              duration_s=config.duration_s,
                              sample_interval_s=config.sample_interval_s)
    traces = _timed(spans, "mobility.traces",
                    lambda: TraceGenerator(network, mobility,
                                           seed=config.trace_seed).generate())
    universe = network_config.universe
    registry = AlarmRegistry()
    _timed(spans, "alarms.install",
           lambda: install_random_alarms(
               registry, universe, config.alarm_count,
               user_ids=traces.vehicle_ids(),
               public_fraction=config.public_fraction,
               private_to_shared_ratio=config.private_to_shared_ratio,
               min_side_m=config.alarm_min_side_m,
               max_side_m=config.alarm_max_side_m,
               seed=config.alarm_seed))
    grid = GridOverlay(universe, min(DEFAULT_CELL_AREA_KM2,
                                     universe.area / 1e6))
    return World(universe=universe, grid=grid, registry=registry,
                 traces=traces,
                 ground_truth_supplier=lambda: compute_ground_truth(
                     registry, traces))


def registry_digest(registry: AlarmRegistry) -> str:
    """Digest of every installed alarm (id, region, scope, audience)."""
    h = hashlib.sha256()
    for alarm in sorted(registry.all_alarms(), key=lambda a: a.alarm_id):
        r = alarm.region
        h.update(struct.pack("<q4d", alarm.alarm_id, r.min_x, r.min_y,
                             r.max_x, r.max_y))
        h.update(("%s|%d|%s" % (alarm.scope.name, alarm.owner_id,
                                sorted(alarm.subscribers))).encode())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# Churn schedule
# ----------------------------------------------------------------------
def churn_schedule(config: WorkloadConfig,
                   world: World) -> Tuple[AlarmSchedule, str]:
    """About one install per second, each removed after 30-300 s.

    The alarms themselves come from ``install_random_alarms`` into a
    scratch registry, so their size and scope mix is the static
    workload's; only their install times and lifetimes are new.
    """
    rng = random.Random(CHURN_SEED)
    duration = world.traces.duration()
    times: List[float] = []
    t = rng.expovariate(CHURN_INSTALLS_PER_S)
    while t < duration:
        times.append(t)
        t += rng.expovariate(CHURN_INSTALLS_PER_S)
    scratch = AlarmRegistry()
    alarms = install_random_alarms(
        scratch, world.universe, len(times),
        user_ids=world.traces.vehicle_ids(),
        public_fraction=config.public_fraction,
        private_to_shared_ratio=config.private_to_shared_ratio,
        min_side_m=config.alarm_min_side_m,
        max_side_m=config.alarm_max_side_m,
        seed=rng.randrange(2 ** 31))
    actions: List[object] = []
    for index, (time_s, alarm) in enumerate(zip(times, alarms)):
        actions.append(InstallAction(
            time_s, alarm.region, alarm.scope, alarm.owner_id,
            subscribers=tuple(sorted(alarm.subscribers))))
        actions.append(RemoveAction(time_s + rng.uniform(*CHURN_LIFETIME_S),
                                    install_index=index))
    schedule = AlarmSchedule(actions)
    h = hashlib.sha256()
    for action in schedule.actions:
        h.update(repr(action).encode())
    return schedule, h.hexdigest()[:16]


# ----------------------------------------------------------------------
# Serve stream
# ----------------------------------------------------------------------
@dataclass
class Rung:
    """One ladder step: a consecutive slice of the stream at one rate.

    ``frames[c]`` are connection ``c``'s REQUEST frames in send order;
    ``order`` interleaves them as ``(connection, index)`` in the
    stream's time-major order, which is also the send schedule.
    """

    rate: float
    frames: List[List[bytes]]
    order: List[Tuple[int, int]]

    @property
    def reports(self) -> int:
        return len(self.order)


def serve_stream(world: World, ladder: Sequence[float], connections: int,
                 seed: int) -> Tuple[List[Rung], str]:
    """All raw location reports, time-major, cut into one slice per rung.

    Every user is pinned to one connection, chosen by a seeded shuffle
    that splits the users evenly, and its reports keep their trace
    order, so per-user clocks stay monotone across rungs.  Each
    frame's span id carries the request's per-connection sequence
    number, which the daemon echoes on the REPLY envelope; that is how
    the generator checks per-connection FIFO order.
    """
    codec = WireCodec.from_sizes(world.sizes)
    traces = list(world.traces)
    users = [trace.vehicle_id for trace in traces]
    random.Random(seed).shuffle(users)
    conn_of = {user: index % connections for index, user in enumerate(users)}
    stream: List[Tuple[int, int, bytes]] = []
    next_seq = [1] * connections
    max_steps = max(len(trace) for trace in traces)
    for step in range(max_steps):
        for trace in traces:
            if step >= len(trace):
                continue
            sample = trace[step]
            user = trace.vehicle_id
            conn = conn_of[user]
            report = LocationReport(user, step, sample.position,
                                    sample.heading, sample.speed)
            stream.append((conn, next_seq[conn], encode_frame(
                FrameKind.REQUEST, codec.encode_request(report),
                sample.time, 0, next_seq[conn])))
            next_seq[conn] += 1
    h = hashlib.sha256()
    rungs: List[Rung] = []
    bounds = [round(len(stream) * i / len(ladder))
              for i in range(len(ladder) + 1)]
    for rate, lo, hi in zip(ladder, bounds, bounds[1:]):
        frames: List[List[bytes]] = [[] for _ in range(connections)]
        order: List[Tuple[int, int]] = []
        for conn, _seq, frame in stream[lo:hi]:
            order.append((conn, len(frames[conn])))
            frames[conn].append(frame)
            h.update(bytes([conn]))
            h.update(frame)
        h.update(struct.pack("<d", rate))
        rungs.append(Rung(rate, frames, order))
    return rungs, h.hexdigest()[:16]
