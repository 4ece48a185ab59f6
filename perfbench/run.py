"""The repository benchmark: one command, one workload, every metric.

Run from the repository root::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``replay``  the paper's static experiment: all six strategies replayed
            serially in process, in turn, round after round.
``churn``   the same world under a seeded install/remove schedule,
            replayed by ``run_dynamic_simulation`` under MWPSR, SP, OPT.
``serve``   an ``AlarmDaemon`` process serving PRD over a Unix socket,
            driven open loop by a rate ladder of raw location reports.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run and prints the per-layer metrics, writing every
span to ``.perfbench/``.  Correctness gates run in both modes; a failed
gate is counted in ``failed`` and the exit code is 1.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Dict, List, Optional, Sequence  # noqa: E402

import numpy  # noqa: E402

import repro.engine.dynamic as dynamic_module  # noqa: E402
from repro.alarms import AlarmRegistry  # noqa: E402
from repro.engine import (RADIO_ENERGY_MODEL, AlarmSchedule,  # noqa: E402
                          AlarmServer, Metrics, SimulationResult,
                          run_dynamic_simulation, run_simulation)
from repro.engine.profiling import STANDARD_PHASES  # noqa: E402
from repro.experiments import (make_mwpsr_strategy,  # noqa: E402
                               make_pbsr_strategy)
from repro.net import scrape_stats  # noqa: E402
from repro.protocol.transport import InProcessTransport  # noqa: E402
from repro.strategies import (OptimalStrategy, PeriodicStrategy,  # noqa: E402
                              SafePeriodStrategy)
from repro.telemetry.manifest import current_git_sha  # noqa: E402

import serve  # noqa: E402
from ledger import SpanProfiler, Spans, Wrappers  # noqa: E402
from probe import HostProbe  # noqa: E402
from world import (SCALES, build_world, churn_schedule,  # noqa: E402
                   registry_digest, serve_stream)

WORKLOADS = ("replay", "churn", "serve")
STRATEGIES = ("prd", "sp", "mwpsr", "gbsr", "pbsr", "opt")
CHURN_STRATEGIES = ("mwpsr", "sp", "opt")
#: World set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest measurement rounds per workload, whatever ``--seconds`` says,
#: so every per-strategy median has more than one sample.
MIN_ROUNDS = {"replay": 3, "churn": 2, "serve": 2}
#: Replay wall time one strategy spends per round (see replay_rounds).
MIN_STRATEGY_S = 0.6
OUT_DIR = ".perfbench"

#: (name, unit) of every end-to-end metric, in output order.
END_TO_END = (("setup_s", "s"), ("fixes_per_s", "1/s"),
              ("uplink_msgs", "count"), ("downlink_bytes", "bytes"),
              ("client_energy_mwh", "mWh"), ("peak_rss_mb", "MB"))


def per_layer_units() -> Dict[str, str]:
    """(name -> unit) of every per-layer metric, in output order."""
    units: Dict[str, str] = {
        "roadnet.build_s": "s", "mobility.traces_s": "s",
        "alarms.install_s": "s", "engine.ground_truth_s": "s",
        "net.daemon_ready_s": "s"}
    for s in STRATEGIES:
        units["strategies.fixes_per_s." + s] = "1/s"
        units["protocol.request_s." + s] = "s"
        units["protocol.requests." + s] = "count"
        units["strategies.client_s." + s] = "s"
        units["strategies.probe_checks." + s] = "count"
        units["index.node_accesses." + s] = "count"
        units["saferegion.computations." + s] = "count"
        for phase in STANDARD_PHASES:
            units["engine.phase_s.%s.%s" % (phase, s)] = "s"
        units["engine.invalidations." + s] = "count"
    units.update({
        "alarms.writes": "count", "alarms.write_s": "s",
        "engine.schedule_due_s": "s", "engine.verify_s": "s",
        "net.gen_late_p99_ms": "ms", "net.daemon_busy_frac": "frac",
        "net.queue_depth_max": "count", "net.bytes_per_report": "bytes",
        "net.batch_size_mean": "count", "net.batch_handle_us_p50": "us",
        "net.backpressure_stalls": "count", "net.report_p50_ms": "ms",
        "net.report_p99_ms": "ms", "net.sustained_rps": "1/s",
        "ledger.unattributed_s": "s", "trace.overhead_frac": "frac"})
    return units


def make_strategy(name: str, world):
    """The strategy under its CLI defaults (``periodic`` is PRD)."""
    if name == "prd":
        return PeriodicStrategy()
    if name == "sp":
        return SafePeriodStrategy(max_speed=world.max_speed())
    if name == "mwpsr":
        return make_mwpsr_strategy(z=32)
    if name == "gbsr":
        return make_pbsr_strategy(1)
    if name == "pbsr":
        return make_pbsr_strategy(5)
    if name == "opt":
        return OptimalStrategy()
    raise ValueError("unknown strategy %r" % name)


class Run:
    """One benchmark invocation: inputs, gates, and the metrics it emits."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool, scale: str, fault: Optional[str]) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.scale = scale
        self.config = SCALES[scale]
        self.fault = fault
        self.spans = Spans(traced)
        self.probe = HostProbe()
        self.attempted = 0
        self.failed = 0
        self.gates: Dict[str, float] = {
            "trigger_errors": 0, "expected_triggers": 0,
            "request_errors": 0, "requests": 0, "counter_mismatches": 0}
        self.digests: Dict[str, str] = {}
        self.metrics: Dict[str, float] = {}
        self.setup_samples: List[float] = []
        self.rungs: List[Dict[str, float]] = []
        self.samples: Dict[str, List[float]] = {}
        self.ledger: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def setup(self):
        """Build the world :data:`SETUP_REPEATS` times.

        Each sample is rescaled to the probe's reference host speed in
        untraced runs.  The previous world is dropped before each build
        so that no build runs on a heap holding two worlds.
        """
        for _ in range(SETUP_REPEATS):
            world = None
            gc.collect()
            mark = self.probe.mark()
            started = time.perf_counter()
            world = build_world(self.config, self.spans)
            with self.spans.span("engine.ground_truth"):
                world.ground_truth()
            elapsed = time.perf_counter() - started
            if not self.traced:
                elapsed /= self.probe.factor(mark)
            self.setup_samples.append(elapsed)
        self.digests["world"] = registry_digest(world.registry)
        return world

    def score(self, result: SimulationResult) -> bool:
        """Accuracy gate for one replay; returns whether it passed."""
        accuracy = result.accuracy
        errors = accuracy.missed + accuracy.spurious + accuracy.late
        self.gates["trigger_errors"] += errors
        self.gates["expected_triggers"] += accuracy.expected
        return errors == 0 and accuracy.delivered == accuracy.expected

    def count(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    # ------------------------------------------------------------------
    def replay_rounds(self, names: Sequence[str],
                      replay: Callable[[str], SimulationResult]):
        """Rounds over the strategies until ``--seconds`` are spent.

        In a round each strategy replays until it has spent
        :data:`MIN_STRATEGY_S` of replay wall time, so a short replay
        (OPT takes a fifth of a second) is averaged over several before
        it becomes one rate sample.  A round starts only if it is
        expected to end within the budget (the slowest round so far is
        the estimate), after :data:`MIN_ROUNDS`.  Every replay is gated
        for accuracy and for counters identical to the strategy's first
        replay.  Returns the rate samples and the first result of each
        strategy.
        """
        reference: Dict[str, Dict[str, float]] = {}
        rates: Dict[str, List[float]] = {name: [] for name in names}
        results: Dict[str, SimulationResult] = {}
        started = time.perf_counter()
        longest = 0.0
        rounds = 0
        while True:
            round_started = time.perf_counter()
            mark = self.probe.mark()
            round_rates = {}
            for name in names:
                fixes = wall = 0.0
                while wall < MIN_STRATEGY_S:
                    gc.collect()
                    result = replay(name)
                    counters = result.metrics.counters()
                    same = reference.setdefault(name, counters) == counters
                    if not same:
                        self.gates["counter_mismatches"] += 1
                    self.count(self.score(result) and same)
                    results.setdefault(name, result)
                    fixes += result.total_samples
                    wall += result.wall_time_s
                round_rates[name] = fixes / wall
            factor = self.probe.factor(mark)
            for name, rate in round_rates.items():
                rates[name].append(rate * factor)
            rounds += 1
            longest = max(longest, time.perf_counter() - round_started)
            elapsed = time.perf_counter() - started
            if (rounds >= MIN_ROUNDS[self.workload]
                    and elapsed + longest > self.seconds):
                return rates, results

    def inproc(self) -> None:
        """The ``replay`` and ``churn`` workloads."""
        world = self.setup()
        churn = self.workload == "churn"
        names = CHURN_STRATEGIES if churn else STRATEGIES
        schedule: Optional[AlarmSchedule] = None
        if churn:
            schedule, self.digests["schedule"] = churn_schedule(
                self.config, world)

        def replay(name: str) -> SimulationResult:
            strategy = make_strategy(name, world)
            if schedule is not None:
                return run_dynamic_simulation(world, strategy, schedule)
            return run_simulation(world, strategy)

        if self.traced:
            self.traced_pass(names, replay)
            return
        rates, results = self.replay_rounds(names, replay)
        self.samples = rates
        medians = [statistics.median(rates[name]) for name in names]
        metrics = [result.metrics for result in results.values()]
        self.end_to_end(
            fixes_per_s=math.exp(statistics.fmean(
                math.log(rate) for rate in medians)),
            uplink=sum(m.uplink_messages for m in metrics),
            downlink=sum(m.downlink_bytes for m in metrics),
            energy=sum(RADIO_ENERGY_MODEL.client_energy_mwh(m)
                       for m in metrics),
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    def traced_pass(self, names: Sequence[str],
                    replay: Callable[[str], SimulationResult]) -> None:
        """Per strategy, an untraced replay and then a traced one.

        The pair runs back to back, so that the host's speed, which
        drifts over tens of seconds, changes as little as possible
        between the two walls ``trace.overhead_frac`` compares.  Every
        layer wrapper is installed for the traced replay only.
        """
        spans = self.spans
        profilers: Dict[str, SpanProfiler] = {}
        original_init = AlarmServer.__init__

        def init_with_profiler(server, *args, **kwargs):
            if kwargs.get("profiler") is None:
                kwargs["profiler"] = profilers[spans.tag] = \
                    SpanProfiler(spans)
            original_init(server, *args, **kwargs)

        results: Dict[str, SimulationResult] = {}
        untraced_wall = traced_wall = 0.0
        for name in names:
            gc.collect()
            with spans.span("trace.baseline"):
                base = replay(name)
            self.count(self.score(base))
            self.metrics["strategies.fixes_per_s." + name] = \
                base.total_samples / base.wall_time_s
            gc.collect()
            spans.tag = name
            with Wrappers(spans) as wrappers:
                wrappers.patch(AlarmServer, "__init__", init_with_profiler)
                wrappers.wrap(InProcessTransport, "request",
                              "protocol.request")
                wrappers.wrap(InProcessTransport, "push", "protocol.push")
                wrappers.wrap(AlarmRegistry, "install", "alarms.write")
                wrappers.wrap(AlarmRegistry, "remove", "alarms.write")
                wrappers.wrap(AlarmSchedule, "due", "engine.schedule_due")
                wrappers.wrap(dynamic_module, "compute_dynamic_ground_truth",
                              "engine.verify")
                with spans.span("strategies.replay"):
                    result = replay(name)
            spans.tag = ""
            same = base.metrics.counters() == result.metrics.counters()
            if not same:
                self.gates["counter_mismatches"] += 1
            self.count(self.score(result) and same)
            results[name] = result
            untraced_wall += base.wall_time_s
            traced_wall += result.wall_time_s
        self.metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1
        totals = spans.totals()

        def total(name: str, tag: str, column: int) -> float:
            return totals.get((name, tag), [0, 0.0, 0.0])[column]

        for name, result in results.items():
            metrics = result.metrics
            self.metrics.update({
                "protocol.request_s." + name:
                    total("protocol.request", name, 1),
                "protocol.requests." + name:
                    total("protocol.request", name, 0),
                "strategies.client_s." + name:
                    total("strategies.replay", name, 2),
                "strategies.probe_checks." + name:
                    metrics.containment_checks,
                "index.node_accesses." + name: metrics.index_node_accesses,
                "saferegion.computations." + name:
                    metrics.safe_region_computations,
                "engine.invalidations." + name:
                    total("protocol.push", name, 0)})
            report = profilers[name].report()
            for phase in STANDARD_PHASES:
                self.metrics["engine.phase_s.%s.%s" % (phase, name)] = \
                    report.get(phase, {}).get("wall_s", 0.0)
        for metric, span, column in (
                ("alarms.writes", "alarms.write", 0),
                ("alarms.write_s", "alarms.write", 1),
                ("engine.schedule_due_s", "engine.schedule_due", 1),
                ("engine.verify_s", "engine.verify", 1)):
            self.metrics[metric] = sum(total(span, name, column)
                                       for name in names)

    # ------------------------------------------------------------------
    def serve(self) -> None:
        """The ``serve`` workload (see :mod:`serve`)."""
        world = self.setup()
        truth = len(world.ground_truth())
        rungs, self.digests["stream"] = serve_stream(
            world, serve.ladder(), serve.CONNECTIONS, self.seed)
        request_bytes = sum(len(frame) for rung in rungs
                            for frames in rung.frames for frame in frames)
        reports = sum(rung.reports for rung in rungs)
        # The generator's heap is built; keep collections off it.
        gc.collect()
        gc.freeze()
        path = os.path.join(OUT_DIR, "d%d.sock" % os.getpid())
        os.makedirs(OUT_DIR, exist_ok=True)

        def one_pass(traced: bool) -> Dict[str, object]:
            return self.serve_pass(world, rungs, path, traced, truth,
                                   reports)

        if not self.traced:
            started = time.perf_counter()
            passes = [one_pass(False)]
            while (len(passes) < MIN_ROUNDS["serve"]
                   or time.perf_counter() - started
                   + max(p["wall_s"] for p in passes) <= self.seconds):
                passes.append(one_pass(False))
            self.end_to_end(
                setup_extra=statistics.median(p["ready_s"] for p in passes),
                fixes_per_s=statistics.median(p["capacity"]
                                              for p in passes),
                uplink=passes[0]["uplink"], downlink=passes[0]["bytes_in"],
                energy=passes[0]["energy"],
                peak_rss_mb=statistics.median(p["rss_mb"] for p in passes))
            return
        with self.spans.span("trace.baseline"):
            base = one_pass(False)
        traced = one_pass(True)
        self.metrics["net.daemon_ready_s"] = statistics.median(
            (base["ready_s"], traced["ready_s"]))
        self.metrics["trace.overhead_frac"] = (
            traced["cpu_s"] / base["cpu_s"] - 1.0)
        self.metrics["net.bytes_per_report"] = (
            (request_bytes + traced["bytes_in"]) / reports)
        for key in ("gen_late_p99_ms", "daemon_busy_frac",
                    "queue_depth_max", "batch_size_mean",
                    "batch_handle_us_p50", "backpressure_stalls"):
            self.metrics["net." + key] = traced[key]
        for key in ("report_p50_ms", "report_p99_ms", "sustained_rps"):
            self.metrics["net." + key] = base[key]
        report = traced["daemon_report"]
        totals = {(name, tag): (count, total, self_s)
                  for name, tag, count, total, self_s in report["spans"]}
        request = totals.get(("protocol.request", ""), (0, 0.0, 0.0))
        counters = report["counters"]
        self.metrics.update({
            "protocol.request_s.prd": request[1],
            "protocol.requests.prd": request[0],
            "index.node_accesses.prd": counters["index_node_accesses"],
            "strategies.probe_checks.prd": counters["containment_checks"],
            "saferegion.computations.prd":
                counters["safe_region_computations"]})
        for phase in STANDARD_PHASES:
            self.metrics["engine.phase_s.%s.prd" % phase] = \
                report["profile"].get(phase, {}).get("wall_s", 0.0)
        if base["counters"] != counters:
            self.gates["counter_mismatches"] += 1
            self.failed += 1

    def serve_pass(self, world, rungs, path: str, traced: bool,
                   truth: int, reports: int) -> Dict[str, object]:
        """One fresh daemon, the whole ladder, then the serve gates."""
        ready_started = time.perf_counter()
        daemon = serve.DaemonProcess(ROOT, path, self.scale, traced)
        try:
            with self.spans.span("net.daemon_ready"):
                daemon.wait_ready()
            ready_s = time.perf_counter() - ready_started
            if daemon.digest != self.digests["world"]:
                raise RuntimeError("daemon built a different world")
            close_after = (rungs[0].reports // 4
                           if self.fault == "close-early" else None)
            with self.spans.span("net.offer"):
                results = serve.offer_ladder(path, rungs, daemon, traced,
                                             close_after)
            stats = scrape_stats(path=path)
            rss_mb = daemon.peak_rss_mb()
            daemon.shutdown()
        finally:
            daemon.kill()
        counters = daemon.report["counters"]
        errors = sum(r.errors for r in results)
        notifications = sum(r.notifications for r in results)
        uplink = int(stats.metrics()["uplink_messages"])
        self.gates["request_errors"] += errors
        self.gates["requests"] += reports
        self.gates["trigger_errors"] += abs(notifications - truth)
        self.gates["expected_triggers"] += truth
        self.count(errors == 0 and notifications == truth
                   and uplink == reports)
        ref = [r for r in results if r.rate == serve.REFERENCE_RATE]
        ref_latency = [x for r in ref for x in r.latencies_s]
        cpu_s = sum(r.daemon_cpu_s for r in results)
        if traced:
            for r in results:
                self.rungs.append({
                    "rate": r.rate, "reports": r.reports,
                    "p50_ms": r.percentile_ms(0.5),
                    "p99_ms": r.percentile_ms(0.99),
                    "gen_late_p99_ms": serve.percentile(r.late_s, 0.99)
                    * 1e3,
                    "errors": r.errors, "drain_ms": r.drain_s * 1e3,
                    "daemon_busy_frac": r.daemon_cpu_s / r.wall_s,
                    "queue_depth_max": r.queue_depth_max,
                    "batch_size_mean": r.batch_size_mean,
                    "batch_handle_us_p50": r.batch_handle_us_p50,
                    "backpressure_stalls": r.backpressure_stalls})
        return {
            "wall_s": time.perf_counter() - ready_started,
            "ready_s": ready_s, "cpu_s": cpu_s,
            "capacity": reports / cpu_s, "rss_mb": rss_mb,
            "uplink": uplink, "counters": counters,
            "bytes_in": sum(r.bytes_received for r in results),
            "energy": _energy_mwh(counters),
            "report_p50_ms": serve.percentile(ref_latency, 0.5) * 1e3,
            "report_p99_ms": serve.percentile(ref_latency, 0.99) * 1e3,
            "sustained_rps": serve.sustained_rate(results),
            "gen_late_p99_ms": serve.percentile(
                [x for r in results for x in r.late_s], 0.99) * 1e3,
            "daemon_busy_frac": (sum(r.daemon_cpu_s for r in ref)
                                 / sum(r.wall_s for r in ref)),
            "queue_depth_max": max(r.queue_depth_max for r in results),
            "batch_size_mean": _weighted(ref, "batch_size_mean"),
            "batch_handle_us_p50": _weighted(ref, "batch_handle_us_p50"),
            "backpressure_stalls": sum(r.backpressure_stalls
                                       for r in results),
            "daemon_report": daemon.report}

    # ------------------------------------------------------------------
    def end_to_end(self, fixes_per_s: float, uplink: float,
                   downlink: float, energy: float, peak_rss_mb: float,
                   setup_extra: float = 0.0) -> None:
        self.metrics.update({
            "setup_s": statistics.median(self.setup_samples) + setup_extra,
            "fixes_per_s": fixes_per_s, "uplink_msgs": uplink,
            "downlink_bytes": downlink, "client_energy_mwh": energy,
            "peak_rss_mb": peak_rss_mb})

    def finish_trace(self, wall_s: float) -> None:
        """Setup layers, the ledger, and the span file."""
        totals = self.spans.totals()
        for metric, span in (("roadnet.build_s", "roadnet.build"),
                             ("mobility.traces_s", "mobility.traces"),
                             ("alarms.install_s", "alarms.install"),
                             ("engine.ground_truth_s",
                              "engine.ground_truth")):
            count, total, _ = totals.get((span, ""), [1, 0.0, 0.0])
            self.metrics[metric] = total / max(count, 1)
        self.ledger = ledger = self.spans.ledger(wall_s)
        self.metrics["ledger.unattributed_s"] = ledger["unattributed"]
        self.spans.write(
            os.path.join(OUT_DIR, "spans-%s-seed%d.json"
                         % (self.workload, self.seed)),
            {"workload": self.workload, "seed": self.seed,
             "wall_s": wall_s, "ledger": ledger, "rungs": self.rungs})


def _weighted(results, attribute: str) -> float:
    """Mean of a per-rung figure, weighted by the rung's reports."""
    total = sum(r.reports for r in results)
    return sum(getattr(r, attribute) * r.reports for r in results) / total


def _energy_mwh(counters: Dict[str, float]) -> float:
    metrics = Metrics()
    for name, value in counters.items():
        setattr(metrics, name, value)
    return RADIO_ENERGY_MODEL.client_energy_mwh(metrics)


def manifest(args: argparse.Namespace) -> Dict[str, object]:
    # Only ask git inside a git checkout: elsewhere it would search the
    # directories above this one.
    git = os.path.exists(os.path.join(ROOT, ".git"))
    return {"git_sha": current_git_sha(Path(ROOT)) if git else None,
            "seed": args.seed, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scale": args.scale}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="bench",
                        help="world preset (tiny is for the tests)")
    parser.add_argument("--fault", choices=("close-early",), default=None,
                        help="inject a generator fault (tests only)")
    args = parser.parse_args(argv)
    os.chdir(ROOT)

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              args.scale, args.fault)
    print("perfbench %s" % json.dumps(
        {"workload": args.workload, "trace": args.trace,
         "seconds": args.seconds, **manifest(args)}, sort_keys=True))
    started = time.perf_counter()
    # End-to-end runs carry the host-speed probe; the traced run has no
    # use for it.
    with run.probe if not run.traced else contextlib.nullcontext():
        if args.workload == "serve":
            run.serve()
        else:
            run.inproc()
    wall_s = time.perf_counter() - started
    if run.traced:
        run.finish_trace(wall_s)
        names = per_layer_units()
    else:
        names = dict(END_TO_END)
    gates = run.gates
    rates = {
        "trigger_error_rate": (gates["trigger_errors"]
                               / max(gates["expected_triggers"], 1)),
        "request_error_rate": (gates["request_errors"]
                               / max(gates["requests"], 1)),
        "counter_mismatches": gates["counter_mismatches"]}
    print("digests %s" % json.dumps(run.digests, sort_keys=True))
    print("gates %s" % json.dumps(rates, sort_keys=True))
    if not run.traced:
        print("host %s" % json.dumps({"probe_chunks": run.probe.chunks,
                                      "factor": run.probe.factor()}))
    if run.samples:
        print("samples %s" % json.dumps(run.samples))
    if run.traced:
        print("ledger %s" % json.dumps(run.ledger, sort_keys=True))
        for rung in run.rungs:
            print("rung %s" % json.dumps(rung, sort_keys=True))
    metrics = {name: {"value": float(run.metrics.get(name, 0.0)),
                      "unit": unit} for name, unit in names.items()}
    for name, entry in metrics.items():
        print("metric %-44s %18.6f %s" % (name, entry["value"],
                                           entry["unit"]))
    correct = run.failed == 0 and not any(
        rates[key] for key in ("trigger_error_rate", "request_error_rate",
                               "counter_mismatches"))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
