"""PhaseProfiler semantics, including the re-entrancy contract.

The regression of note: before the contract was pinned, nested spans of
the same phase each charged their own inclusive elapsed time, so a
recursive or re-entrant call path double-counted wall time and a
phase's total could exceed the run's real duration.  ``timed`` now
charges wall time once per outermost span (inner spans count calls but
contribute zero seconds); these tests hold that behavior in place.
"""

from contextlib import contextmanager

import pytest

import repro.saferegion.bitmap as bitmap_module
import repro.strategies.optimal as optimal_module
from repro.engine import run_simulation
from repro.engine.profiling import (PhaseProfiler, PhaseStat,
                                    merge_reports)
from repro.engine.server import AlarmServer
from repro.saferegion import (GBSRComputer, MWPSRComputer, PBSRComputer,
                              PyramidBitmap)
from repro.strategies import (BitmapSafeRegionStrategy, OptimalStrategy,
                              PeriodicStrategy,
                              RectangularSafeRegionStrategy,
                              SafePeriodStrategy)

from ..strategies.conftest import make_world


class TestBasics:
    def test_record_accumulates(self):
        profiler = PhaseProfiler()
        profiler.record("p", 1.0)
        profiler.record("p", 2.0, calls=3)
        assert profiler.phases["p"].calls == 4
        assert profiler.phases["p"].wall_s == 3.0

    def test_timed_charges_elapsed(self):
        profiler = PhaseProfiler()
        with profiler.timed("p"):
            pass
        stat = profiler.phases["p"]
        assert stat.calls == 1
        assert stat.wall_s >= 0.0

    def test_span_is_timed(self):
        profiler = PhaseProfiler()
        with profiler.span("p"):
            pass
        assert profiler.phases["p"].calls == 1


class TestReentrancy:
    def test_nested_same_phase_charges_once(self):
        """Inner spans of the same phase add calls, not seconds."""
        profiler = PhaseProfiler()
        with profiler.timed("p"):
            inner_before = profiler.phases.get("p")
            assert inner_before is None  # charged on exit, not entry
            with profiler.timed("p"):
                pass
            # The inner span has exited: one call, zero seconds.
            assert profiler.phases["p"].calls == 1
            assert profiler.phases["p"].wall_s == 0.0
        stat = profiler.phases["p"]
        assert stat.calls == 2
        # Only the outermost span's inclusive time was charged; the
        # total cannot exceed one wall-clock measurement of the block.
        assert stat.wall_s > 0.0

    def test_triple_nesting(self):
        profiler = PhaseProfiler()
        with profiler.timed("p"):
            with profiler.timed("p"):
                with profiler.timed("p"):
                    pass
        stat = profiler.phases["p"]
        assert stat.calls == 3
        assert stat.wall_s > 0.0

    def test_depth_resets_after_exception(self):
        """A span unwound by an exception must not poison later spans."""
        profiler = PhaseProfiler()
        with pytest.raises(RuntimeError):
            with profiler.timed("p"):
                raise RuntimeError("boom")
        assert profiler.phases["p"].calls == 1
        with profiler.timed("p"):
            pass
        # The second span is outermost again: it charges real time.
        assert profiler.phases["p"].calls == 2

    def test_distinct_phases_nest_freely(self):
        profiler = PhaseProfiler()
        with profiler.timed("outer"):
            with profiler.timed("inner"):
                pass
        assert profiler.phases["outer"].calls == 1
        assert profiler.phases["inner"].calls == 1
        # Both charged inclusive time independently.
        assert profiler.phases["outer"].wall_s \
            >= profiler.phases["inner"].wall_s

    def test_sequential_spans_each_charge(self):
        profiler = PhaseProfiler()
        with profiler.timed("p"):
            pass
        first = profiler.phases["p"].wall_s
        with profiler.timed("p"):
            pass
        assert profiler.phases["p"].calls == 2
        assert profiler.phases["p"].wall_s >= first


class TestMergeAndReports:
    def test_merge_adds_stats(self):
        left, right = PhaseProfiler(), PhaseProfiler()
        left.record("a", 1.0)
        right.record("a", 2.0)
        right.record("b", 3.0)
        left.merge(right)
        assert left.phases["a"].wall_s == 3.0
        assert left.phases["a"].calls == 2
        assert left.phases["b"].wall_s == 3.0
        assert left.total_wall_s == 6.0

    def test_report_roundtrip(self):
        profiler = PhaseProfiler()
        profiler.record("a", 1.5, calls=2)
        rebuilt = PhaseProfiler.from_report(profiler.report())
        assert rebuilt.report() == profiler.report()
        assert PhaseProfiler.from_report(None).report() == {}

    def test_merge_reports(self):
        first = PhaseProfiler()
        first.record("a", 1.0)
        second = PhaseProfiler()
        second.record("a", 2.0)
        merged = merge_reports([first.report(), None, second.report()])
        assert merged["a"]["wall_s"] == 3.0
        assert merged["a"]["calls"] == 2

    def test_phasestat_add(self):
        stat = PhaseStat()
        stat.add(0.5)
        stat.add(0.25, calls=2)
        assert stat.calls == 3
        assert stat.wall_s == 0.75


class TestBitmapWorkAttribution:
    """GBSR/PBSR bitmap work is charged to the safe-region bucket.

    Size and coverage are computed when the bitmap is built, inside
    ``timed_saferegion`` and the ``saferegion_compute`` phase; the
    transport's ``encoding`` span only reads the finished size.
    """

    @pytest.mark.parametrize("make_strategy", (
        lambda: BitmapSafeRegionStrategy(PBSRComputer(height=5)),
        lambda: BitmapSafeRegionStrategy(PBSRComputer(height=1)),
        lambda: BitmapSafeRegionStrategy(GBSRComputer(resolution=3),
                                         name="GBSR"),
    ), ids=("pbsr", "pbsr-h1", "gbsr"))
    def test_bitmap_work_runs_in_saferegion_compute(self, monkeypatch,
                                                    make_strategy):
        world = make_world(vehicles=6, duration=120.0)
        profiler = PhaseProfiler()
        seen = []

        def spy(function):
            def wrapper(*args):
                seen.append((function.__name__,
                             profiler._depth.get("saferegion_compute", 0),
                             profiler._depth.get("encoding", 0)))
                return function(*args)
            return wrapper

        for name in ("_count_bits", "_measure_area"):
            monkeypatch.setattr(PyramidBitmap, name,
                                spy(getattr(PyramidBitmap, name)))
        monkeypatch.setattr(bitmap_module, "_emission",
                            spy(bitmap_module._emission))
        result = run_simulation(world, make_strategy(), profiler=profiler)

        assert seen
        assert all(compute == 1 and encoding == 0
                   for _, compute, encoding in seen), seen
        assert result.metrics.saferegion_time_s \
            >= profiler.phases["saferegion_compute"].wall_s


class TestServerWorkAttribution:
    """PRD, SP, MWPSR and OPT charge their safe-region work to the
    safe-region bucket, and none of it to ``encoding``.

    Each strategy's own safe-region step — MWPSR's rectangle, SP's
    nearest-alarm distance, OPT's cell alarm list — must run inside
    ``AlarmServer.timed_saferegion``; PRD computes nothing and charges
    nothing.
    """

    @pytest.fixture
    def traced(self, monkeypatch):
        """(profiler, seen, spy): spy records each call's bucket depths."""
        profiler = PhaseProfiler()
        seen = []
        inside = [0]
        original = AlarmServer.timed_saferegion

        @contextmanager
        def counted(server, *args, **kwargs):
            with original(server, *args, **kwargs):
                inside[0] += 1
                try:
                    yield
                finally:
                    inside[0] -= 1

        monkeypatch.setattr(AlarmServer, "timed_saferegion", counted)

        def spy(owner, name):
            function = getattr(owner, name)

            def wrapper(*args, **kwargs):
                seen.append((name, inside[0],
                             profiler._depth.get("encoding", 0)))
                return function(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        return profiler, seen, spy

    @pytest.mark.parametrize("strategy, owner, name", (
        ("mwpsr", MWPSRComputer, "compute"),
        ("sp", AlarmServer, "pending_nearest_distance"),
        ("opt", AlarmServer, "pending_alarms_in"),
        ("opt", optimal_module, "AlarmRecord"),
    ), ids=("mwpsr-compute", "sp-nearest", "opt-lookup", "opt-list"))
    def test_safe_region_work_runs_in_timed_saferegion(self, traced,
                                                       strategy, owner,
                                                       name):
        profiler, seen, spy = traced
        world = make_world(vehicles=6, duration=120.0)
        make = {"mwpsr": RectangularSafeRegionStrategy,
                "sp": lambda: SafePeriodStrategy(world.max_speed()),
                "opt": OptimalStrategy}[strategy]
        spy(owner, name)
        result = run_simulation(world, make(), profiler=profiler)

        assert seen
        assert all(depth == 1 and encoding == 0
                   for _, depth, encoding in seen), seen
        assert result.metrics.safe_region_computations > 0
        assert result.metrics.saferegion_time_s > 0.0
        assert result.metrics.saferegion_time_s >= profiler.phases.get(
            "saferegion_compute", PhaseStat()).wall_s

    def test_periodic_charges_no_safe_region_time(self, traced):
        profiler, seen, spy = traced
        spy(AlarmServer, "timed_saferegion")
        result = run_simulation(make_world(vehicles=6, duration=120.0),
                                PeriodicStrategy(), profiler=profiler)

        assert seen == []
        assert result.metrics.saferegion_time_s == 0.0
        assert result.metrics.safe_region_computations == 0
        assert "saferegion_compute" not in profiler.phases
