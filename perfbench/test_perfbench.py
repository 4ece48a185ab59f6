"""The benchmark's own tests, at TINY scale.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

Each test runs ``perfbench/run.py`` in a subprocess, with the same
arguments a benchmark run gets, and reads its output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List, Tuple

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay", "churn", "serve")


def _bench(workload: str, seed: int = 3, trace: int = 0,
           *extra: str) -> Tuple[int, List[str], Dict[str, object]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--scale", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return proc.returncode, lines, json.loads(lines[-1])


def _tagged(lines: List[str], tag: str) -> Dict[str, object]:
    for line in lines:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    raise AssertionError("no %r line" % tag)


@pytest.fixture(scope="module")
def spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def runs() -> Dict[Tuple[str, int], Tuple[int, List[str], Dict]]:
    return {(workload, trace): _bench(workload, 3, trace)
            for workload in WORKLOADS for trace in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_emitted_with_its_unit(
        spec, runs, workload, trace):
    code, lines, result = runs[(workload, trace)]
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
    gates = _tagged(lines, "gates")
    assert gates["trigger_error_rate"] == 0.0
    assert gates["request_error_rate"] == 0.0


def test_end_to_end_metrics_are_never_zero(runs):
    for workload in WORKLOADS:
        metrics = runs[(workload, 0)][2]["metrics"]
        assert all(entry["value"] > 0 for entry in metrics.values()), \
            workload


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ledger_and_unattributed_sum_to_wall_time(runs, workload):
    path = os.path.join(ROOT, ".perfbench",
                        "spans-%s-seed3.json" % workload)
    with open(path) as handle:
        written = json.load(handle)
    assert written["spans"], "no spans written"
    ledger = written["ledger"]
    assert sum(ledger.values()) == pytest.approx(written["wall_s"],
                                                 rel=1e-9)
    assert ledger["unattributed"] >= 0.0
    metrics = runs[(workload, 1)][2]["metrics"]
    assert metrics["ledger.unattributed_s"]["value"] == \
        pytest.approx(ledger["unattributed"])


def test_traced_counts_match_the_untraced_run(runs):
    """Requests counted at the wrapped transport in the traced run add
    up to the uplink messages the untraced run charged."""
    for workload in WORKLOADS:
        assert _tagged(runs[(workload, 1)][1],
                       "gates")["counter_mismatches"] == 0
        per_layer = runs[(workload, 1)][2]["metrics"]
        requests = sum(entry["value"] for name, entry in per_layer.items()
                       if name.startswith("protocol.requests."))
        assert requests == runs[(workload, 0)][2]["metrics"][
            "uplink_msgs"]["value"]


@pytest.mark.parametrize("workload", ("churn", "serve"))
def test_one_seed_gives_identical_input_and_counts(runs, workload):
    _, lines, result = runs[(workload, 0)]
    _, again_lines, again = _bench(workload, 3, 0)
    assert _tagged(lines, "digests") == _tagged(again_lines, "digests")
    for name in ("uplink_msgs", "downlink_bytes", "client_energy_mwh"):
        assert result["metrics"][name] == again["metrics"][name]


def test_seed_changes_only_the_connection_pinning(runs):
    _, lines, result = runs[("serve", 0)]
    _, other_lines, other = _bench("serve", 4, 0)
    first, second = _tagged(lines, "digests"), _tagged(other_lines,
                                                       "digests")
    assert first["world"] == second["world"]
    assert first["stream"] != second["stream"]
    assert result["metrics"]["uplink_msgs"] == other["metrics"]["uplink_msgs"]


def test_generator_fault_is_counted_not_hidden():
    code, lines, result = _bench("serve", 3, 0, "--fault", "close-early")
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    gates = _tagged(lines, "gates")
    assert gates["request_error_rate"] > 0.0
    assert gates["trigger_error_rate"] > 0.0
