"""Self-test of the benchmark: seed-equal traced runs give identical
counts, every workload's outputs pass their checks, and the result line
carries exactly the metrics BENCHMARK.json declares."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
COUNT_OPS = 3


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _traced_counts(name, seed, workdir):
    wl = workloads.WORKLOADS[name](workdir)
    tracer = tracing.Tracer()
    with tracer.installed():
        phase = harness.run_phase(wl, wl.inputs(seed, 1), 0.0, COUNT_OPS, tracer)
    assert phase.failed == 0, phase.errors
    metrics = tracing.layer_metrics(tracer, COUNT_OPS)
    return {k: metrics[k] for k in tracing.COUNT_METRICS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_for_equal_seeds(name, tmp_path):
    first = _traced_counts(name, 7, tmp_path)
    assert first == _traced_counts(name, 7, tmp_path)
    assert first["kernel.terms_per_point"] > 0
    assert first["specfun.ci.elems"] > 0 and first["specfun.cin.elems"] > 0
    if name == "oracles":
        assert first["modesum.points_per_integral"] > 0
        assert first["cavityfield.modes_per_overlap"] > 0
    if name == "sweep":
        assert first["cli.bytes_per_point"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_no_failed_ops(name, tmp_path):
    wl = workloads.WORKLOADS[name](tmp_path)
    phase = harness.run_phase(wl, wl.inputs(11, 1), 0.0, 4)
    assert phase.failed == 0, phase.errors


def test_check_rejects_a_wrong_kernel(tmp_path):
    wl = workloads.WORKLOADS["late"](tmp_path)
    molecules = next(wl.inputs(3, 1))
    reports = wl.run(molecules)
    wl.check(molecules, reports)
    rep = reports[0]
    gamma = rep.kernel_result.gamma * (1 + 1e-5)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_against_no_cutoff(
            "late", rep.alpha, wl.CAVITY.kappa, wl.CAVITY.plate_separation,
            rep.grating_transit_time, gamma, math.exp(-gamma))


def test_trace_reports_every_declared_per_layer_metric():
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert declared == {**tracing.PER_LAYER_UNITS, **tracing.RUN_UNITS}


def test_result_line_carries_the_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "oracles",
         "--seed", "5", "--seconds", "0.2"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
