#!/usr/bin/env python3
"""Benchmark of the vdl package.

    python3 perfbench/run.py --workload {sweep,late,oracles,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout: it imports ``vdl`` from ``src/``.  One
single-threaded caller runs ops back to back (a closed loop) in this
process; every op's output is checked against an independent reference
outside the timed region.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

    ops_per_s    timed ops / summed op wall time                  1/s
    op_ms_tail   median over 3 consecutive blocks of ops of the
                 block's highest whole percentile with >= 10
                 samples beyond it (percentiles, counts printed)  ms
    setup_s      median over fresh interpreters of process start
                 to first timed op: imports, inputs, warm-up ops  s
    peak_rss_mb  maximum resident set size of this process        MB

Failed ops count in ``failed``; ``fail_frac`` = failed / attempted and
the median op latency ``op_ms_p50`` are printed but not in the result.
The host alternates between two speeds about 1.5x apart every fraction
of a second, so the latencies of short ops are bimodal and their median
jumps between the modes from run to run; ``ops_per_s`` carries the same
central tendency steadily.  ``--trace 1`` instead spends two thirds of ``--seconds`` on
traced ops and one third on untraced ones, and reports the per-layer
metrics of ``perfbench/tracing.py``, the tracing overhead, and the
host calibration loop timed before and after.  ``--workload all`` runs
the three workloads, each in a fresh process, and prints every metric as
``<workload>/<metric>``.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.clock_gettime(time.CLOCK_MONOTONIC)

# Before numpy is imported: modesum's matrix products must not start
# an OpenBLAS thread pool on a two-core host.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep", "late", "oracles")

WARMUP_OPS = 2
SETUP_PROBES = 5
MIN_OPS = 33        # untraced run: floor under --seconds, 11 ops per tail block
COUNT_OPS = 6       # traced run: ops whose counts are reported
UNTRACED_MIN_OPS = 3
TAIL_BLOCKS = 3

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def _probe_setups(args) -> list[float]:
    """Set-up time of SETUP_PROBES fresh interpreters, from just before
    the process is started until it is ready for its first timed op."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
        times.append(float(lines[1]) - t0)
    return times


def _run_one(args) -> int:
    from perfbench import harness, tracing, workloads
    import vdl

    if Path(vdl.__file__).resolve().parent != SRC / "vdl":
        print(f"vdl imported from {vdl.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        wl = workloads.WORKLOADS[args.workload](workdir)
        warm = wl.inputs(args.seed, 0)
        for _ in range(WARMUP_OPS):
            wl.run(next(warm))
        if args.setup_probe:
            print("ready", repr(time.clock_gettime(time.CLOCK_MONOTONIC)), flush=True)
            return 0
        gc.collect()
        own_setup = time.clock_gettime(time.CLOCK_MONOTONIC) - _START
        calib_before = harness.calibrate_ms()
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = harness.run_phase(wl, wl.inputs(args.seed, 1), args.seconds * 2 / 3,
                                           COUNT_OPS, tracer)
            untraced = harness.run_phase(wl, wl.inputs(args.seed, 2), args.seconds / 3,
                                         UNTRACED_MIN_OPS)
            phases = [traced, untraced]
        else:
            phases = [harness.run_phase(wl, wl.inputs(args.seed, 1), args.seconds, MIN_OPS)]
        calib_after = harness.calibrate_ms()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 caller")
    for p in phases:
        for err in p.errors:
            print(f"  check failure:\n{err}", file=sys.stderr)
    print(f"  fail_frac = {failed / attempted:.6g}  ({failed} of {attempted} ops failed)")
    print(f"  host.calib_ms = {calib_before:.4f} before, {calib_after:.4f} after "
          f"(diagnostic only)")

    if args.trace:
        metrics = tracing.layer_metrics(tracer, COUNT_OPS)
        units = {**tracing.PER_LAYER_UNITS, **tracing.RUN_UNITS}
        metrics["trace.traced_ops_per_s"] = traced.ops_per_s
        metrics["trace.untraced_ops_per_s"] = untraced.ops_per_s
        metrics["trace.overhead"] = untraced.ops_per_s / traced.ops_per_s - 1.0
        metrics["host.calib_ms_before"] = calib_before
        metrics["host.calib_ms_after"] = calib_after
        print(f"  traced ops {len(traced.latencies)} (counts over the first "
              f"{COUNT_OPS}), untraced ops {len(untraced.latencies)}")
        shares = sum(v for k, v in metrics.items() if k.endswith(".self_share"))
        print(f"  self shares sum to {shares:.4f}")
    else:
        phase = phases[0]
        lat = phase.latencies
        tail, per_block = harness.block_tail(lat, TAIL_BLOCKS)
        setups = _probe_setups(args)
        metrics = {
            "ops_per_s": phase.ops_per_s,
            "op_ms_tail": tail * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
        print(f"  op_ms_p50 = {statistics.median(lat) * 1e3:.6g} ms (printed only)")
        print(f"  {len(lat)} timed ops in {sum(lat):.3f} s; op_ms_tail is the median of "
              + ", ".join(f"p{p} {v * 1e3:.3f} ms ({k} of {len(lat) // TAIL_BLOCKS} beyond)"
                          for p, v, k in per_block))
        print(f"  setup_s is the median of {', '.join(f'{s:.4f}' for s in setups)}; "
              f"this process took {own_setup:.4f} s")
    for name, value in metrics.items():
        print(f"  {name:<44} = {value:.6g} {units[name]}")
    print(_result_line(failed == 0, attempted, failed, metrics, units))
    return 0


def _run_all(args) -> int:
    """Each workload in a fresh process; every metric as workload/metric."""
    combined, units = {}, {}
    attempted = failed = 0
    ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        ok &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            combined[f"{name}/{metric}"] = entry["value"]
            units[f"{name}/{metric}"] = entry["unit"]
        combined[f"{name}/fail_frac"] = result["failed"] / result["attempted"]
        units[f"{name}/fail_frac"] = "ratio"
    print("summary")
    for key, value in combined.items():
        print(f"  {key:<52} = {value:.6g} {units[key]}")
    print(_result_line(ok, max(attempted, 1), failed, combined, units))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "vdl" / "__init__.py").is_file():
        print(f"no vdl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
