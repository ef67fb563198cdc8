"""Closed-loop op runner, latency statistics and the host calibration loop."""

from __future__ import annotations

import contextlib
import math
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

__all__ = ["Phase", "run_phase", "tail_percentile", "block_tail", "calibrate_ms"]


@dataclass
class Phase:
    """Latencies (s) of the timed ops, and the ops whose check failed."""

    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def run_phase(workload, inputs, seconds: float, min_ops: int, tracer=None) -> Phase:
    """Run ops one after another until their timed total reaches ``seconds``
    and at least ``min_ops`` ran.  Only ``workload.run`` is timed; each
    output is checked right after its op.  An op fails if it raises or
    its check fails."""
    phase = Phase()
    elapsed = 0.0
    while elapsed < seconds or len(phase.latencies) < min_ops:
        inp = next(inputs)
        out = error = None
        t0 = perf_counter()
        try:
            with tracer.op() if tracer else contextlib.nullcontext():
                out = workload.run(inp)
        except Exception as exc:  # counted as a failed op, reported below
            error = exc
        t1 = perf_counter()
        phase.latencies.append(t1 - t0)
        elapsed += t1 - t0
        if error is None:
            try:
                workload.check(inp, out)
            except Exception as exc:  # a failed check; reported below
                error = exc
        if error is not None:
            phase.failed += 1
            if len(phase.errors) < 3:
                phase.errors.append("".join(traceback.format_exception(error, limit=3)))
    return phase


def tail_percentile(latencies: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile with at least ten samples beyond it, by
    nearest rank: (percentile, value, samples beyond).  Fewer than eleven
    samples give the maximum, as percentile 100."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return 100, ordered[-1], 0
    p = (100 * (n - 10)) // n
    rank = math.ceil(p * n / 100)
    return p, ordered[rank - 1], n - rank


def block_tail(latencies: list[float], blocks: int) -> tuple[float, list[tuple[int, float, int]]]:
    """Median over consecutive blocks of equally many ops of each block's
    ``tail_percentile`` value, and the per-block results.  A host stall
    lifts the tail of the block it falls in, not the reported median."""
    size = len(latencies) // blocks
    per_block = [tail_percentile(latencies[k * size:(k + 1) * size]) for k in range(blocks)]
    return statistics.median(value for _, value, _ in per_block), per_block


_CALIB_X = np.linspace(1.0, 2.0, 4096)


def calibrate_ms(repeats: int = 5) -> float:
    """Median time of a fixed ~3 ms loop of numpy log/sin and pure Python.

    A host-drift diagnostic only: never bounded, never used to scale
    other metrics."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        acc = 0.0
        for _ in range(20):
            acc += float(np.sin(np.log(_CALIB_X)).sum())
        total = 0
        for i in range(20_000):
            total += i * i % 7
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)
