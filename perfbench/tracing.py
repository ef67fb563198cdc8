"""Outside-in span tracing of the vdl layers.

``Tracer.install`` replaces the public functions of each layer, and the
names other modules imported from it, with wrappers that record a span
(name, start, end, parent, info) in memory while an op is active.  A
span opened on a thread with no open span of its own (the ``cli`` thread
pool's worker) takes the innermost open span of the benchmark's thread
as its parent.  A span's self time is its duration minus the part of
it that its child spans cover.

``layer_metrics`` turns the spans into the per-layer metrics.  Counts
(terms, elements, points, modes) are taken over the first ``count_ops``
traced ops, which depend only on the seed, so they repeat exactly;
times are taken over every traced op.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

from vdl import cavityfield, cli, feasibility, kernel, modesum, specfun

__all__ = ["Tracer", "layer_metrics", "PER_LAYER_UNITS", "RUN_UNITS", "COUNT_METRICS"]


# ------------------------------------------------------------ span info


def _branch_info(args, kwargs, result):
    """Ci/Cin elements on the series (x <= 4), continued-fraction
    (4 < x < 40) and asymptotic (x >= 40) branches."""
    x = np.asarray(args[0], dtype=np.float64)
    series = int(np.count_nonzero(x <= 4.0))
    asymptotic = int(np.count_nonzero(x >= 40.0))
    return x.size, series, x.size - series - asymptotic, asymptotic


def _elems_info(position):
    def info(args, kwargs, result):
        return np.size(args[position])
    return info


def _kernel_info(args, kwargs, result):
    policy = args[1] if len(args) > 1 else kwargs.get("policy")
    return args[0], policy or kernel.SeriesPolicy(), result.terms_used, result.per_term.nbytes


def _modes_info(args, kwargs, result):
    grid = args[4] if len(args) > 4 else kwargs["grid"]
    return grid.k_par_points * (grid.n_max + 1)


def _cli_info(args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    points = int(argv[argv.index("--points") + 1]) if "--points" in argv else 0
    size = os.path.getsize(out) if out and os.path.exists(out) else 0
    return size, points


# (module, attribute, span name, info)
_TARGETS = [
    (specfun, "ci", "specfun.ci", _branch_info),
    (specfun, "cin", "specfun.cin", _branch_info),
    (specfun, "sin_integer_multiples", "specfun.sin_integer_multiples", _elems_info(1)),
    (specfun, "angular_kernel_j", "specfun.angular_kernel_j", _elems_info(0)),
    (specfun, "reduce_two_pi", "specfun.reduce_two_pi", None),
    (specfun, "sin_product", "specfun.sin_product", None),
    (specfun, "cos_product", "specfun.cos_product", None),
    (modesum, "angular_kernel_j", "specfun.angular_kernel_j", _elems_info(0)),
    (modesum, "sin_product", "specfun.sin_product", None),
    (modesum, "cos_product", "specfun.cos_product", None),
    (kernel, "kernel_term", "kernel.kernel_term", None),
    (kernel, "decoherence_kernel", "kernel.decoherence_kernel", _kernel_info),
    (kernel, "kernel_no_cutoff", "kernel.kernel_no_cutoff", None),
    (kernel, "kernel_at_plates", "kernel.kernel_at_plates", None),
    (feasibility, "decoherence_kernel", "kernel.decoherence_kernel", _kernel_info),
    (modesum, "radial_integral_m", "modesum.radial_integral_m", None),
    (modesum, "m0_term", "modesum.m0_term", None),
    (modesum, "exponent_general_n", "modesum.exponent_general_n", None),
    (modesum, "switching_spectrum", "modesum.switching_spectrum", None),
    (cavityfield, "amplitude", "cavityfield.amplitude", None),
    (cavityfield, "overlap", "cavityfield.overlap", _modes_info),
    (cavityfield, "overlap_excluding_free_space",
     "cavityfield.overlap_excluding_free_space", None),
    (feasibility, "full_report", "feasibility.full_report", None),
    (cli, "main", "cli.main", _cli_info),
]

LAYERS = ("specfun", "kernel", "modesum", "cavityfield", "feasibility", "cli", "bench")


class Tracer:
    """In-memory spans; records only inside ``op()``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, info]
        self.roots: list[int] = []
        self.active = False
        self._local = threading.local()
        self._main = self._stack()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, info):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._main[-1] if tracer._main else -1)
            span = [name, 0.0, 0.0, parent, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def install(self):
        for module, attr, name, info in _TARGETS:
            if hasattr(module, attr):
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, info))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def op(self):
        """Root span of one benchmark op."""
        span = ["bench.op", 0.0, 0.0, -1, None]
        self.roots.append(len(self.spans))
        self._main.append(len(self.spans))
        self.spans.append(span)
        self.active = True
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self.active = False
            self._main.pop()


# ------------------------------------------------------------ metrics

PER_LAYER_UNITS = {
    "kernel.terms_per_point": "count",
    "kernel.rounds_per_point": "count",
    "kernel.useful_terms_ratio": "ratio",
    "kernel.ns_per_term": "ns",
    "kernel.per_term_bytes": "B",
    "kernel.self_share": "ratio",
    "specfun.ci.ns_per_elem": "ns",
    "specfun.cin.ns_per_elem": "ns",
    "specfun.sin_integer_multiples.ns_per_elem": "ns",
    "specfun.angular_kernel_j.ns_per_elem": "ns",
    "specfun.ci.elems": "count",
    "specfun.cin.elems": "count",
    "specfun.branch_share.series": "ratio",
    "specfun.branch_share.cf": "ratio",
    "specfun.branch_share.asymptotic": "ratio",
    "specfun.self_share": "ratio",
    "modesum.points_per_integral": "count",
    "modesum.useful_points_ratio": "ratio",
    "modesum.ms_per_integral": "ms",
    "modesum.self_share": "ratio",
    "cavityfield.modes_per_overlap": "count",
    "cavityfield.ns_per_mode": "ns",
    "cavityfield.self_share": "ratio",
    "feasibility.self_us_per_report": "us",
    "feasibility.self_share": "ratio",
    "cli.self_ms_per_op": "ms",
    "cli.bytes_per_point": "B",
    "cli.self_share": "ratio",
    "bench.self_share": "ratio",
}

# Reported by the traced run beside the layer metrics.
RUN_UNITS = {
    "trace.traced_ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead": "ratio",
    "host.calib_ms_before": "ms",
    "host.calib_ms_after": "ms",
}

# Counts that depend only on the seed and must repeat exactly.
COUNT_METRICS = (
    "kernel.terms_per_point", "kernel.rounds_per_point", "kernel.useful_terms_ratio",
    "kernel.per_term_bytes", "specfun.ci.elems", "specfun.cin.elems",
    "specfun.branch_share.series", "specfun.branch_share.cf",
    "specfun.branch_share.asymptotic", "modesum.points_per_integral",
    "modesum.useful_points_ratio", "cavityfield.modes_per_overlap", "cli.bytes_per_point",
)


def _ratio(num, den):
    """num / den, or 0 where the layer did no such work."""
    return num / den if den else 0.0


def _covered(intervals, start, end) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _tail_majorant(alpha, kappa, tau, m_used):
    """The kernel's documented tail majorant after m_used terms."""
    gap = max(m_used + 1.0 - tau, 1.0)
    return (alpha ** 2 / math.pi) * (2.0 * tau ** 2 / gap + 4.0 / kappa) / m_used ** 2


def _series_shape(params, policy, terms_used):
    """(doubling rounds, smallest M >= the mandatory minimum that meets
    the tail bound) for one decoherence_kernel call."""
    min_eff = max(policy.min_terms, math.ceil(params.tau) + 10)
    rounds, target = 1, min_eff
    while target < terms_used:
        target = min(policy.max_terms, 2 * target)
        rounds += 1

    def enough(m):
        return _tail_majorant(params.alpha, params.kappa, params.tau, m) < policy.tail_bound

    lo, hi = min_eff, terms_used
    if enough(lo):
        return rounds, lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if enough(mid) else (mid, hi)
    return rounds, hi


class _Window:
    """Per-name totals over the spans under a set of root ops."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_t = defaultdict(float)
        self.infos = defaultdict(list)
        self.layer_self = defaultdict(float)
        self.op_time = 0.0
        self.ops = 0
        self.j_elems = 0  # J(x) elements evaluated by radial_integral_m
        self.last_j_elems = 0  # the part on each integral's final panel level

    def metrics(self) -> dict[str, float]:
        m: dict[str, float] = {}
        dk = self.infos["kernel.decoherence_kernel"]
        terms = sum(i[2] for i in dk)
        shapes = [_series_shape(p, pol, n) for p, pol, n, _ in dk]
        m["kernel.terms_per_point"] = _ratio(terms, len(dk))
        m["kernel.rounds_per_point"] = _ratio(sum(r for r, _ in shapes), len(dk))
        m["kernel.useful_terms_ratio"] = _ratio(sum(u for _, u in shapes), terms)
        m["kernel.per_term_bytes"] = _ratio(sum(i[3] for i in dk), terms)
        all_terms = terms + self.calls["kernel.kernel_term"]
        m["kernel.ns_per_term"] = _ratio(self.layer_self["kernel"] * 1e9, all_terms)

        branches = [0, 0, 0]
        for fn in ("ci", "cin", "sin_integer_multiples", "angular_kernel_j"):
            infos = self.infos[f"specfun.{fn}"]
            elems = sum(i[0] if isinstance(i, tuple) else i for i in infos)
            m[f"specfun.{fn}.ns_per_elem"] = _ratio(self.self_t[f"specfun.{fn}"] * 1e9, elems)
            if fn in ("ci", "cin"):
                m[f"specfun.{fn}.elems"] = _ratio(elems, self.ops)
                for k in range(3):
                    branches[k] += sum(i[k + 1] for i in infos)
        for k, branch in enumerate(("series", "cf", "asymptotic")):
            m[f"specfun.branch_share.{branch}"] = _ratio(branches[k], sum(branches))

        integrals = self.calls["modesum.radial_integral_m"]
        m["modesum.points_per_integral"] = _ratio(self.j_elems, integrals)
        m["modesum.useful_points_ratio"] = _ratio(self.last_j_elems, self.j_elems)
        m["modesum.ms_per_integral"] = _ratio(self.incl["modesum.radial_integral_m"] * 1e3,
                                              integrals)

        overlaps = self.calls["cavityfield.overlap"]
        modes = sum(self.infos["cavityfield.overlap"])
        m["cavityfield.modes_per_overlap"] = _ratio(modes, overlaps)
        m["cavityfield.ns_per_mode"] = _ratio(self.layer_self["cavityfield"] * 1e9, modes)

        m["feasibility.self_us_per_report"] = _ratio(
            self.layer_self["feasibility"] * 1e6, self.calls["feasibility.full_report"])
        m["cli.self_ms_per_op"] = _ratio(self.layer_self["cli"] * 1e3, self.ops)
        cli_infos = self.infos["cli.main"]
        m["cli.bytes_per_point"] = _ratio(sum(b for b, _ in cli_infos),
                                          sum(p for _, p in cli_infos))
        for layer in LAYERS:
            m[f"{layer}.self_share"] = _ratio(self.layer_self[layer], self.op_time)
        return m


def _windows(tracer: Tracer, count_ops: int) -> tuple[_Window, _Window]:
    spans = tracer.spans
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    counted = set(tracer.roots[:count_ops])
    root_of = [0] * len(spans)
    full, first = _Window(), _Window()
    for i, (name, start, end, parent, info) in enumerate(spans):
        root_of[i] = i if parent < 0 else root_of[parent]
        kids = children[i]
        self_t = (end - start) - _covered([(spans[k][1], spans[k][2]) for k in kids], start, end)
        for w in (full, first) if root_of[i] in counted else (full,):
            w.calls[name] += 1
            w.incl[name] += end - start
            w.self_t[name] += self_t
            w.layer_self[name.split(".", 1)[0]] += self_t
            if info is not None:
                w.infos[name].append(info)
            if name == "bench.op":
                w.op_time += end - start
                w.ops += 1
            elif name == "modesum.radial_integral_m":
                j_kids = [k for k in kids if spans[k][0] == "specfun.angular_kernel_j"]
                w.j_elems += sum(spans[k][4] for k in j_kids)
                if j_kids:
                    w.last_j_elems += spans[j_kids[-1]][4]
    return full, first


def layer_metrics(tracer: Tracer, count_ops: int) -> dict[str, float]:
    """Per-layer metrics: counts over the first count_ops ops, times over all."""
    full, first = _windows(tracer, count_ops)
    metrics = full.metrics()
    counts = first.metrics()
    for name in COUNT_METRICS:
        metrics[name] = counts[name]
    return metrics
