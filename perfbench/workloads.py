"""The three benchmark workloads and their per-op output checks.

Each workload draws one op input at a time from ``inputs(seed, stream)``
and runs it with ``run(inp)``; ``check(inp, out)`` compares the output
against an independent reference and raises ``CheckFailed`` on a
mismatch.  Checks run outside the timed region.

Every op covers the workload's whole parameter range, shifted by an
offset.  The offsets form the low-discrepancy sequence
u_k = frac(u_0 + k * (sqrt(5) - 1) / 2) with u_0 drawn from the seed, so
any run of a few dozen ops samples the range evenly: the seed changes
the inputs but not the cost mix.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

from vdl import cavityfield, cli, feasibility, kernel, modesum
from vdl.constants import C_LIGHT

__all__ = ["CheckFailed", "WORKLOADS", "no_cutoff_tolerance", "check_against_no_cutoff"]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Inputs keep tau at least this far from an integer, where the
# no-cutoff reference series diverges.
TAU_MARGIN = 0.02

# Terms of the no-cutoff reference series; its truncation estimate
# alpha^2-scaled tau^2 / M^3 stays below 5e-12 for every input here.
REF_TERMS = 20_000

# Terms summed explicitly in the cutoff/no-cutoff difference bound; the
# remainder is bounded analytically (valid while this is >= 2 tau).
_BOUND_TERMS = 4096

# Allowance for floating-point rounding of the two computed series.
_ROUNDING = 1e-11


class CheckFailed(Exception):
    """An op's output disagrees with its independent reference."""


def _offsets(seed: int, stream: int):
    u = float(np.random.default_rng([seed, stream]).random())
    while True:
        yield u
        u = (u + _GOLDEN) % 1.0


def _near_integer(tau: float) -> bool:
    return abs(tau - round(tau)) < TAU_MARGIN


def no_cutoff_tolerance(alpha: float, kappa: float, tau: float,
                        ref_tail: float, tail_bound: float = 1e-12) -> float:
    """Bound on |Gamma_cutoff - Gamma_no_cutoff| for the two computed sums.

    Term by term the two series differ by

        (2 alpha^2 / (pi m^3)) [tau (Ci(kappa |m - tau|) - Ci(kappa (m + tau)))
                                - 4 sin^2(kappa tau / 2) sin(m kappa) / kappa],

    and |Ci(x)| <= f(x) + g(x) < 1/x + 1/x^2 for x > 0.  The sum over
    m <= _BOUND_TERMS is taken numerically; beyond it |m - tau| >= m / 2
    bounds the rest.  Added to it: the truncation estimates of both
    series and a rounding allowance.
    """
    m = np.arange(1.0, _BOUND_TERMS + 1.0)
    a = kappa * np.abs(m - tau)
    b = kappa * (m + tau)
    near = np.sum((tau * (1 / a + 1 / a ** 2 + 1 / b + 1 / b ** 2) + 4 / kappa) / m ** 3)
    big_m = float(_BOUND_TERMS)
    rest = (tau / (kappa * big_m ** 3) + 5 * tau / (4 * kappa ** 2 * big_m ** 4)
            + 2 / (kappa * big_m ** 2))
    return 2 * alpha ** 2 / math.pi * (near + rest) + ref_tail + tail_bound + _ROUNDING


def check_against_no_cutoff(label: str, alpha: float, kappa: float, L: float,
                            T: float, gamma: float, d: float):
    """Check D = exp(-gamma) of the cutoff kernel against the no-cutoff series."""
    if abs(d - math.exp(-gamma)) > 4e-16 * max(d, 1e-300):
        raise CheckFailed(f"{label}: D = {d!r} is not exp(-gamma = {gamma!r})")
    ref = kernel.kernel_no_cutoff(alpha, L, T, max_terms=REF_TERMS)
    tau = C_LIGHT * T / L
    tol = no_cutoff_tolerance(alpha, kappa, tau, ref.truncation_estimate)
    if abs(d - ref.kernel) > max(d, ref.kernel) * tol:
        raise CheckFailed(
            f"{label}: D = {d!r} against no-cutoff {ref.kernel!r} at tau = {tau!r} "
            f"(|diff| {abs(d - ref.kernel):.3e} > {max(d, ref.kernel) * tol:.3e})"
        )


class Sweep:
    """``vdl kernel-sweep`` over tau in [delta, 5 + delta], in process.

    Figure and sweep traffic across the published tau range, and the
    only workload that passes through ``cli``: argument parsing, the
    thread pool, formatting and the CSV write.

    delta stays where, at the program's present doubling schedule, every
    op sums the same number of terms (110592) and every point is at
    least TAU_MARGIN from an integer: 0.27 <= delta <= 0.40 without the
    neighbourhood of 1/3, where the third point crosses tau = 2.
    """

    name = "sweep"
    ALPHA = 0.5
    KAPPA = 1e8
    POINTS = 7
    SPAN = 5.0
    DELTA_RANGES = ((0.27, 1 / 3 - TAU_MARGIN), (1 / 3 + TAU_MARGIN, 0.40))

    def __init__(self, workdir: Path):
        self.out = workdir / "sweep.csv"

    def inputs(self, seed: int, stream: int):
        widths = [hi - lo for lo, hi in self.DELTA_RANGES]
        for u in _offsets(seed, stream):
            x = u * sum(widths)
            for (lo, _), w in zip(self.DELTA_RANGES, widths):
                if x < w:
                    yield lo + x
                    break
                x -= w

    def argv(self, delta: float) -> list[str]:
        return ["kernel-sweep", "--sweep", "tau", "--alpha", repr(self.ALPHA),
                "--kappa", repr(self.KAPPA), "--points", str(self.POINTS),
                "--start", repr(delta), "--stop", repr(self.SPAN + delta),
                "--out", str(self.out)]

    def run(self, delta: float) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv(delta))

    def check(self, delta: float, code: int):
        if code != 0:
            raise CheckFailed(f"kernel-sweep exited with {code}")
        lines = self.out.read_text(encoding="utf-8").splitlines()
        rows = [ln for ln in lines if ln and not ln.startswith("#")]
        if rows[:1] != ["tau,alpha,kappa,gamma,D,status"] or len(rows) != self.POINTS + 1:
            raise CheckFailed(f"unexpected CSV layout: {rows[:2]!r}, {len(rows)} rows")
        taus = np.linspace(delta, self.SPAN + delta, self.POINTS)
        for expected_tau, row in zip(taus, rows[1:]):
            tau, alpha, kappa, gamma, d, status = row.split(",")
            if (status != "ok" or float(tau) != expected_tau
                    or float(alpha) != self.ALPHA or float(kappa) != self.KAPPA):
                raise CheckFailed(f"unexpected row {row!r} for tau = {expected_tau!r}")
            T = float(tau) / C_LIGHT
            check_against_no_cutoff(f"sweep tau={tau}", self.ALPHA, self.KAPPA, 1.0, T,
                                     float(gamma), float(d))


class Late:
    """Four ``feasibility.full_report`` calls for the na_cluster.cfg values.

    The molecule velocity is log-spaced across [300, 1000] m/s, which
    gives tau ~ 30-100 at kappa = 1e7 and alpha ~ 0.074: the series length
    (tens of thousands of terms per point) dominates.  Offsets that put a
    tau within TAU_MARGIN of an integer are skipped.  No ``cli``.
    """

    name = "late"
    V_MIN = 300.0
    V_MAX = 1000.0
    POINTS = 4
    LASER = feasibility.LaserConfig(power=10.0, sigma_y=1e-3, sigma_z=1e-7,
                                    grating_period=1e-7)
    CAVITY = feasibility.CavityConfig(plate_separation=1e-3, cutoff_wavenumber=1e10)

    def __init__(self, workdir: Path):
        pass

    def inputs(self, seed: int, stream: int):
        L = self.CAVITY.plate_separation
        for u in _offsets(seed, stream):
            velocities = [self.V_MIN * (self.V_MAX / self.V_MIN) ** ((j + u) / self.POINTS)
                          for j in range(self.POINTS)]
            # the same expression full_report uses for tau
            if any(_near_integer(C_LIGHT * (self.LASER.sigma_z / v) / L) for v in velocities):
                continue
            yield [feasibility.MoleculeSpec("Na cluster (1e6 amu)", polarizability=1e-29,
                                            size=1e-9, mass=1.66053906660e-21, velocity=v)
                   for v in velocities]

    def run(self, molecules):
        return [feasibility.full_report(mol, self.LASER, self.CAVITY) for mol in molecules]

    def check(self, molecules, reports):
        for mol, rep in zip(molecules, reports):
            check_against_no_cutoff(
                f"late v={mol.velocity!r}", rep.alpha, self.CAVITY.kappa,
                self.CAVITY.plate_separation, rep.grating_transit_time,
                rep.kernel_result.gamma, rep.kernel_result.kernel)


class Oracles:
    """Closed form against quadrature, and the plates grid against the kernel.

    One op takes tau in [0.2, 2.5] and runs ``kernel_term`` against
    ``radial_integral_m`` for m = 1..6 at kappa in {50, 200, 1000} (the
    ``oracle-check`` defaults), plus one antisymmetric plates
    ``overlap_excluding_free_space`` on 200 k_par points at kappa = 50
    against ``kernel_at_plates``.  Exercises the quadrature, the grid,
    J(x) and the per-call scalar kernel path at small kappa.
    """

    name = "oracles"
    ALPHA = 0.3
    KAPPAS = (50.0, 200.0, 1000.0)
    M_MAX = 6
    TAU_MIN = 0.2
    TAU_MAX = 2.5
    # oracle-check's default tolerance; the quadrature is held to 1e-9
    REL_TOL = 1e-6
    L = 1e-3
    DIPOLE = 5e-23
    PLATES_KAPPA = 50.0
    K_PAR_POINTS = 200
    # Grid discretisation error in Gamma at 200 k_par points: at most
    # 5.6e-4 over tau in [0.2, 2.5] (47-point scan; it shrinks only as
    # ~N^-0.65 because of the hard cutoff edge), so a 2e-3 margin.
    GRID_GAMMA_TOL = 2e-3

    def __init__(self, workdir: Path):
        pass

    def inputs(self, seed: int, stream: int):
        for u in _offsets(seed, stream):
            yield self.TAU_MIN + (self.TAU_MAX - self.TAU_MIN) * u

    def run(self, tau: float):
        pairs = []
        for kappa in self.KAPPAS:
            params = kernel.DimensionlessParams(self.ALPHA, kappa, tau)
            for m in range(1, self.M_MAX + 1):
                pairs.append((m, kappa, kernel.kernel_term(m, params),
                              modesum.radial_integral_m(m, kappa, tau)))
        grid = cavityfield.ModeGrid(
            n_max=max(self.K_PAR_POINTS, math.ceil(self.PLATES_KAPPA / math.pi)),
            k_par_max=self.PLATES_KAPPA / self.L, k_par_points=self.K_PAR_POINTS, L=self.L)
        d = self.DIPOLE
        grid_d = cavityfield.overlap_excluding_free_space(
            cavityfield.DipoleProfile("left_plate", -d),
            cavityfield.DipoleProfile("right_plate", d),
            tau * self.L / C_LIGHT, grid)
        closed_d = kernel.kernel_at_plates(-d, d, self.L, self.PLATES_KAPPA, tau).kernel
        return pairs, grid_d, closed_d

    def check(self, tau: float, out):
        pairs, grid_d, closed_d = out
        for m, kappa, closed, integral in pairs:
            quad = 2.0 * self.ALPHA ** 2 / math.pi * integral
            rel = abs(closed - quad) / max(abs(closed), abs(quad), 1e-300)
            if not rel <= self.REL_TOL:
                raise CheckFailed(f"oracles m={m} kappa={kappa} tau={tau!r}: "
                                  f"closed {closed!r} against quadrature {quad!r}")
        if not abs(math.log(grid_d) - math.log(closed_d)) <= self.GRID_GAMMA_TOL:
            raise CheckFailed(f"oracles tau={tau!r}: grid D {grid_d!r} against "
                              f"kernel_at_plates {closed_d!r}")


# name -> class; each is constructed with a scratch directory for its outputs
WORKLOADS = {cls.name: cls for cls in (Sweep, Late, Oracles)}
