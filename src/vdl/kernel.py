"""Closed-form decoherence kernel for a suddenly switched dipole.

A dipole between conducting plates (separation L), whose coupling to the
cavity zero-point modes is switched on for a time T and off again,
loses interference contrast by the kernel D = exp(-Gamma) with

    Gamma = sum_{m=1}^inf Gamma_m,

    Gamma_m = (2 alpha^2 / (m^3 pi kappa)) *
              ( kappa tau [ ln(kappa (m + tau)) + gamma_E
                            - Cin(kappa |m - tau|) - Ci(kappa (m + tau)) ]
                - 4 sin^2(kappa tau / 2) sin(m kappa) ),

in the dimensionless variables alpha^2 = (d' - d)^2 / (4 pi eps0 hbar c
L^2), kappa = k_max L (UV cutoff), tau = c T / L.  The bracket is the
exact rewrite of ln|(m+tau)/(m-tau)| + Ci(kappa|m-tau|) through the
entire function Cin, which cancels the logarithmic singularity at the
light round-trip resonances tau = m analytically, so every term is
finite for every tau >= 0.

The m = 0 (free-space) part of the underlying mode sum is never
included here: without boundaries the dressed vacuum tracks only the
instantaneous dipole position and its apparent decoherence is
reversible.  It is available as ``modesum.m0_term`` for diagnostics.

Each term splits into a bracket part and a switching part,

    Gamma_m / alpha^2 = (2 tau / (pi m^3)) bracket_m + S_m,
    S_m = -(8 sin^2(kappa tau / 2) / (pi kappa)) sin(m kappa) / m^3,

and the switching part is summed exactly: sum_{m>=1} sin(m kappa) / m^3
is the Clausen function Sl_3(kappa) (``specfun.clausen_sl3``).  Only the
bracket part, bracket_m = ln((m + tau)/|m - tau|) + Ci(kappa |m - tau|)
- Ci(kappa (m + tau)), is summed term by term.  With
ln((m + tau)/(m - tau)) <= 2 tau/(m - tau) and |Ci(x)| <= 1/x + 1/x^2,
its tail obeys, for g = M + 1 - tau,

    sum_{m>M} (2 alpha^2 tau / (pi m^3)) |bracket_m|
        <= (alpha^2/pi) [2 tau^2/g + (2 tau/kappa) (1/g + 1/(kappa g^2))] / M^2,

and the series is cut at the smallest M whose majorant is below the
tail bound, with a mandatory minimum of ceil(tau) + 10 terms so the
resonance structure near m ~ tau is never truncated away.  The
majorant needs no summed term, so M is found first and the terms
m = 1..M are summed in one pass.

Everything is pure given (params, policy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .constants import EULER_GAMMA, C_LIGHT, dipole_coupling_scale
from .errors import (ConvergenceError, check_antisymmetric, check_count, check_real,
                     check_switch_count)
from . import specfun

__all__ = [
    "DimensionlessParams",
    "SeriesPolicy",
    "DecoherenceResult",
    "kernel_term",
    "decoherence_kernel",
    "kernel_no_cutoff",
    "kernel_at_plates",
]

@dataclass(frozen=True)
class DimensionlessParams:
    """The triple (alpha, kappa, tau) plus switch count that fixes the kernel.

    alpha      dimensionless dipole coupling, the "dipole fine structure
               constant" |d' - d| / (L sqrt(4 pi eps0 hbar c))
    kappa      k_max * L, ultraviolet cutoff in units of the plate spacing
    tau        c * T / L, switched-on duration in light round-trip units
    n_switches total number of on/off switches; the closed form holds for
               a single on/off pair (2); general even counts live in
               ``modesum.exponent_general_n``
    """

    alpha: float
    kappa: float
    tau: float
    n_switches: int = 2

    def __post_init__(self):
        check_real("alpha", self.alpha)
        check_real("kappa", self.kappa, positive=True)
        check_real("tau", self.tau)
        check_switch_count(self.n_switches)


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation policy for the kernel series.

    The series is summed up to the smallest M >= max(min_terms,
    ceil(tau) + 10) whose analytic tail majorant is below tail_bound;
    if even M = max_terms misses the bound, the evaluation fails.  Every
    term goes through the regularized Cin path, which is finite at the
    resonances tau = m and uniformly accurate away from them.
    """

    tail_bound: float = 1e-12
    min_terms: ClassVar[int] = 32
    # a work limit on the terms summed directly
    max_terms: ClassVar[int] = 10 ** 6

    def __post_init__(self):
        check_real("tail_bound", self.tail_bound, positive=True)


_DEFAULT_POLICY = SeriesPolicy()


@dataclass(frozen=True)
class DecoherenceResult:
    """Exponent, kernel and diagnostics of one series evaluation.

    kernel == exp(-gamma) exactly as computed; per_term is an (n, 2)
    array of (m, alpha^2 (2 tau / (pi m^3)) bracket_m) pairs in summation
    order, the directly summed part only.  The switching part alpha^2 S,
    S = sum_m S_m, is summed in closed form, so up to rounding
    gamma = alpha^2 S + per_term[:, 1].sum().
    """

    gamma: float
    kernel: float
    terms_used: int
    per_term: np.ndarray = field(repr=False)
    truncation_estimate: float


def _term_base(m: np.ndarray, kappa: float, tau: float) -> np.ndarray:
    """Bracket part (2 tau / (pi m^3)) bracket_m of Gamma_m / alpha^2 for
    an array of m.

    alpha enters the series only as a squared prefactor, so it is kept
    outside; this also makes the exact alpha^2 scaling of Gamma explicit.
    """
    x_minus = kappa * np.abs(m - tau)
    x_plus = kappa * (m + tau)
    bracket = (
        np.log(x_plus)
        + EULER_GAMMA
        - specfun.cin(x_minus)
        - specfun.ci(x_plus)
    )
    terms = (2.0 * tau / math.pi) * bracket / m ** 3
    if not np.all(np.isfinite(terms)):
        bad = int(m[np.flatnonzero(~np.isfinite(terms))[0]])
        raise ConvergenceError(f"non-finite kernel term at m = {bad}")
    return terms


def _switching_prefactor(p: DimensionlessParams) -> float:
    """-8 sin^2(kappa tau / 2) / (pi kappa), so S_m = that * sin(m kappa) / m^3;
    sin^2(kappa tau / 2) is the factor of a single on/off pair (N = 2)."""
    if p.n_switches != 2:
        raise ValueError("closed form requires n_switches = 2; see modesum.exponent_general_n")
    return -8.0 * specfun.sin_product(p.kappa, 0.5 * p.tau) ** 2 / (math.pi * p.kappa)


def kernel_term(m: int, p: DimensionlessParams) -> float:
    """The m-th summand Gamma_m of the decoherence exponent.

    Finite for every tau >= 0 including the resonances tau = m, where
    the value is the two-sided limit of the raw cutoff formula.
    """
    m = check_count("m", m)
    switching = _switching_prefactor(p)
    base = float(_term_base(np.array([float(m)]), p.kappa, p.tau)[0])
    return p.alpha * p.alpha * (base + switching * specfun.sin_product(p.kappa, m) / m ** 3)


def _tail_majorant(alpha: float, kappa: float, tau: float, m_used: int) -> float:
    """Upper bound on sum_{m>M} (2 alpha^2 tau / (pi m^3)) |bracket_m|, the
    bracket part beyond M = m_used terms (module docstring)."""
    gap = max(m_used + 1.0 - tau, 1.0)
    ci_part = (2.0 * tau / kappa) * (1.0 / gap + 1.0 / (kappa * gap * gap))
    return (alpha * alpha / math.pi) * (2.0 * tau ** 2 / gap + ci_part) / m_used ** 2


def decoherence_kernel(p: DimensionlessParams,
                       policy: SeriesPolicy | None = None) -> DecoherenceResult:
    """Evaluate D = exp(-Gamma) for a single on/off switch.

    Sums the bracket part of Gamma_m for m = 1..M in one pass, where M
    is the smallest count of at least ceil(tau) + 10 terms whose
    analytic tail majorant is below policy.tail_bound, and adds the
    switching part in closed form; the m = 0 free-space term is
    excluded unconditionally.

    Raises ConvergenceError carrying the partial exponent and tail
    estimate if max_terms is not enough, and at once, with partial nan
    and estimate inf, if the majorant at max_terms is not finite.
    """
    policy = policy or _DEFAULT_POLICY
    switching = _switching_prefactor(p)
    min_eff = max(policy.min_terms, math.ceil(p.tau) + 10)
    if min_eff > policy.max_terms:
        raise ValueError(
            f"the mandatory minimum ceil(tau) + 10 = {min_eff} terms exceeds "
            f"the {policy.max_terms}-term limit"
        )
    if not math.isfinite(_tail_majorant(p.alpha, p.kappa, p.tau, policy.max_terms)):
        # alpha^2 or 2 tau / kappa overflows: no count of terms has a bound
        raise ConvergenceError(
            f"kernel series tail majorant is not finite at {policy.max_terms} terms",
            partial=math.nan, error_estimate=math.inf)
    # The majorant strictly decreases in M once M + 1 - tau >= 11, so
    # bisection finds the smallest M meeting the bound (max_terms if none).
    n_terms, hi = min_eff, policy.max_terms
    while n_terms < hi:
        mid = (n_terms + hi) // 2
        if _tail_majorant(p.alpha, p.kappa, p.tau, mid) < policy.tail_bound:
            hi = mid
        else:
            n_terms = mid + 1
    tail = _tail_majorant(p.alpha, p.kappa, p.tau, n_terms)
    m = np.arange(1, n_terms + 1, dtype=np.float64)
    alpha_sq = p.alpha * p.alpha
    base = _term_base(m, p.kappa, p.tau)
    gamma = alpha_sq * (float(base.sum()) + switching * specfun.clausen_sl3(p.kappa))
    if not tail < policy.tail_bound:
        raise ConvergenceError(
            f"kernel series not converged after {n_terms} terms "
            f"(tail estimate {tail:.3e} > tail_bound {policy.tail_bound:.3e})",
            partial=gamma,
            error_estimate=tail,
        )
    return DecoherenceResult(
        gamma=gamma,
        kernel=math.exp(-gamma),
        terms_used=n_terms,
        per_term=np.column_stack((m, alpha_sq * base)),
        truncation_estimate=tail,
    )


def kernel_no_cutoff(alpha: float, L: float, T: float,
                     max_terms: int = 10 ** 6) -> DecoherenceResult:
    """Kernel without an ultraviolet cutoff (compact logarithmic series).

    Gamma = sum_{m=1}^{max_terms} (2 alpha^2 tau / (pi m^3))
            ln|(m + tau)/(m - tau)|,   tau = c T / L.

    Genuinely divergent at integer tau <= max_terms (domain error); the
    cutoff form stays finite there, which is one reason it is the
    production path.
    """
    check_real("alpha", alpha)
    dipole_coupling_scale(L)
    check_real("T", T)
    max_terms = check_count("max_terms", max_terms)
    tau = C_LIGHT * T / L
    resonance = round(tau)
    if tau == resonance and 1 <= resonance <= max_terms:
        raise ValueError(
            f"tau = {tau:g} is an integer: the no-cutoff series diverges "
            "logarithmically at the light round-trip resonances"
        )
    m = np.arange(1, max_terms + 1, dtype=np.float64)
    # ln|(m + tau)/(m - tau)| on both sides of tau, without cancellation
    log_ratio = np.log1p(2.0 * np.minimum(m, tau) / np.abs(m - tau))
    contrib = (2.0 * alpha * alpha * tau / math.pi) * log_ratio / m ** 3
    gamma = float(contrib.sum())
    return DecoherenceResult(
        gamma=gamma,
        kernel=math.exp(-gamma),
        terms_used=max_terms,
        per_term=np.column_stack((m, contrib)),
        truncation_estimate=_tail_majorant(alpha, math.inf, tau, max_terms),
    )


def kernel_at_plates(d_left: float, d_right: float, L: float,
                     kappa: float, tau: float) -> DecoherenceResult:
    """Kernel for superpositions adjacent to the plates at x = +-L/2.

    Valid for the antisymmetric dipole profile d(-L/2) = -d(+L/2) only
    (the case in which the position-dependent mode functions reduce to
    the same even-image sum as the centered, dipole-approximated
    kernel); the coupling is alpha = |d_right - d_left| /
    (L sqrt(4 pi eps0 hbar c)).
    """
    alpha = abs(check_antisymmetric(d_left, d_right)) / dipole_coupling_scale(L)
    return decoherence_kernel(DimensionlessParams(alpha, kappa, tau))
