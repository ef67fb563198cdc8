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
is the Clausen function Sl_3(kappa) (``specfun.clausen_sl3``).  The
bracket part, bracket_m = ln((m + tau)/|m - tau|) + Ci(kappa |m - tau|)
- Ci(kappa (m + tau)), is summed term by term for m = 1..M in one pass.
Beyond M it is a log part and a Ci part.  The log part, the no-cutoff
series L_m = (2 tau / (pi m^3)) ln((m + tau)/(m - tau)), is summed in
closed form by the midpoint Euler-Maclaurin formula (DLMF 2.10(i)):
with a = M + 1/2 and u = tau / a,

    sum_{m>M} L_m = (2 / (pi tau)) [(u^2 - 1) atanh u + u]
                    + L'(a)/24 - 7 L'''(a)/5760 + R,

whose first term is the integral of L(x) over (a, inf).
L(x) = (2 tau / pi) x^-3 * 2 atanh(tau / x) is completely monotone on
(tau, inf), so R has the sign of, and is bounded by, the first omitted
term 31 L^(5)(a)/967680.  With |Ci(x)| <= 1/x + 1/x^2 the Ci part obeys,
for g = M + 1 - tau,

    sum_{m>M} (2 tau / (pi m^3)) |Ci(kappa |m - tau|) - Ci(kappa (m + tau))|
        <= (2 tau / (pi kappa)) (1/g + 1/(kappa g^2)) / M^2.

M is max(32, ceil(tau) + 40): the log tail starts 40 terms past the
resonance structure at m ~ tau, where its omitted term is at most 1.5e-14.
M is raised only where the Ci bound, or a tail bound tighter than the
default, needs more terms (small kappa), to the smallest M meeting it.
The truncation estimate is alpha^2 times the sum of the omitted
Euler-Maclaurin term, the Ci bound and eight ulp of the log tail for
rounding.  It needs no summed term, so M is found before the terms
m = 1..M are summed.

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

    The series is summed up to M = max(min_terms, ceil(tau) + 40) terms
    and its log tail added in closed form; M is raised to the smallest
    count whose truncation estimate is below tail_bound where that one
    misses it.  If even M = max_terms misses the bound, the evaluation
    fails.  Every term goes through the regularized Cin path, which is
    finite at the resonances tau = m and uniformly accurate away from
    them.
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
    order, the directly summed part only.  The log tail T = sum_{m>n} L_m
    and the switching part S = sum_m S_m are summed in closed form, so up
    to rounding gamma = alpha^2 (T + S) + per_term[:, 1].sum().
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


def _ci_majorant(kappa: float, tau: float, gap: float) -> float:
    """(2 tau / kappa) (1/g + 1/(kappa g^2)): pi M^2 times the bound on the
    Ci part beyond M terms (module docstring), for g = M + 1 - tau."""
    return (2.0 * tau / kappa) * (1.0 / gap + 1.0 / (kappa * gap * gap))


def _tail_majorant(alpha: float, kappa: float, tau: float, m_used: int) -> float:
    """Term-by-term upper bound on sum_{m>M} (2 alpha^2 tau / (pi m^3))
    |bracket_m| beyond M = m_used terms: with ln((m + tau)/(m - tau)) <=
    2 tau/(m - tau) its log part is at most (alpha^2/pi) 2 tau^2 / (g M^2),
    g = max(M + 1 - tau, 1).  At kappa = inf it bounds the no-cutoff tail."""
    gap = max(m_used + 1.0 - tau, 1.0)
    return (alpha * alpha / math.pi) * (2.0 * tau ** 2 / gap
                                        + _ci_majorant(kappa, tau, gap)) / m_used ** 2


def _log_part_derivatives(x: float, tau: float) -> tuple[float, float, float]:
    """L'(x), L'''(x) and L^(5)(x) at x > tau for L(x) = (2 tau / pi) x^-3 h(x),
    h(x) = ln((x + tau)/(x - tau)), by Leibniz's rule.

    h^(j) = (-1)^(j-1) (j-1)! [(x + tau)^-j - (x - tau)^-j], and with
    a = 1/(x + tau), b = 1/(x - tau) the bracket is
    -(2 tau / (x^2 - tau^2)) e_j, e_j = sum_{i<j} a^i b^(j-1-i): a sum of
    positive terms, so no difference of nearly equal numbers is formed.
    Every product in L^(n) then has the sign (-1)^n.
    """
    s = (x - tau) * (x + tau)
    a, b = 1.0 / (x + tau), 1.0 / (x - tau)
    h, e, a_j = [math.log1p(2.0 * tau * b)], 1.0, 1.0
    for j in range(1, 6):
        h.append((-1) ** j * math.factorial(j - 1) * (2.0 * tau / s) * e)
        a_j *= a
        e = b * e + a_j
    # the k-th derivative of x^-3
    power = [(-1) ** k * (math.factorial(k + 2) // 2) * x ** (-3 - k) for k in range(6)]
    return tuple((2.0 * tau / math.pi) * sum(math.comb(n, j) * power[n - j] * h[j]
                                             for j in range(n + 1))
                 for n in (1, 3, 5))


def _log_tail(tau: float, m_used: int) -> tuple[float, float]:
    """sum_{m>M} L_m beyond M = m_used > tau terms by the midpoint
    Euler-Maclaurin formula, and a bound on its error: the first omitted
    term plus eight ulp for rounding (module docstring)."""
    a = m_used + 0.5
    u = tau / a
    if u < 0.5:
        # (u^2 - 1) atanh u + u = sum_{k>=1} 2 u^(2k+1) / ((2k - 1)(2k + 1)),
        # free of cancellation and exactly 0 at tau = 0; its terms fall by
        # more than u^2 < 1/4 each, so it stops below 1e-17 of the sum
        u2 = u * u
        series, power, k = 0.0, u2, 1
        while power > 1e-17 * series:
            series += power / ((2 * k - 1) * (2 * k + 1))
            power *= u2
            k += 1
        integral = (4.0 / (math.pi * a)) * series
    else:
        integral = (2.0 / (math.pi * tau)) * (
            (tau - a) * (tau + a) / (a * a) * math.atanh(u) + u)
    d1, d3, d5 = _log_part_derivatives(a, tau)
    value = integral + d1 / 24.0 - 7.0 * d3 / 5760.0
    omitted = 31.0 * abs(d5) / 967680.0
    return value, omitted + 8.0 * math.ulp(value)


def decoherence_kernel(p: DimensionlessParams,
                       policy: SeriesPolicy | None = None) -> DecoherenceResult:
    """Evaluate D = exp(-Gamma) for a single on/off switch.

    Sums the bracket part of Gamma_m for m = 1..M in one pass and adds
    its log tail and the switching part in closed form; the m = 0
    free-space term is excluded unconditionally.  M is
    max(min_terms, ceil(tau) + 40), or the smallest larger count whose
    truncation estimate is below policy.tail_bound where that one
    misses it (module docstring).  At tau = 0 gamma is exactly 0 for
    every alpha.

    Raises ConvergenceError carrying the partial exponent and tail
    estimate if max_terms is not enough, and at once, with partial nan
    and estimate inf, if the estimate at max_terms is not finite.
    """
    policy = policy or _DEFAULT_POLICY
    switching = _switching_prefactor(p)
    n_terms = max(policy.min_terms, math.ceil(p.tau) + 40)
    if n_terms > policy.max_terms:
        raise ValueError(
            f"the mandatory minimum ceil(tau) + 40 = {n_terms} terms exceeds "
            f"the {policy.max_terms}-term limit"
        )
    # At tau = 0 every term and both closed-form parts vanish: a zero
    # prefactor keeps an overflowing alpha^2 from making inf * 0 = nan.
    alpha_sq = p.alpha * p.alpha if p.tau else 0.0

    def ci_bound(n: int) -> float:
        return alpha_sq * _ci_majorant(p.kappa, p.tau, n + 1.0 - p.tau) / (math.pi * n * n)

    def tails(n: int) -> tuple[float, float]:
        """The log tail beyond n terms and the truncation estimate."""
        log_tail, log_error = _log_tail(p.tau, n)
        return log_tail, alpha_sq * log_error + ci_bound(n)

    def meets(n: int) -> bool:
        # the Ci bound alone rules out most counts below M, and is cheap
        return ci_bound(n) < policy.tail_bound and tails(n)[1] < policy.tail_bound

    log_tail, tail = tails(n_terms)
    if not tail < policy.tail_bound:
        if not math.isfinite(tails(policy.max_terms)[1]):
            # alpha^2 or 2 tau / kappa overflows: no count of terms has a bound
            raise ConvergenceError(
                f"kernel series tail estimate is not finite at {policy.max_terms} terms",
                partial=math.nan, error_estimate=math.inf)
        # The estimate decreases in M, so doubling from the floor and then
        # bisecting finds the smallest M meeting the bound (max_terms if
        # none does); M is a few times the floor where the Ci bound sets it.
        lo, hi = n_terms, min(2 * n_terms, policy.max_terms)
        while hi < policy.max_terms and not meets(hi):
            lo, hi = hi + 1, min(2 * hi, policy.max_terms)
        while lo < hi:
            mid = (lo + hi) // 2
            if meets(mid):
                hi = mid
            else:
                lo = mid + 1
        n_terms = lo
        log_tail, tail = tails(n_terms)
    m = np.arange(1, n_terms + 1, dtype=np.float64)
    base = _term_base(m, p.kappa, p.tau)
    gamma = alpha_sq * (float(base.sum()) + log_tail
                        + switching * specfun.clausen_sl3(p.kappa))
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
