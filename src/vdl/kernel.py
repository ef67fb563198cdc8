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

Truncation is adaptive against the analytic tail majorant

    sum_{m>M} (2 alpha^2 / (pi m^3)) (2 tau^2/(m - tau) + 4/kappa)
        <= (alpha^2/pi) (2 tau^2/(M+1-tau) + 4/kappa) / M^2,

with a mandatory minimum of ceil(tau) + 10 terms so the resonance
structure near m ~ tau is never truncated away.

Everything is pure given (params, policy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import EULER_GAMMA, C_LIGHT, dipole_coupling_scale
from .errors import ConvergenceError
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

# sin_integer_multiples guarantees accurate phases only below 2^21
_MAX_TERMS_HARD = 2 ** 21


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
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError("alpha must be finite and >= 0")
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise ValueError("kappa must be finite and positive")
        if not (math.isfinite(self.tau) and self.tau >= 0.0):
            raise ValueError("tau must be finite and >= 0")
        if self.n_switches < 2 or self.n_switches % 2 != 0:
            raise ValueError("n_switches must be even and >= 2")


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation policy for the kernel series.

    The stop rule is: at least max(min_terms, ceil(tau) + 10) terms, then
    stop once the analytic tail majorant drops below tail_bound.  Every
    term goes through the regularized Cin path, which is finite at the
    resonances tau = m and uniformly accurate away from them.
    """

    tail_bound: float = 1e-12
    min_terms: int = 32
    max_terms: int = 10 ** 6

    def __post_init__(self):
        if not (self.tail_bound > 0.0):
            raise ValueError("tail_bound must be positive")
        if self.min_terms < 1 or self.max_terms < self.min_terms:
            raise ValueError("need max_terms >= min_terms >= 1")
        if self.max_terms > _MAX_TERMS_HARD:
            raise ValueError(f"max_terms above {_MAX_TERMS_HARD} not supported")


_DEFAULT_POLICY = SeriesPolicy()


@dataclass(frozen=True)
class DecoherenceResult:
    """Exponent, kernel and diagnostics of one series evaluation.

    kernel == exp(-gamma) exactly as computed; per_term is an (n, 2)
    array of (m, Gamma_m) pairs in summation order.
    """

    gamma: float
    kernel: float
    terms_used: int
    per_term: np.ndarray = field(repr=False)
    truncation_estimate: float

    @classmethod
    def from_terms(cls, per_term: np.ndarray, truncation_estimate: float
                   ) -> "DecoherenceResult":
        gamma = float(per_term[:, 1].sum()) if per_term.size else 0.0
        return cls(
            gamma=gamma,
            kernel=math.exp(-gamma),
            terms_used=per_term.shape[0],
            per_term=per_term,
            truncation_estimate=truncation_estimate,
        )


def _term_base(m: np.ndarray, kappa: float, tau: float, sin_half_sq: float
               ) -> np.ndarray:
    """alpha-free kernel terms Gamma_m / alpha^2 for an array of m.

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
    sin_mk = specfun.sin_integer_multiples(kappa, m)
    kt = kappa * tau
    terms = (2.0 / (math.pi * m ** 3 * kappa)) * (
        kt * bracket - 4.0 * sin_half_sq * sin_mk
    )
    if not np.all(np.isfinite(terms)):
        bad = int(m[np.flatnonzero(~np.isfinite(terms))[0]])
        raise ConvergenceError(f"non-finite kernel term at m = {bad}")
    return terms


def kernel_term(m: int, p: DimensionlessParams) -> float:
    """The m-th summand Gamma_m of the decoherence exponent.

    Finite for every tau >= 0 including the resonances tau = m, where
    the value is the two-sided limit of the raw cutoff formula.
    """
    if m < 1 or m != int(m):
        raise ValueError("m must be a positive integer")
    if p.n_switches != 2:
        raise ValueError("closed form requires n_switches = 2; see modesum.exponent_general_n")
    sin_half_sq = specfun.sin_product(p.kappa, 0.5 * p.tau) ** 2
    base = _term_base(np.array([float(int(m))]), p.kappa, p.tau, sin_half_sq)
    return p.alpha ** 2 * float(base[0])


def _tail_majorant(alpha: float, kappa: float, tau: float, m_used: int) -> float:
    """Upper bound on sum_{m>M} (2 alpha^2/(pi m^3)) (2 tau^2/(m-tau) + 4/kappa)."""
    gap = max(m_used + 1.0 - tau, 1.0)
    return (alpha ** 2 / math.pi) * (2.0 * tau ** 2 / gap + 4.0 / kappa) / m_used ** 2


def decoherence_kernel(p: DimensionlessParams,
                       policy: SeriesPolicy | None = None) -> DecoherenceResult:
    """Evaluate D = exp(-Gamma) for a single on/off switch.

    Sums Gamma_m adaptively until the analytic tail majorant falls below
    policy.tail_bound (never before ceil(tau) + 10 terms); the m = 0
    free-space term is excluded unconditionally.

    Raises ConvergenceError carrying the partial exponent and tail
    estimate if max_terms is not enough.
    """
    policy = policy or _DEFAULT_POLICY
    if p.n_switches != 2:
        raise ValueError("closed form requires n_switches = 2; see modesum.exponent_general_n")
    min_eff = max(policy.min_terms, math.ceil(p.tau) + 10)
    if min_eff > policy.max_terms:
        raise ValueError(
            f"policy.max_terms = {policy.max_terms} below the mandatory "
            f"minimum ceil(tau) + 10 = {min_eff}"
        )
    sin_half_sq = specfun.sin_product(p.kappa, 0.5 * p.tau) ** 2
    alpha_sq = p.alpha * p.alpha

    blocks: list[np.ndarray] = []
    m_done = 0
    target = min_eff
    base_sum = 0.0
    while True:
        m_block = np.arange(m_done + 1, target + 1, dtype=np.float64)
        base = _term_base(m_block, p.kappa, p.tau, sin_half_sq)
        blocks.append(np.column_stack((m_block, alpha_sq * base)))
        base_sum += float(base.sum())
        m_done = target
        tail = _tail_majorant(p.alpha, p.kappa, p.tau, m_done)
        if tail < policy.tail_bound:
            break
        if m_done >= policy.max_terms:
            raise ConvergenceError(
                f"kernel series not converged after {m_done} terms "
                f"(tail estimate {tail:.3e} > tail_bound {policy.tail_bound:.3e})",
                partial=alpha_sq * base_sum,
                error_estimate=tail,
            )
        target = min(policy.max_terms, 2 * m_done)
    per_term = np.concatenate(blocks, axis=0)
    gamma = alpha_sq * base_sum
    return DecoherenceResult(
        gamma=gamma,
        kernel=math.exp(-gamma),
        terms_used=m_done,
        per_term=per_term,
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
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError("alpha must be finite and >= 0")
    if not (L > 0.0 and math.isfinite(L)):
        raise ValueError("L must be positive")
    if not (T >= 0.0 and math.isfinite(T)):
        raise ValueError("T must be finite and >= 0")
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    tau = C_LIGHT * T / L
    resonance = round(tau)
    if tau == resonance and 1 <= resonance <= max_terms:
        raise ValueError(
            f"tau = {tau:g} is an integer: the no-cutoff series diverges "
            "logarithmically at the light round-trip resonances"
        )
    m = np.arange(1, max_terms + 1, dtype=np.float64)
    if tau == 0.0:
        log_ratio = np.zeros_like(m)
    else:
        log_ratio = np.empty_like(m)
        far = m > 2.0 * tau
        log_ratio[far] = np.log1p(2.0 * tau / (m[far] - tau))
        log_ratio[~far] = np.log(np.abs((m[~far] + tau) / (m[~far] - tau)))
    coeff = 2.0 * alpha * alpha * tau / math.pi
    contrib = coeff * log_ratio / m ** 3
    gap = max(max_terms + 1.0 - tau, 1.0)
    tail = coeff * tau / (gap * max_terms ** 2)
    per_term = np.column_stack((m, contrib))
    return DecoherenceResult.from_terms(per_term, tail)


def kernel_at_plates(d_left: float, d_right: float, L: float,
                     kappa: float, tau: float,
                     policy: SeriesPolicy | None = None) -> DecoherenceResult:
    """Kernel for superpositions adjacent to the plates at x = +-L/2.

    Valid for the antisymmetric dipole profile d(-L/2) = -d(+L/2) only
    (the case in which the position-dependent mode functions reduce to
    the same even-image sum as the centered, dipole-approximated
    kernel); the coupling is alpha = |d_right - d_left| /
    (L sqrt(4 pi eps0 hbar c)).
    """
    if not (L > 0.0 and math.isfinite(L)):
        raise ValueError("L must be positive")
    delta = d_right - d_left
    if abs(d_left + d_right) > 1e-9 * abs(delta):
        raise ValueError(
            "plates kernel requires the antisymmetric profile d_left = -d_right"
        )
    alpha = abs(delta) / dipole_coupling_scale(L)
    return decoherence_kernel(DimensionlessParams(alpha, kappa, tau), policy)
