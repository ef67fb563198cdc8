"""Brute-force mode-sum oracle for the decoherence exponent.

The closed-form kernel series is cross-validated here by direct
quadrature of the radial mode integrals in dimensionless variables
(q = k L, kappa = k_max L, tau = c T / L):

    I_m  = int_0^kappa dq  q sin^2(q tau / 2) J(m q),     m >= 1,
    I_0  = (4/3) int_0^kappa dq  q sin^2(q tau / 2),

with J the angular kernel from spherical coordinates.  The exponent of
the kernel for a single on/off switch (N = 2) is

    Gamma = (alpha^2 / pi) (I_0 + 2 sum_{m>=1} I_m),

where the m = 0 piece is the free-space (boundary-independent)
contribution that the production kernel deliberately leaves out; it is
exposed separately as ``m0_term``.

For a general even number of switches N the squared switching spectrum
sin^2(N omega T / 2) / cos^2(omega T / 2) replaces 4 sin^2(omega T / 2).
Its removable singularities at cos(omega T / 2) = 0 are evaluated
through the Chebyshev identity sin(N theta) = sin(theta) U_{N-1}(cos
theta): for even N the ratio U_{N-1}(c)/c is a polynomial in c^2, so no
0/0 ever forms.

Quadrature is panel Gauss-Legendre with panel doubling and an embedded
error estimate; the initial panel density resolves the fastest phase
max(m, tau) * kappa, which bounds this oracle to moderate cutoffs.  The
production path at kappa = 1e8 is the closed form; the identity the
oracle checks holds for every kappa, so validating at kappa <= 1e4 plus
the cutoff-insensitivity of the closed form covers the physical regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, ConvergenceError
from .specfun import angular_kernel_j, cos_product, sin_product

__all__ = [
    "QuadratureSpec",
    "OSCILLATION_BUDGET",
    "radial_integral_m",
    "m0_term",
    "exponent_general_n",
    "switching_spectrum",
]

# Oscillatory-quadrature feasibility bound on kappa * max(m, tau): above
# this the panel count needed to resolve every oscillation is excessive
# and the caller should use the closed form instead.
OSCILLATION_BUDGET = 1e6

# hard cap on the image-sum length in exponent_general_n
_MSUM_CAP = 4096


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for the adaptive panel quadrature.

    abs_tol doubles as the truncation threshold of the image sum in
    ``exponent_general_n``; it cannot be pushed much below ~1e-12
    because the per-integral values bottom out at the quadrature noise
    floor rel_tol * (integrand mass).
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    max_subdivisions: int = 12
    panels_per_oscillation: int = 4

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.panels_per_oscillation < 4:
            raise ValueError("panels_per_oscillation must be >= 4")


_DEFAULT_SPEC = QuadratureSpec()

# 10-point Gauss-Legendre reference rule; one panel per quarter
# oscillation at the default density already integrates each cycle to
# near machine precision, the doubling pass confirms it.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _check_budget(m: int, kappa: float, tau: float):
    fastest = max(float(m), tau)
    if kappa * fastest > OSCILLATION_BUDGET:
        raise CapabilityError(
            f"kappa*max(m, tau) = {kappa * fastest:.3e} exceeds the oscillatory "
            f"quadrature budget {OSCILLATION_BUDGET:.0e}; use the closed-form kernel"
        )


def _gl_composite(f, kappa: float, n: int) -> float:
    edges = np.linspace(0.0, kappa, n + 1)
    half = 0.5 * (edges[1] - edges[0])
    q = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * _GL_NODES[None, :]
    return half * float(np.sum(f(q) @ _GL_WEIGHTS))


def _panel_quadrature(f, kappa: float, fastest: float, spec: QuadratureSpec):
    """Integrate f over [0, kappa] with composite Gauss-Legendre panels.

    The returned value always satisfies the panels_per_oscillation
    density mandate; the embedded error estimate compares against the
    next-coarser level (conservative, since the fine level is orders of
    magnitude better), and the panel count doubles until the estimate
    meets rel_tol * |I| + abs_tol.
    """
    cycles = kappa * max(fastest, 1e-30) / (2.0 * math.pi)
    n = max(8, int(math.ceil(cycles * spec.panels_per_oscillation)))
    coarse = _gl_composite(f, kappa, max(4, n // 2))
    for _ in range(spec.max_subdivisions):
        val = _gl_composite(f, kappa, n)
        err = abs(val - coarse)
        if err <= spec.rel_tol * abs(val) + spec.abs_tol:
            return val, err
        coarse = val
        n *= 2
    raise ConvergenceError(
        f"panel quadrature did not meet tol within {spec.max_subdivisions} doublings",
        partial=val,
        error_estimate=err,
    )


def radial_integral_m(m: int, kappa: float, tau: float,
                      spec: QuadratureSpec | None = None) -> float:
    """I_m = int_0^kappa dq q sin^2(q tau / 2) J(m q) by adaptive quadrature.

    Estimated relative error <= spec.rel_tol; panel density resolves both
    phases m*q and q*tau.
    """
    spec = spec or _DEFAULT_SPEC
    if m < 1 or m != int(m):
        raise ValueError("m must be a positive integer")
    if tau < 0.0 or not math.isfinite(tau):
        raise ValueError("tau must be finite and >= 0")
    if kappa <= 0.0 or not math.isfinite(kappa):
        raise ValueError("kappa must be finite and positive")
    m = int(m)
    _check_budget(m, kappa, tau)
    if tau == 0.0:
        return 0.0

    def integrand(q):
        return q * np.sin(q * tau / 2.0) ** 2 * angular_kernel_j(m * q)

    val, _ = _panel_quadrature(integrand, kappa, max(float(m), tau), spec)
    return val


def m0_term(kappa: float, tau: float) -> float:
    """Free-space (m = 0) exponent integral, in closed form.

    I_0 = (4/3) int_0^kappa dq q sin^2(q tau / 2)
        = (4/3) [kappa^2/4 - kappa sin(kappa tau)/(2 tau)
                 - (cos(kappa tau) - 1)/(2 tau^2)],

    with I_0 -> 0 as tau -> 0.  Never added into any kernel: this piece
    exists without boundaries and is reversible (false) decoherence in
    the switched-dipole scenario; it is exposed for documentation and
    for subtracting the free-space part from grid-simulator overlaps.
    """
    if kappa <= 0.0 or not math.isfinite(kappa):
        raise ValueError("kappa must be finite and positive")
    if tau < 0.0 or not math.isfinite(tau):
        raise ValueError("tau must be finite and >= 0")
    if tau == 0.0:
        return 0.0
    kt_hi = kappa * tau
    if kt_hi < 1e-3:
        # series in (kappa tau): avoids the three-way cancellation
        return (kappa ** 4 * tau ** 2 / 12.0) * (1.0 - (kt_hi * kt_hi) / 18.0)
    s = sin_product(kappa, tau)
    c = cos_product(kappa, tau)
    return (4.0 / 3.0) * (
        kappa ** 2 / 4.0 - kappa * s / (2.0 * tau) - (c - 1.0) / (2.0 * tau ** 2)
    )


def switching_spectrum(omega_t_half: float, n_switches: int) -> float:
    """|sin(N theta) / cos(theta)| for theta = omega T / 2 and even N.

    Evaluated through the finite Chebyshev form sin(N theta) =
    sin(theta) U_{N-1}(cos theta); for even N the quotient by cos(theta)
    is a polynomial, so the removable singularities at cos(theta) = 0
    (where the value is N up to sign) need no thresholds.
    """
    return abs(_switch_ratio(np.float64(omega_t_half), n_switches))


def _switch_ratio(theta, n_switches: int):
    """Signed sin(N theta)/cos(theta) for even N; array friendly."""
    if n_switches < 2 or n_switches % 2 != 0:
        raise ValueError(
            "n_switches must be even and >= 2: the dipole must be off after the last switch"
        )
    c2 = np.cos(theta) ** 2
    v = np.full_like(np.asarray(theta, dtype=np.float64), 2.0)  # U_1(c)/c
    w = np.ones_like(v)  # U_0(c)
    for _ in range(n_switches // 2 - 1):
        w = 2.0 * c2 * v - w
        v = 2.0 * w - v
    return np.sin(theta) * v


def exponent_general_n(params, spec: QuadratureSpec | None = None) -> float:
    """Decoherence exponent for a general even switch count N, by quadrature.

    Gamma^(N) = (alpha^2/pi) sum_{m != 0} int_0^kappa dq q (1/4)
                sin^2(N q tau / 2) / cos^2(q tau / 2) J(m q),

    truncating the m sum once the last two contributions fall below
    spec.abs_tol (the contributions share the 1/m^3-or-faster envelope
    of the closed-form series).  For N = 2 this reduces algebraically
    to the N = 2 exponent sum (2 alpha^2/pi) sum I_m, which the tests
    assert.  Raises ConvergenceError if the threshold is still unmet
    after _MSUM_CAP image terms.
    """
    spec = spec or _DEFAULT_SPEC
    n = params.n_switches
    kappa, tau, alpha = params.kappa, params.tau, params.alpha
    _check_budget(1, kappa, tau)
    if tau == 0.0 or alpha == 0.0:
        return 0.0

    def integrand_for(m):
        def integrand(q):
            fn = _switch_ratio(q * tau / 2.0, n) ** 2
            return q * 0.25 * fn * angular_kernel_j(m * q)

        return integrand

    prefactor = alpha ** 2 / math.pi
    total = 0.0
    last_two: list[float] = []
    m = 0
    while True:
        m += 1
        if m > _MSUM_CAP:
            raise ConvergenceError(
                f"image sum not below abs_tol = {spec.abs_tol:.1e} within "
                f"{_MSUM_CAP} terms; the per-term quadrature noise floor is "
                "likely above the requested threshold",
                partial=prefactor * total,
                error_estimate=max(last_two) if last_two else float("nan"),
            )
        _check_budget(m, kappa, tau)
        val, _ = _panel_quadrature(integrand_for(m), kappa, max(float(m), tau), spec)
        contribution = prefactor * 2.0 * val  # m and -m
        total += 2.0 * val
        last_two = (last_two + [abs(contribution)])[-2:]
        if len(last_two) == 2 and all(v < spec.abs_tol for v in last_two):
            break
    return prefactor * total
