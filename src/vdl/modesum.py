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
0/0 ever forms.  The sum over images m of J(m q) has a closed form in
periodic Bernoulli polynomials, so ``exponent_general_n`` is a single
integral over q with no truncated sum.

Quadrature is panel Gauss-Legendre with panel doubling and an embedded
error estimate; the initial panel density resolves the fastest phase
max(m, tau) * kappa, which bounds this oracle to moderate cutoffs.  The
production path at kappa = 1e8 is the closed form; the identity the
oracle checks holds for every kappa, so validating at kappa <= 1e4 plus
the cutoff-insensitivity of the closed form covers the physical regime.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (CapabilityError, ConvergenceError, check_count, check_real,
                     check_switch_count)
from .specfun import (_TWO_PI_HI, _TWO_PI_LO, angular_kernel_j, cos_product,
                      sin_product)

__all__ = [
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

# default relative quadrature tolerance
_REL_TOL = 1e-9
# Absolute quadrature tolerance; it cannot be pushed much below ~1e-12
# because the integrals bottom out at the quadrature noise floor
# rel_tol * (integrand mass).
_ABS_TOL = 1e-11
# panel doublings before the quadrature gives up
_MAX_SUBDIVISIONS = 12
# initial panel density over the fastest phase
_PANELS_PER_OSCILLATION = 4

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


def _gl_composite(f, breaks: np.ndarray, n: int) -> float:
    """n equal Gauss-Legendre panels on each segment between breaks."""
    lo, hi = breaks[:-1, None], breaks[1:, None]
    # np.linspace's arithmetic per segment, without its per-call overhead
    edges = lo + np.arange(n + 1) * ((hi - lo) / n)
    edges[:, -1] = hi[:, 0]
    half = 0.5 * (edges[:, 1] - edges[:, 0])
    q = (0.5 * (edges[:, 1:] + edges[:, :-1]))[..., None] + half[:, None, None] * _GL_NODES
    return float(half @ np.sum(f(q) @ _GL_WEIGHTS, axis=-1))


def _panel_quadrature(f, breaks: np.ndarray, fastest: float, rel_tol: float):
    """Integrate f from breaks[0] to breaks[-1] with composite Gauss-Legendre
    panels, the same number on each segment between consecutive breaks.

    The returned value always satisfies the _PANELS_PER_OSCILLATION
    density mandate on the longest segment; the embedded error estimate
    compares against the next-coarser level (conservative, since the
    fine level is orders of magnitude better), and the panel count
    doubles until the estimate meets rel_tol * |I| + _ABS_TOL.
    """
    width = float((breaks[1:] - breaks[:-1]).max())
    cycles = width * max(fastest, 1e-30) / (2.0 * math.pi)
    n = max(8, int(math.ceil(cycles * _PANELS_PER_OSCILLATION)))
    coarse = _gl_composite(f, breaks, max(4, n // 2))
    for _ in range(_MAX_SUBDIVISIONS):
        val = _gl_composite(f, breaks, n)
        err = abs(val - coarse)
        if err <= rel_tol * abs(val) + _ABS_TOL:
            return val
        coarse = val
        n *= 2
    raise ConvergenceError(
        f"panel quadrature did not meet tol within {_MAX_SUBDIVISIONS} doublings",
        partial=val,
        error_estimate=err,
    )


def radial_integral_m(m: int, kappa: float, tau: float, *,
                      rel_tol: float = _REL_TOL) -> float:
    """I_m = int_0^kappa dq q sin^2(q tau / 2) J(m q) by adaptive quadrature.

    Estimated error <= rel_tol * |I_m| + 1e-11; panel density resolves
    both phases m*q and q*tau.
    """
    check_real("rel_tol", rel_tol, positive=True)
    m = check_count("m", m)
    check_real("tau", tau)
    check_real("kappa", kappa, positive=True)
    _check_budget(m, kappa, tau)
    if tau == 0.0:
        return 0.0

    def integrand(q):
        return q * np.sin(q * tau / 2.0) ** 2 * angular_kernel_j(m * q)

    return _panel_quadrature(integrand, np.array([0.0, kappa]), max(float(m), tau),
                             rel_tol)


def m0_term(kappa: float, tau: float) -> float:
    """Free-space (m = 0) exponent integral, in closed form.

    I_0 = (4/3) int_0^kappa dq q sin^2(q tau / 2)
        = (4/3) [kappa^2/4 - kappa sin(kappa tau)/(2 tau)
                 - (cos(kappa tau) - 1)/(2 tau^2)],

    with I_0 -> 0 as tau -> 0.  Never added into any kernel: this piece
    exists without boundaries and is reversible (false) decoherence in
    the switched-dipole scenario; it is exposed for documentation and
    for subtracting the free-space part from grid-simulator overlaps.
    The result is inf only where I_0 itself overflows.
    """
    check_real("kappa", kappa, positive=True)
    check_real("tau", tau)
    if tau == 0.0:
        return 0.0
    u = kappa * tau
    if u < 1e-3:
        # series kappa^4 tau^2/12 (1 - u^2/18): avoids the three-way cancellation
        return (kappa * u) * (kappa * u / 12.0) * (1.0 - u * u / 18.0)
    if kappa < 1e150 and tau < 1e150:  # no term below leaves the double range
        s = sin_product(kappa, tau)
        c = cos_product(kappa, tau)
        return (4.0 / 3.0) * (
            kappa ** 2 / 4.0 - kappa * s / (2.0 * tau) - (c - 1.0) / (2.0 * tau ** 2)
        )
    # the same I_0 = (kappa^2/3) [1 - 2 sin(u)/u + 2 (1 - cos u)/u^2], whose
    # oscillating terms are below rounding once u overflows
    osc = 0.0 if math.isinf(u) else (
        2.0 * (1.0 - cos_product(kappa, tau)) / (u * u) - 2.0 * sin_product(kappa, tau) / u)
    return kappa * (kappa * (1.0 + osc) / 3.0)


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
    check_switch_count(n_switches)
    c2 = np.cos(theta) ** 2
    v = np.full_like(np.asarray(theta, dtype=np.float64), 2.0)  # U_1(c)/c
    w = np.ones_like(v)  # U_0(c)
    for _ in range(n_switches // 2 - 1):
        w = 2.0 * c2 * v - w
        v = 2.0 * w - v
    return np.sin(theta) * v


def _image_sum_j(q):
    """S(q) = sum_{m>=1} J(m q) for q > 0, in closed form.

    S = 4 [Sl_3(q) / q^3 - Sl_2(q) / q^2], with the Clausen functions
    Sl_3 = t (t - pi) (t - 2 pi) / 12 and Sl_2 = P(t) = pi^2/6 - pi t/2
    + t^2/4 of t = q mod 2 pi (DLMF 24.8(i), 25.12).  Written with
    q = 2 pi k + t, the 1/q^2 parts cancel exactly (S = pi/q - 2/3 below
    2 pi); t is reduced against 2 pi split into two doubles.
    """
    q = np.asarray(q, dtype=np.float64)
    t_hi = np.fmod(q, _TWO_PI_HI)
    k = np.rint((q - t_hi) / _TWO_PI_HI)
    t = t_hi - k * _TWO_PI_LO
    below = t < 0.0  # q lies just under the true 2 pi k
    k, t = k - below, np.where(below, t + _TWO_PI_HI, t)
    p = math.pi ** 2 / 6.0 - t * (math.pi / 2.0 - t / 4.0)
    return 4.0 * ((t / q) ** 2 * (math.pi / 4.0 - t / 6.0) - 2.0 * math.pi * k * p / q / q) / q


def exponent_general_n(params) -> float:
    """Decoherence exponent for a general even switch count N, by quadrature.

    Gamma^(N) = (alpha^2/pi) sum_{m != 0} int_0^kappa dq q (1/4)
                sin^2(N q tau / 2) / cos^2(q tau / 2) J(m q),

    with the image sum over m in closed form (_image_sum_j), so nothing
    is truncated: one Gauss-Legendre quadrature, with panel edges at the
    kinks q = 2 pi k of that sum.  For N = 2 this reduces algebraically
    to the N = 2 exponent sum (2 alpha^2/pi) sum I_m, which the tests
    assert.  The only ConvergenceError is the quadrature's own.
    """
    n = params.n_switches
    kappa, tau, alpha = params.kappa, params.tau, params.alpha
    _check_budget(1, kappa, tau)
    if tau == 0.0 or alpha == 0.0:
        return 0.0

    def integrand(q):
        return q * 0.25 * _switch_ratio(q * tau / 2.0, n) ** 2 * _image_sum_j(q)

    breaks = np.append(np.arange(0.0, kappa, 2.0 * math.pi), kappa)
    val = _panel_quadrature(integrand, breaks, (n - 1) * tau, _REL_TOL)
    return 2.0 * alpha * alpha / math.pi * val
