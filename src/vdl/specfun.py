"""Special functions for the decoherence kernel series.

Three functions are needed by the closed-form kernel:

* ``cin(x)``   -- the entire cosine integral Cin(x) = sum_{k>=1} (-1)^(k+1)
  x^(2k) / (2k (2k)!), related to the classical cosine integral by
  Cin(x) = gamma + ln(x) - Ci(x).  Cin is what makes the kernel term
  finite at the light round-trip resonances: the would-be logarithmic
  singularity of Ci(kappa|m - tau|) at tau = m cancels analytically.
* ``ci(x)``    -- the cosine integral Ci(x) itself.
* ``angular_kernel_j(x)`` -- J(x) = int_{-1}^{1} (1 - u^2) e^{ixu} du
  = 4 (sin x - x cos x) / x^3, the angular factor of the radial mode
  integral in spherical coordinates.

Ci and Cin have three branches: the Cin power series for x <= 4; for
4 < x < 40, Ci(x) = f(x) sin x - g(x) cos x with f and g from the
continued fraction of E1(ix) (DLMF 6.9), evaluated bottom-up at a fixed
depth of 48, so it has no stopping test and cannot fail; and from 40 on
the same form with the asymptotic series of f and g.  Measured against
40-digit mpmath over x in [1e-300, 1e12]: |dCi| <= 9e-16 max(1, |Ci|)
for x <= 4 and <= 3.4e-16 / x above; |dCin| <= 3.1e-16 max(1, |Cin|).

The module also provides argument reduction modulo 2*pi
(``reduce_two_pi``, ``sin_product``, ``cos_product``) and, on top of
it, the Clausen sum ``clausen_sl3(x) = sum_{m>=1} sin(m x) / m^3`` in
closed form.  The kernel evaluates phases like sin(kappa tau / 2) with
kappa = 1e8; naive product-then-libm loses up to ~1e-7 rad to the
product rounding alone.  Here a*b mod 2*pi is one integer computation:
the 53-bit mantissas of a and b and floor(2^1100 / (2*pi)) multiply
exactly, and the fractional bits of that product are rounded once.  x
mod 2*pi is the same computation with b = 1.  The reduced argument is
good to ~1e-15 rad for every finite product (requirement: 1e-10 for
arguments up to 1e12).

All functions are pure and stateless; they are safe to call from any
number of threads.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import EULER_GAMMA

__all__ = [
    "cin",
    "ci",
    "angular_kernel_j",
    "reduce_two_pi",
    "sin_product",
    "cos_product",
    "clausen_sl3",
]


# Branch switch for Ci/Cin: power series below, auxiliary functions above.
# The series converges fast below 4 and the continued fraction is well
# conditioned above; cross-branch consistency is covered by tests.
_SERIES_CUTOFF = 4.0

# Above this the asymptotic series for the auxiliary functions f, g is
# below double precision at its optimal truncation order.
_ASYMPTOTIC_CUTOFF = 40.0

# Depth of the E1(ix) continued fraction: the smallest that puts f and g
# at the double floor at x = 4, the slowest point of its branch.
_CF_DEPTH = 48

# Cin power series coefficients c_k = (-1)^(k+1) / (2k (2k)!), k = 1..24.
# 24 terms leave a truncation error < 1e-33 at x = 4.
_CIN_COEF = tuple(
    (-1.0) ** (k + 1) / (2.0 * k * math.factorial(2 * k)) for k in range(1, 25)
)

# Asymptotic auxiliary series f(x) = (1/x) sum (-1)^k (2k)!/x^(2k),
# g(x) = (1/x^2) sum (-1)^k (2k+1)!/x^(2k); 21 terms suffice for x >= 40.
_F_COEF = tuple((-1.0) ** k * math.factorial(2 * k) for k in range(22))
_G_COEF = tuple((-1.0) ** k * math.factorial(2 * k + 1) for k in range(22))

# Taylor expansion of J(x) around 0: 4*(1/3 - x^2/30 + x^4/840 - x^6/45360).
# Used below |x| = 1e-2 where sin x - x cos x loses ~O(x^3) relative digits.
_J_TAYLOR_CUTOFF = 1e-2

# ---------------------------------------------------------------------------
# Argument reduction modulo 2*pi.
#
# floor(2^1100 / (2*pi)) as an exact (1098-bit) integer.  Against the
# exact integer product of two 53-bit mantissas it leaves dozens of guard
# bits in frac(a*b / 2pi) for any finite product (whose binary exponent
# never exceeds 1025).
_INV_TWO_PI_INT = int(
    "28be60db9391054a7f09d5f47d4d377036d8a5664f10e4107f9458eaf7aef1586dc91b"
    "8e909374b801924bba827464873f877ac72c4a69cfba208d7d4baed1213a671c09ad17"
    "df904e64758e60d4ce7d272117e2ef7e4a0ec7fe25fff7816603fbcbc462d6829b47db"
    "4d9fb3c9f2c26dd3d18fd9a797fa8b5d49eeb1faf97c5ecf41ce7de294a4ba9af",
    16,
)
_INV_TWO_PI_BITS = 1100

_TWO_PI_HI = 6.283185307179586
_TWO_PI_LO = 2.4492935982947064e-16


def _reduced_product(a: float, b: float) -> float:
    """a*b mod 2*pi in [0, 2*pi), from the exact product of a and b.

    With a = ma 2^(ea-53) and b = mb 2^(eb-53) for integer mantissas,
    frac(a*b / 2pi) = frac(ma mb C / 2^shift), C = _INV_TWO_PI_INT; the
    mask takes that fraction in [0, 1) for either sign of the product.
    """
    a, b = float(a), float(b)
    if not math.isfinite(a * b):
        raise ValueError("product of the arguments overflows")
    fa, ea = math.frexp(a)
    fb, eb = math.frexp(b)
    shift = _INV_TWO_PI_BITS + 106 - ea - eb
    n = int(fa * 9007199254740992.0) * int(fb * 9007199254740992.0)  # 2^53 each
    f = ((n * _INV_TWO_PI_INT) & ((1 << shift) - 1)) / (1 << shift)
    r = f * _TWO_PI_HI + f * _TWO_PI_LO
    return r - _TWO_PI_HI if r >= _TWO_PI_HI else r


def reduce_two_pi(x: float) -> float:
    """Reduce x modulo 2*pi into [0, 2*pi).

    Exact integer arithmetic against floor(2^1100 / (2*pi)); the absolute
    error of the reduced argument is a few 1e-16 for any finite double,
    which is what keeps sin(kappa tau / 2) meaningful at kappa = 1e8.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("reduce_two_pi requires a finite argument")
    return _reduced_product(x, 1.0)


def sin_product(a: float, b: float) -> float:
    """sin(a*b) with the product formed exactly before reduction."""
    return math.sin(_reduced_product(a, b))


def cos_product(a: float, b: float) -> float:
    """cos(a*b) with the product formed exactly before reduction."""
    return math.cos(_reduced_product(a, b))


def clausen_sl3(x: float) -> float:
    """sum_{m>=1} sin(m x) / m^3 in closed form.

    The Clausen function Sl_3(x) = t (t - pi) (t - 2 pi) / 12 with
    t = x mod 2 pi in [0, 2 pi) (DLMF 24.8(i), 25.12); t - 2 pi subtracts
    both parts of 2 pi, so the error stays near 1e-15 for any finite x.
    """
    t = reduce_two_pi(x)
    return t * (t - math.pi) * ((t - _TWO_PI_HI) - _TWO_PI_LO) / 12.0


# ---------------------------------------------------------------------------
# Cin / Ci / J


def _split(x: np.ndarray, small: np.ndarray, below, above) -> np.ndarray:
    """below(x) where the mask small holds and above(x) elsewhere; each
    branch sees only its own elements."""
    out = np.empty_like(x)
    if np.any(small):
        out[small] = below(x[small])
    if not np.all(small):
        out[~small] = above(x[~small])
    return out


def _evaluate(name: str, x, is_small, below, above, invalid=None, domain: str = ""):
    """Shared body of cin, ci and angular_kernel_j: check x (invalid flags
    arguments outside domain), split it by branch, float for a scalar."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} requires finite input")
    if invalid is not None and np.any(invalid(arr)):
        raise ValueError(f"{name} domain error: argument must be {domain}")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = _split(arr, is_small(arr), below, above)
    return float(out[0]) if scalar else out


def _cin_series(x: np.ndarray) -> np.ndarray:
    """Power series for Cin, intended for 0 <= x <= 4."""
    t = x * x
    acc = np.zeros_like(t)
    for c in reversed(_CIN_COEF):
        acc = acc * t + c
    return acc * t


def _ci_fraction(x: np.ndarray) -> np.ndarray:
    """Ci(x) = f(x) sin x - g(x) cos x, with the auxiliary functions f and g
    from the continued fraction of E1(ix) (DLMF 6.9).

    E1(z) = e^{-z} / K, K = z + 1 - 1/(z + 3 - 4/(z + 5 - ...)), is
    evaluated bottom-up at z = ix, cut at _CF_DEPTH; then 1/K = g - i f.
    """
    z = 1j * x
    t = np.zeros_like(z)
    for i in range(_CF_DEPTH, 0, -1):
        t = -float(i * i) / (z + (2.0 * i + 1.0) + t)
    w = 1.0 / (z + 1.0 + t)
    return -w.imag * np.sin(x) - w.real * np.cos(x)


def _ci_asymptotic(x: np.ndarray) -> np.ndarray:
    """Ci(x) = f(x) sin x - g(x) cos x, with f and g from their asymptotic
    series, accurate to ~1e-16 for x >= 40."""
    with np.errstate(over="ignore"):  # t = 0 is the limit once x * x overflows
        t = 1.0 / (x * x)
    f = np.zeros_like(x)
    g = np.zeros_like(x)
    for cf, cg in zip(reversed(_F_COEF), reversed(_G_COEF)):
        f = f * t + cf
        g = g * t + cg
    return f / x * np.sin(x) - g * t * np.cos(x)


def _ci_large(x: np.ndarray) -> np.ndarray:
    """Ci(x) for x > 4: the continued fraction below 40, the asymptotic
    series from 40 on."""
    return _split(x, x < _ASYMPTOTIC_CUTOFF, _ci_fraction, _ci_asymptotic)


def cin(x):
    """Entire cosine integral Cin(x) for x >= 0.

    The power series sum_{k>=1} (-1)^(k+1) x^(2k) / (2k (2k)!) for
    x <= 4, gamma + ln x - Ci(x) above; error <= 3.1e-16 max(1, |Cin|).
    """
    return _evaluate("cin", x, lambda a: a <= _SERIES_CUTOFF, _cin_series,
                     lambda a: EULER_GAMMA + np.log(a) - _ci_large(a),
                     invalid=lambda a: a < 0.0, domain=">= 0")


def ci(x):
    """Cosine integral Ci(x) for x > 0.

    gamma + ln x - Cin(x) for x <= 4; above, f sin x - g cos x with the
    auxiliary functions from the E1 continued fraction (fixed depth 48)
    below 40 and from their asymptotic series from 40 on.  Error
    <= 9e-16 max(1, |Ci|) for x <= 4 and <= 3.4e-16 / x above.
    """
    return _evaluate("ci", x, lambda a: a <= _SERIES_CUTOFF,
                     lambda a: EULER_GAMMA + np.log(a) - _cin_series(a), _ci_large,
                     invalid=lambda a: a <= 0.0, domain="positive")


def _j_taylor(x: np.ndarray) -> np.ndarray:
    """Taylor expansion of J, for |x| < 1e-2."""
    t = x * x
    return 4.0 * (1.0 / 3.0 + t * (-1.0 / 30.0 + t * (1.0 / 840.0 - t / 45360.0)))


def angular_kernel_j(x):
    """Angular kernel J(x) = int_{-1}^{1} (1 - u^2) e^{ixu} du.

    Closed form 4 (sin x - x cos x) / x^3, even in x; the Taylor
    expansion 4/3 - 2x^2/15 + ... is used below |x| = 1e-2 where the
    closed form cancels catastrophically.
    """
    return _evaluate("angular_kernel_j", x, lambda a: np.abs(a) < _J_TAYLOR_CUTOFF,
                     _j_taylor, lambda a: 4.0 * (np.sin(a) - a * np.cos(a)) / a ** 3)
