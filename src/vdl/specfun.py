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

Branching follows standard practice: the power series below x = 4, and
the auxiliary-function form Ci(x) = f(x) sin x - g(x) cos x above, with
f and g obtained from the continued fraction of E1(ix) for moderate x
and from their asymptotic series once that is accurate to double
precision (x >= 40).

The module also provides correctly rounded argument reduction modulo
2*pi (``reduce_two_pi``, ``sin_product``, ``sin_integer_multiples``).
The kernel evaluates phases like sin(m*kappa) with kappa = 1e8 and m up
to 1e6; naive product-then-libm loses up to ~1e-7 rad to the product
rounding alone, while the helpers here keep the reduced argument good
to ~1e-15 rad (requirement: 1e-10 for arguments up to 1e12).

All functions are pure and stateless; they are safe to call from any
number of threads.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import EULER_GAMMA
from .errors import ConvergenceError

__all__ = [
    "cin",
    "ci",
    "angular_kernel_j",
    "reduce_two_pi",
    "sin_product",
    "cos_product",
    "sin_integer_multiples",
]


# Branch switch for Ci/Cin: power series below, auxiliary functions above.
# The series converges fast below 4 and the continued fraction is well
# conditioned above; cross-branch consistency is covered by tests.
_SERIES_CUTOFF = 4.0

# Above this the asymptotic series for the auxiliary functions f, g is
# below double precision at its optimal truncation order.
_ASYMPTOTIC_CUTOFF = 40.0

# Continued fraction of E1(ix): stop once every Lentz factor is within
# _CF_TOL of 1; ConvergenceError if that takes more than _CF_MAX_TERMS.
_CF_TOL = 1e-14
_CF_MAX_TERMS = 200

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
# floor(2^1100 / (2*pi)) as an exact integer; multiplying the (exactly
# known) binary mantissa of x against it and keeping the fractional bits
# yields frac(x / 2pi) with dozens of guard bits for any finite double
# (the binary exponent of a double never exceeds 1024).
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

# Cody-Waite split of 2*pi: c1 has ~32 significant bits so k*c1 is exact
# for integer k < 2^21, which bounds the usable multiple count below.
_CW1 = 6.2831853069365025
_CW2 = 2.430840181921745e-10
_CW3 = 2.068073192717642e-18
_MAX_MULTIPLE = 2 ** 21

_SPLITTER = 134217729.0  # 2^27 + 1, Dekker splitting constant


def _two_product(a: float, b: float) -> tuple[float, float]:
    """Exact product a*b = p + e (Dekker). Valid away from overflow."""
    p = a * b
    ah = _SPLITTER * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLITTER * b
    bh = bh - (bh - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def _frac_two_pi(x: float) -> tuple[int, int]:
    """Fractional part of |x|/(2*pi) as an exact pair (frac, shift):
    the fraction equals frac / 2**shift."""
    m, e = math.frexp(abs(x))
    mant = int(m * 9007199254740992.0)  # 2^53; exact, |x| = mant * 2^(e-53)
    shift = _INV_TWO_PI_BITS - e + 53
    frac = (mant * _INV_TWO_PI_INT) & ((1 << shift) - 1)
    return frac, shift


def reduce_two_pi(x: float) -> float:
    """Reduce x modulo 2*pi into [0, 2*pi).

    Exact integer arithmetic against a 500-bit 1/(2*pi); the absolute
    error of the reduced argument is a few 1e-16 for any finite double,
    which is what keeps sin(m*kappa) meaningful at kappa = 1e8.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("reduce_two_pi requires a finite argument")
    if x == 0.0:
        return 0.0
    frac, shift = _frac_two_pi(x)
    f = frac / (1 << shift)
    r = f * _TWO_PI_HI + f * _TWO_PI_LO
    if x < 0.0:
        r = _TWO_PI_HI - r if r != 0.0 else 0.0
    if r >= _TWO_PI_HI:
        r -= _TWO_PI_HI
    return r


def _reduced_angle_dd(a: float) -> tuple[float, float]:
    """a mod 2*pi for a >= 0 as a double-double (hi, lo)."""
    if a == 0.0:
        return 0.0, 0.0
    frac, shift = _frac_two_pi(a)
    top = frac >> (shift - 53)
    f1 = top / 9007199254740992.0
    f2 = (frac - (top << (shift - 53))) / (1 << shift)
    p, e = _two_product(f1, _TWO_PI_HI)
    rest = f1 * _TWO_PI_LO + f2 * _TWO_PI_HI + e
    return _two_sum(p, rest)


def sin_product(a: float, b: float) -> float:
    """sin(a*b) with the product formed exactly before reduction."""
    p, e = _two_product(float(a), float(b))
    if not math.isfinite(p):
        raise ValueError("sin_product arguments overflow")
    return math.sin(reduce_two_pi(p) + e)


def cos_product(a: float, b: float) -> float:
    """cos(a*b) with the product formed exactly before reduction."""
    p, e = _two_product(float(a), float(b))
    if not math.isfinite(p):
        raise ValueError("cos_product arguments overflow")
    return math.cos(reduce_two_pi(p) + e)


def sin_integer_multiples(angle: float, m: np.ndarray) -> np.ndarray:
    """sin(m * angle) for an array of integer-valued m, reduced accurately.

    The reduced representative of ``angle`` is carried as a double-double
    and multiplied by m exactly, so the phase error stays ~1e-15 rad even
    for angle ~ 1e12 and m up to 2^21.
    """
    angle = float(angle)
    if not math.isfinite(angle):
        raise ValueError("angle must be finite")
    m = np.asarray(m, dtype=np.float64)
    if m.size and np.max(np.abs(m)) >= _MAX_MULTIPLE:
        raise ValueError(f"multiples must stay below 2^21, got {np.max(np.abs(m))}")
    hi, lo = _reduced_angle_dd(abs(angle))
    p = m * hi
    # vectorized Dekker two-product error of m*hi
    mh = _SPLITTER * m
    mh = mh - (mh - m)
    ml = m - mh
    hh = _SPLITTER * hi
    hh = hh - (hh - hi)
    hl = hi - hh
    err = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl
    corr = err + m * lo
    k = np.round(p * (1.0 / _TWO_PI_HI))
    r = ((p - k * _CW1) - k * _CW2) - k * _CW3 + corr
    s = np.sin(r)
    return -s if angle < 0.0 else s


# ---------------------------------------------------------------------------
# Cin / Ci


def _cin_series(x: np.ndarray) -> np.ndarray:
    """Power series for Cin, intended for 0 <= x <= 4."""
    t = x * x
    acc = np.zeros_like(t)
    for c in reversed(_CIN_COEF):
        acc = acc * t + c
    return acc * t


def _aux_fg_cf(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Auxiliary functions (f, g) from the continued fraction of E1(ix).

    E1(z) = e^{-z} / (z + 1 - 1/(z + 3 - 4/(z + 5 - ...))) evaluated with
    the modified Lentz algorithm at z = ix; then 1/K = g + i(-f), i.e.
    f = -Im(1/K) and g = Re(1/K), satisfying f ~ 1/x, g ~ 1/x^2.
    """
    z = 1j * x
    fval = z + 1.0
    C = fval.copy()
    D = np.zeros_like(z)
    converged = np.zeros(x.shape, dtype=bool)
    for i in range(1, _CF_MAX_TERMS + 1):
        a = -float(i * i)
        b = z + (2.0 * i + 1.0)
        D = b + a * D
        D = np.where(D == 0, 1e-300, D)
        C = b + a / C
        C = np.where(C == 0, 1e-300, C)
        D = 1.0 / D
        delta = C * D
        fval = fval * delta
        converged |= np.abs(delta - 1.0) < _CF_TOL
        if np.all(converged):
            break
    if not np.all(converged):
        raise ConvergenceError(
            f"cosine-integral continued fraction not converged in {_CF_MAX_TERMS} terms"
        )
    w = 1.0 / fval
    return -w.imag, w.real


def _aux_fg_asymptotic(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Asymptotic auxiliary series, accurate to ~1e-16 for x >= 40."""
    t = 1.0 / (x * x)
    f = np.zeros_like(x)
    g = np.zeros_like(x)
    for cf, cg in zip(reversed(_F_COEF), reversed(_G_COEF)):
        f = f * t + cf
        g = g * t + cg
    return f / x, g * t


def _ci_large(x: np.ndarray) -> np.ndarray:
    """Ci(x) = f(x) sin x - g(x) cos x for x > series cutoff."""
    f = np.empty_like(x)
    g = np.empty_like(x)
    cf_mask = x < _ASYMPTOTIC_CUTOFF
    if np.any(cf_mask):
        f[cf_mask], g[cf_mask] = _aux_fg_cf(x[cf_mask])
    if np.any(~cf_mask):
        f[~cf_mask], g[~cf_mask] = _aux_fg_asymptotic(x[~cf_mask])
    return f * np.sin(x) - g * np.cos(x)


def cin(x):
    """Entire cosine integral Cin(x) for x >= 0.

    Cin(x) = sum_{k>=1} (-1)^(k+1) x^(2k) / (2k (2k)!) for small x;
    gamma + ln x - Ci(x) on the large-x branch.  Absolute error is
    below 1e-12 for x <= 1e4.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("cin requires finite input")
    if np.any(arr < 0.0):
        raise ValueError("cin domain error: argument must be >= 0")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    small = arr <= _SERIES_CUTOFF
    out[small] = _cin_series(arr[small])
    big = ~small
    if np.any(big):
        xb = arr[big]
        out[big] = EULER_GAMMA + np.log(xb) - _ci_large(xb)
    return float(out[0]) if scalar else out


def ci(x):
    """Cosine integral Ci(x) for x > 0.

    gamma + ln x - cin(x) on the series branch; f sin - g cos with
    asymptotic auxiliary functions on the large-x branch.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("ci requires finite input")
    if np.any(arr <= 0.0):
        raise ValueError("ci domain error: argument must be positive")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    small = arr <= _SERIES_CUTOFF
    if np.any(small):
        xs = arr[small]
        out[small] = EULER_GAMMA + np.log(xs) - _cin_series(xs)
    big = ~small
    if np.any(big):
        out[big] = _ci_large(arr[big])
    return float(out[0]) if scalar else out


def angular_kernel_j(x):
    """Angular kernel J(x) = int_{-1}^{1} (1 - u^2) e^{ixu} du.

    Closed form 4 (sin x - x cos x) / x^3, even in x; the Taylor
    expansion 4/3 - 2x^2/15 + ... is used below |x| = 1e-2 where the
    closed form cancels catastrophically.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("angular_kernel_j requires finite input")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    small = np.abs(arr) < _J_TAYLOR_CUTOFF
    if np.any(small):
        t = arr[small] ** 2
        out[small] = 4.0 * (
            1.0 / 3.0 + t * (-1.0 / 30.0 + t * (1.0 / 840.0 - t / 45360.0))
        )
    big = ~small
    if np.any(big):
        xb = arr[big]
        out[big] = 4.0 * (np.sin(xb) - xb * np.cos(xb)) / xb ** 3
    return float(out[0]) if scalar else out
