"""First-principles discrete-mode simulator of the dressed cavity vacuum.

Instead of the resummed closed form, this module builds the coherent
displacement amplitude of every cavity mode (n, k_par) excited by the
switched dipole and multiplies the per-mode overlaps together:

    |D| = exp( -1/2 sum_modes |alpha_a - alpha_b|^2 ),

with the continuum k_par integral discretized on a uniform grid with
trapezoidal weights and measure d^2 k_par = 2 pi k_par dk_par (only the
polarization whose electric field has an x component at the dipole
couples, and it depends on |k_par| alone).

The per-mode amplitude for a dipole d at position x, switched on and
off N times with period T, is

    alpha_{k n}(x) = d f(n) k_par c chi_n(x)
                     / (2 pi sqrt(omega_n^3 hbar eps0 L))
                     * sin(N omega_n T / 2) e^{-i phi} / cos(omega_n T / 2),

    phi = pi + (N + 1) omega_n T / 2,
    omega_n^2 / c^2 = k_par^2 + n^2 pi^2 / L^2,
    f(0) = 1/sqrt(2),  f(n>0) = 1,

where the position factor chi_n is cos(n pi / 2) at the cavity center
(odd n decouple there), 1 at the left plate x = -L/2 and (-1)^n at the
right plate.  The removable zeros of cos(omega T / 2) are evaluated
through the same finite Chebyshev form as in ``modesum``.

Modes with k_par^2 + (n pi / L)^2 beyond the cutoff are excluded, so
the grid shares the spherical cutoff geometry of the closed form.  A
finite grid cannot separate the free-space (m = 0) part mode by mode;
``overlap_excluding_free_space`` subtracts it analytically so grid
results can be compared against the boundary-only kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import C_LIGHT, EPS0, HBAR, dipole_coupling_scale
from . import modesum

__all__ = [
    "ModeGrid",
    "DipoleProfile",
    "CoherentAmplitude",
    "amplitude",
    "overlap",
    "overlap_excluding_free_space",
]

_POSITIONS = ("center", "left_plate", "right_plate")


@dataclass(frozen=True)
class ModeGrid:
    """Discretized (n, k_par) cavity modes.

    n runs over the exact integers 0..n_max (the cavity direction is
    genuinely discrete); k_par over a uniform grid of k_par_points
    values in [0, k_par_max] carrying trapezoidal weights.  k_par_max is
    also the spherical cutoff, so kappa = k_par_max * L.
    """

    n_max: int
    k_par_max: float
    k_par_points: int
    L: float

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.k_par_points < 2:
            raise ValueError("k_par_points must be >= 2")
        if not (self.k_par_max > 0.0 and math.isfinite(self.k_par_max)):
            raise ValueError("k_par_max must be positive")
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValueError("L must be positive")

    @property
    def kappa(self) -> float:
        return self.k_par_max * self.L

    def covers_cutoff(self) -> bool:
        """True when n_max reaches every cavity mode below the cutoff."""
        return self.n_max >= self.kappa / math.pi

    @cached_property
    def k_par(self) -> np.ndarray:
        return np.linspace(0.0, self.k_par_max, self.k_par_points)

    @cached_property
    def trapezoid_weights(self) -> np.ndarray:
        dk = self.k_par[1] - self.k_par[0]
        w = np.full(self.k_par_points, dk)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    @cached_property
    def n_values(self) -> np.ndarray:
        return np.arange(0, self.n_max + 1)


@dataclass(frozen=True)
class DipoleProfile:
    """Dipole moment attached to one of the three supported positions."""

    position_tag: str
    d: float

    def __post_init__(self):
        if self.position_tag not in _POSITIONS:
            raise ValueError(f"position_tag must be one of {_POSITIONS}")
        if not math.isfinite(self.d):
            raise ValueError("dipole moment must be finite")


@dataclass(frozen=True)
class CoherentAmplitude:
    """Per-mode coherent displacement: alpha = modulus * exp(-i phase)."""

    modulus: float
    phase: float
    n: int
    k_par: float


def _position_factor(tag: str, n: np.ndarray) -> np.ndarray:
    if tag == "center":
        # cos(n pi / 2): exactly 0 for odd n, (-1)^(n/2) for even n
        out = np.zeros(n.shape, dtype=np.float64)
        even = n % 2 == 0
        out[even] = np.where(n[even] % 4 == 0, 1.0, -1.0)
        return out
    if tag == "left_plate":
        return np.ones(n.shape, dtype=np.float64)
    return np.where(n % 2 == 0, 1.0, -1.0)  # right plate, (-1)^n


def _signed_displacement(d: float, tag: str, T: float, N: int, kp: np.ndarray,
                         n: np.ndarray, grid: ModeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Signed real displacement R of the modes (kp, n) and their cutoff mask.

    kp and n broadcast against each other.  R is left unmasked: modes
    beyond the cutoff keep their value, and only ``overlap`` drops them.
    The common phase e^{-i phi} is position independent and drops out of
    every |alpha_a - alpha_b|; it is reattached only in ``amplitude``.
    """
    k_sq = kp ** 2 + (n * math.pi / grid.L) ** 2
    inside = k_sq <= grid.k_par_max ** 2
    omega = C_LIGHT * np.sqrt(k_sq)
    f = np.where(n == 0, 1.0 / math.sqrt(2.0), 1.0)
    chi = _position_factor(tag, n)
    switch = modesum._switch_ratio(omega * T / 2.0, N)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = d * f * kp * C_LIGHT * chi * switch / (
            2.0 * math.pi * np.sqrt(omega ** 3 * HBAR * EPS0 * grid.L)
        )
    # k_par = 0 modes: the numerator k_par wins over omega^(-3/2), limit 0
    return np.where(kp == 0.0, 0.0, r), inside


def amplitude(mode: tuple[int, float], profile: DipoleProfile, T: float,
              N: int, grid: ModeGrid) -> CoherentAmplitude:
    """Coherent amplitude of a single grid mode.

    The stored phase is phi = pi + (N + 1) omega T / 2, shifted by pi
    when the real prefactor is negative so that modulus stays >= 0.
    """
    n, k_par = int(mode[0]), float(mode[1])
    if not (0 <= n <= grid.n_max):
        raise ValueError(f"mode integer n = {n} outside the grid 0..{grid.n_max}")
    if not (0.0 <= k_par <= grid.k_par_max):
        raise ValueError("k_par outside the grid range")
    r, _ = _signed_displacement(profile.d, profile.position_tag, T, N,
                                np.array([k_par]), np.array([n]), grid)
    signed = float(r[0])
    omega = C_LIGHT * math.hypot(k_par, n * math.pi / grid.L)
    phase = math.pi + (N + 1) * omega * T / 2.0
    if signed < 0.0:
        phase -= math.pi
    return CoherentAmplitude(modulus=abs(signed), phase=phase, n=n, k_par=k_par)


def _check_compatible(a: DipoleProfile, b: DipoleProfile):
    if (a.position_tag == "center") != (b.position_tag == "center"):
        raise ValueError(
            "profiles must share a position class: both center or both plate-type"
        )


def overlap(profile_a: DipoleProfile, profile_b: DipoleProfile, T: float,
            N: int, grid: ModeGrid) -> float:
    """|<E_a | E_b>| on the truncated mode grid.

    exp(-1/2 sum w_trap 2 pi k_par |alpha_a - alpha_b|^2) with the sum
    over all modes inside the spherical cutoff.  The reduction order is
    fixed (numpy pairwise summation over the dense grid), so repeated
    evaluations are bitwise identical.
    """
    _check_compatible(profile_a, profile_b)
    if T < 0.0 or not math.isfinite(T):
        raise ValueError("T must be finite and >= 0")
    kp, n = grid.k_par[:, None], grid.n_values[None, :]
    r_a, inside = _signed_displacement(profile_a.d, profile_a.position_tag, T, N,
                                       kp, n, grid)
    r_b, _ = _signed_displacement(profile_b.d, profile_b.position_tag, T, N, kp, n, grid)
    diff_sq = np.where(inside, r_a - r_b, 0.0) ** 2
    measure = grid.trapezoid_weights[:, None] * 2.0 * math.pi * grid.k_par[:, None]
    exponent = 0.5 * float(np.sum(measure * diff_sq))
    return math.exp(-exponent)


def overlap_excluding_free_space(profile_a: DipoleProfile,
                                 profile_b: DipoleProfile, T: float,
                                 grid: ModeGrid) -> float:
    """Grid overlap with the free-space (m = 0) exponent removed analytically.

    The finite grid necessarily contains the boundary-independent part of
    the mode sum; dividing it out (adding back (alpha^2/pi) I_0) makes the
    result comparable to the boundary-only closed-form kernel.  N = 2 only.
    Plate-type profile pairs must be antisymmetric, d_a = -d_b, the one
    case in which the plate overlap reduces to the same even-image sum.
    """
    _check_compatible(profile_a, profile_b)
    delta = profile_b.d - profile_a.d
    plates = profile_a.position_tag != "center"
    if plates and abs(profile_a.d + profile_b.d) > 1e-9 * abs(delta):
        raise ValueError("free-space subtraction at the plates requires d_a = -d_b")
    alpha = abs(delta) / dipole_coupling_scale(grid.L)
    tau = C_LIGHT * T / grid.L
    gamma_free = alpha ** 2 / math.pi * modesum.m0_term(grid.kappa, tau)
    return overlap(profile_a, profile_b, T, 2, grid) * math.exp(gamma_free)
