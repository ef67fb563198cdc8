"""Discrete-mode simulator: amplitudes, overlaps, grid convergence."""

import math

import mpmath as mp
import numpy as np
import pytest

from vdl import cavityfield, modesum
from vdl.cavityfield import DipoleProfile, ModeGrid, amplitude, overlap
from vdl.constants import C_LIGHT, EPS0, HBAR, dipole_coupling_scale
from vdl.kernel import kernel_at_plates

L = 1e-3
KAPPA = 50.0
TAU = 0.4
T = TAU * L / C_LIGHT


def make_grid(points: int, kappa: float = KAPPA) -> ModeGrid:
    n_cavity = int(math.ceil(kappa / math.pi))
    return ModeGrid(n_max=max(points, n_cavity), k_par_max=kappa / L,
                    k_par_points=points, L=L)


def boundary_exponent_reference(delta_d: float, kappa: float, tau: float,
                                m_sum: int = 120) -> float:
    """(alpha^2/pi) * 2 sum I_m from the quadrature oracle (no m = 0)."""
    alpha = abs(delta_d) / dipole_coupling_scale(L)
    return alpha ** 2 / math.pi * sum(
        2.0 * modesum.radial_integral_m(m, kappa, tau) for m in range(1, m_sum + 1))


class TestModeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModeGrid(n_max=0, k_par_max=1e4, k_par_points=10, L=L)
        with pytest.raises(ValueError):
            ModeGrid(n_max=5, k_par_max=1e4, k_par_points=1, L=L)
        with pytest.raises(ValueError):
            ModeGrid(n_max=5, k_par_max=-1.0, k_par_points=10, L=L)
        with pytest.raises(ValueError):
            ModeGrid(n_max=2.5, k_par_max=1e4, k_par_points=10, L=L)
        with pytest.raises(ValueError):
            ModeGrid(n_max=5, k_par_max=1e4, k_par_points=10.5, L=L)

    @pytest.mark.parametrize("bad_L", [math.nan, 0.0, -1e-3])
    def test_plate_separation_rejected(self, bad_L):
        with pytest.raises(ValueError, match="plate separation L must be finite and > 0"):
            ModeGrid(n_max=5, k_par_max=1e4, k_par_points=10, L=bad_L)

    def test_kappa_and_coverage(self):
        grid = make_grid(50)
        assert grid.kappa == pytest.approx(KAPPA)
        assert grid.covers_cutoff()
        small = ModeGrid(n_max=2, k_par_max=KAPPA / L, k_par_points=10, L=L)
        assert not small.covers_cutoff()

    def test_trapezoid_weights_sum_to_range(self):
        grid = make_grid(64)
        assert float(grid.trapezoid_weights.sum()) == pytest.approx(grid.k_par_max)


class TestAmplitude:
    def test_odd_n_decouples_at_center(self):
        grid = make_grid(32)
        for n in (1, 3, 5, 7):
            amp = amplitude((n, 1e4), DipoleProfile("center", 1e-22), T, 2, grid)
            assert amp.modulus == 0.0

    def test_n0_carries_half_weight(self):
        grid = make_grid(32)
        k_par = 2e4
        amp0 = amplitude((0, k_par), DipoleProfile("center", 1e-22), T, 2, grid)
        # same formula with f = 1: recompute directly
        omega = C_LIGHT * k_par
        direct = 1e-22 * k_par * C_LIGHT * 2.0 * math.sin(omega * T / 2.0) / (
            2.0 * math.pi * math.sqrt(omega ** 3 * HBAR * EPS0 * L))
        assert amp0.modulus == pytest.approx(abs(direct) / math.sqrt(2.0), rel=1e-12)

    def test_termwise_recomputation_extended_precision(self):
        # n = 2 mode with omega T / 2 = pi / 4
        grid = make_grid(32)
        n = 2
        omega = math.pi / (2.0 * (T / 2.0))  # omega T/2 = pi/4
        k_par = math.sqrt((omega / C_LIGHT) ** 2 - (n * math.pi / L) ** 2)
        amp = amplitude((n, k_par), DipoleProfile("center", 1e-22), T, 2, grid)
        with mp.workdps(40):
            om = mp.sqrt(mp.mpf(k_par) ** 2 + (n * mp.pi / mp.mpf(L)) ** 2) * mp.mpf(C_LIGHT)
            th = om * mp.mpf(T) / 2
            ref = (mp.mpf(1e-22) * mp.mpf(k_par) * mp.mpf(C_LIGHT) * (-1)
                   * mp.sin(2 * th) / mp.cos(th)
                   / (2 * mp.pi * mp.sqrt(om ** 3 * mp.mpf(HBAR) * mp.mpf(EPS0) * mp.mpf(L))))
            assert amp.modulus == pytest.approx(float(abs(ref)), rel=1e-10)

    def test_plate_factors(self):
        grid = make_grid(32)
        d = 1e-22
        left = amplitude((3, 1e4), DipoleProfile("left_plate", d), T, 2, grid)
        right = amplitude((3, 1e4), DipoleProfile("right_plate", d), T, 2, grid)
        assert left.modulus == right.modulus  # (-1)^3 flips sign only
        assert right.phase == pytest.approx(left.phase - math.pi)
        right_even = amplitude((4, 1e4), DipoleProfile("right_plate", d), T, 2, grid)
        left_even = amplitude((4, 1e4), DipoleProfile("left_plate", d), T, 2, grid)
        assert right_even.phase == left_even.phase

    def test_mode_must_be_on_grid(self):
        grid = make_grid(16)
        with pytest.raises(ValueError):
            amplitude((grid.n_max + 1, 1e4), DipoleProfile("center", 1e-22), T, 2, grid)
        with pytest.raises(ValueError):
            amplitude((0, 2.0 * grid.k_par_max), DipoleProfile("center", 1e-22), T, 2, grid)
        with pytest.raises(ValueError):
            amplitude((2.7, 1e4), DipoleProfile("center", 1e-22), T, 2, grid)

    def test_odd_switch_count_rejected(self):
        grid = make_grid(16)
        for k_par in (1e4, 0.0):
            with pytest.raises(ValueError):
                amplitude((0, k_par), DipoleProfile("center", 1e-22), T, 3, grid)


class TestOverlap:
    def test_identical_profiles(self):
        grid = make_grid(64)
        p = DipoleProfile("center", 1e-22)
        assert overlap(p, p, T, 2, grid) == 1.0

    @pytest.mark.parametrize("n", [4.0, 3])
    def test_switch_count_must_be_even_integer(self, n):
        with pytest.raises(ValueError, match="n_switches must be an even integer >= 2"):
            overlap(DipoleProfile("center", 0.0), DipoleProfile("center", 1e-22), T, n,
                    make_grid(16))

    def test_incompatible_profiles(self):
        grid = make_grid(16)
        with pytest.raises(ValueError):
            overlap(DipoleProfile("center", 0.0), DipoleProfile("left_plate", 1e-22),
                    T, 2, grid)

    def test_matches_manual_mode_product_and_phase_rotation(self):
        # rebuild the overlap from scalar amplitudes as complex numbers;
        # rotating every phase by a common constant must change nothing
        grid = ModeGrid(n_max=8, k_par_max=KAPPA / L, k_par_points=24, L=L)
        pa = DipoleProfile("center", 0.0)
        pb = DipoleProfile("center", 1.2e-21)
        expected = overlap(pa, pb, T, 2, grid)
        for rotation in (0.0, 0.7):
            total = 0.0
            for i, k_par in enumerate(grid.k_par):
                for n in grid.n_values:
                    if k_par ** 2 + (n * math.pi / L) ** 2 > grid.k_par_max ** 2:
                        continue
                    aa = amplitude((int(n), float(k_par)), pa, T, 2, grid)
                    ab = amplitude((int(n), float(k_par)), pb, T, 2, grid)
                    za = aa.modulus * np.exp(-1j * (aa.phase + rotation))
                    zb = ab.modulus * np.exp(-1j * (ab.phase + rotation))
                    w = grid.trapezoid_weights[i] * 2.0 * math.pi * k_par
                    total += w * 0.5 * abs(za - zb) ** 2
            assert math.exp(-total) == pytest.approx(expected, rel=1e-12)

    def test_exponent_quadratic_in_dipole(self):
        grid = make_grid(100)
        base = 2e-22
        gammas = []
        for scale in (1.0, 2.0, 4.0):
            ov = overlap(DipoleProfile("center", 0.0),
                         DipoleProfile("center", base * scale), T, 2, grid)
            gammas.append(-math.log(ov))
        assert gammas[1] / gammas[0] == pytest.approx(4.0, rel=1e-10)
        assert gammas[2] / gammas[0] == pytest.approx(16.0, rel=1e-10)

    def test_grid_convergence_toward_mode_sum(self):
        d = 1e-22
        ref = math.exp(-(boundary_exponent_reference(d, KAPPA, TAU)
                         + alpha_sq_over_pi(d) * modesum.m0_term(KAPPA, TAU)))
        devs = []
        for points in (50, 100, 200):
            ov = overlap(DipoleProfile("center", 0.0), DipoleProfile("center", d),
                         T, 2, make_grid(points))
            devs.append(abs(ov - ref) / ref)
        assert devs[0] > devs[-1]
        assert devs[-1] <= 0.01

    def test_free_space_subtraction_matches_boundary_reference(self):
        d = 1e-22
        got = cavityfield.overlap_excluding_free_space(
            DipoleProfile("center", 0.0), DipoleProfile("center", d), T, make_grid(200))
        ref = math.exp(-boundary_exponent_reference(d, KAPPA, TAU))
        assert got == pytest.approx(ref, rel=0.01)

    def test_plates_antisymmetric_matches_closed_form(self):
        d = 5e-23
        got = cavityfield.overlap_excluding_free_space(
            DipoleProfile("left_plate", -d), DipoleProfile("right_plate", d),
            T, make_grid(200))
        ref = kernel_at_plates(-d, d, L, KAPPA, TAU).kernel
        assert got == pytest.approx(ref, rel=0.01)

    def test_plates_subtraction_requires_antisymmetry(self):
        with pytest.raises(ValueError):
            cavityfield.overlap_excluding_free_space(
                DipoleProfile("left_plate", 1e-22), DipoleProfile("right_plate", 1e-22),
                T, make_grid(32))


def alpha_sq_over_pi(delta_d: float) -> float:
    return (abs(delta_d) / dipole_coupling_scale(L)) ** 2 / math.pi
