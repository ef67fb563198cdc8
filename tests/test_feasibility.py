"""Lab-parameter pipeline: fields, dipoles, thresholds, verdicts."""

import math

import pytest

from vdl import feasibility as fz
from vdl.constants import C_LIGHT, E_CHARGE, EPS0, dipole_coupling_scale

NA = fz.MoleculeSpec("Na cluster", polarizability=1e-29, size=1e-9,
                     mass=1.66053906660e-21, velocity=300.0)
C60 = fz.MoleculeSpec("C60", polarizability=1e-32, size=1e-9,
                      mass=1.1955880e-24, velocity=300.0)
LASER = fz.LaserConfig(power=10.0, sigma_y=1e-3, sigma_z=1e-7, grating_period=1e-7)
CAVITY = fz.CavityConfig(plate_separation=1e-3, cutoff_wavenumber=1e10)

# frozen from direct arithmetic of the published formulas (CODATA constants)
EFIELD_REFERENCE = 1.3851612657898582e7
ALPHA_NA_REFERENCE = 0.07385375982847174
COUPLING_SCALE_1MM = 1.8755460372050785e-21


class TestLaserIntensity:
    def test_node_of_the_grating(self):
        assert fz.laser_intensity(0.0, 0.0, 0.0, LASER) == 0.0

    def test_peak(self):
        peak = 8.0 * LASER.power / (math.pi * LASER.sigma_z * LASER.sigma_y)
        got = fz.laser_intensity(LASER.grating_period / 2.0, 0.0, 0.0, LASER)
        assert got == pytest.approx(peak, rel=1e-14)

    def test_gaussian_falloff(self):
        peak = fz.laser_intensity(LASER.grating_period / 2.0, 0.0, 0.0, LASER)
        at_sigma = fz.laser_intensity(LASER.grating_period / 2.0, LASER.sigma_y, 0.0, LASER)
        assert at_sigma == pytest.approx(peak * math.exp(-2.0), rel=1e-13)


class TestEfield:
    def test_frozen_value(self):
        # oracle: |E| = sqrt(2 I_peak / (eps0 c)) with I_peak = 8P/(pi sz sy)
        i_peak = 8.0 * LASER.power / (math.pi * LASER.sigma_z * LASER.sigma_y)
        oracle = math.sqrt(2.0 * i_peak / (EPS0 * C_LIGHT))
        assert oracle == pytest.approx(EFIELD_REFERENCE, rel=1e-14)
        assert fz.efield_amplitude(LASER) == pytest.approx(oracle, rel=1e-14)

    def test_square_root_power_scaling(self):
        quad = fz.LaserConfig(power=40.0, sigma_y=1e-3, sigma_z=1e-7,
                              grating_period=1e-7)
        assert fz.efield_amplitude(quad) == pytest.approx(
            2.0 * fz.efield_amplitude(LASER), rel=1e-14)

    def test_zero_power(self):
        off = fz.LaserConfig(power=0.0, sigma_y=1e-3, sigma_z=1e-7, grating_period=1e-7)
        assert fz.efield_amplitude(off) == 0.0


class TestInducedDipole:
    def test_c60_order(self):
        d = fz.induced_dipole(C60, fz.efield_amplitude(LASER))
        assert 1e-25 / 3.0 <= d <= 1e-25 * 3.0

    def test_na_order(self):
        d = fz.induced_dipole(NA, fz.efield_amplitude(LASER))
        assert 1e-22 / 3.0 <= d <= 1e-22 * 3.0

    def test_zero_field(self):
        assert fz.induced_dipole(NA, 0.0) == 0.0


class TestAlphaFromDipole:
    def test_equal_dipoles(self):
        assert fz.alpha_from_dipole(1e-22, 1e-22, CAVITY) == 0.0

    def test_reference_value(self):
        # 1e-22 C m across 1 mm: alpha ~ 0.053, i.e. order 0.1 at the
        # factor-3 resolution of the published estimate
        alpha = fz.alpha_from_dipole(1e-22, 0.0, CAVITY)
        assert alpha == pytest.approx(1e-22 / COUPLING_SCALE_1MM, rel=1e-14)
        assert 0.1 / 3.0 <= alpha <= 1.0

    def test_linearity(self):
        a1 = fz.alpha_from_dipole(1e-22, 0.0, CAVITY)
        a2 = fz.alpha_from_dipole(2e-22, 0.0, CAVITY)
        assert a2 == pytest.approx(2.0 * a1, rel=1e-14)

    def test_rescaling_invariance(self):
        # d -> s d, L -> s L leaves alpha unchanged
        for s in (2.0, 8.0):
            scaled = fz.CavityConfig(plate_separation=s * 1e-3, cutoff_wavenumber=1e10)
            assert fz.alpha_from_dipole(s * 1e-22, 0.0, scaled) == \
                fz.alpha_from_dipole(1e-22, 0.0, CAVITY)
        odd = fz.CavityConfig(plate_separation=3.0 * 1e-3, cutoff_wavenumber=1e10)
        assert fz.alpha_from_dipole(3.0 * 1e-22, 0.0, odd) == pytest.approx(
            fz.alpha_from_dipole(1e-22, 0.0, CAVITY), rel=1e-14)


class TestDipoleThreshold:
    def test_zero(self):
        assert fz.dipole_threshold(0.0, CAVITY) == 0.0

    def test_low_corner_frozen(self):
        assert fz.dipole_threshold(0.1, CAVITY) == pytest.approx(
            0.1 * COUPLING_SCALE_1MM, rel=1e-14)

    def test_inverse_consistency(self):
        for alpha_crit in (0.1, 0.27, 0.5):
            thr = fz.dipole_threshold(alpha_crit, CAVITY)
            assert fz.alpha_from_dipole(thr, 0.0, CAVITY) == pytest.approx(
                alpha_crit, rel=1e-12)


class TestGratingPhase:
    def test_node(self):
        assert fz.grating_phase(0.0, NA, LASER) == 0.0

    def test_antinode_is_phi0(self):
        phi0 = (8.0 * math.sqrt(2.0 * math.pi) * NA.polarizability
                / (1.054571817e-34 * C_LIGHT) * LASER.power
                / (LASER.sigma_y * NA.velocity))
        got = fz.grating_phase(LASER.grating_period / 2.0, NA, LASER)
        assert got == pytest.approx(phi0, rel=1e-13)
        assert got == pytest.approx(0.2114276597564702, rel=1e-12)

    def test_sigma_z_invariance(self):
        thin = fz.LaserConfig(power=10.0, sigma_y=1e-3, sigma_z=1e-8,
                              grating_period=1e-7)
        x = LASER.grating_period / 2.0
        assert fz.grating_phase(x, NA, thin) == fz.grating_phase(x, NA, LASER)


class TestSuddenness:
    def test_boundary_passes(self):
        mol = fz.MoleculeSpec("edge", 1e-29, 1e-9, 1e-21,
                              velocity=1e-6 * C_LIGHT)
        cav = fz.CavityConfig(plate_separation=1e-3, cutoff_wavenumber=1e10)
        ok, size_ratio, velocity_ratio = fz.suddenness_check(mol, cav)
        assert ok and size_ratio == pytest.approx(velocity_ratio)

    def test_small_cavity_fails(self):
        cav = fz.CavityConfig(plate_separation=1e-5, cutoff_wavenumber=1e10)
        ok, size_ratio, velocity_ratio = fz.suddenness_check(NA, cav)
        assert not ok and size_ratio > velocity_ratio

    def test_point_molecule_passes(self):
        mol = fz.MoleculeSpec("point", 1e-29, 1e-30, 1e-21, 300.0)
        ok, _, _ = fz.suddenness_check(mol, CAVITY)
        assert ok


class TestImageCharge:
    def test_order_one_elementary_charge(self):
        q, tau_d, ok = fz.image_charge_assessment(1e-22, CAVITY, 1e-9)
        assert q == pytest.approx(1e-19, rel=1e-14)
        assert E_CHARGE / 3.0 <= q <= E_CHARGE * 3.0
        assert tau_d == pytest.approx(0.01, rel=1e-14)
        assert ok

    def test_slow_transit_fails(self):
        _, tau_d, ok = fz.image_charge_assessment(1e-22, CAVITY, 0.5 * tau_d_1mm())
        assert not ok


def tau_d_1mm() -> float:
    return (1e4 * 1e-3) ** 3 * 1e-5


class TestFullReport:
    def test_sodium_cluster_feasible(self):
        rep = fz.full_report(NA, LASER, CAVITY)
        assert rep.dipole == pytest.approx(1e-29 * EFIELD_REFERENCE, rel=1e-13)
        assert rep.alpha == pytest.approx(ALPHA_NA_REFERENCE, rel=1e-12)
        assert rep.tau == pytest.approx(C_LIGHT * (1e-7 / 300.0) / 1e-3, rel=1e-13)
        assert all(rep.verdicts.values()), rep.verdicts
        assert 0.0 <= rep.visibility_loss_proxy < 1.0

    def test_c60_fails_threshold_by_three_orders(self):
        rep = fz.full_report(C60, LASER, CAVITY)
        assert not rep.verdicts["dipole_above_threshold"]
        ratio = rep.dipole / rep.threshold_dipole
        assert 1e-4 <= ratio <= 1e-3
        assert rep.verdicts["suddenness"]
        assert rep.verdicts["image_charge_subdominant"]

    def test_zero_power(self):
        off = fz.LaserConfig(power=0.0, sigma_y=1e-3, sigma_z=1e-7, grating_period=1e-7)
        rep = fz.full_report(NA, off, CAVITY)
        assert rep.dipole == 0.0 and rep.alpha == 0.0
        assert rep.visibility_loss_proxy == 0.0

    def test_monotone_in_power(self):
        losses = []
        for power in (0.0, 1.0, 4.0, 10.0, 40.0):
            laser = fz.LaserConfig(power=power, sigma_y=1e-3, sigma_z=1e-7,
                                   grating_period=1e-7)
            losses.append(fz.full_report(NA, laser, CAVITY).visibility_loss_proxy)
        assert all(b >= a for a, b in zip(losses, losses[1:]))

    def test_deterministic(self):
        a = fz.full_report(NA, LASER, CAVITY)
        b = fz.full_report(NA, LASER, CAVITY)
        assert a.efield == b.efield
        assert a.visibility_loss_proxy == b.visibility_loss_proxy
        assert a.verdicts == b.verdicts

    def test_transit_conventions(self):
        one = fz.full_report(NA, LASER, CAVITY, transit_convention="sigma")
        two = fz.full_report(NA, LASER, CAVITY, transit_convention="two_sigma")
        assert two.tau == pytest.approx(2.0 * one.tau, rel=1e-14)
        with pytest.raises(ValueError):
            fz.full_report(NA, LASER, CAVITY, transit_convention="half")

    def test_verdicts_reproducible_from_fields(self):
        rep = fz.full_report(C60, LASER, CAVITY)
        assert rep.verdicts["suddenness"] == (rep.suddenness_ratio <= 1.0)
        assert rep.verdicts["dipole_above_threshold"] == (
            rep.dipole >= rep.threshold_dipole / fz.DIPOLE_VERDICT_SLACK)
        assert rep.verdicts["image_charge_subdominant"] == (
            rep.grating_transit_time / rep.image_decoherence_time
            <= fz.IMAGE_CHARGE_MARGIN)


class TestValidation:
    def test_molecule_positive(self):
        with pytest.raises(ValueError):
            fz.MoleculeSpec("bad", -1e-29, 1e-9, 1e-21, 300.0)

    def test_laser_positive(self):
        with pytest.raises(ValueError):
            fz.LaserConfig(power=-1.0, sigma_y=1e-3, sigma_z=1e-7, grating_period=1e-7)
        with pytest.raises(ValueError):
            fz.LaserConfig(power=1.0, sigma_y=0.0, sigma_z=1e-7, grating_period=1e-7)

    def test_cavity_positive(self):
        with pytest.raises(ValueError, match="plate separation L must be finite and > 0"):
            fz.CavityConfig(plate_separation=0.0, cutoff_wavenumber=1e10)
        with pytest.raises(ValueError):
            fz.CavityConfig(plate_separation=1e-3, cutoff_wavenumber=0.0)

    def test_diffraction_limit_flag(self):
        wide = fz.LaserConfig(power=1.0, sigma_y=1e-3, sigma_z=1e-6, grating_period=1e-7)
        assert wide.above_diffraction_limit
        assert not LASER.above_diffraction_limit
