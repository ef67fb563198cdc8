"""Acceptance suite.

One test per acceptance check, each printing a single pass/fail line (run with
``pytest tests/test_acceptance.py -s`` to see them inline).  Tolerances
are pinned here and nowhere else.

Check 08b's field-amplitude window [1e6, 1e7] V/m is asserted exactly
as stated even though the published formula sqrt(16 P / (pi sigma_z
sigma_y eps0 c)) evaluates to 1.385e7 V/m for the quoted laser
parameters (P = 10 W, sigma_z = 1e-7 m, sigma_y = 1e-3 m): the check
documents that the order-of-magnitude claim overshoots the stated
window by ~40%, and it is expected to fail.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

import vdl
from vdl import feasibility as fz
from vdl import modesum, specfun
from vdl.constants import C_LIGHT, E_CHARGE, EULER_GAMMA
from vdl.kernel import DimensionlessParams, SeriesPolicy, decoherence_kernel


def report(number: str, name: str, body):
    start = time.monotonic()
    try:
        body()
    except AssertionError:
        print(f"acceptance {number} {name}: FAIL  [{time.monotonic() - start:.2f}s]")
        raise
    print(f"acceptance {number} {name}: PASS  [{time.monotonic() - start:.2f}s]")


def test_acceptance_1_oracle_identity_suite():
    def body():
        start = time.monotonic()
        alpha = 0.3
        worst = 0.0
        for kappa in (50.0, 200.0, 1000.0):
            for tau in (0.3, 0.9, 1.7, 2.5):
                for m in range(1, 7):
                    closed = vdl.kernel_term(m, DimensionlessParams(alpha, kappa, tau))
                    quad = (2.0 * alpha ** 2 / math.pi
                            * modesum.radial_integral_m(m, kappa, tau))
                    rel = abs(closed - quad) / max(abs(closed), abs(quad))
                    worst = max(worst, rel)
        elapsed = time.monotonic() - start
        assert worst <= 1e-6, f"worst deviation {worst:.3e}"
        assert elapsed < 60.0, f"{elapsed:.1f}s over the runtime budget"

    report("01", "closed form vs quadrature oracle", body)


def test_acceptance_2_footnote_no_cutoff_limit():
    def body():
        for tau in (0.37, 3.6, 10.5):
            gamma_cut = decoherence_kernel(DimensionlessParams(0.5, 1e8, tau)).gamma
            gamma_nc = vdl.kernel_no_cutoff(0.5, 1.0, tau / C_LIGHT, 10 ** 6).gamma
            rel = abs(gamma_cut - gamma_nc) / gamma_nc
            assert rel <= 1e-4, f"tau={tau}: {rel:.3e}"

    report("02", "no-cutoff footnote limit at kappa=1e8", body)


def test_acceptance_3_late_time_asymptote():
    def body():
        start = time.monotonic()
        res = decoherence_kernel(DimensionlessParams(0.5, 1e8, 20.5))
        elapsed = time.monotonic() - start
        target = math.pi / 6.0
        assert abs(res.gamma - target) / target <= 0.02
        assert abs((1.0 - res.kernel) - 0.41) <= 0.02
        assert elapsed < 1.0, f"{elapsed:.2f}s over the runtime budget"

    report("03", "late-time exponent pi/6 (40% visibility loss)", body)


def test_acceptance_4_curve_shape():
    def body():
        taus = np.linspace(0.0, 5.0, 1001)
        policy = SeriesPolicy(tail_bound=1e-10)
        d_values = np.array([
            decoherence_kernel(DimensionlessParams(0.5, 1e8, float(t)), policy).kernel
            for t in taus
        ])
        assert d_values[0] == 1.0
        for m in (1, 2, 3, 4):
            window = (taus > m - 0.4) & (taus < m + 0.4)
            tau_min = taus[window][np.argmin(d_values[window])]
            assert abs(tau_min - m) <= 0.05, f"dip near {m} found at {tau_min}"
        for tau in (0.5, 1.5, 2.5, 3.5, 4.5):
            d_cut = decoherence_kernel(DimensionlessParams(0.5, 1e8, tau)).kernel
            d_nc = vdl.kernel_no_cutoff(0.5, 1.0, tau / C_LIGHT).kernel
            assert abs(d_cut - d_nc) / d_nc <= 0.05

    report("04", "curve shape: dips at integer tau, plateaus", body)


def test_acceptance_5_resonance_finiteness():
    def body():
        for m0 in (1.0, 2.0, 3.0):
            g0 = decoherence_kernel(DimensionlessParams(0.5, 1e3, m0)).gamma
            assert math.isfinite(g0) and g0 > 0.0
            for eps in (1e-7, -1e-7):
                g = decoherence_kernel(DimensionlessParams(0.5, 1e3, m0 + eps)).gamma
                assert abs(g - g0) / g0 <= 1e-6

    report("05", "finite and continuous at light round-trip resonances", body)


def test_acceptance_6_grid_simulator_convergence():
    def body():
        start = time.monotonic()
        L = 1e-3
        kappa, tau = 50.0, 0.4
        d = 1e-22
        T = tau * L / C_LIGHT
        alpha = vdl.feasibility.alpha_from_dipole(
            d, 0.0, fz.CavityConfig(L, kappa / L))
        reference = math.exp(-alpha ** 2 / math.pi * sum(
            2.0 * modesum.radial_integral_m(m, kappa, tau) for m in range(1, 140)))
        n_cavity = int(math.ceil(kappa / math.pi))
        devs = []
        for points in (50, 100, 200, 400):
            grid = vdl.ModeGrid(n_max=max(points, n_cavity), k_par_max=kappa / L,
                                k_par_points=points, L=L)
            ov = vdl.overlap_excluding_free_space(
                vdl.DipoleProfile("center", 0.0), vdl.DipoleProfile("center", d),
                T, grid)
            devs.append(abs(ov - reference) / reference)
        elapsed = time.monotonic() - start
        assert devs[-1] <= 0.01, f"400x400 deviation {devs[-1]:.4%}"
        assert devs[-1] < devs[0], f"not decreasing: {devs}"
        assert elapsed < 300.0, f"{elapsed:.0f}s over the runtime budget"

    report("06", "grid simulator converges to the mode-sum oracle", body)


def test_acceptance_7_plates_equivalence():
    def body():
        L = 1e-3
        kappa, tau = 50.0, 0.4
        d = 5e-23
        T = tau * L / C_LIGHT
        n_cavity = int(math.ceil(kappa / math.pi))
        grid = vdl.ModeGrid(n_max=max(400, n_cavity), k_par_max=kappa / L,
                            k_par_points=400, L=L)
        ov = vdl.overlap_excluding_free_space(
            vdl.DipoleProfile("left_plate", -d), vdl.DipoleProfile("right_plate", d),
            T, grid)
        closed = vdl.kernel_at_plates(-d, d, L, kappa, tau).kernel
        assert abs(ov - closed) / closed <= 0.01

    report("07", "plates-adjacent simulator equals the substituted kernel", body)


NA = fz.MoleculeSpec("Na cluster", 1e-29, 1e-9, 1.66053906660e-21, 300.0)
C60 = fz.MoleculeSpec("C60", 1e-32, 1e-9, 1.1955880e-24, 300.0)
LASER = fz.LaserConfig(10.0, 1e-3, 1e-7, 1e-7)
CAVITY = fz.CavityConfig(1e-3, 1e10)


def test_acceptance_8a_dipole_orders():
    def body():
        d_c60 = fz.full_report(C60, LASER, CAVITY).dipole
        d_na = fz.full_report(NA, LASER, CAVITY).dipole
        assert 1e-25 / 3.0 <= d_c60 <= 1e-25 * 3.0, f"C60 dipole {d_c60:.3e}"
        assert 1e-22 / 3.0 <= d_na <= 1e-22 * 3.0, f"Na dipole {d_na:.3e}"

    report("08a", "induced dipoles reproduce the published orders", body)


def test_acceptance_8b_field_amplitude_window():
    def body():
        efield = fz.efield_amplitude(LASER)
        assert 1e6 <= efield <= 1e7, (
            f"|E| = {efield:.6e} V/m falls outside the stated window "
            "[1e6, 1e7]; the published formula itself produces this value "
            "for the quoted P, sigma_z, sigma_y"
        )

    report("08b", "field amplitude inside the stated window", body)


def test_acceptance_8c_threshold_dipole_range():
    def body():
        # over alpha_crit in [0.1, 0.5] and L in [1e-3, 1e-2] the published
        # bracket [1e-22, 1e-21] C m must be covered to within a factor 3
        thresholds = [
            fz.dipole_threshold(alpha_crit, fz.CavityConfig(L, 1e10))
            for alpha_crit in (0.1, 0.2, 0.3, 0.4, 0.5)
            for L in (1e-3, 3e-3, 1e-2)
        ]
        low, high = min(thresholds), max(thresholds)
        assert low <= 1e-22 * 3.0, f"lowest threshold {low:.3e} misses 1e-22"
        assert any(1e-21 / 3.0 <= t <= 1e-21 * 3.0 for t in thresholds), \
            "no parameter choice lands on the 1e-21 end of the bracket"

    report("08c", "threshold dipole bracket 1e-22..1e-21 C m covered", body)


def test_acceptance_8d_image_charge():
    def body():
        q, tau_d, ok = fz.image_charge_assessment(1e-22, CAVITY, 1e-9)
        assert E_CHARGE / 3.0 <= q <= E_CHARGE * 3.0, f"Q = {q:.3e} C"
        assert tau_d == pytest.approx(0.01, rel=1e-12)
        assert ok, "transit 1e-9 s should pass against tau_d = 0.01 s"

    report("08d", "image charge ~1e and tau_d = 0.01 s, transit passes", body)


def test_acceptance_9_special_function_floor():
    def body():
        start = time.monotonic()
        with mp.workdps(50):
            cin_ref = float(mp.nsum(
                lambda k: (-1) ** (k + 1) * mp.mpf(1) ** (2 * k)
                / (2 * k * mp.factorial(2 * k)), [1, 40]))
            ci_ref = float(mp.euler - mp.mpf(cin_ref))
        assert abs(specfun.cin(1.0) - cin_ref) <= 1e-12
        assert abs(specfun.ci(1.0) - ci_ref) <= 1e-12
        x = np.concatenate([np.geomspace(1e-6, 1e4, 400), np.linspace(3.8, 4.2, 80)])
        resid = specfun.ci(x) - (EULER_GAMMA + np.log(x) - specfun.cin(x))
        assert np.max(np.abs(resid)) <= 1e-10
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"{elapsed:.1f}s over the runtime budget"

    report("09", "special-function floor and cross-branch identity", body)


def test_acceptance_10_trivial_invariants():
    def body():
        rng = np.random.default_rng(2026)
        # both alphas sum exactly max(32, ceil(tau) + 40) terms
        fixed = SeriesPolicy(tail_bound=1e300)
        for _ in range(100):
            kappa = float(10 ** rng.uniform(math.log10(50.0), 8.0))
            tau = float(rng.uniform(0.0, 20.0))
            alpha = float(rng.uniform(0.05, 1.0))
            c = float(rng.uniform(0.1, 3.0))
            assert decoherence_kernel(
                DimensionlessParams(0.0, kappa, tau)).kernel == 1.0
            assert decoherence_kernel(
                DimensionlessParams(alpha, kappa, 0.0)).kernel == 1.0
            g1 = decoherence_kernel(DimensionlessParams(alpha, kappa, tau), fixed).gamma
            g2 = decoherence_kernel(
                DimensionlessParams(c * alpha, kappa, tau), fixed).gamma
            if g1 != 0.0:
                assert abs(g2 / g1 - c * c) <= 5e-15 * c * c

    report("10", "trivial invariants and exact alpha^2 scaling", body)
