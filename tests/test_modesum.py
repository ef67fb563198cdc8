"""Quadrature oracle: radial integrals, free-space term, general switch counts."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vdl import modesum
from vdl.errors import CapabilityError, ConvergenceError
from vdl.kernel import DimensionlessParams, SeriesPolicy, decoherence_kernel

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def gl_reference(f, a: float, b: float, panels: int) -> float:
    """Independent fixed-panel Gauss-Legendre quadrature for test oracles."""
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    q = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * GL_NODES[None, :]
    return half * float(np.sum(f(q) @ GL_WEIGHTS))


class TestRadialIntegral:
    def test_zero_tau(self):
        assert modesum.radial_integral_m(1, 50.0, 0.0) == 0.0

    def test_against_independent_quadrature(self):
        for m, kappa, tau in [(1, 50.0, 0.4), (2, 50.0, 1.0), (3, 200.0, 1.7)]:
            def f(q, m=m, tau=tau):
                x = m * q
                return q * np.sin(q * tau / 2.0) ** 2 * (
                    4.0 * (np.sin(x) - x * np.cos(x)) / np.maximum(x, 1e-300) ** 3)
            panels = int(kappa * max(m, tau)) + 64
            ref = gl_reference(f, 1e-9, kappa, panels)
            got = modesum.radial_integral_m(m, kappa, tau)
            assert got == pytest.approx(ref, rel=1e-8, abs=1e-12)

    def test_continuity_across_resonance(self):
        # finite and smooth across integer tau; the genuine relative spread
        # over +-1e-3 is ~5.5e-3 (the integral's derivative), so each point
        # is pinned to the regularized closed form instead of to its
        # neighbours
        from vdl.kernel import kernel_term
        vals = [modesum.radial_integral_m(3, 200.0, t) for t in (0.999, 1.0, 1.001)]
        for t, v in zip((0.999, 1.0, 1.001), vals):
            closed = kernel_term(3, DimensionlessParams(1.0, 200.0, t)) * math.pi / 2.0
            assert v == pytest.approx(closed, rel=1e-6)
        spread = (max(vals) - min(vals)) / abs(vals[1])
        assert spread <= 1e-2

    def test_decay_envelope(self):
        # log-log slope over m in {4, 8, 16} consistent with the 8/(mq)^2 bound
        ms = np.array([4, 8, 16])
        vals = np.array([abs(modesum.radial_integral_m(int(m), 50.0, 0.4)) for m in ms])
        slope = np.polyfit(np.log(ms), np.log(vals), 1)[0]
        assert slope <= -2.0

    def test_capability_bound(self):
        with pytest.raises(CapabilityError):
            modesum.radial_integral_m(2000, 1000.0, 0.5)

    def test_tolerance_not_met(self, monkeypatch):
        monkeypatch.setattr(modesum, "_ABS_TOL", 1e-300)
        monkeypatch.setattr(modesum, "_MAX_SUBDIVISIONS", 1)
        with pytest.raises(ConvergenceError) as err:
            modesum.radial_integral_m(1, 50.0, 0.4, rel_tol=1e-300)
        assert math.isfinite(err.value.partial)
        assert math.isfinite(err.value.error_estimate)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            modesum.radial_integral_m(0, 50.0, 0.4)
        with pytest.raises(ValueError):
            modesum.radial_integral_m(1, -1.0, 0.4)
        with pytest.raises(ValueError):
            modesum.radial_integral_m(1, 50.0, -0.1)


class TestM0Term:
    def test_zero_tau(self):
        assert modesum.m0_term(100.0, 0.0) == 0.0

    def test_closed_form_equals_quadrature(self):
        def f(q, tau):
            return (4.0 / 3.0) * q * np.sin(q * tau / 2.0) ** 2

        got = modesum.m0_term(100.0, 0.5)
        ref = gl_reference(lambda q: f(q, 0.5), 0.0, 100.0, 400)
        assert got == pytest.approx(ref, rel=1e-12)

        rng = np.random.default_rng(11)
        for _ in range(20):
            kappa = float(rng.uniform(10.0, 1000.0))
            tau = float(rng.uniform(0.05, 5.0))
            panels = int(kappa * tau) + 64
            ref = gl_reference(lambda q: f(q, tau), 0.0, kappa, panels)
            assert modesum.m0_term(kappa, tau) == pytest.approx(ref, rel=1e-10)

    def test_small_kt_series_branch(self):
        def f(q, tau):
            return (4.0 / 3.0) * q * np.sin(q * tau / 2.0) ** 2
        kappa, tau = 5.0, 1e-4  # kappa*tau below the series switch
        ref = gl_reference(lambda q: f(q, tau), 0.0, kappa, 64)
        assert modesum.m0_term(kappa, tau) == pytest.approx(ref, rel=1e-10)

    def test_overflows_only_with_the_integral(self):
        # kappa^2 and kappa^4 overflow long before I_0 ~ kappa^2/3 does
        assert modesum.m0_term(1e200, 1.0) == math.inf
        assert modesum.m0_term(1e300, 1e-290) == math.inf
        with mp.workdps(60):
            for kappa, tau in [(1e100, 1e-105), (1e152, 1e-151), (1e-140, 1e150)]:
                k, t = mp.mpf(kappa), mp.mpf(tau)
                u = k * t
                ref = (4 * k ** 2 / 3) * (mp.mpf(1) / 4 - mp.sin(u) / (2 * u)
                                          + (1 - mp.cos(u)) / (2 * u ** 2))
                assert modesum.m0_term(kappa, tau) == pytest.approx(float(ref), rel=1e-12)
        # the series value at u = 1e-5 is kappa^4 tau^2 / 12 up to u^2/18
        assert modesum.m0_term(1e100, 1e-105) == pytest.approx(1e190 / 12.0, rel=1e-11)

    @settings(max_examples=300, deadline=None, database=None)
    @given(log_kappa=st.floats(-300.0, 300.0),
           log_tau=st.one_of(st.none(), st.floats(-300.0, 300.0)))
    def test_finite_or_inf_over_domain(self, log_kappa, log_tau):
        tau = 0.0 if log_tau is None else 10.0 ** log_tau
        assert modesum.m0_term(10.0 ** log_kappa, tau) >= 0.0  # false for nan

    def test_quadratic_growth_in_cutoff(self):
        kappas = np.array([1e3, 2e3, 4e3])
        vals = np.array([modesum.m0_term(float(k), 0.7) for k in kappas])
        slope = np.polyfit(np.log(kappas), np.log(vals), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.02)
        assert vals[-1] / kappas[-1] ** 2 == pytest.approx(1.0 / 3.0, rel=0.01)


class TestSwitchingSpectrum:
    def test_trivial_zero(self):
        assert modesum.switching_spectrum(0.0, 2) == 0.0

    def test_removable_point(self):
        assert modesum.switching_spectrum(math.pi / 2, 2) == pytest.approx(2.0, rel=1e-12)

    def test_quarter_pi(self):
        assert modesum.switching_spectrum(math.pi / 4, 2) == pytest.approx(
            math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_direct_ratio_away_from_poles(self, n):
        thetas = np.linspace(0.01, 3.1, 500)
        keep = np.abs(np.cos(thetas)) > 1e-3
        direct = np.abs(np.sin(n * thetas) / np.cos(thetas))[keep]
        ours = np.array([modesum.switching_spectrum(t, n) for t in thetas[keep]])
        assert np.max(np.abs(ours - direct)) <= 1e-9

    def test_finite_at_poles_value_n(self):
        # limit of |sin(N theta)/cos theta| at theta = pi/2 is N for even N
        for n in (2, 4, 6, 8):
            for eps in (0.0, 1e-9, -1e-9):
                val = modesum.switching_spectrum(math.pi / 2 + eps, n)
                assert val <= n + 1e-6
                assert val == pytest.approx(n, abs=1e-6)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            modesum.switching_spectrum(0.3, 3)


class TestExponentGeneralN:
    def test_n2_reduces_to_radial_sum(self):
        alpha, kappa, tau = 0.1, 50.0, 0.4
        got = modesum.exponent_general_n(DimensionlessParams(alpha, kappa, tau, 2))
        ref = (2.0 * alpha ** 2 / math.pi) * sum(
            modesum.radial_integral_m(m, kappa, tau) for m in range(1, 700))
        assert got == pytest.approx(ref, rel=1e-6)

    def test_zero_tau(self):
        assert modesum.exponent_general_n(DimensionlessParams(0.1, 50.0, 0.0, 4)) == 0.0

    @pytest.mark.parametrize("kappa, tau", [(50.0, 0.4), (200.0, 1.3)])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_two_switch_identity(self, n, kappa, tau):
        # Gamma^(N)(tau) = sum_{k=1}^{N-1} (-1)^(k+1) (N-k) Gamma^(2)(k tau),
        # with Gamma^(2) from the closed-form series
        alpha = 0.1
        policy = SeriesPolicy(tail_bound=1e-15)
        ref = sum((-1) ** (k + 1) * (n - k) * decoherence_kernel(
            DimensionlessParams(alpha, kappa, k * tau), policy).gamma for k in range(1, n))
        got = modesum.exponent_general_n(DimensionlessParams(alpha, kappa, tau, n))
        assert got == pytest.approx(ref, rel=1e-10)

    def test_alpha_is_pure_prefactor(self):
        a = modesum.exponent_general_n(DimensionlessParams(0.1, 50.0, 0.9, 2))
        b = modesum.exponent_general_n(DimensionlessParams(0.2, 50.0, 0.9, 2))
        assert b / a == pytest.approx(4.0, rel=1e-6)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            modesum.exponent_general_n(DimensionlessParams(0.1, 50.0, 0.4, 3))

    def test_capability_bound(self):
        with pytest.raises(CapabilityError):
            modesum.exponent_general_n(DimensionlessParams(0.1, 2e6, 0.9, 2))


class TestImageSum:
    # q in (0, 1e3] (below the normal range S ~ pi/q overflows), plus
    # points within 1e-9 of the kinks q = 2 pi k
    @settings(max_examples=200, deadline=None, database=None)
    @given(q=st.one_of(
        st.floats(0.0, 1e3, exclude_min=True, allow_subnormal=False),
        st.builds(lambda k, d: 2.0 * math.pi * k + d,
                  st.integers(1, 159), st.floats(-1e-9, 1e-9))))
    def test_against_clausen_functions(self, q):
        # the two Clausen terms cancel to ~pi/q from ~1/q^2 each
        with mp.workdps(40 + max(0, int(-math.log10(q)))):
            ref = 4 * (mp.clsin(3, q) / mp.mpf(q) ** 3 - mp.clcos(2, q) / mp.mpf(q) ** 2)
        # S is the difference of terms of the size below, and passes
        # through zero (first at q = 3 pi / 2), where no double evaluation
        # is accurate relative to S itself; rel is taken against that size
        size = min(math.pi / q + 2.0 / 3.0,
                   4.0 / q * (math.pi ** 2 / 6.0 / q + 1.2020569031595942 / q / q))
        assert abs(modesum._image_sum_j(q) - float(ref)) <= 1e-13 * size


class TestRelTol:
    def test_validation(self):
        for rel_tol in (0.0, -1e-9, math.inf):
            with pytest.raises(ValueError):
                modesum.radial_integral_m(1, 50.0, 0.4, rel_tol=rel_tol)
