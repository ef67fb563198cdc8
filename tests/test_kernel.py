"""Closed-form kernel: trivial zeros, oracle match, resonances, asymptotics."""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vdl import kernel, modesum, specfun
from vdl.constants import C_LIGHT, EULER_GAMMA, dipole_coupling_scale
from vdl.errors import ConvergenceError
from vdl.kernel import (
    DecoherenceResult,
    DimensionlessParams,
    SeriesPolicy,
    decoherence_kernel,
    kernel_at_plates,
    kernel_no_cutoff,
    kernel_term,
)

# independently computed (1e6-term direct sum, cross-checked at 30 digits)
GAMMA_NC_HALF_10P5 = 0.522120528375


def raw_cutoff_term(m: int, alpha: float, kappa: float, tau: float) -> float:
    """The unregularized published form of the m-th summand; singular at
    tau = m, used only to probe the removable singularity from outside."""
    bracket = (
        math.log(abs((m + tau) / (m - tau)))
        + specfun.ci(kappa * abs(m - tau))
        - specfun.ci(kappa * (m + tau))
    )
    return (2.0 * alpha ** 2 / (m ** 3 * math.pi * kappa)) * (
        kappa * tau * bracket
        - 4.0 * math.sin(kappa * tau / 2.0) ** 2 * math.sin(m * kappa)
    )


class TestValidation:
    def test_params(self):
        with pytest.raises(ValueError):
            DimensionlessParams(-0.1, 1e8, 1.0)
        with pytest.raises(ValueError):
            DimensionlessParams(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            DimensionlessParams(0.5, 1e8, -1.0)
        with pytest.raises(ValueError):
            DimensionlessParams(0.5, 1e8, 1.0, 3)

    @pytest.mark.parametrize("n", [4.0, 2.0, 3])
    def test_switch_count_must_be_even_integer(self, n):
        with pytest.raises(ValueError, match="n_switches must be an even integer >= 2"):
            DimensionlessParams(0.1, 50.0, 0.4, n_switches=n)

    def test_policy(self):
        for bound in (0.0, -1e-12, math.inf, math.nan):
            with pytest.raises(ValueError, match="tail_bound must be finite and > 0"):
                SeriesPolicy(tail_bound=bound)

    def test_kernel_term_rejects_bad_m(self):
        p = DimensionlessParams(0.5, 1e8, 1.0)
        for m in (0, 2.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="m must be a positive integer"):
                kernel_term(m, p)

    def test_general_switch_count_redirected(self):
        p = DimensionlessParams(0.5, 1e8, 1.0, 4)
        with pytest.raises(ValueError):
            kernel_term(1, p)
        with pytest.raises(ValueError):
            decoherence_kernel(p)


class TestKernelTerm:
    def test_zero_at_zero_tau(self):
        assert kernel_term(1, DimensionlessParams(0.5, 1e8, 0.0)) == 0.0

    def test_matches_quadrature_oracle(self):
        # closed form == (2 alpha^2 / pi) I_m by adaptive quadrature
        alpha = 0.1
        got = kernel_term(1, DimensionlessParams(alpha, 50.0, 0.4))
        ref = 2.0 * alpha ** 2 / math.pi * modesum.radial_integral_m(1, 50.0, 0.4)
        assert got == pytest.approx(ref, rel=1e-6)

    def test_alpha_prefactor_is_exact(self):
        p1 = DimensionlessParams(0.25, 200.0, 1.3)
        p2 = DimensionlessParams(0.5, 200.0, 1.3)
        assert kernel_term(2, p2) / kernel_term(2, p1) == pytest.approx(4.0, rel=1e-14)

    def test_finite_at_resonance_matches_two_sided_limit(self):
        p = DimensionlessParams(0.5, 1e3, 2.0)
        at = kernel_term(2, p)
        assert math.isfinite(at)
        for eps in (1e-7, -1e-7):
            probe = raw_cutoff_term(2, 0.5, 1e3, 2.0 + eps)
            assert abs(probe - at) <= 1e-4 * abs(at)

    def test_regularized_equals_raw_away_from_resonance(self):
        for m, kappa, tau in [(1, 50.0, 0.4), (3, 200.0, 1.7), (2, 1e3, 2.5)]:
            got = kernel_term(m, DimensionlessParams(0.3, kappa, tau))
            raw = raw_cutoff_term(m, 0.3, kappa, tau)
            assert got == pytest.approx(raw, rel=1e-10, abs=1e-16)


class TestDecoherenceKernel:
    def test_trivial_alpha_zero(self):
        res = decoherence_kernel(DimensionlessParams(0.0, 1e8, 5.0))
        assert res.kernel == 1.0 and res.gamma == 0.0

    def test_trivial_tau_zero(self):
        res = decoherence_kernel(DimensionlessParams(0.5, 1e8, 0.0))
        assert res.kernel == 1.0 and res.gamma == 0.0
        # just above tau = 0 at the largest kappa, kappa tau = 1: gamma is
        # the switching part alone, its phase reduced from the exact product
        kappa, tau = 1e301, 1e-301
        res = decoherence_kernel(DimensionlessParams(0.5, kappa, tau))
        assert math.isfinite(res.gamma) and res.kernel == 1.0
        with mp.workdps(340):
            k = mp.mpf(kappa)
            s = -8 * mp.sin(k * mp.mpf(tau) / 2) ** 2 / (mp.pi * k) * mp.clsin(3, k)
        assert res.gamma == pytest.approx(0.25 * float(s), rel=1e-12)

    def test_result_invariants(self):
        alpha, kappa, tau = 0.5, 1e8, 3.3
        res = decoherence_kernel(DimensionlessParams(alpha, kappa, tau))
        assert res.kernel == math.exp(-res.gamma)
        assert res.terms_used == res.per_term.shape[0]
        assert np.array_equal(res.per_term[:, 0], np.arange(1, res.terms_used + 1))
        # per_term holds the directly summed part; the log tail and the
        # switching part alpha^2 S are the closed-form rest
        with mp.workdps(40):
            k = mp.mpf(kappa)
            s = -8 * mp.sin(k * mp.mpf(tau) / 2) ** 2 / (mp.pi * k) * mp.clsin(3, k)
        log_tail = alpha ** 2 * kernel._log_tail(tau, res.terms_used)[0]
        rest = res.gamma - float(res.per_term[:, 1].sum()) - log_tail
        assert rest == pytest.approx(alpha ** 2 * float(s), rel=1e-12, abs=1e-15)
        assert res.truncation_estimate < 1e-12

    def test_late_time_asymptote(self):
        res = decoherence_kernel(DimensionlessParams(0.5, 1e8, 20.5))
        assert res.gamma == pytest.approx(math.pi / 6.0, rel=0.02)
        assert res.kernel == pytest.approx(math.exp(-math.pi / 6.0), rel=0.02)

    def test_minimum_terms_honored(self):
        res = decoherence_kernel(DimensionlessParams(0.5, 1e8, 17.2))
        assert res.terms_used >= math.ceil(17.2) + 40

    def test_overflowing_alpha_squared_at_tau_zero_is_exact(self):
        # every term and both closed-form parts vanish, so inf * 0 never forms
        res = decoherence_kernel(DimensionlessParams(1e200, 1e8, 0.0))
        assert res.gamma == 0.0 and res.kernel == 1.0
        assert res.truncation_estimate == 0.0

    @pytest.mark.parametrize("tau", [5000.5, 1e4 + 0.5])
    def test_late_times_reach_the_asymptote(self, tau):
        # the late-time limit 2 pi alpha^2 / 3 is approached as 1/tau
        res = decoherence_kernel(DimensionlessParams(0.5, 1e8, tau))
        assert res.terms_used == math.ceil(tau) + 40
        assert res.truncation_estimate < 1e-12
        assert abs(res.gamma - math.pi / 6.0) <= 1e-4 / tau

    def test_far_late_time_matches_direct_sum(self):
        # the closed-form log tail against a direct sum over 10^6 terms,
        # whose own tail the term-by-term majorant bounds
        alpha, kappa, tau, n = 0.5, 1e8, 1e4 + 0.5, 10 ** 6
        p = DimensionlessParams(alpha, kappa, tau)
        res = decoherence_kernel(p)
        chunks = (np.arange(lo, min(lo + 10 ** 5, n + 1), dtype=np.float64)
                  for lo in range(1, n + 1, 10 ** 5))
        direct = math.fsum(float(kernel._term_base(m, kappa, tau).sum()) for m in chunks)
        switching = kernel._switching_prefactor(p) * specfun.clausen_sl3(kappa)
        ref = alpha ** 2 * (direct + switching)
        bound = kernel._tail_majorant(alpha, kappa, tau, n) + SeriesPolicy().tail_bound
        assert abs(res.gamma - ref) <= bound

    def test_max_terms_below_mandatory_minimum(self):
        with pytest.raises(ValueError):
            decoherence_kernel(DimensionlessParams(0.5, 1e8, 2e6))

    @pytest.mark.parametrize("alpha, kappa, tau", [
        (0.0, 1e8, 5.0), (0.5, 1e8, 0.0), (0.5, 1e8, 100.5), (0.3, 50.0, 1.3)])
    def test_stop_index_is_smallest_meeting_bound(self, alpha, kappa, tau):
        """M is the floor max(32, ceil(tau) + 40) unless the estimate there
        misses the bound; then it is the smallest count that meets it."""
        bound = SeriesPolicy().tail_bound

        def estimate(n):
            _, log_error = kernel._log_tail(tau, n)
            ci = kernel._ci_majorant(kappa, tau, n + 1.0 - tau) / (math.pi * n * n)
            return alpha ** 2 * (log_error + ci)

        res = decoherence_kernel(DimensionlessParams(alpha, kappa, tau))
        n = res.terms_used
        floor = max(SeriesPolicy.min_terms, math.ceil(tau) + 40)
        # at tau = 0 the estimate is exactly 0, not alpha^2 times 8 ulp of 0
        assert res.truncation_estimate == pytest.approx(estimate(n), rel=1e-15, abs=1e-300)
        assert res.truncation_estimate < bound
        if kappa < 1e3:
            # the Ci bound raises M at small kappa
            assert n > floor and estimate(n - 1) >= bound
        else:
            assert n == floor

    def test_terms_computed_in_one_call(self, monkeypatch):
        calls = []
        term_base = kernel._term_base

        def counting(m, *args):
            calls.append(m.size)
            return term_base(m, *args)

        monkeypatch.setattr(kernel, "_term_base", counting)
        res = decoherence_kernel(DimensionlessParams(0.5, 1e8, 10.5))
        assert calls == [res.terms_used]

    @settings(max_examples=30, deadline=None, database=None)
    @given(alpha=st.floats(0.0, 1.0), log_kappa=st.floats(4.0, 8.0),
           tau=st.floats(0.0, 30.0))
    def test_tighter_bound_moves_gamma_within_bound(self, alpha, log_kappa, tau):
        p = DimensionlessParams(alpha, 10.0 ** log_kappa, tau)
        res = decoherence_kernel(p)
        tight = decoherence_kernel(p, SeriesPolicy(tail_bound=1e-13)).gamma
        assert abs(res.gamma - tight) <= 1e-12 + 4.0 * math.ulp(res.gamma)
        if res.gamma > 0.0:
            assert 0.0 < res.kernel <= 1.0

    def test_non_convergence_carries_partial(self, monkeypatch):
        monkeypatch.setattr(SeriesPolicy, "max_terms", 64)
        policy = SeriesPolicy(tail_bound=1e-30)
        with pytest.raises(ConvergenceError) as err:
            decoherence_kernel(DimensionlessParams(0.5, 1e8, 2.0), policy)
        assert 0.0 < err.value.partial < 10.0
        assert err.value.error_estimate > 1e-30

    def test_floor_at_max_terms_fails_at_the_floor(self, monkeypatch):
        # no count beyond the floor is allowed: the failure reports the floor
        monkeypatch.setattr(SeriesPolicy, "max_terms", 42)
        with pytest.raises(ConvergenceError, match="after 42 terms"):
            decoherence_kernel(DimensionlessParams(0.5, 1e8, 2.0), SeriesPolicy(tail_bound=1e-30))

    @pytest.mark.parametrize("alpha, kappa, tau", [(1e200, 1e8, 1.5), (0.5, 1e-300, 1.5)])
    def test_non_finite_majorant_fails_before_summing(self, alpha, kappa, tau, monkeypatch):
        # alpha^2 = inf, or 2 tau / kappa = inf: no term is summed
        def no_terms(*args):
            raise AssertionError("_term_base called")

        monkeypatch.setattr(kernel, "_term_base", no_terms)
        with pytest.raises(ConvergenceError) as err:
            decoherence_kernel(DimensionlessParams(alpha, kappa, tau))
        assert math.isnan(err.value.partial)
        assert err.value.error_estimate == math.inf

    def test_resonance_continuity_ladder(self):
        # deviations shrink with the probe and meet 1e-6 at eps = 1e-7
        for m0 in (1, 2, 3, 4, 5):
            g0 = decoherence_kernel(DimensionlessParams(0.5, 1e3, float(m0))).gamma
            assert math.isfinite(g0)
            prev = None
            for eps in (1e-3, 1e-5, 1e-7):
                devs = []
                for sign in (+1, -1):
                    g = decoherence_kernel(
                        DimensionlessParams(0.5, 1e3, m0 + sign * eps)).gamma
                    devs.append(abs(g - g0) / g0)
                worst = max(devs)
                if prev is not None:
                    assert worst < prev
                prev = worst
            assert worst <= 1e-6

    @settings(max_examples=60, deadline=None, database=None)
    @given(m0=st.integers(1, 5), log_kappa=st.floats(2.0, 8.0))
    def test_continuous_across_resonance(self, m0, log_kappa):
        kappa = 10.0 ** log_kappa
        eps = 1e-4 / kappa
        g0 = decoherence_kernel(DimensionlessParams(0.5, kappa, float(m0))).gamma
        for tau in (m0 - eps, m0 + eps):
            g = decoherence_kernel(DimensionlessParams(0.5, kappa, tau)).gamma
            assert abs(g - g0) <= 1e-5 * g0

    def test_cutoff_insensitivity_late_times(self):
        g7 = decoherence_kernel(DimensionlessParams(0.5, 1e7, 10.5)).gamma
        g8 = decoherence_kernel(DimensionlessParams(0.5, 1e8, 10.5)).gamma
        assert abs(g7 - g8) / g8 <= 1e-4

    def test_kernel_in_unit_interval_on_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            alpha = float(rng.uniform(0.05, 1.0))
            kappa = float(10 ** rng.uniform(math.log10(50.0), 8.0))
            tau = float(rng.uniform(0.0, 20.0))
            d = decoherence_kernel(DimensionlessParams(alpha, kappa, tau)).kernel
            assert 0.0 < d <= 1.0

    @pytest.mark.parametrize("tau", [0.3, 1.5, 4.9])
    @pytest.mark.parametrize("kappa", [0.05, 0.3, 1.0, 50.0])
    def test_matches_image_sum_quadrature(self, kappa, tau):
        """Small cutoffs converge (the switching part needs no terms) and
        agree with the independent closed-image-sum quadrature."""
        p = DimensionlessParams(1.0, kappa, tau)
        got = decoherence_kernel(p).gamma
        assert abs(got - modesum.exponent_general_n(p)) <= 1e-12

    def test_oracle_equivalence_spot(self):
        alpha = 0.3
        for m, kappa, tau in [(1, 50.0, 0.9), (4, 200.0, 2.5), (6, 1000.0, 0.3)]:
            closed = kernel_term(m, DimensionlessParams(alpha, kappa, tau))
            quad = 2.0 * alpha ** 2 / math.pi * modesum.radial_integral_m(m, kappa, tau)
            assert closed == pytest.approx(quad, rel=1e-6)


class TestKernelNoCutoff:
    def test_zero_time(self):
        res = kernel_no_cutoff(0.3, 1e-3, 0.0)
        assert res.kernel == 1.0 and res.gamma == 0.0

    @pytest.mark.parametrize("L", [0.0, -1e-3, math.nan, math.inf])
    def test_plate_separation_rejected(self, L):
        with pytest.raises(ValueError, match="plate separation L must be finite and > 0"):
            kernel_no_cutoff(0.3, L, 1e-12)

    @pytest.mark.parametrize("max_terms", [0, 2.5, math.inf, math.nan])
    def test_max_terms_must_be_positive_integer(self, max_terms):
        with pytest.raises(ValueError, match="max_terms must be a positive integer"):
            kernel_no_cutoff(0.5, 1.0, 2.5e-9, max_terms=max_terms)

    def test_integer_valued_max_terms_accepted(self):
        res = kernel_no_cutoff(0.5, 1.0, 2.5e-9, max_terms=3.0)
        assert res.terms_used == 3 and isinstance(res.terms_used, int)

    def test_integer_tau_rejected(self):
        L = 1.0
        with pytest.raises(ValueError):
            kernel_no_cutoff(0.5, L, 3.0 * L / C_LIGHT)

    def test_frozen_value_at_10p5(self):
        L = 1.0
        res = kernel_no_cutoff(0.5, L, 10.5 * L / C_LIGHT, 10 ** 6)
        assert res.gamma == pytest.approx(GAMMA_NC_HALF_10P5, rel=1e-9)
        # approaches 2 pi alpha^2 / 3 from below, ~0.28% away at tau = 10.5
        assert res.gamma == pytest.approx(math.pi / 6.0, rel=5e-3)

    def test_asymptote_improves_with_tau(self):
        L = 1.0
        target = math.pi / 6.0
        devs = [abs(kernel_no_cutoff(0.5, L, tau * L / C_LIGHT).gamma - target) / target
                for tau in (10.5, 20.5, 40.5)]
        assert devs[0] > devs[1] > devs[2]
        assert devs[1] <= 1e-3

    def test_agrees_with_cutoff_form(self):
        # cutoff corrections scale as 1/kappa
        L = 1.0
        tau = 0.37
        gn = kernel_no_cutoff(0.1, L, tau * L / C_LIGHT).gamma
        gc = decoherence_kernel(DimensionlessParams(0.1, 1e8, tau)).gamma
        assert abs(gc - gn) <= 1e-6

    def test_brute_force_partial_sums(self):
        # first terms against a directly coded partial sum
        L, tau, alpha, M = 1.0, 2.6, 0.4, 400
        res = kernel_no_cutoff(alpha, L, tau * L / C_LIGHT, M)
        brute = sum(
            2.0 * alpha ** 2 * tau / (math.pi * m ** 3)
            * math.log(abs((m + tau) / (m - tau)))
            for m in range(1, M + 1)
        )
        assert res.gamma == pytest.approx(brute, rel=1e-13)

    @settings(max_examples=40, deadline=None, database=None)
    @given(tau=st.floats(0.01, 1000.0).filter(lambda t: abs(t - round(t)) >= 1e-3),
           alpha=st.floats(0.01, 1.0))
    def test_against_extended_precision_partial_sum(self, tau, alpha):
        L = 1.0
        T = tau * L / C_LIGHT
        M = int(3 * tau) + 50
        res = kernel_no_cutoff(alpha, L, T, M)
        with mp.workdps(40):
            t = mp.mpf(C_LIGHT * T / L)  # the tau the function uses
            ref = 2 * mp.mpf(alpha) ** 2 * t / mp.pi * mp.fsum(
                mp.log(abs((m + t) / (m - t))) / m ** 3 for m in range(1, M + 1))
        assert abs(res.gamma - float(ref)) <= 1e-15 * float(ref)

    @pytest.mark.parametrize("tau, M", [(0.37, 1), (2.6, 40), (10.5, 12), (99.5, 400)])
    def test_truncation_estimate_bounds_true_tail(self, tau, M):
        res = kernel_no_cutoff(0.5, 1.0, tau / C_LIGHT, M)
        m = np.arange(M + 1, 64 * M + 1, dtype=np.float64)
        tail = (0.5 / math.pi * tau * np.log(np.abs((m + tau) / (m - tau))) / m ** 3).sum()
        assert 0.0 < tail <= res.truncation_estimate


class TestKernelAtPlates:
    def test_zero_dipoles(self):
        res = kernel_at_plates(0.0, 0.0, 1e-3, 1e8, 10.5)
        assert res.kernel == 1.0

    def test_matches_center_kernel_with_substituted_alpha(self):
        d = 1e-22
        L = 1e-3
        res = kernel_at_plates(-d, d, L, 1e8, 10.5)
        alpha = 2.0 * d / dipole_coupling_scale(L)
        ref = decoherence_kernel(DimensionlessParams(alpha, 1e8, 10.5))
        assert res.gamma == ref.gamma

    def test_symmetric_profile_rejected(self):
        with pytest.raises(ValueError):
            kernel_at_plates(1e-22, 1e-22, 1e-3, 1e8, 10.5)


class TestScaling:
    def test_alpha_squared_scaling_fixed_terms(self):
        rng = np.random.default_rng(5)
        # both alphas sum exactly max(32, ceil(tau) + 40) terms
        policy = SeriesPolicy(tail_bound=1e300)
        for _ in range(20):
            alpha = float(rng.uniform(0.05, 0.7))
            c = float(rng.uniform(0.1, 3.0))
            kappa = float(10 ** rng.uniform(2.0, 8.0))
            tau = float(rng.uniform(0.0, 20.0))
            g1 = decoherence_kernel(DimensionlessParams(alpha, kappa, tau), policy).gamma
            g2 = decoherence_kernel(DimensionlessParams(c * alpha, kappa, tau), policy).gamma
            if g1 != 0.0:
                assert g2 / g1 == pytest.approx(c * c, rel=5e-15)

    @settings(max_examples=100, deadline=None, database=None)
    @given(log_alpha=st.floats(-3.0, 1.0), log_kappa=st.floats(-2.0, 8.0),
           tau=st.floats(0.0, 100.0))
    def test_doubling_alpha_scales_gamma_by_exactly_four(self, log_alpha, log_kappa, tau):
        # alpha enters only as the prefactor alpha^2, and (2 alpha)^2 = 4 alpha^2
        # is exact; a fixed term count keeps the summed series the same.  The
        # scaling is bitwise while gamma is a normal float; at tau below about
        # 1e-150 gamma is subnormal, where each product rounds to 2^-1074.
        policy = SeriesPolicy(tail_bound=1e300)
        alpha, kappa = 10.0 ** log_alpha, 10.0 ** log_kappa
        g1 = decoherence_kernel(DimensionlessParams(alpha, kappa, tau), policy).gamma
        g2 = decoherence_kernel(DimensionlessParams(2.0 * alpha, kappa, tau), policy).gamma
        if abs(g1) >= sys.float_info.min:
            assert g2 == 4.0 * g1
        else:
            assert abs(g2 - 4.0 * g1) <= 4.0 * 2.0 ** -1074


class TestLogTail:
    @settings(max_examples=20, deadline=None, database=None)
    @given(tau=st.floats(0.0, 1e4), data=st.data())
    def test_within_its_bound_of_extended_precision_sum(self, tau, data):
        """The closed-form log tail beyond M terms, at the floor and a few
        larger M, lies within its reported error bound (the omitted
        Euler-Maclaurin term plus the rounding allowance) of a 40-digit sum."""
        floor = max(SeriesPolicy.min_terms, math.ceil(tau) + 40)
        M = data.draw(st.sampled_from([floor, floor + 1, floor + 17, 3 * floor]), label="M")
        value, error = kernel._log_tail(tau, M)
        with mp.workdps(40):
            t = mp.mpf(tau)

            def term(m):
                # ln((m + t)/(m - t)), accurate down to the smallest t
                return 2 * t / (mp.pi * m ** 3) * 2 * mp.atanh(t / m)

            # in units of the first term: the quadrature inside nsum has
            # an absolute tolerance, which a tail of 1e-43 would be under
            head = term(M + 1)
            ref = head * mp.nsum(lambda m: term(m) / head, [M + 1, mp.inf],
                                 method="euler-maclaurin") if head else 0
            assert abs(mp.mpf(value) - ref) <= error


class TestTailMajorant:
    @settings(max_examples=60, deadline=None, database=None)
    @given(log_kappa=st.floats(-2.0, 8.0), tau=st.floats(0.0, 1e3), data=st.data())
    def test_bounds_true_tail(self, log_kappa, tau, data):
        """The stop rule's majorant after M terms covers the next 15 M terms
        at any M from the mandatory minimum to eight times it."""
        kappa = 10.0 ** log_kappa
        floor = max(SeriesPolicy.min_terms, math.ceil(tau) + 10)
        M = data.draw(st.integers(floor, 8 * floor), label="M")
        m = np.arange(M + 1, 16 * M + 1, dtype=np.float64)
        tail = np.abs(kernel._term_base(m, kappa, tau)).sum()
        assert tail <= kernel._tail_majorant(1.0, kappa, tau, M)
