"""Special-function floor: series oracles, branch consistency, reduction."""

import math

import mpmath as mp
import numpy as np
import pytest

from vdl import specfun
from vdl.constants import EULER_GAMMA


def cin_series_oracle(x: float, terms: int = 60) -> float:
    """Independent extended-precision power series for Cin."""
    with mp.workdps(50):
        acc = mp.mpf(0)
        xm = mp.mpf(x)
        for k in range(1, terms + 1):
            acc += (-1) ** (k + 1) * xm ** (2 * k) / (2 * k * mp.factorial(2 * k))
        return float(acc)


class TestCin:
    def test_zero(self):
        assert specfun.cin(0.0) == 0.0

    def test_at_one_frozen(self):
        # oracle: 50-digit series, >= 20 terms
        oracle = cin_series_oracle(1.0)
        assert oracle == pytest.approx(0.23981174200056474, abs=1e-15)
        assert specfun.cin(1.0) == pytest.approx(oracle, abs=1e-12)

    def test_series_branch_against_oracle(self):
        for x in [0.01, 0.3, 1.7, 3.999]:
            assert specfun.cin(x) == pytest.approx(cin_series_oracle(x), abs=1e-13)

    def test_large_argument_is_log_plus_gamma(self):
        # |Ci(1e6)| <= 2/1e6, so cin(1e6) ~ gamma + ln(1e6) up to that much
        val = specfun.cin(1e6)
        assert abs(val - (EULER_GAMMA + math.log(1e6))) <= 2e-6

    def test_monotone_on_zero_pi(self):
        x = np.linspace(0.0, math.pi, 400)
        y = specfun.cin(x)
        assert np.all(np.diff(y) >= -1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            specfun.cin(-0.5)
        with pytest.raises(ValueError):
            specfun.cin(float("nan"))
        with pytest.raises(ValueError):
            specfun.cin(float("inf"))


class TestCi:
    def test_at_one_frozen(self):
        # gamma + ln(1) - Cin(1) with Cin from the series oracle
        oracle = EULER_GAMMA - cin_series_oracle(1.0)
        assert oracle == pytest.approx(0.33740392290096813, abs=1e-15)
        assert specfun.ci(1.0) == pytest.approx(oracle, abs=1e-12)

    def test_against_mpmath_across_branches(self):
        xs = [1e-6, 0.02, 0.8, 3.9, 4.0, 4.1, 7.0, 25.0, 39.9, 40.1, 300.0, 1e4]
        for x in xs:
            ref = float(mp.ci(x))
            assert specfun.ci(x) == pytest.approx(ref, abs=1e-13, rel=1e-10)

    def test_asymptotic_envelope(self):
        x = np.geomspace(10.0, 1e8, 50)
        assert np.all(np.abs(specfun.ci(x)) <= 2.0 / x)

    def test_small_x_limit_is_gamma(self):
        x = 1e-8
        assert specfun.ci(x) - math.log(x) == pytest.approx(EULER_GAMMA, abs=1e-12)

    def test_cross_branch_identity(self):
        # Ci = gamma + ln x - Cin across both branches, including the switch
        x = np.concatenate([
            np.geomspace(1e-6, 1e4, 300),
            np.linspace(3.9, 4.1, 50),
        ])
        lhs = specfun.ci(x)
        rhs = EULER_GAMMA + np.log(x) - specfun.cin(x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_domain_errors(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                specfun.ci(bad)

    def test_array_input(self):
        x = np.array([0.5, 5.0, 100.0])
        out = specfun.ci(x)
        assert out.shape == (3,)
        assert out[0] == specfun.ci(0.5)


class TestAngularKernel:
    def test_zero(self):
        assert specfun.angular_kernel_j(0.0) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_at_pi(self):
        # 4 (sin pi - pi cos pi) / pi^3 = 4 / pi^2
        assert specfun.angular_kernel_j(math.pi) == pytest.approx(
            0.40528473456935109, rel=1e-13)

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_parity(self, x):
        assert specfun.angular_kernel_j(-x) == specfun.angular_kernel_j(x)

    def test_defining_identity(self):
        # J(x) x^3 / 4 + x cos x - sin x = 0
        x = np.geomspace(1e-2, 1e3, 400)
        resid = specfun.angular_kernel_j(x) * x ** 3 / 4.0 + x * np.cos(x) - np.sin(x)
        assert np.max(np.abs(resid)) <= 1e-12

    def test_taylor_branch_matches_closed_form(self):
        # straddle the 1e-2 switch point
        for x in [5e-3, 9e-3, 1.1e-2, 2e-2]:
            closed = 4.0 * (math.sin(x) - x * math.cos(x)) / x ** 3
            assert specfun.angular_kernel_j(x) == pytest.approx(closed, rel=1e-9)

    def test_quadrature_definition(self):
        # J(x) = int_{-1}^{1} (1 - u^2) e^{ixu} du, real part
        with mp.workdps(30):
            for x in [0.5, 2.0, 9.0]:
                ref = float(mp.quad(lambda u: (1 - u ** 2) * mp.cos(x * u), [-1, 1]))
                assert specfun.angular_kernel_j(x) == pytest.approx(ref, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            specfun.angular_kernel_j(float("inf"))


class TestArgumentReduction:
    def test_reduce_against_mpmath(self):
        rng = np.random.default_rng(7)
        xs = [1.0, 6.4, 1e6, 1e8, 2.05e9, 1e12, -3.7e11]
        xs += list(rng.uniform(1.0, 1e12, 40))
        with mp.workdps(60):
            for x in xs:
                x = float(x)
                r = specfun.reduce_two_pi(x)
                ref = float(mp.fmod(mp.mpf(x), 2 * mp.pi))
                if ref < 0:
                    ref += float(2 * mp.pi)
                err = min(abs(r - ref), abs(abs(r - ref) - 2 * math.pi))
                assert err <= 1e-10  # design bound; typically ~1e-15
                assert 0.0 <= r < 2 * math.pi + 1e-15

    def test_sin_integer_multiples_at_cutoff_scale(self):
        kappa = 1e8
        m = np.arange(1, 4001, 37)
        got = specfun.sin_integer_multiples(kappa, m)
        with mp.workdps(60):
            ref = np.array([float(mp.sin(mp.mpf(int(mm)) * mp.mpf(kappa))) for mm in m])
        assert np.max(np.abs(got - ref)) <= 1e-10

    def test_sin_product_exact_product(self):
        # kappa * tau / 2 at the 1e9 scale where naive products round
        with mp.workdps(60):
            for a, b in [(1e8, 10.25), (98765.4321, 12345.678), (1e8, 0.185)]:
                ref = float(mp.sin(mp.mpf(a) * mp.mpf(b)))
                assert abs(specfun.sin_product(a, b) - ref) <= 1e-10
                refc = float(mp.cos(mp.mpf(a) * mp.mpf(b)))
                assert abs(specfun.cos_product(a, b) - refc) <= 1e-10

    def test_multiple_bound(self):
        with pytest.raises(ValueError):
            specfun.sin_integer_multiples(1.0, np.array([2 ** 21 + 1]))


class TestContinuedFraction:
    def test_tight_budget_raises(self, monkeypatch):
        from vdl.errors import ConvergenceError
        monkeypatch.setattr(specfun, "_CF_MAX_TERMS", 2)
        with pytest.raises(ConvergenceError):
            specfun.ci(5.0)
