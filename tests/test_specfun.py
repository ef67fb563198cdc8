"""Special-function floor: series oracles, branch consistency, reduction."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    @settings(max_examples=300, deadline=None, database=None)
    @given(log_x=st.floats(-300.0, 12.0))
    def test_against_mpmath_property(self, log_x):
        """Cin = gamma + ln x - Ci with 40-digit mpmath, over the whole
        documented domain: |error| <= 1e-15 max(1, |Cin|)."""
        x = 10.0 ** log_x
        with mp.workdps(40):
            ref = mp.euler + mp.log(x) - mp.ci(x)
            err = abs(mp.mpf(specfun.cin(x)) - ref)
        assert err <= 1e-15 * max(1.0, abs(ref))

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

    @settings(max_examples=300, deadline=None, database=None)
    @given(log_x=st.floats(-300.0, 12.0))
    def test_against_mpmath_property(self, log_x):
        """All three branches, against 40-digit mpmath: |error| <= 1e-15/x
        above the series cutoff (where |Ci| <= 2/x), 1e-15 max(1, |Ci|)
        below it."""
        x = 10.0 ** log_x
        with mp.workdps(40):
            ref = mp.ci(x)
            err = float(abs(mp.mpf(specfun.ci(x)) - ref))
        assert err <= (1e-15 / x if x > 4.0 else 1e-15 * max(1.0, abs(float(ref))))

    @settings(max_examples=300, deadline=None, database=None)
    @given(x=st.floats(4.0, 40.0, exclude_min=True, exclude_max=True))
    def test_continued_fraction_branch_property(self, x):
        """The continued-fraction branch (4, 40) alone, which log-uniform
        draws over the whole domain reach only rarely."""
        with mp.workdps(40):
            err = float(abs(mp.mpf(specfun.ci(x)) - mp.ci(x)))
        assert err <= 1e-15 / x

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

    def test_sin_product_exact_product(self):
        # kappa * tau / 2 at the 1e9 scale where naive products round
        with mp.workdps(60):
            for a, b in [(1e8, 10.25), (98765.4321, 12345.678), (1e8, 0.185)]:
                ref = float(mp.sin(mp.mpf(a) * mp.mpf(b)))
                assert abs(specfun.sin_product(a, b) - ref) <= 1e-10
                refc = float(mp.cos(mp.mpf(a) * mp.mpf(b)))
                assert abs(specfun.cos_product(a, b) - refc) <= 1e-10

    @settings(max_examples=200, deadline=None, database=None)
    @given(log_x=st.floats(-320.0, 308.0), negative=st.booleans())
    def test_reduce_two_pi_property(self, log_x, negative):
        """Every decade of the finite doubles, subnormals included; x mod
        2 pi at x = 1e308 needs the 340-digit reference."""
        x = 10.0 ** log_x
        x = -x if negative else x
        r = specfun.reduce_two_pi(x)
        with mp.workdps(340):
            ref = mp.fmod(mp.mpf(x), 2 * mp.pi)
            if ref < 0:
                ref += 2 * mp.pi
            err = abs(r - ref)
            err = float(min(err, abs(err - 2 * mp.pi)))
        assert err <= 4e-15
        assert 0.0 <= r < 2 * math.pi

    @settings(max_examples=200, deadline=None, database=None)
    @given(a=st.floats(1e-296, 1e308), log_ab=st.floats(-12.0, 12.0),
           sign_a=st.sampled_from([-1.0, 1.0]), sign_b=st.sampled_from([-1.0, 1.0]))
    def test_product_property(self, a, log_ab, sign_a, sign_b):
        """Signed factors across the finite doubles, |a| up to 1e308 and
        tiny cofactors, with |a*b| in [1e-12, 1e12]."""
        b = sign_b * 10.0 ** log_ab / a
        a = sign_a * a
        with mp.workdps(60):
            ab = mp.mpf(a) * mp.mpf(b)
            ref_s, ref_c = float(mp.sin(ab)), float(mp.cos(ab))
        assert abs(specfun.sin_product(a, b) - ref_s) <= 4e-15
        assert abs(specfun.cos_product(a, b) - ref_c) <= 4e-15

    @settings(max_examples=200, deadline=None, database=None)
    @given(log_x=st.floats(-2.0, 12.0), negative=st.booleans())
    def test_clausen_sl3_property(self, log_x, negative):
        """sum_m sin(m x) / m^3 in closed form against 60-digit mpmath."""
        x = 10.0 ** log_x
        x = -x if negative else x
        with mp.workdps(60):
            ref = float(mp.clsin(3, mp.mpf(x)))
        assert abs(specfun.clausen_sl3(x) - ref) <= 2e-15


class TestContinuedFraction:
    def test_batch_does_not_change_elements(self):
        # each element of the fixed-depth fraction depends on its own x
        # only, whatever else shares the batch
        x = np.append(np.linspace(4.01, 39.9, 200), 4.0001)
        for f in (specfun.ci, specfun.cin):
            assert np.array_equal(f(x), [f(v) for v in x])
