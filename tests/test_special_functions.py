"""Gamma machinery against high-precision and brute-force oracles."""

import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gennorm_fisher import (
    GAMMA_OVERFLOW_Z,
    gamma,
    gamma_rational,
    log_gamma,
    multifactorial,
)
from gennorm_fisher.special_functions import (
    log_gamma_ratio, log_gamma_ratio_excess, log_gamma_second_difference)

mp.mp.dps = 50

# spread across the domain, including near-integer and near-threshold points
ORACLE_GRID = [
    1e-300, 1e-12, 1e-6, 1e-3, 0.1, 0.3, 0.5, 2.0 / 3.0, 0.99, 1.0 + 1e-9,
    1.5, 2.0 - 1e-9, 2.5, 3.7, 7.3, 12.1, 25.6, 50.2, 99.7, 127.82, 150.3,
    161.33, 170.0, 171.5, 171.62,
] + [
    # fixed, seeded log-uniform sample of [1e-5, 171.6]
    float(z) for z in np.exp(np.random.default_rng(20201).uniform(np.log(1e-5), np.log(171.6), 48))
]


class TestGamma:
    def test_integer_arguments_are_exact_factorials(self):
        for z in range(1, 172):
            assert gamma(z) == float(math.factorial(z - 1))

    def test_trivial_values(self):
        assert gamma(1) == 1.0
        assert gamma(5) == 24.0

    def test_half_integer(self):
        assert gamma(0.5) == pytest.approx(1.7724538509055160, rel=1e-13)

    @pytest.mark.parametrize("z", ORACLE_GRID)
    def test_against_high_precision_oracle(self, z):
        expected = mp.gamma(mp.mpf(z))
        rel = abs((mp.mpf(gamma(z)) - expected) / expected)
        assert float(rel) <= 1e-13

    def test_recurrence(self):
        # Gamma(z+1) = z * Gamma(z)
        for z in (0.1, 0.5, 1.5, 3.7):
            assert gamma(z + 1.0) == pytest.approx(z * gamma(z), rel=1e-13)

    def test_log_convexity_on_random_triples(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            a, b = sorted(rng.uniform(0.1, 20.0, size=2))
            mid = 0.5 * (a + b)
            assert gamma(mid) > 0.0
            assert log_gamma(mid) <= 0.5 * (log_gamma(a) + log_gamma(b)) + 1e-12

    @pytest.mark.parametrize(
        "bad",
        [
            0, -1, -2.5, float("nan"), float("inf"), "x", None, True, np.True_,
            "1.5", np.str_("1.5"),
        ],
    )
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            gamma(bad)

    @pytest.mark.parametrize("big", [172, 200, 171.7, 1e10])
    def test_overflow_above_threshold(self, big):
        with pytest.raises(OverflowError):
            gamma(big)

    def test_overflow_at_tiny_arguments(self):
        # Gamma(z) ~ 1/z exceeds the double range below ~5.6e-309
        with pytest.raises(OverflowError):
            gamma(1e-320)

    def test_threshold_constant_brackets_the_overflow(self):
        assert math.isfinite(gamma(GAMMA_OVERFLOW_Z - 1e-3))
        with pytest.raises(OverflowError):
            gamma(GAMMA_OVERFLOW_Z + 1e-2)


class TestLogGamma:
    def test_zeros_are_exact(self):
        assert log_gamma(1) == 0.0
        assert log_gamma(2) == 0.0

    def test_half_integer(self):
        assert log_gamma(0.5) == pytest.approx(0.5723649429247001, rel=1e-13)

    @pytest.mark.parametrize("z", ORACLE_GRID + [1e3, 1e6, 1e10, 1e100, 1e300])
    def test_against_high_precision_oracle(self, z):
        expected = mp.loggamma(mp.mpf(z))
        err = abs(mp.mpf(log_gamma(z)) - expected)
        if abs(expected) > 0.1:
            assert float(err / abs(expected)) <= 1e-13
        else:
            # near the zeros at z=1,2 the relative contract is ill-conditioned;
            # hold the absolute error to the same budget there
            assert float(err) <= 1e-13

    def test_consistent_with_gamma(self):
        for z in (0.2, 0.9, 1.3, 4.6, 20.5, 101.1, 170.3):
            assert math.exp(log_gamma(z)) == pytest.approx(gamma(z), rel=5e-13)

    def test_overflow_past_double_range(self):
        # ln Gamma(z) ~ z ln z exceeds the double range near z = 2.6e305
        with pytest.raises(OverflowError):
            log_gamma(1e306)

    @pytest.mark.parametrize("bad", [0, -3, float("nan"), float("-inf"), True, np.True_, b"2"])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)


# log-spaced over the tested range, with the zeros of log Gamma, its minimum
# near 1.4616 (where the ratio crosses 0 as h -> 0) and the kernels' step threshold 10
RATIO_A = sorted([float(a) for a in np.geomspace(1e-6, 5e5, 23)]
                 + [1.0, 1.4616321449683622, 2.0, 9.999999999999998, 10.0, 10.5])
RATIO_H = [float(h) for h in np.geomspace(1e-6, 1e2, 17)]
KERNELS = [log_gamma_ratio, log_gamma_ratio_excess, log_gamma_second_difference]


class TestLogGammaRatio:
    @pytest.mark.parametrize("a", RATIO_A)
    def test_against_high_precision_oracle(self, a):
        # Measured worst, against 60-digit mpmath: on this grid 4.4e-16 for the
        # ratio L (at a = h = 1, where L = 0) and 5.3e-16 for the second
        # difference; over 40,000 log-uniform points of the same box, 9.8e-16
        # and 6.7e-16.  L is held to |error| / (|L| + h), since L crosses 0.
        # The excess L - h log a is 0 at h = 1; elsewhere on this grid its
        # worst is 6.6e-16, and over 3,000 log-uniform points of the box with
        # |h - 1| > 0.1 it is 3.1e-15; nearer h = 1 it grows like 1e-15 / |h - 1|.
        with mp.workdps(60):
            am = mp.mpf(a)
            lga = mp.loggamma(am)
            for h in RATIO_H:
                hm = mp.mpf(h)
                ratio = mp.loggamma(am + hm) - lga
                second = mp.loggamma(am + 2 * hm) - lga - 2 * ratio
                excess = ratio - hm * mp.log(am)
                assert abs(log_gamma_ratio(a, h) - ratio) / (abs(ratio) + hm) <= 2e-15, h
                assert abs(log_gamma_second_difference(a, h) / second - 1) <= 2e-15, h
                if h == 1.0:
                    assert abs(log_gamma_ratio_excess(a, h)) <= 1e-16, h
                else:
                    assert abs(log_gamma_ratio_excess(a, h) / excess - 1) <= 2e-15, h

    def test_recurrence_and_zero_step(self):
        for a in (1e-3, 0.5, 1.0, 7.25, 1e4):  # Gamma(a + 1) = a Gamma(a), held as above
            assert abs(log_gamma_ratio(a, 1.0) - math.log(a)) <= 2e-15 * (abs(math.log(a)) + 1.0)
            assert log_gamma_ratio(a, 0) == log_gamma_ratio_excess(a, 0) == 0.0
            assert log_gamma_second_difference(a, 0.0) == 0.0

    def test_large_arguments_stay_finite(self):
        # log Gamma(3e200) is far above anything a difference of two doubles resolves
        with mp.workdps(450):
            expected = (mp.loggamma(mp.mpf(1e200) + 2 * mp.mpf(1e100))
                        - 2 * mp.loggamma(mp.mpf(1e200) + mp.mpf(1e100)) + mp.loggamma(1e200))
        assert log_gamma_second_difference(1e200, 1e100) == pytest.approx(float(expected),
                                                                          rel=1e-15)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("a, h", [(1.0, 1e308), (1e-300, 1e10)])
    def test_overflow(self, kernel, a, h):
        # the result itself, or h/a, past the double range
        with pytest.raises(OverflowError, match="exceeds the double range"):
            kernel(a, h)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("a, h", [
        (0, 1.0), (-1.0, 1.0), (float("nan"), 1.0), (float("inf"), 1.0), (True, 1.0),
        ("2", 1.0), (1.0, -1e-9), (1.0, float("nan")), (1.0, float("inf")), (1.0, np.True_),
        (1.0, b"1")])
    def test_domain_errors(self, kernel, a, h):
        with pytest.raises(ValueError):
            kernel(a, h)


class TestMultifactorial:
    @pytest.mark.parametrize("p", range(1, 7))
    def test_one_is_fixed_point(self, p):
        assert multifactorial(1, p) == 1

    def test_known_values(self):
        assert multifactorial(6, 1) == 720
        assert multifactorial(7, 2) == 105  # 7*5*3*1
        assert multifactorial(0, 3) == 1  # empty product

    def test_step_one_is_factorial(self):
        for m in range(21):
            assert multifactorial(m, 1) == math.factorial(m)

    @pytest.mark.parametrize("m,p", [(3, 5), (2, 2), (4, 9)])
    def test_small_m_returns_m(self, m, p):
        assert multifactorial(m, p) == m

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=8))
    def test_recurrence_property(self, m, p):
        if m > p:
            assert multifactorial(m, p) == m * multifactorial(m - p, p)
        else:
            assert multifactorial(m, p) == m

    @pytest.mark.parametrize(
        "m,p", [(-1, 2), (3, 0), (3, -1), (2.5, 2), (3, 1.0), (True, 1), (3, True)]
    )
    def test_validation(self, m, p):
        with pytest.raises(ValueError):
            multifactorial(m, p)


class TestGammaRational:
    def test_known_values(self):
        assert gamma_rational(1, 2) == pytest.approx(0.8862269254527580, rel=1e-13)
        assert gamma_rational(3, 2) == pytest.approx(3.3233509704478426, rel=1e-13)
        assert gamma_rational(1, 1) == 1.0

    def test_identity_against_direct_gamma(self):
        # the product identity must reproduce Gamma(n + 1/p) on the full grid
        for n in range(1, 7):
            for p in range(1, 7):
                direct = gamma(n + 1.0 / p)
                assert gamma_rational(n, p) == pytest.approx(direct, rel=1e-12)

    def test_large_n_stays_finite(self):
        val = gamma_rational(50, 3)
        expected = mp.gamma(50 + mp.mpf(1) / 3)
        assert val == pytest.approx(float(expected), rel=1e-11)

    @pytest.mark.parametrize("n,p,message", [
        (0, 1, "n must be an integer >= 1, got 0"),
        (-1, 2, "n must be an integer >= 1, got -1"),
        (True, 2, "n must be an integer >= 1, got True"),
        (1.5, 2, "n must be an integer >= 1, got 1.5"),
        (1, 0, "p must be an integer >= 1, got 0"),
        (2, -3, "p must be an integer >= 1, got -3"),
        (1, True, "p must be an integer >= 1, got True"),
        (1, 2.0, "p must be an integer >= 1, got 2.0"),
    ])
    def test_arg_validation(self, n, p, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gamma_rational(n, p)
