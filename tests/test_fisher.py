"""Score, observed information, and the four Fisher information routes."""

import math
import sys

import mpmath as mp
import numpy as np
import pytest

from gennorm_fisher import (
    FisherEstimate,
    GenNormParams,
    QuadratureError,
    d2_log_pdf,
    expected_score_quad,
    fisher_beta_sweep,
    fisher_closed_form,
    fisher_mc_score_variance,
    fisher_moment_identity,
    fisher_quad_neg_hessian,
    fisher_quad_score_variance,
    log_pdf,
    sample,
    sample_abs,
    score,
    trial_seed,
)
from gennorm_fisher.distribution import sample_power_trials, standardized_power
from gennorm_fisher.fisher import METHODS, neg_d2_z, score_z

GRID = [
    GenNormParams(theta, float(beta))
    for beta in (2, 4, 6, 8)
    for theta in (0.5, 1.0, 2.0)
]


class TestScore:
    def test_at_origin(self):
        assert score(GenNormParams(1.0, 2.0), 0.0) == -1.0

    def test_root_location(self):
        # score vanishes at |x| = theta / beta**(1/beta)
        assert abs(score(GenNormParams(1.0, 2.0), 1.0 / math.sqrt(2.0))) <= 1e-15
        for theta in (0.5, 2.0):
            for beta in (1.0, 2.0, 4.0, 8.0):
                root = theta / beta ** (1.0 / beta)
                assert abs(score(GenNormParams(theta, beta), root)) <= 1e-13 / theta

    @pytest.mark.parametrize("params", GRID, ids=str)
    def test_zero_mean_identity(self, params):
        res = expected_score_quad(params)
        assert abs(res.value) <= 1e-9

    def test_matches_log_pdf_derivative(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            theta = rng.uniform(0.5, 2.0)
            beta = rng.uniform(1.0, 4.0)
            x = rng.uniform(-2.0 * theta, 2.0 * theta)
            h = theta * 1e-5
            fd = (
                log_pdf(GenNormParams(theta + h, beta), x)
                - log_pdf(GenNormParams(theta - h, beta), x)
            ) / (2.0 * h)
            assert abs(score(GenNormParams(theta, beta), x) - fd) <= 1e-6

    def test_non_finite_x_rejected(self):
        with pytest.raises(ValueError):
            score(GenNormParams(1.0, 2.0), float("inf"))


class TestSecondDerivative:
    def test_at_origin(self):
        assert d2_log_pdf(GenNormParams(1.0, 2.0), 0.0) == 1.0
        assert d2_log_pdf(GenNormParams(2.0, 2.0), 0.0) == 0.25

    def test_matches_score_derivative(self):
        rng = np.random.default_rng(4048)
        for _ in range(100):
            theta = rng.uniform(0.5, 2.0)
            beta = rng.uniform(1.0, 4.0)
            x = rng.uniform(-2.0 * theta, 2.0 * theta)
            h = theta * 1e-5
            fd = (
                score(GenNormParams(theta + h, beta), x)
                - score(GenNormParams(theta - h, beta), x)
            ) / (2.0 * h)
            assert abs(d2_log_pdf(GenNormParams(theta, beta), x) - fd) <= 1e-6

    def test_non_finite_x_rejected(self):
        with pytest.raises(ValueError):
            d2_log_pdf(GenNormParams(1.0, 2.0), float("nan"))

    @pytest.mark.parametrize("theta", [1e155, 1e200])
    def test_a_value_that_underflows_is_a_signed_zero(self, theta):
        # theta*theta overflows where the true value, (1 - 6)/theta**2 at x =
        # theta and 1/theta**2 at 0, underflows: the sign survives
        params = GenNormParams(theta, 2.0)
        assert math.copysign(1.0, d2_log_pdf(params, theta)) == -1.0
        assert math.copysign(1.0, d2_log_pdf(params, 0.0)) == 1.0
        assert d2_log_pdf(params, theta) == d2_log_pdf(params, 0.0) == 0.0


class TestClosedForm:
    def test_known_values(self):
        assert fisher_closed_form(GenNormParams(1.0, 2.0)).value == 2.0
        assert fisher_closed_form(GenNormParams(2.0, 2.0)).value == 0.5
        assert fisher_closed_form(GenNormParams(1.0, 8.0)).value == 8.0

    def test_estimate_fields(self):
        est = fisher_closed_form(GenNormParams(1.0, 4.0))
        assert est.method == "closed_form"
        assert est.error_estimate == 0.0

    def test_scale_law(self):
        # value * theta^2 recovers beta independently of theta
        for theta in (0.5, 1.0, 2.0, 3.0):
            est = fisher_closed_form(GenNormParams(theta, 6.0))
            assert est.value * theta**2 == pytest.approx(6.0, rel=1e-15)

    @pytest.mark.parametrize("beta", [1.0, 3.0, 2.5, 0.4])
    def test_rejects_non_even_shapes(self, beta):
        with pytest.raises(ValueError):
            fisher_closed_form(GenNormParams(1.0, beta))

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            FisherEstimate(value=1.0, method="guesswork", error_estimate=0.0)
        with pytest.raises(ValueError):
            FisherEstimate(value=-1.0, method="closed_form", error_estimate=0.0)
        with pytest.raises(ValueError):
            FisherEstimate(value=1.0, method="closed_form", error_estimate=float("nan"))


class TestMomentIdentity:
    @pytest.mark.parametrize("beta", [1, 2, 3, 5, 7, 11, 2**53 + 2, 1e300])
    def test_an_integral_shape_gives_beta_exactly(self, beta):
        # Lemma 2: beta m_beta = 1 and beta**2 m_2beta = beta + 1, in integers
        assert fisher_moment_identity(beta, 1.0) == float(beta)
        assert fisher_moment_identity(float(beta), 2.0) == float(beta) / 2.0 / 2.0

    @pytest.mark.parametrize("beta", [1e-7, 1e-3, 0.05, 0.5, 1.5, 2.5, 7.25, 1e6 + 0.5])
    def test_any_other_shape_within_its_rounding(self, beta):
        # from log Gamma ratios; the sum cancels toward beta -> 0, to about
        # eps/beta (0.5 eps/beta seen)
        got = fisher_moment_identity(beta, 1.0)
        assert abs(got - beta) / beta <= 2 * sys.float_info.epsilon * (1.0 + 1.0 / beta) + 1e-14

    @pytest.mark.parametrize("beta", [0.5, 1.5, 2.5, 3.0])
    def test_the_moments_are_the_densitys(self, beta):
        # beta**2 m_2beta - 2 beta m_beta + 1 with m_k = Gamma((k+1)/beta)/Gamma(1/beta)
        b = mp.mpf(beta)
        m = [mp.gamma((k + 1) / b) / mp.gamma(1 / b) for k in (b, 2 * b)]
        want = float(b * b * m[1] - 2 * b * m[0] + 1)
        assert fisher_moment_identity(beta, 1.0) == pytest.approx(want, rel=4e-16)

    @pytest.mark.parametrize("theta", [0.5, 3.0, 1e-100])
    def test_scale_law(self, theta):
        for beta in (3, 2.5):
            assert fisher_moment_identity(beta, theta) == (
                fisher_moment_identity(beta, 1.0) / theta / theta)

    def test_a_shape_below_sqrt_eps_is_rejected(self):
        with pytest.raises(ValueError, match="below sqrt[(]eps[)] = 1.5e-8, where the moment "
                                             "identity keeps less than half its digits"):
            fisher_moment_identity(1e-9, 1.0)

    @pytest.mark.parametrize("beta, theta", [(0.0, 1.0), (True, 1.0), (3, 0.0), (3, "1"),
                                             (3, 1e160), (0.5, 1e-160)])
    def test_rejects_bad_arguments_and_unrepresentable_values(self, beta, theta):
        with pytest.raises(ValueError):
            fisher_moment_identity(beta, theta)


class TestQuadratureRoutes:
    def test_score_variance_examples(self):
        assert abs(fisher_quad_score_variance(GenNormParams(1.0, 2.0)).value - 2.0) <= 1e-8
        assert abs(fisher_quad_score_variance(GenNormParams(1.0, 1.0)).value - 1.0) <= 1e-8
        assert abs(fisher_quad_score_variance(GenNormParams(0.5, 4.0)).value - 16.0) <= 1e-7

    def test_neg_hessian_examples(self):
        assert abs(fisher_quad_neg_hessian(GenNormParams(1.0, 2.0)).value - 2.0) <= 1e-8
        assert abs(fisher_quad_neg_hessian(GenNormParams(1.0, 6.0)).value - 6.0) <= 1e-8

    @pytest.mark.parametrize("params", GRID, ids=str)
    def test_both_routes_reproduce_closed_form(self, params):
        closed = fisher_closed_form(params).value
        sv = fisher_quad_score_variance(params)
        nh = fisher_quad_neg_hessian(params)
        assert sv.value == pytest.approx(closed, rel=1e-7)
        assert nh.value == pytest.approx(closed, rel=1e-7)
        assert abs(nh.value - sv.value) <= 2e-8 * sv.value

    def test_reported_error_within_tolerance(self):
        tol = 1e-9
        est = fisher_quad_score_variance(GenNormParams(1.3, 3.0), tol=tol)
        assert est.error_estimate <= tol * est.value

    @pytest.mark.parametrize("tol", [0.0, -1e-3, 0.02])
    def test_tol_validation(self, tol):
        with pytest.raises(ValueError):
            fisher_quad_score_variance(GenNormParams(1.0, 2.0), tol=tol)

    def test_budget_exhaustion_raises_with_partial(self):
        with pytest.raises(QuadratureError) as excinfo:
            fisher_quad_score_variance(GenNormParams(1.0, 1.0), tol=1e-9, max_level=3)
        assert math.isfinite(excinfo.value.partial)


class TestMonteCarloRoute:
    @pytest.mark.parametrize(
        "theta,beta,target", [(1.0, 2.0, 2.0), (1.0, 4.0, 4.0), (3.0, 2.0, 2.0 / 9.0)]
    )
    def test_matches_closed_form_within_four_stderr(self, theta, beta, target):
        est = fisher_mc_score_variance(GenNormParams(theta, beta), n=10**6, seed=321)
        assert abs(est.value - target) <= 4.0 * est.error_estimate

    def test_deterministic(self):
        p = GenNormParams(1.0, 2.0)
        a = fisher_mc_score_variance(p, n=10**4, seed=5)
        b = fisher_mc_score_variance(p, n=10**4, seed=5)
        assert a == b

    @pytest.mark.parametrize("n", [0, 50, 99])
    def test_minimum_sample_size(self, n):
        with pytest.raises(ValueError):
            fisher_mc_score_variance(GenNormParams(1.0, 2.0), n=n, seed=1)

    @pytest.mark.parametrize(
        "params", [GenNormParams(1.3, 0.5), GenNormParams(0.7, 3.0), GenNormParams(2.0, 8.0)], ids=str
    )
    def test_agrees_with_the_scores_of_signed_draws(self, params):
        # the route's draws are sample's at trial_seed(seed, 0); it takes their
        # powers without the root and raise-back, so it agrees to rounding only
        n = (1 << 18) + 5
        sq = score_z(params.beta, sample(params, n, trial_seed(17, 0)) / params.theta)
        sq *= sq
        unit = 1.0 / params.theta / params.theta
        got = fisher_mc_score_variance(params, n, 17)
        assert got.value == pytest.approx(float(sq.mean()) * unit, rel=1e-13)
        assert got.error_estimate == pytest.approx(
            float(sq.std(ddof=1)) / math.sqrt(n) * unit, rel=1e-13)

    @pytest.mark.parametrize("theta", [0.7, 1.0, 3.0])
    @pytest.mark.parametrize("beta", [1e-10, 0.5, 1.0, 2.0, 2.5, 8.0, 800.0])
    def test_equals_the_squared_scores_of_trial_zero_of_the_power_sampler(self, beta, theta):
        # |z|**beta = m**beta * p from sample_power_trials(beta, n, seed, 1), so
        # the score is beta * m**beta * p - 1; theta enters as 1/theta/theta
        n = 5000
        m, p = next(sample_power_trials(beta, n, 3, 1))
        sq = beta * float(standardized_power(beta, m)[0]) * p[0] - 1.0
        sq *= sq
        unit = 1.0 / theta / theta
        expected = FisherEstimate(float(sq.mean()) * unit, "mc_score_variance",
                                  float(sq.std(ddof=1)) / math.sqrt(n) * unit)
        assert fisher_mc_score_variance(GenNormParams(theta, beta), n, 3) == expected

    @pytest.mark.parametrize("beta, n", [(1e6, 5000), (1e6, 1000), (1e6, 6_000_001),
                                         (16.5, 100), (1000.0, 6001)])
    def test_too_few_draws_for_the_shape_are_rejected(self, beta, n):
        # the relative standard error sqrt((6 beta + 2)/n) would exceed 1; at
        # beta = 10**6 and n = 1000 the route returned 1.0 with error 0.0
        bound = 6.0 * beta + 2.0
        with pytest.raises(ValueError, match=(
                f"^n={n} is below 6[*]beta [+] 2 = {bound!r} at beta={beta!r}, where the Monte "
                "Carlo route's relative standard error exceeds 1$")):
            fisher_mc_score_variance(GenNormParams(1.0, beta), n, 0)

    @pytest.mark.parametrize("beta, n", [(16.5, 101), (1000.0, 6002)])
    def test_draws_at_the_bound_are_taken(self, beta, n):
        got = fisher_mc_score_variance(GenNormParams(1.0, beta), n, 0)
        assert got.value > 0.0 and got.error_estimate > 0.0

    @pytest.mark.parametrize("beta", [0.5, 2.0, 8.0])
    def test_the_standard_error_follows_the_squared_scores_variance(self, beta):
        # Var (beta p - 1)**2 = beta**2 (6 beta + 2): the reported error,
        # relative to beta, is sqrt((6 beta + 2)/n) to within 5 %
        n = 10**5
        got = fisher_mc_score_variance(GenNormParams(1.0, beta), n, 2)
        assert got.error_estimate / beta == pytest.approx(math.sqrt((6 * beta + 2) / n), rel=0.05)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_a_shape_whose_draws_overflow_as_magnitudes(self, seed):
        # |z| = G**200 overflows at beta = 0.005 (G near 200); the route takes
        # no root, so it returns I(1) = beta within 4 standard errors
        got = fisher_mc_score_variance(GenNormParams(1.0, 0.005), 1000, seed)
        assert abs(got.value - 0.005) <= 4.0 * got.error_estimate
        with pytest.raises(OverflowError):
            sample_abs(GenNormParams(1.0, 0.005), 1000, seed)

    @pytest.mark.parametrize("beta", [sys.float_info.epsilon, 1e-15, 1e-12])
    def test_the_smallest_shapes_it_resolves(self, beta):
        # at beta >= eps the score's rounding, eps/sqrt(beta), is at most sqrt(eps)
        got = fisher_mc_score_variance(GenNormParams(1.0, beta), 10**4, 1)
        assert abs(got.value - beta) <= 4.0 * got.error_estimate

    @pytest.mark.parametrize("beta", [math.nextafter(sys.float_info.epsilon, 0.0), 1e-32, 1e-300])
    def test_a_shape_below_eps_is_rejected(self, beta):
        # unguarded, the route read 75 standard errors off at 1e-32, and a
        # standard error of 0.0 at 1e-300
        with pytest.raises(ValueError, match="below eps = 2.2e-16, where the Monte Carlo score "
                                             "keeps less than half the digits of its spread"):
            fisher_mc_score_variance(GenNormParams(1.0, beta), 1000, 5)

    @pytest.mark.parametrize("theta", [0.7, 1.3, 3.0, 1e-5, 12345.678])
    @pytest.mark.parametrize("beta", [1.0, 2.0, 2.5, 8.0])
    def test_scales_exactly_as_one_over_theta_squared(self, beta, theta):
        # the scale law I(theta) = I(1)/theta^2, bit for bit in the value and
        # in the standard error
        unit = 1.0 / theta / theta
        at_one = fisher_mc_score_variance(GenNormParams(1.0, beta), 10**5, 7)
        got = fisher_mc_score_variance(GenNormParams(theta, beta), 10**5, 7)
        assert got.value == at_one.value * unit
        assert got.error_estimate == at_one.error_estimate * unit

    def test_a_scale_that_overflows_the_draws_keeps_the_scale_law(self):
        # |x| = theta |z| overflows at theta = 1e100, beta = 0.01 and |z| does
        # not; the route forms neither, and I = 1e-202 is a normal double
        params, unit = GenNormParams(1e100, 0.01), 1.0 / 1e100 / 1e100
        with pytest.raises(OverflowError, match="theta=1e[+]100, beta=0.01"):
            sample_abs(params, 1000, 5)
        at_one = fisher_mc_score_variance(GenNormParams(1.0, 0.01), 1000, 5)
        got = fisher_mc_score_variance(params, 1000, 5)
        assert got.value == at_one.value * unit
        assert got.error_estimate == at_one.error_estimate * unit

    @pytest.mark.parametrize("params", GRID, ids=str)
    def test_four_way_agreement(self, params):
        closed = fisher_closed_form(params).value
        mc = fisher_mc_score_variance(params, n=10**5, seed=99)
        assert abs(mc.value - closed) <= 4.0 * mc.error_estimate


class TestBetaSweep:
    def test_small_sweep(self):
        rows = fisher_beta_sweep(1.0, [2, 4, 8])
        assert [(b, cf) for b, cf, _ in rows] == [(2, 2.0), (4, 4.0), (8, 8.0)]
        for beta, closed, quad in rows:
            assert quad == pytest.approx(closed, rel=1e-7)

    def test_theta_two(self):
        rows = fisher_beta_sweep(2.0, [2])
        assert rows[0][0] == 2 and rows[0][1] == 0.5
        assert rows[0][2] == pytest.approx(0.5, rel=1e-7)

    def test_divergence_trend(self):
        rows = fisher_beta_sweep(1.0, [20, 50, 100])
        quads = [q for _, _, q in rows]
        for (beta, closed, quad) in rows:
            assert closed == float(beta)
            assert quad == pytest.approx(closed, rel=1e-6)
        assert quads[0] < quads[1] < quads[2]

    def test_monotone_along_even_shapes(self):
        rows = fisher_beta_sweep(1.3, [2, 4, 6, 8, 10, 12, 14, 16])
        values = [q for _, _, q in rows]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            fisher_beta_sweep(1.0, [])
        with pytest.raises(ValueError):
            fisher_beta_sweep(1.0, [2, 3])

    def test_numeric_text_is_not_a_sweep_of_shapes(self):
        # a str is a sequence of digits, each of which float() would accept
        with pytest.raises(ValueError, match="real number"):
            fisher_beta_sweep(1.0, "24")


class TestStandardizedUnits:
    """The routes integrate in z = x/theta and apply the exact scale law, so
    the information stays correct wherever I(theta) itself is representable."""

    def test_large_theta_does_not_underflow(self):
        est = fisher_quad_score_variance(GenNormParams(1e150, 2.0))
        assert est.value == pytest.approx(2e-300, rel=1e-9, abs=0.0)

    def test_small_theta_does_not_overflow(self):
        est = fisher_quad_score_variance(GenNormParams(1e-150, 2.0))
        assert est.value == pytest.approx(2e300, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("theta", [1e-150, 1e150])
    def test_neg_hessian_extreme_theta(self, theta):
        est = fisher_quad_neg_hessian(GenNormParams(theta, 4.0))
        assert est.value == pytest.approx(4.0 / theta / theta, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("theta", [1e-150, 1e150])
    def test_mean_score_extreme_theta(self, theta):
        # abs_tol bounds theta * E[score], which does not depend on theta
        res = expected_score_quad(GenNormParams(theta, 2.0))
        assert math.isfinite(res.value)
        assert abs(res.value * theta) <= 1e-9
        assert res.intervals <= 4096

    def test_budget_exhaustion_partial_in_theta_units(self):
        with pytest.raises(QuadratureError) as at_one:
            fisher_quad_score_variance(GenNormParams(1.0, 1.0), max_level=3)
        with pytest.raises(QuadratureError) as at_three:
            fisher_quad_score_variance(GenNormParams(3.0, 1.0), max_level=3)
        err = at_three.value
        assert err.partial == pytest.approx(at_one.value.partial / 9.0, rel=1e-12)
        assert err.error_estimate == pytest.approx(at_one.value.error_estimate / 9.0, rel=1e-12)
        assert repr(err.partial) in str(err)

    def test_underflowed_value_rejected(self):
        with pytest.raises(ValueError):
            FisherEstimate(value=0.0, method="quad_score_variance", error_estimate=0.0)
        # an information that underflows, or is subnormal, names theta
        for theta, information in ((1e200, 0.0), (1e154, 2e-308)):
            with pytest.raises(ValueError) as exc:
                fisher_closed_form(GenNormParams(theta, 2.0))
            assert str(exc.value) == (
                f"theta={theta!r} puts the information beta/theta**2 = {information!r} "
                "outside the finite, normal doubles at beta=2.0")
        with pytest.raises(ValueError):
            fisher_quad_score_variance(GenNormParams(1e200, 2.0))

    @pytest.mark.parametrize("route", [fisher_quad_score_variance, fisher_quad_neg_hessian])
    def test_subnormal_value_rejected(self, route):
        # I = 2e-308 at theta 1e154 is below the smallest normal double, and
        # every route applies fisher_information's rule to what it reports
        with pytest.raises(ValueError, match="outside the finite, normal doubles"):
            route(GenNormParams(1e154, 2.0))
        assert route(GenNormParams(1e154, 2.5)).value >= sys.float_info.min


class TestKernelsAndRegistry:
    @pytest.mark.parametrize("theta,beta", [(1.3, 3.5), (0.7, 1.0), (2.0, 0.6)])
    def test_scalar_wrappers_match_the_vectorized_kernels(self, theta, beta):
        params = GenNormParams(theta, beta)
        x = np.random.default_rng(5).uniform(-4.0, 4.0, 500)
        assert [score(params, v) for v in x] == (score_z(beta, x / theta) / theta).tolist()
        d2 = -neg_d2_z(beta, x / theta) / theta**2
        assert [d2_log_pdf(params, v) for v in x] == d2.tolist()

    def test_registry_order_and_dispatch(self):
        assert list(METHODS) == ["closed_form", "quad_score_variance",
                                 "quad_neg_hessian", "mc_score_variance"]
        params = GenNormParams(1.0, 2.0)
        for name, route in METHODS.items():
            est = route(params, tol=1e-9, n=1000, seed=1)
            assert est.method == name and est.value > 0.0
