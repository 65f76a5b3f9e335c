"""Score, observed information, and the four Fisher information routes."""

import math
import sys

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
    fisher_quad_neg_hessian,
    fisher_quad_score_variance,
    log_pdf,
    sample,
    sample_abs,
    score,
)
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
    def test_equals_reference_from_signed_draws(self, params):
        n = (1 << 18) + 5  # two sampler chunks
        sq = score_z(params.beta, sample(params, n, 17) / params.theta)
        sq *= sq
        unit = 1.0 / params.theta / params.theta
        expected = FisherEstimate(float(sq.mean()) * unit, "mc_score_variance",
                                  float(sq.std(ddof=1)) / math.sqrt(n) * unit)
        assert fisher_mc_score_variance(params, n, 17) == expected

    @pytest.mark.parametrize("theta", [0.7, 1.0, 3.0])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 8.0])
    def test_equals_the_mean_and_std_of_the_squared_scores(self, beta, theta):
        params, n = GenNormParams(theta, beta), 5000
        sq = score_z(beta, sample_abs(params, n, 3) / theta)
        sq *= sq
        unit = 1.0 / theta / theta
        expected = FisherEstimate(float(sq.mean()) * unit, "mc_score_variance",
                                  float(sq.std(ddof=1)) / math.sqrt(n) * unit)
        assert fisher_mc_score_variance(params, n, 3) == expected

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
