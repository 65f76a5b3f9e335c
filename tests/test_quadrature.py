"""Real-line quadrature core against scipy and closed forms."""

import math

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from gennorm_fisher import (
    GenNormParams,
    QuadratureError,
    abs_moment_quad,
    distribution,
    expected_score_quad,
    fisher,
    fisher_quad_neg_hessian,
    fisher_quad_score_variance,
    integrate_decaying,
    pdf_normalization,
    quadrature,
)


def _counted(f):
    """f, and the list of node counts it is called with, one entry per pass."""
    passes = []

    def counting(x):
        passes.append(x.size)
        return f(x)

    return counting, passes


class TestKnownIntegrals:
    def test_gaussian(self):
        res = integrate_decaying(
            lambda x: np.exp(-x * x), scale=1.0, shape=2.0, abs_tol=1e-12, rel_tol=1e-12
        )
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert res.error_estimate <= 1e-12 * res.value + 1e-12

    def test_two_sided_exponential(self):
        # the shape=1 kink at the origin still converges, just more slowly
        res = integrate_decaying(
            lambda x: np.exp(-np.abs(x)), scale=1.0, shape=1.0, abs_tol=1e-11, rel_tol=0.0
        )
        assert res.value == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("shape", [0.25, 0.5, 1.0, 4.0, 16.0, 100.0, 1e4])
    def test_exponential_power_mass(self, shape):
        # integral of exp(-|x|^s) over R is 2*Gamma(1 + 1/s)
        res = integrate_decaying(
            lambda x: np.exp(-np.abs(x) ** shape),
            scale=1.0,
            shape=shape,
            abs_tol=0.0,
            rel_tol=1e-11,
        )
        expected = 2.0 * math.gamma(1.0 + 1.0 / shape)
        assert res.value == pytest.approx(expected, rel=1e-9)

    def test_against_scipy_quad(self):
        def f(x):
            return x * x * np.exp(-np.abs(x / 2.0) ** 4)

        res = integrate_decaying(f, scale=2.0, shape=4.0, abs_tol=0.0, rel_tol=1e-11)
        oracle, oracle_err = sp_integrate.quad(f, -np.inf, np.inf)
        assert res.value == pytest.approx(oracle, rel=1e-9)
        # the reported bound covers the true deviation (plus the oracle's own)
        assert abs(res.value - oracle) <= res.error_estimate + oracle_err + 1e-12

    def test_odd_integrand_is_zero(self):
        res = integrate_decaying(
            lambda x: x * np.exp(-x * x), scale=1.0, shape=2.0, abs_tol=1e-12, rel_tol=0.0
        )
        assert abs(res.value) <= 1e-12


class TestBehavior:
    def test_minimum_refinement_enforced(self):
        res = integrate_decaying(
            lambda x: np.exp(-x * x), scale=1.0, shape=2.0, abs_tol=1e-6, rel_tol=0.0
        )
        assert res.intervals >= 2048  # 32 * 2**min_level

    def test_budget_exhaustion_carries_partial_result(self):
        with pytest.raises(QuadratureError) as excinfo:
            integrate_decaying(
                lambda x: np.exp(-x * x),
                scale=1.0,
                shape=2.0,
                abs_tol=1e-12,
                rel_tol=0.0,
                max_level=2,
            )
        err = excinfo.value
        assert math.isfinite(err.partial)
        assert err.partial == pytest.approx(math.sqrt(math.pi), rel=1e-3)
        assert err.error_estimate >= 0.0

    def test_zero_budget_raises_with_a_finite_partial(self):
        with pytest.raises(QuadratureError) as excinfo:
            integrate_decaying(
                lambda x: np.exp(-x * x), scale=1.0, shape=2.0, abs_tol=1e-12, rel_tol=0.0,
                max_level=0,
            )
        assert math.isfinite(excinfo.value.partial)

    def test_budget_below_the_route_floor_evaluates_its_grid(self):
        # levels 0..3 hold 2 * (16 * 2**3 + 1) = 258 nodes
        f, passes = _counted(lambda x: np.exp(-x * x))
        with pytest.raises(QuadratureError):
            integrate_decaying(
                f, scale=1.0, shape=2.0, abs_tol=1e-12, rel_tol=0.0,
                max_level=3, min_level=quadrature.ROUTE_MIN_LEVEL,
            )
        assert sum(passes) == 258

    def test_convergence_at_the_floor_takes_one_pass(self):
        f, passes = _counted(lambda x: np.exp(-x * x))
        res = integrate_decaying(
            f, scale=1.0, shape=2.0, abs_tol=1e-6, rel_tol=0.0,
            min_level=quadrature.ROUTE_MIN_LEVEL,
        )
        assert res.intervals == 32 * 2**quadrature.ROUTE_MIN_LEVEL
        assert passes == [res.intervals + 2]

    def test_each_level_above_the_floor_takes_one_pass(self):
        f, passes = _counted(lambda x: np.exp(-x * x))
        res = integrate_decaying(f, scale=1.0, shape=2.0, abs_tol=0.0, rel_tol=1e-14, min_level=1)
        levels_above_floor = int(math.log2(res.intervals // 32)) - 1
        assert levels_above_floor == 4
        assert len(passes) == levels_above_floor + 1
        assert sum(passes) == res.intervals + 2

    def test_non_finite_value_stops_at_once(self):
        passes = []

        def f(x):
            passes.append(x.size)
            return np.full_like(x, np.nan)

        with pytest.raises(QuadratureError) as excinfo:
            integrate_decaying(f, scale=1.0, shape=2.0, abs_tol=1e-12, rel_tol=0.0)
        assert math.isnan(excinfo.value.partial)
        assert len(passes) <= 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scale": 0.0, "shape": 2.0, "abs_tol": 1e-9, "rel_tol": 0.0},
            {"scale": -1.0, "shape": 2.0, "abs_tol": 1e-9, "rel_tol": 0.0},
            {"scale": 1.0, "shape": 0.0, "abs_tol": 1e-9, "rel_tol": 0.0},
            {"scale": 1.0, "shape": float("inf"), "abs_tol": 1e-9, "rel_tol": 0.0},
            {"scale": 1.0, "shape": 2.0, "abs_tol": 0.0, "rel_tol": 0.0},
            {"scale": 1.0, "shape": 2.0, "abs_tol": -1e-9, "rel_tol": 1e-9},
            # the integration range scale * 746**(1/shape) overflows
            {"scale": 1.0, "shape": 0.009, "abs_tol": 1e-9, "rel_tol": 0.0},
            {"scale": 1e306, "shape": 0.5, "abs_tol": 1e-9, "rel_tol": 0.0},
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            integrate_decaying(lambda x: np.exp(-x * x), **kwargs)


class TestRoutesAcrossShapes:
    """Every quadrature route converges on a few thousand intervals from the
    rough shapes (power singularity of the folded density at 0) up to the
    near-uniform beta = 1e4 (a drop of width ~1/beta at |x| = theta)."""

    THETA = 1.3
    MAX_INTERVALS = 4096  # 32 * 2**7
    SHAPES = [0.05, 0.25, 0.5, 0.75, 1e4]

    @pytest.mark.parametrize("beta", SHAPES)
    @pytest.mark.parametrize("route", [fisher_quad_score_variance, fisher_quad_neg_hessian])
    def test_information(self, route, beta):
        # max_level=7 caps the rule at MAX_INTERVALS; more would raise QuadratureError
        est = route(GenNormParams(self.THETA, beta), max_level=7)
        assert est.value == pytest.approx(beta / self.THETA**2, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("beta", SHAPES)
    def test_normalization(self, beta):
        res = pdf_normalization(GenNormParams(self.THETA, beta))
        assert abs(res.value - 1.0) <= 1e-10
        assert res.intervals <= self.MAX_INTERVALS

    @pytest.mark.parametrize("beta", SHAPES)
    def test_mean_score(self, beta):
        res = expected_score_quad(GenNormParams(self.THETA, beta))
        assert abs(res.value) <= 1e-9
        assert res.intervals <= self.MAX_INTERVALS

    @pytest.mark.parametrize("order", [1.0, 2.0])
    @pytest.mark.parametrize("beta", SHAPES)
    def test_abs_moment(self, beta, order):
        # E|X|^order = theta^order * Gamma((order + 1)/beta) / Gamma(1/beta)
        log_ratio = math.lgamma((order + 1.0) / beta) - math.lgamma(1.0 / beta)
        expected = self.THETA**order * math.exp(log_ratio)
        res = abs_moment_quad(GenNormParams(self.THETA, beta), order)
        assert res.value == pytest.approx(expected, rel=1e-9, abs=0.0)
        assert res.intervals <= self.MAX_INTERVALS

    def test_laplace_normalization_node_count(self):
        # the shape-1 kink sits on the fold, so the route stops at its 512-interval floor
        res = pdf_normalization(GenNormParams(1.0, 1.0))
        assert res.value == pytest.approx(1.0, abs=1e-11)
        assert res.intervals <= 512


# Intervals each route took at theta = 1.3 for PINNED_SHAPES when every call
# still refined level by level from level 0, one integrand pass per level.
# Starting at the min_level grid must evaluate exactly the same node sets.
PINNED_SHAPES = [0.05, 0.5, 1.0, 2.5, 64.0, 1e4]
PINNED_INTERVALS = {
    "pdf_normalization": [1024, 512, 512, 512, 1024, 2048],
    "abs_moment_quad": [1024, 512, 512, 512, 1024, 2048],
    "fisher_quad_score_variance": [1024, 512, 512, 512, 2048, 4096],
    "fisher_quad_neg_hessian": [1024, 512, 512, 512, 1024, 4096],
    "expected_score_quad": [1024, 512, 512, 1024, 2048, 4096],
}
PINNED_ROUTES = {
    "pdf_normalization": pdf_normalization,
    "abs_moment_quad": lambda params: abs_moment_quad(params, 1.0),
    "fisher_quad_score_variance": fisher_quad_score_variance,
    "fisher_quad_neg_hessian": fisher_quad_neg_hessian,
    "expected_score_quad": expected_score_quad,
}


@pytest.mark.parametrize("beta", PINNED_SHAPES)
@pytest.mark.parametrize("route", list(PINNED_INTERVALS))
def test_route_node_sets_are_pinned(route, beta, monkeypatch):
    seen = []

    def counted_integrate(f, *args, **kwargs):
        counting, passes = _counted(f)
        res = quadrature.integrate_decaying(counting, *args, **kwargs)
        seen.append((res.intervals, sum(passes)))
        return res

    monkeypatch.setattr(distribution, "integrate_decaying", counted_integrate)
    monkeypatch.setattr(fisher, "integrate_decaying", counted_integrate)
    PINNED_ROUTES[route](GenNormParams(1.3, beta))
    intervals = PINNED_INTERVALS[route][PINNED_SHAPES.index(beta)]
    # both halves of the line: intervals + 2 nodes, each evaluated once
    assert seen == [(intervals, intervals + 2)]
