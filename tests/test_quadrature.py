"""Real-line quadrature core against scipy and closed forms."""

import math
import time

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
    special_functions,
)


def _counted(f):
    """f, and the list of node counts it is called with, one entry per pass."""
    passes = []

    def counting(x):
        passes.append(x.size)
        return f(x)

    return counting, passes


# A log grid over [0.05, 1e300]: round decades plus seeded log-uniform points.
EXTREME_SHAPES = sorted(
    [0.05, 0.1, 0.3, 1.0, 3.0, 10.0, 1e3, 1e6, 1e9, 1e10, 1e11, 1e12, 1e16, 1e20, 1e50,
     1e100, 1e150, 1e200, 1e250, 1e300]
    + [10.0 ** x for x in np.random.default_rng(20).uniform(math.log10(0.05), 300.0, 12)]
)


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

    @pytest.mark.parametrize(
        "shape", sorted({0.25, 0.5, 1.0, 4.0, 16.0, 100.0, 1e4, *EXTREME_SHAPES})
    )
    def test_exponential_power_mass(self, shape):
        # integral of exp(-|x/scale|^s) over R is 2*scale*Gamma(1 + 1/s)
        for scale in (1.0, 1.3):

            def f(x):
                with np.errstate(over="ignore"):  # |x/scale| rounds above 1 at huge s
                    return np.exp(-np.abs(x / scale) ** shape)

            res = integrate_decaying(f, scale=scale, shape=shape, abs_tol=0.0, rel_tol=1e-11)
            exact = 2.0 * scale * math.gamma(1.0 + 1.0 / shape)
            assert abs(res.value - exact) <= res.error_estimate + 1e-13 * exact

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
        assert levels_above_floor == 3
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
            # the integration range scale * 700**(1/shape) overflows
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


class TestExpectPower:
    """The half-line rule in p = |z|**beta behind every quadrature route."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 0.0},
            {"beta": -1.0},
            {"beta": math.inf},
            {"beta": math.nan},
            {"beta": 2.0, "exponent": -1.0},
            {"beta": 2.0, "exponent": math.inf},
            {"beta": 2.0, "abs_tol": 0.0, "rel_tol": 0.0},
            # the range 700**(1/beta) overflows
            {"beta": 0.009},
        ],
    )
    def test_parameter_validation(self, kwargs):
        kwargs = {"abs_tol": 1e-9, **kwargs}
        with pytest.raises(ValueError):
            quadrature.expect_power(None, **kwargs)

    def test_weight_sees_the_power_and_one_half_line(self):
        # E[p] = 1/beta; the weight gets p itself, on intervals/2 + 1 nodes
        seen = []

        def weight(p):
            seen.append(p.copy())
            return p

        res = quadrature.expect_power(weight, 2.5, rel_tol=1e-12)
        assert res.value == pytest.approx(1.0 / 2.5, rel=1e-12)
        assert sum(p.size for p in seen) == res.intervals // 2 + 1
        assert all(p.min() >= 0.0 and p.max() < 700.0 for p in seen)

    @pytest.mark.parametrize("beta", [0.5, 2.0, 7.0])
    def test_no_weight_integrates_the_density(self, beta):
        # E[1] = 1 under f_Z: expect_power adds the normalizer itself
        res = quadrature.expect_power(None, beta, rel_tol=1e-12)
        assert res.value == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 2.0, 64.0])
    def test_shares_the_rule_of_integrate_decaying(self, beta):
        # one node map, range and floor: the same levels at the same tolerance
        res = quadrature.expect_power(None, beta, rel_tol=1e-12)
        norm = math.exp(special_functions.log_norm_z(beta))
        same = integrate_decaying(
            lambda x: norm * np.exp(-np.abs(x) ** beta), scale=1.0, shape=beta, abs_tol=0.0,
            rel_tol=1e-12, min_level=quadrature.ROUTE_MIN_LEVEL,
        )
        assert same.intervals == res.intervals
        assert same.value == pytest.approx(res.value, rel=1e-14)

    def test_overflowing_result_raises_overflow_error_without_warning(self):
        with np.errstate(over="raise"), pytest.raises(OverflowError):
            quadrature.expect_power(None, 2.0, exponent=1.0, log_unit=800.0, rel_tol=1e-11)


def _gamma_ratio(order, beta):
    """E|Z|^order = Gamma((order+1)/beta) / Gamma(1/beta), written through
    Gamma(1 + x) so that it stays exact to a few eps at any beta."""
    return math.exp(math.lgamma(1.0 + (order + 1.0) / beta) - math.lgamma(1.0 + 1.0 / beta)) / (
        order + 1.0
    )


class TestExtremeShapes:
    """Every route lands within its own error_estimate plus 1e-13 relative of
    the exact value, for shapes from 0.05 to 1e300.  Where the drop of the
    density sits at s ~ ln(beta) beyond a fixed right cutoff, or between the
    nodes of a coarse floor grid, two levels agree on a wrong value (0 for
    the information at beta = 1e300); these cases catch that."""

    THETA = 1.3
    ROUND_OFF = 1e-13
    MAX_INTERVALS = 2**20  # a few ms of work, even at beta = 1e300

    def _check(self, res, exact, scale):
        assert res.intervals <= self.MAX_INTERVALS
        assert abs(res.value - exact) <= res.error_estimate + self.ROUND_OFF * scale

    @pytest.mark.parametrize("beta", EXTREME_SHAPES)
    @pytest.mark.parametrize("route", [fisher_quad_score_variance, fisher_quad_neg_hessian])
    def test_information(self, route, beta):
        exact = beta / self.THETA / self.THETA
        est = route(GenNormParams(self.THETA, beta))
        assert abs(est.value - exact) <= est.error_estimate + self.ROUND_OFF * exact

    @pytest.mark.parametrize("beta", EXTREME_SHAPES)
    def test_normalization(self, beta):
        self._check(pdf_normalization(GenNormParams(self.THETA, beta)), 1.0, 1.0)

    @pytest.mark.parametrize("beta", EXTREME_SHAPES)
    def test_mean_score(self, beta):
        res = expected_score_quad(GenNormParams(self.THETA, beta))
        self._check(res, 0.0, 1.0 / self.THETA)

    @pytest.mark.parametrize("order", [1.0, 2.0])
    @pytest.mark.parametrize("beta", EXTREME_SHAPES)
    def test_abs_moment(self, beta, order):
        exact = self.THETA**order * _gamma_ratio(order, beta)
        self._check(abs_moment_quad(GenNormParams(self.THETA, beta), order), exact, exact)

    def test_score_variance_at_every_decade_past_1e100(self):
        # where s ~ ln(beta) nears 700, an exp(-s) taken from a rounded s
        # puts errors of ~1e-13 into p (1e178, 1e228 and 1e295 among these)
        missed = []
        for k in range(100, 301):
            beta = 10.0**k
            exact = beta / self.THETA / self.THETA
            est = fisher_quad_score_variance(GenNormParams(self.THETA, beta))
            if abs(est.value - exact) > est.error_estimate + self.ROUND_OFF * exact:
                missed.append(k)
        assert missed == []


# Intervals each route takes at theta = 1.3 for PINNED_SHAPES.  Every route
# evaluates one half-line through quadrature.expect_power, intervals/2 + 1
# nodes in all, each once.
PINNED_SHAPES = [0.05, 0.5, 1.0, 2.5, 64.0, 1e4]
PINNED_INTERVALS = {
    "pdf_normalization": [512, 512, 512, 512, 1024, 2048],
    "abs_moment_quad": [512, 512, 512, 512, 1024, 2048],
    "fisher_quad_score_variance": [512, 512, 512, 512, 1024, 2048],
    "fisher_quad_neg_hessian": [512, 512, 512, 512, 1024, 2048],
    "expected_score_quad": [512, 512, 512, 512, 1024, 4096],
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

    def counted_expect_power(weight, *args, **kwargs):
        passes = []

        def counting(p):
            passes.append(p.size)
            return np.ones_like(p) if weight is None else weight(p)

        res = quadrature.expect_power(counting, *args, **kwargs)
        seen.append((res.intervals, sum(passes)))
        return res

    monkeypatch.setattr(distribution, "expect_power", counted_expect_power)
    monkeypatch.setattr(fisher, "expect_power", counted_expect_power)
    PINNED_ROUTES[route](GenNormParams(1.3, beta))
    intervals = PINNED_INTERVALS[route][PINNED_SHAPES.index(beta)]
    # one half-line: intervals/2 + 1 nodes, each evaluated once
    assert seen == [(intervals, intervals // 2 + 1)]


@pytest.fixture
def rules(monkeypatch):
    """The cached rule maker, emptied, and every rule _half_line takes from it."""
    cached, seen = quadrature._rule, []
    cached.cache_clear()
    monkeypatch.setattr(quadrature, "_rule", lambda *key: seen.append(cached(*key)) or seen[-1])
    yield cached, seen
    cached.cache_clear()


@pytest.mark.parametrize("route", list(PINNED_ROUTES))
def test_kept_rules_give_the_bits_of_fresh_ones(route, rules):
    cached, seen = rules

    def results():
        return [PINNED_ROUTES[route](GenNormParams(1.3, beta)) for beta in PINNED_SHAPES]

    cold = results()
    warm = results()
    for beta in np.linspace(3.0, 4.0, cached.cache_info().maxsize):
        PINNED_ROUTES[route](GenNormParams(1.3, float(beta)))
    misses = cached.cache_info().misses
    evicted = results()
    assert cached.cache_info().misses == misses + len(PINNED_SHAPES)
    assert cold == warm == evicted
    kept = _densities(seen)
    assert kept and not any(a.flags.writeable for a in kept)


def _densities(seen):
    """The (p, w) arrays of every density slot the rules in seen keep."""
    return [a for rule in seen for _, *pw in rule.densities.values() for a in pw]


def _slot_nodes(rule):
    """The nodes a rule keeps density terms for, after checking that each
    slot holds the p and w of its whole pass."""
    assert all(p.size == w.size == count for (_, _, count), (_, p, w) in rule.densities.items())
    return sum(count for _, _, count in rule.densities)


def test_the_rule_cache_is_bounded(rules):
    cached, seen = rules
    for beta in np.geomspace(0.5, 50.0, 200):
        pdf_normalization(GenNormParams(1.0, float(beta)))
    # a route at its floor: a first pass and the midpoint levels up to 6
    assert max(_slot_nodes(rule) for rule in seen) <= 2049
    # at a shape whose floor is level 6: first passes of 33 to 1025 nodes,
    # then midpoint passes of 1024 and 2048 nodes, with a weight that is 0 on
    # alternate nodes and grows with the pass, so that no level converges
    for level in range(8, 0, -1):
        with pytest.raises(QuadratureError):
            quadrature.expect_power(lambda p: np.arange(p.size) % 2.0 * p.size, 1e12,
                                    rel_tol=1e-12, max_level=level)
    assert cached.cache_info().currsize == cached.cache_info().maxsize == 128
    assert max(a.size for a in _densities(seen)) <= 1025
    # at most the first and midpoint passes of levels 1-6
    assert 2049 < max(_slot_nodes(rule) for rule in seen) <= 4038


def test_integrate_decaying_keeps_nothing(rules):
    cached, seen = rules
    for _ in range(2):
        integrate_decaying(lambda x: np.exp(-x * x), 1.0, 2.0, 0.0, 1e-12)
    assert len(seen) == 2 and seen[0] is seen[1] and not seen[0].densities


# The density routes, and an expect_power at a log_unit of its own, which
# takes over the slots the routes at the same shape share
INTERLEAVED = {
    **PINNED_ROUTES,
    "abs_moment_quad_order_0": lambda params: abs_moment_quad(params, 0.0),
    "other_log_unit": lambda params: quadrature.expect_power(
        lambda p: p, params.beta, log_unit=0.25, rel_tol=1e-12),
}


@pytest.mark.parametrize("beta", PINNED_SHAPES)
def test_interleaved_routes_give_the_bits_of_uncached_calls(beta, rules):
    cached, seen = rules
    params = GenNormParams(1.3, beta)
    fresh = {}
    for name, route in INTERLEAVED.items():
        cached.cache_clear()
        fresh[name] = route(params)
    cached.cache_clear()
    names = list(INTERLEAVED)
    orders = [names, names[::-1], names[1::2] + names[::2], names[3:] + names[:3]]
    for order in orders:
        assert {name: INTERLEAVED[name](params) for name in order} == fresh
    assert _densities(seen) and not any(a.flags.writeable for a in _densities(seen))


def test_a_weight_that_writes_to_p_fails_and_leaves_the_kept_terms_as_they_were(rules):
    # every pass hands the weight a read-only p: a kept first pass of 257 nodes
    # at beta 2.5, and a fresh one of 8193 nodes at beta 1e100, whose floor is
    # raised by 5 levels
    cached, seen = rules
    sizes = []

    def overwrite(p):
        sizes.append(p.size)
        p *= 3.0
        return p

    def result(weight, beta=2.5):
        return quadrature.expect_power(weight, beta, log_unit=-0.5, rel_tol=1e-12)

    first = result(lambda p: 3.0 * p - 1.0)
    kept = _densities(seen)
    copies = [a.copy() for a in kept]
    for beta in (2.5, 1e100):
        with pytest.raises(ValueError, match="read-only"):
            result(overwrite, beta)
    assert sizes == [257, 8193]
    assert kept and all(np.array_equal(a, c) for a, c in zip(kept, copies))
    warm = result(lambda p: 3.0 * p - 1.0)
    cached.cache_clear()
    assert first == warm == result(lambda p: 3.0 * p - 1.0)


def test_a_pass_keeps_one_density_slot(rules):
    cached, seen = rules
    params = [GenNormParams(float(theta), 2.5) for theta in np.geomspace(0.5, 2.0, 200)]
    first = [abs_moment_quad(p, 1.0) for p in params]
    rule = seen[0]
    assert all(r is rule for r in seen)
    # each theta has its own log_unit, so each call rewrote the slots of its
    # passes: one slot a pass, a first pass and no midpoints at this floor
    assert _slot_nodes(rule) == 257
    cached.cache_clear()
    assert [abs_moment_quad(p, 1.0) for p in params[::-1]] == first[::-1]



# A tolerance must be a real number >= 0 or +inf: a nan, a bool or numeric
# text once ran a route to its last level, or was taken as 1.0.
BAD_TOLERANCES = [math.nan, True, np.bool_(True), "1e-9", None, -1e-9, -math.inf]
TOLERANCE_ROUTES = {
    "pdf_normalization": lambda tol: pdf_normalization(GenNormParams(1.0, 2.0), abs_tol=tol),
    "expected_score_quad": lambda tol: expected_score_quad(GenNormParams(1.0, 2.0), abs_tol=tol),
    "abs_moment_quad": lambda tol: abs_moment_quad(GenNormParams(1.0, 2.0), 2.0, rel_tol=tol),
    "fisher_quad_score_variance":
        lambda tol: fisher_quad_score_variance(GenNormParams(1.0, 2.0), tol=tol),
    "fisher_quad_neg_hessian":
        lambda tol: fisher_quad_neg_hessian(GenNormParams(1.0, 2.0), tol=tol),
    "expect_power": lambda tol: quadrature.expect_power(None, 2.0, abs_tol=tol),
    "integrate_decaying": lambda tol: integrate_decaying(
        lambda x: np.exp(-x * x), scale=1.0, shape=2.0, abs_tol=0.0, rel_tol=tol),
}


@pytest.mark.parametrize("route", sorted(TOLERANCE_ROUTES))
@pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=repr)
def test_a_bad_tolerance_fails_at_once(route, tol):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="tol"):
        TOLERANCE_ROUTES[route](tol)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("route", ["pdf_normalization", "expected_score_quad", "abs_moment_quad",
                                   "expect_power", "integrate_decaying"])
def test_an_infinite_tolerance_stops_at_the_floor(route):
    res = TOLERANCE_ROUTES[route](math.inf)
    assert math.isfinite(res.value)


@pytest.mark.parametrize("tol", [1e-9, np.float64(1e-9), 1, np.int64(1)])
def test_any_real_tolerance_is_taken_at_its_value(tol):
    p = GenNormParams(1.3, 2.5)
    assert pdf_normalization(p, abs_tol=tol) == pdf_normalization(p, abs_tol=float(tol))


REAL_ARGUMENTS = {
    "order": lambda v: abs_moment_quad(GenNormParams(1.0, 2.0), v),
    "beta": lambda v: quadrature.expect_power(None, v, abs_tol=1e-9),
    "exponent": lambda v: quadrature.expect_power(None, 2.0, exponent=v, abs_tol=1e-9),
    "scale": lambda v: integrate_decaying(lambda x: np.exp(-x * x), scale=v, shape=2.0,
                                          abs_tol=1e-9, rel_tol=0.0),
    "shape": lambda v: integrate_decaying(lambda x: np.exp(-x * x), scale=1.0, shape=v,
                                          abs_tol=1e-9, rel_tol=0.0),
}


@pytest.mark.parametrize("name", sorted(REAL_ARGUMENTS))
@pytest.mark.parametrize("value", [True, np.True_, "2", b"2", None], ids=repr)
def test_a_bool_or_text_is_not_a_real_argument(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a real number"):
        REAL_ARGUMENTS[name](value)


LEVEL_CALLS = {
    "fisher_quad_score_variance": lambda level: fisher_quad_score_variance(
        GenNormParams(1.0, 2.0), max_level=level),
    "fisher_quad_neg_hessian": lambda level: fisher_quad_neg_hessian(
        GenNormParams(1.0, 2.0), max_level=level),
    "expect_power": lambda level: quadrature.expect_power(None, 2.0, rel_tol=1e-9,
                                                          max_level=level),
    "integrate_decaying": lambda level: integrate_decaying(
        lambda x: np.exp(-x * x), scale=1.0, shape=2.0, abs_tol=1e-9, rel_tol=0.0,
        max_level=level),
}


@pytest.mark.parametrize("call", sorted(LEVEL_CALLS))
@pytest.mark.parametrize("level", [2.5, 22.0, "22", True, np.bool_(True), None], ids=repr)
def test_max_level_must_be_an_integer(call, level):
    with pytest.raises(ValueError, match="max_level must be an integer"):
        LEVEL_CALLS[call](level)


@pytest.mark.parametrize("level", [2.5, "6", False])
def test_min_level_must_be_an_integer(level):
    with pytest.raises(ValueError, match="min_level must be an integer"):
        integrate_decaying(lambda x: np.exp(-x * x), scale=1.0, shape=2.0, abs_tol=1e-9,
                           rel_tol=0.0, min_level=level)


def test_a_numpy_integer_level_is_an_integer():
    p = GenNormParams(1.0, 2.0)
    assert fisher_quad_score_variance(p, max_level=np.int64(22)) == fisher_quad_score_variance(p)
    f = lambda x: np.exp(-x * x)  # noqa: E731
    kwargs = {"scale": 1.0, "shape": 2.0, "abs_tol": 1e-9, "rel_tol": 0.0}
    assert integrate_decaying(f, min_level=np.int32(6), **kwargs) == integrate_decaying(f, **kwargs)
