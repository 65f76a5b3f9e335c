"""Density, moments, and sampler of the generalized normal family."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as sp_stats

from gennorm_fisher import (
    GenNormParams,
    MomentSpec,
    abs_moment_quad,
    distribution,
    exact,
    exact_moment,
    fisher_closed_form,
    fisher_quad_score_variance,
    log_gamma,
    log_pdf,
    pdf,
    pdf_normalization,
    sample,
    sample_abs,
    seeding,
    special_functions,
)
from gennorm_fisher.distribution import log_pdf_z, standardized_power
from gennorm_fisher.estimation import ExperimentConfig

mp.mp.dps = 50


class TestParams:
    @pytest.mark.parametrize("theta,beta", [(0.0, 2.0), (-1.0, 2.0), (1.0, 0.0),
                                            (1.0, -3.0), (float("nan"), 2.0),
                                            (1.0, float("inf")), ("a", 2.0)])
    def test_validation(self, theta, beta):
        with pytest.raises(ValueError):
            GenNormParams(theta=theta, beta=beta)

    @pytest.mark.parametrize("beta", [1e-310, 5e-324])
    def test_a_shape_whose_reciprocal_overflows_is_named(self, beta):
        with pytest.raises(ValueError, match=f"beta={beta!r} is too small: 1/beta overflows"):
            GenNormParams(theta=1.0, beta=beta)

    def test_the_smallest_shapes_with_a_finite_reciprocal_are_accepted(self):
        assert GenNormParams(theta=1.0, beta=1e-308).beta == 1e-308

    def test_fields_coerced_to_float(self):
        p = GenNormParams(theta=1, beta=2)
        assert isinstance(p.theta, float) and isinstance(p.beta, float)

    def test_frozen(self):
        p = GenNormParams(theta=1.0, beta=2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.theta = 3.0

    @pytest.mark.parametrize("k", [-1, 1.5, "2"])
    def test_moment_spec_validation(self, k):
        with pytest.raises(ValueError):
            MomentSpec(k=k, params=GenNormParams(1.0, 2.0))


class TestLogPdf:
    def test_gaussian_shape_peak(self):
        # log(beta/2) vanishes at beta=2, leaving -log Gamma(1/2) = -ln sqrt(pi)
        p = GenNormParams(theta=1.0, beta=2.0)
        assert log_pdf(p, 0.0) == pytest.approx(-0.5723649429247001, rel=1e-12)

    def test_laplace_peak(self):
        p = GenNormParams(theta=1.0, beta=1.0)
        assert log_pdf(p, 0.0) == math.log(0.5)

    def test_symmetry_bit_for_bit(self):
        p = GenNormParams(theta=1.3, beta=2.7)
        for x in (0.1, 1.0, 2.5, 17.0, 1e-9):
            assert log_pdf(p, x) == log_pdf(p, -x)

    def test_extreme_argument_gives_minus_inf(self):
        p = GenNormParams(theta=1.0, beta=128.0)
        assert log_pdf(p, 1e300) == -math.inf

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf"), "y"])
    def test_non_finite_x_rejected(self, x):
        with pytest.raises(ValueError):
            log_pdf(GenNormParams(1.0, 2.0), x)

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.5, max_value=16.0),
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    )
    def test_symmetry_and_range_property(self, theta, beta, x):
        p = GenNormParams(theta=theta, beta=beta)
        value = log_pdf(p, x)
        assert log_pdf(p, -x) == value
        assert value <= log_pdf(p, 0.0)  # unimodal with mode at 0


class TestPdf:
    def test_laplace_peak(self):
        assert pdf(GenNormParams(1.0, 1.0), 0.0) == 0.5

    def test_ratio_kills_normalizer(self):
        p = GenNormParams(theta=1.0, beta=2.0)
        assert pdf(p, 1.0) / pdf(p, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_strictly_positive_on_moderate_grid(self):
        p = GenNormParams(theta=0.7, beta=3.3)
        for x in np.linspace(-4, 4, 41):  # (4/0.7)^3.3 ~ 315, still representable
            assert pdf(p, float(x)) > 0.0
        # far tail underflows to exactly zero, never negative
        assert pdf(p, 8.0) == 0.0

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0, 8.0])
    def test_normalization(self, theta, beta):
        res = pdf_normalization(GenNormParams(theta, beta))
        assert res.value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("theta,beta", [(1.0, 2.0), (0.5, 1.0), (2.0, 4.5), (1.0, 8.0)])
    def test_against_scipy_gennorm(self, theta, beta):
        # independent implementation of the same family
        p = GenNormParams(theta, beta)
        dist = sp_stats.gennorm(beta, scale=theta)
        for x in (-3.0, -0.4, 0.0, 0.9, 2.2):
            assert pdf(p, x) == pytest.approx(float(dist.pdf(x)), rel=1e-12)


class TestExactMoment:
    def test_odd_moments_identically_zero(self):
        p = GenNormParams(theta=3.0, beta=1.7)
        for k in (1, 3, 5, 7, 11):
            assert exact_moment(MomentSpec(k=k, params=p)) == 0.0

    def test_zeroth_moment_is_one(self):
        assert exact_moment(MomentSpec(k=0, params=GenNormParams(2.5, 0.8))) == 1.0

    def test_gaussian_variance(self):
        spec = MomentSpec(k=2, params=GenNormParams(1.0, 2.0))
        assert exact_moment(spec) == pytest.approx(0.5, rel=1e-13)

    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.5, 7.0])
    @pytest.mark.parametrize("theta", [0.5, 2.0])
    def test_against_gamma_ratio_oracle(self, k, beta, theta):
        spec = MomentSpec(k=k, params=GenNormParams(theta, beta))
        expected = mp.mpf(theta) ** k * mp.gamma(mp.mpf(k + 1) / beta) / mp.gamma(
            mp.mpf(1) / beta
        )
        assert exact_moment(spec) == pytest.approx(float(expected), rel=1e-12)

    @pytest.mark.parametrize(
        "k, theta, beta, message",
        [
            (300, 2.0, 0.25, r"E\[X\^300\] at theta=2.0, beta=0.25 "),
            (2, 1e200, 2.0, r"E\[X\^2\] at theta=1e\+200, beta=2.0 "),
            # log Gamma(3e306) itself overflows; the ratio kernel raises for it
            (2, 1.0, 1e-306, r"E\[X\^2\] at theta=1.0, beta=1e-306 "),
        ],
        ids=["order", "theta", "shape"],
    )
    def test_overflow_for_huge_orders(self, k, theta, beta, message):
        spec = MomentSpec(k=k, params=GenNormParams(theta, beta))
        with pytest.raises(OverflowError, match=message + "exceeds the double range"):
            exact_moment(spec)

    def test_quadrature_of_a_high_order(self):
        # E|Z|^1100 = 1e551 overflows, E|X|^1100 = 3.04e219 at theta = 0.5 does not
        params = GenNormParams(0.5, 4.0)
        exact = exact_moment(MomentSpec(k=1100, params=params))
        assert exact == pytest.approx(3.0364926890871e219, rel=1e-12)
        assert abs_moment_quad(params, 1100.0).value == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("order", [-1.0, -5e-324])
    def test_a_negative_order_is_rejected(self, order):
        with pytest.raises(ValueError, match=r"order must be finite and >= 0"):
            abs_moment_quad(GenNormParams(1.0, 2.0), order)

    def test_quadrature_of_an_unrepresentable_moment(self):
        # E|X|^2 = 1e400 * Gamma(3/2) / Gamma(1/2) exceeds the double range
        with np.errstate(over="raise"), pytest.raises(OverflowError):
            abs_moment_quad(GenNormParams(1e200, 2.0), 2.0)

    @pytest.mark.parametrize("theta, beta, order", [
        (7.858219192238e-235, 0.016860688013258303, 3.0),  # exp(-740.44), once a silent 0.0
        (1e-103, 2.0, 3.0),  # 5.6e-310
        (1e-200, 2.0, 2.0),  # 5e-401, below the subnormals too
    ])
    def test_a_moment_below_the_normal_doubles_is_rejected(self, theta, beta, order):
        with pytest.raises(ValueError, match=f"at theta={theta!r}, beta={beta!r} is .*, "
                                             "below the normal doubles"):
            abs_moment_quad(GenNormParams(theta, beta), order)

    def test_the_smallest_moments_it_returns(self):
        # E|X|^3 = theta^3 / sqrt(pi) at beta = 2: 5.6e-307, a normal double
        got = abs_moment_quad(GenNormParams(1e-102, 2.0), 3.0).value
        assert got == pytest.approx(1e-306 / math.sqrt(math.pi), rel=1e-11)


class TestMomentAtTheShape:
    # E|X|^beta = theta^beta / beta at an even shape, where it is exact_moment(k=beta)
    def test_known_values(self):
        assert exact_moment(MomentSpec(k=2, params=GenNormParams(1.0, 2.0))) == pytest.approx(
            0.5, rel=1e-15)
        assert exact_moment(MomentSpec(k=4, params=GenNormParams(2.0, 4.0))) == pytest.approx(
            4.0, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_agrees_with_the_short_route(self, n, theta):
        # theta^beta/beta against exact_moment(k=beta): two derivations of E[|X|^beta]
        beta = 2 * n
        p = GenNormParams(theta, float(beta))
        ratio = exact_moment(MomentSpec(k=beta, params=p))
        assert ratio * beta / theta**beta == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("beta", [1.0, 3.0, 2.5, 0.5])
    def test_the_closed_form_rejects_non_even_shapes(self, beta):
        with pytest.raises(ValueError, match="shape beta must be a positive even integer"):
            fisher_closed_form(GenNormParams(1.0, beta))

    @pytest.mark.parametrize("beta", ["4", b"4", bytearray(b"4"), True])
    def test_numeric_text_and_bools_are_not_shapes(self, beta):
        with pytest.raises(ValueError, match="shape beta must be a real number"):
            exact.require_even_shape(beta)
        with pytest.raises(ValueError, match="^beta must be a real number"):
            ExperimentConfig(beta=beta, theta_true=1.0, n=100, trials=10, seed=0)


class TestSample:
    def test_deterministic(self):
        p = GenNormParams(1.0, 2.0)
        a = sample(p, 5000, seed=42)
        b = sample(p, 5000, seed=42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample(p, 5000, seed=43))

    def test_scale_equivariance_bitwise(self):
        base = sample(GenNormParams(1.0, 4.0), 4096, seed=11)
        scaled = sample(GenNormParams(2.0, 4.0), 4096, seed=11)
        assert np.array_equal(scaled, 2.0 * base)

    def test_multi_chunk_paths(self):
        n = (1 << 18) + 3
        p = GenNormParams(1.0, 2.0)
        a = sample(p, n, seed=5)
        assert a.shape == (n,)
        assert np.array_equal(a, sample(p, n, seed=5))
        scaled = sample(GenNormParams(3.0, 2.0), n, seed=5)
        assert np.array_equal(scaled, 3.0 * a)

    @pytest.mark.parametrize("count", [0, -1, 2.5])
    def test_count_validation(self, count):
        with pytest.raises(ValueError):
            sample(GenNormParams(1.0, 2.0), count, seed=1)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            sample(GenNormParams(1.0, 2.0), 10, seed=-1)

    def test_mean_vanishes(self):
        draws = sample(GenNormParams(1.0, 2.0), 10**6, seed=42)
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean()) <= 4.0 * stderr

    def test_second_moment_matches_exact(self):
        p = GenNormParams(1.0, 2.0)
        sq = sample(p, 10**6, seed=101) ** 2
        target = exact_moment(MomentSpec(k=2, params=p))
        stderr = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - target) <= 4.0 * stderr

    def test_fourth_moment_at_the_gaussian_shape_matches_exact(self):
        # the normal generator's fourth moment, 3 theta^4 / 4 at beta = 2
        p = GenNormParams(1.0, 2.0)
        quads = sample(p, 10**6, seed=303) ** 4
        target = exact_moment(MomentSpec(k=4, params=p))
        stderr = quads.std(ddof=1) / math.sqrt(quads.size)
        assert abs(quads.mean() - target) <= 4.0 * stderr

    def test_fourth_abs_moment_matches_exact(self):
        p = GenNormParams(1.0, 4.0)
        quads = np.abs(sample(p, 10**6, seed=202)) ** 4
        target = exact_moment(MomentSpec(k=4, params=p))  # theta^beta/beta = 0.25
        stderr = quads.std(ddof=1) / math.sqrt(quads.size)
        assert abs(quads.mean() - target) <= 4.0 * stderr

    @pytest.mark.parametrize("beta", [0.7, 1.0, 2.0, 8.0, 64.0])
    def test_distribution_matches_scipy_gennorm(self, beta):
        # KS test against an independent implementation; covers both the
        # direct gamma path (beta <= 1) and the boosted one (beta > 1)
        draws = sample(GenNormParams(1.5, beta), 10**5, seed=77)
        ks = sp_stats.kstest(draws, sp_stats.gennorm(beta, scale=1.5).cdf)
        assert ks.pvalue > 1e-3

    def test_large_beta_stays_in_range(self):
        draws = sample(GenNormParams(1.0, 128.0), 10**5, seed=9)
        assert np.all(np.isfinite(draws))
        assert np.all(draws != 0.0)  # the boost construction never collapses to 0
        assert np.abs(draws).max() < 1.2  # essentially uniform on [-1, 1]

    @pytest.mark.parametrize("theta, beta", [(1.0, 0.005), (1e300, 0.01)])
    @pytest.mark.parametrize("draw", [
        lambda p: sample(p, 5, 1),
        lambda p: sample_abs(p, 5, 1),
    ], ids=["sample", "sample_abs"])
    def test_a_draw_that_overflows_raises(self, draw, theta, beta):
        # G**(1/beta) at beta = 0.005 (G near 200), or theta * |z| with |z|
        # near 1e200, is past the double range: an error naming both, not inf
        message = f"a draw overflows the double range at theta={theta!r}, beta={beta!r}"
        with np.errstate(over="raise"), pytest.raises(OverflowError) as exc:
            draw(GenNormParams(theta, beta))
        assert str(exc.value) == message


def _reference_sample(params, count, seed):
    # the sampler from numpy's Generator calls on one stream, the first child
    # of SeedSequence(seed).spawn: the gammas, then the uniforms, then the
    # signs, each for all count draws; at beta = 2 the normals z / sqrt(2),
    # signs and all, then theta
    inv_beta = 1.0 / params.beta
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(1)[0]))
    if params.beta == 2.0:
        return rng.standard_normal(count) * math.sqrt(0.5) * params.theta
    x = rng.standard_gamma(1.0 + inv_beta if params.beta > 1.0 else inv_beta, size=count)
    x = x**inv_beta
    if params.beta > 1.0:
        x = x * (1.0 - rng.random(count))
    signs = rng.integers(0, 2, size=count) * 2 - 1
    return x * params.theta * signs


class TestSampleAbs:
    @pytest.mark.parametrize("theta", [1.0, 3.0, 1e-3])
    @pytest.mark.parametrize("count", [1, 1000, (1 << 18) + 3])
    @pytest.mark.parametrize("beta", [0.3, 1.0, 2.0, 7.5, 1e6])
    def test_is_abs_of_sample_bitwise(self, beta, count, theta):
        p = GenNormParams(theta, beta)
        magnitudes = sample_abs(p, count, seed=13)
        assert magnitudes.dtype == np.float64 and magnitudes.shape == (count,)
        assert magnitudes.tobytes() == np.abs(sample(p, count, seed=13)).tobytes()

    @pytest.mark.parametrize("beta", [0.3, 2.0, 7.5])
    def test_sample_keeps_its_stream(self, beta):
        p = GenNormParams(1.7, beta)
        n = (1 << 18) + 3
        assert sample(p, n, seed=21).tobytes() == _reference_sample(p, n, 21).tobytes()

    @pytest.mark.parametrize("count", [0, -1, 2.5, True])
    def test_count_validation(self, count):
        with pytest.raises(ValueError):
            sample_abs(_P, count, seed=1)


def _numpy_words(entropy, key, n_words):
    # the oracle: numpy's own SeedSequence
    return np.random.SeedSequence(int(entropy), spawn_key=(int(key),)).generate_state(n_words)


def _keys(size):
    # spawn keys with both ends of the one-word range, then seeded random ones
    keys = np.random.default_rng(size).integers(0, 2**32, size=size)
    keys[:3] = [0, 1, 2**32 - 1][:size]
    return keys


class TestSeedWords:
    @pytest.mark.parametrize("size", [1, 3, 40])
    @pytest.mark.parametrize("n_words", [1, 2, 8, 9])
    @pytest.mark.parametrize(
        "entropy", [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**64 + 1, 2**128 + 5])
    def test_shared_entropy_equals_seed_sequence(self, entropy, n_words, size):
        keys = _keys(size)
        words = seeding.seed_words(entropy, keys, n_words)
        assert words.dtype == np.uint32 and words.shape == (size, n_words)
        expected = np.array([_numpy_words(entropy, k, n_words) for k in keys])
        assert np.array_equal(words, expected)

    @pytest.mark.parametrize("size", [6, 200])
    @pytest.mark.parametrize("n_words", [1, 2, 8, 9])
    def test_per_row_entropy_equals_seed_sequence(self, n_words, size):
        entropy = np.random.default_rng(2024).integers(0, 2**64, size=size, dtype=np.uint64)
        entropy[:6] = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1]
        keys = _keys(size)
        words = seeding.seed_words(entropy, keys, n_words)
        assert words.dtype == np.uint32 and words.shape == (size, n_words)
        expected = np.array([_numpy_words(e, k, n_words) for e, k in zip(entropy, keys)])
        assert np.array_equal(words, expected)

    @pytest.mark.parametrize("key", [2**32, -1])
    def test_keys_beyond_one_word_are_rejected(self, key):
        keys = _keys(40)
        keys[1] = key
        with pytest.raises(ValueError, match="spawn keys"):
            seeding.seed_words(7, keys, 2)

    @pytest.mark.parametrize("entropy", [-1, -2**70, 1.5, "3", None, np.float64(2.0),
                                         np.array([-1, 2]), np.array([1.5]), np.array([True])])
    def test_negative_or_non_integer_entropy_is_rejected(self, entropy):
        # a negative int used to loop forever, and a float array hashed truncated
        with pytest.raises(ValueError, match="entropy must be non-negative integers"):
            seeding.seed_words(entropy, np.arange(3), 2)

    def test_signed_and_numpy_int_entropy_hash_as_their_value(self):
        expected = seeding.seed_words(5, np.arange(3), 2)
        assert np.array_equal(seeding.seed_words(np.int64(5), np.arange(3), 2), expected)
        same = seeding.seed_words(np.full(3, 5, dtype=np.int64), np.arange(3), 2)
        assert np.array_equal(same, expected)

    def test_words_seed_numpy_pcg64(self):
        words = seeding.stream_words(2**70, np.arange(3))
        for key, row in enumerate(words):
            ours = np.random.PCG64(seeding.SeedWords(row))
            numpy = np.random.PCG64(np.random.SeedSequence(2**70, spawn_key=(key,)))
            assert ours.state == numpy.state

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (3, np.uint64), (8, np.uint32),
                                                (5, np.uint64), (4, np.float64)])
    def test_seed_type_answers_only_pcg64s_request(self, n_words, dtype):
        seed_seq = seeding.SeedWords(seeding.stream_words(1, np.arange(1))[0])
        with pytest.raises(ValueError, match="4 uint64 words"):
            seed_seq.generate_state(n_words, dtype)


def _power_rule(x, beta):
    # standardized_power's rule for x >= 0, spelled recursively: at an
    # integer beta up to 8, x**k = (x**(k//2))**2, times x when k is odd;
    # np.power at every other beta
    if not (float(beta).is_integer() and 1 <= beta <= 8):
        return np.power(x, beta)
    if beta == 1:
        return x
    half = _power_rule(x, int(beta) // 2)
    return half * half * x if beta % 2 else half * half


def _reference_powers(params, count, seed):
    # one trial's standardized powers from numpy's Generator calls on the one
    # stream SeedSequence(seed, spawn_key=(0,)): the gammas, then 1 - U, each
    # for all count draws; at beta = 2 the normals z, as z**2 / 2
    beta = params.beta
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))))
    if beta == 2.0:
        z = rng.standard_normal(count)
        return 1.0, z * z * 0.5
    g = rng.standard_gamma(1.0 + 1.0 / beta if beta > 1.0 else 1.0 / beta, size=count)
    if beta <= 1.0:
        return 1.0, g
    w = 1.0 - rng.random(count)
    m = float(w.max())
    return m, g * _power_rule(w / m, beta)


def _reference_power_trials(params, count, seed, trials):
    return [(m, terms.tobytes()) for m, terms in
            (_reference_powers(params, count, distribution.trial_seed(seed, t))
             for t in range(trials))]


def _power_trials(params, count, seed, trials):
    # sample_power_trials one trial at a time: (m, terms) of each row of each block
    for m, terms in distribution.sample_power_trials(params.beta, count, seed, trials):
        assert m.shape == terms.shape[:1] and terms.shape[1:] == (count,)
        yield from zip(m.tolist(), terms)


class TestSamplePowerTrials:
    @pytest.mark.parametrize("count, trials", [(1, 5), (100, 12), ((1 << 18) + 3, 2)])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 8.0, 1e6])
    def test_equals_the_power_construction_of_each_trial(self, beta, count, trials):
        p = GenNormParams(0.7, beta)
        for t, (m, terms) in enumerate(_power_trials(p, count, 4, trials)):
            want_m, want_terms = _reference_powers(p, count, distribution.trial_seed(4, t))
            assert m == want_m and 0.0 < m <= 1.0
            assert terms.tobytes() == want_terms.tobytes()

    @pytest.mark.parametrize("seed", [0, 2**40, 2**70])
    @pytest.mark.parametrize("count, trials", [(1, 5), (100, 12), ((1 << 18) + 3, 2)])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 8.0])
    def test_seeds_of_every_width_equal_the_power_construction(self, beta, count, trials, seed):
        p = GenNormParams(0.7, beta)
        got = [(m, terms.tobytes())
               for m, terms in _power_trials(p, count, seed, trials)]
        assert got == _reference_power_trials(p, count, seed, trials)

    @pytest.mark.parametrize("rows", [1, 3, 5])
    @pytest.mark.parametrize("count", [7, (1 << 18) + 1])
    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_blocks_of_trials_join_seamlessly(self, beta, count, rows, monkeypatch):
        # seeding blocks of 1, 3 or 5 trials, at one trial a draw block
        # (2**18 + 1) and at all five in one (7); the gammas alone (beta <= 1)
        # and the gammas with their 1 - U
        monkeypatch.setattr(distribution, "_SEED_ROWS", rows)
        p = GenNormParams(1.0, beta)
        got = [(m, terms.tobytes())
               for m, terms in _power_trials(p, count, 9, 5)]
        assert got == _reference_power_trials(p, count, 9, 5)

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_the_terms_are_the_gammas_at_beta_le_1(self, beta):
        # |x| = theta * G**(1/beta): the same draws as sample_abs, bit for bit
        p = GenNormParams(0.7, beta)
        magnitudes = (sample_abs(p, 300, distribution.trial_seed(2, t)) for t in range(3))
        for (m, terms), x in zip(_power_trials(p, 300, 2, 3), magnitudes):
            assert m == 1.0
            assert (terms ** (1.0 / beta) * 0.7).tobytes() == x.tobytes()

    @pytest.mark.parametrize("count, trials, rows", [
        (10, 4, [4]), (1 << 15, 3, [1, 1, 1]), (700, 100, [46, 46, 8]), (1, 5, [5]),
        ((1 << 15) // 3, 7, [3, 3, 1]), ((1 << 18) + 3, 2, [1, 1]),
    ])
    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_yields_blocks_of_one_buffer(self, beta, count, trials, rows):
        # max(1, min(trials, 2**15 // count)) trials a block, the last one
        # those left over, each block a view of the first rows of one buffer
        blocks = list(distribution.sample_power_trials(beta, count, 3, trials))
        assert [terms.shape for _, terms in blocks] == [(r, count) for r in rows]
        assert [m.shape for m, _ in blocks] == [(r,) for r in rows]
        assert all(np.shares_memory(terms, blocks[0][1]) for _, terms in blocks)
        assert all(terms.dtype == m.dtype == np.float64 for m, terms in blocks)
        if beta <= 1.0:
            assert all((m == 1.0).all() for m, _ in blocks)
        assert list(distribution.sample_power_trials(_P.beta, 10, 3, 0)) == []

    @pytest.mark.parametrize("theta, beta", [(1.0, 0.005), (1e300, 0.01)])
    def test_a_draw_that_overflows_as_a_magnitude_stays_finite_as_powers(self, theta, beta):
        # the shapes where sample and sample_abs raise OverflowError: the
        # terms are the gammas themselves, with no root taken and no theta
        p = GenNormParams(theta, beta)
        with np.errstate(over="raise"):
            got = [(m, terms.tobytes())
                   for m, terms in _power_trials(p, 5, 1, 2)]
        assert got == _reference_power_trials(p, 5, 1, 2)
        assert all(np.isfinite(np.frombuffer(terms)).all() for _, terms in got)

    @pytest.mark.parametrize(
        "count, seed, trials",
        [(0, 1, 3), (10, -1, 3), (10, 1, -1), (10, 1, 2.5)],
        ids=["count", "seed", "trials", "trials-float"],
    )
    def test_arguments_are_checked_at_the_call(self, count, seed, trials):
        with pytest.raises(ValueError):
            distribution.sample_power_trials(_P.beta, count, seed, trials)

    @pytest.mark.parametrize("beta", [True, "2", 0, math.inf, 5e-324], ids=repr)
    def test_the_shape_is_checked_by_require_shape(self, beta):
        with pytest.raises(ValueError) as want:
            exact.require_shape(beta)
        with pytest.raises(ValueError) as got:
            distribution.sample_power_trials(beta, 10, 1, 3)
        assert str(got.value) == str(want.value)


def _variance_with_jackknife_se(ratios):
    # the unbiased variance and the jackknife standard error of it, from
    # the delete-one variances
    t = ratios.size
    d = ratios - ratios.mean()
    ss = float(np.sum(d * d))
    loo = (ss - d * d * (t / (t - 1.0))) / (t - 2.0)
    return ss / (t - 1), math.sqrt((t - 1.0) / t * float(np.sum((loo - loo.mean()) ** 2)))


def test_the_normal_and_the_boost_meet_at_the_gaussian_shape():
    # beta = 2 draws normals, the next double up draws the boost: the trials'
    # theta_hat/theta = m * (beta * mean(p))**(1/beta) must have one variance
    # (near the bound 1/(n beta) for large n) within k joint jackknife standard errors
    k, n, trials = 4.0, 20, 4000
    stats = []
    for beta in (2.0, 2.0000000000000004):
        ratios = np.concatenate([
            m * (beta * terms.mean(axis=1)) ** (1.0 / beta)
            for m, terms in distribution.sample_power_trials(beta, n, 5, trials)])
        stats.append(_variance_with_jackknife_se(ratios))
    (v_normal, se_normal), (v_boost, se_boost) = stats
    assert abs(v_normal - v_boost) <= k * math.hypot(se_normal, se_boost)


_P = GenNormParams(1.0, 2.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: GenNormParams(True, 2.0),
        lambda: GenNormParams(1.0, True),
        lambda: GenNormParams("2", "1"),
        lambda: GenNormParams(np.bool_(True), 2.0),
        lambda: MomentSpec(k=True, params=_P),
        lambda: sample(_P, True, 0),
        lambda: sample(_P, 10, True),
        lambda: ExperimentConfig(beta=2, theta_true=True, n=100, trials=10, seed=0),
        lambda: ExperimentConfig(beta=2, theta_true=1.0, n=True, trials=10, seed=0),
        lambda: ExperimentConfig(beta=2, theta_true=1.0, n=100, trials=10, seed=True),
    ],
    ids=["theta", "beta", "text", "numpy-bool", "moment-k", "count", "seed", "theta_true", "n",
         "config-seed"],
)
def test_bool_is_not_a_number(make):
    with pytest.raises(ValueError):
        make()


class TestStandardizedKernels:
    @pytest.mark.parametrize("theta,beta", [(1.3, 3.5), (0.7, 1.0), (2.0, 0.6), (1.0, 2.0)])
    def test_scalar_wrappers_match_the_vectorized_kernel(self, theta, beta):
        params = GenNormParams(theta, beta)
        x = np.random.default_rng(3).uniform(-4.0, 4.0, 500)
        logs = log_pdf_z(beta, x / theta) - math.log(theta)
        assert [log_pdf(params, v) for v in x] == logs.tolist()

    def test_scalar_input_gives_0d_array(self):
        assert log_pdf_z(2.0, 0.5).shape == ()
        assert math.exp(log_pdf_z(2.0, 0.0)) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)

    @pytest.mark.parametrize("beta", [2.0, 3.0, 8.0, 2.5])
    def test_power_overflow_is_inf_without_warning(self, beta):
        with np.errstate(over="raise"):
            assert float(standardized_power(beta, 1e300)) == math.inf
            assert float(log_pdf_z(beta, 1e300)) == -math.inf

    @staticmethod
    def _binades(beta):
        # log-uniform over every binade where |z|**beta is finite and past
        # both ends, z ulp by ulp across the overflow and underflow
        # thresholds, and the special values; each with both signs
        rng = np.random.default_rng(int(beta * 1000))
        with np.errstate(over="ignore"):
            edges = np.power([np.finfo(float).max, 5e-324], 1.0 / beta)
            x = np.concatenate([
                10.0 ** rng.uniform(max(-340.0 / beta, -323.0), min(320.0 / beta, 308.0), 200_000),
                rng.random(10_000),
                *(edge * (1.0 + np.linspace(-1e-12, 1e-12, 20_001))
                  for edge in edges if 0.0 < edge < math.inf),
                [0.0, 5e-324, 1.0, np.finfo(float).max, math.inf, math.nan],
            ])
        return np.concatenate([x, -x])

    @staticmethod
    def _np_power(x, beta):
        with np.errstate(over="ignore"):
            return np.power(np.abs(x), beta)

    @pytest.mark.parametrize("beta", range(3, 9))
    def test_integer_shapes_are_within_beta_ulp_of_np_power(self, beta):
        # binary powering rounds once per square or product; carried through
        # the later squares, the roundings add up to at most (beta - 1) * 2**-53
        # relative, which is up to beta - 1 ulp, and np.power's own error is
        # under one ulp
        x = self._binades(beta)
        want = self._np_power(x, float(beta))
        got = standardized_power(beta, x)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(got == math.inf, want == math.inf)
        assert np.array_equal(got == 0.0, want == 0.0)
        finite = np.isfinite(want)
        ulps = np.abs(got[finite].view(np.int64) - want[finite].view(np.int64))
        assert 0 < ulps.max() <= beta

    @pytest.mark.parametrize("beta", [1.0, 2.0, 0.5, 2.5, 7.999999999999999,
                                      8.000000000000002, 9.0, 16.0, 64.0, 1e6])
    def test_other_shapes_are_np_power_bit_for_bit(self, beta):
        # at 1 the rule is |z| itself and at 2 one correctly rounded square,
        # as np.power gives; every other shape calls np.power
        x = self._binades(beta)
        want = self._np_power(x, beta)
        assert standardized_power(beta, x).tobytes() == want.tobytes()
        z = x.copy()
        assert standardized_power(beta, z, out=z) is z and z.tobytes() == want.tobytes()

    def test_log_normalizer_is_within_10_ulp_at_every_shape(self):
        # log(beta/2) - log Gamma(1/beta) cancels two logs that grow with the
        # shape: 529 ulp at beta near 1e300, where -log 2 - log Gamma(1 + 1/beta)
        # keeps the error of log Gamma alone.  Between 1 and 2, 1 + 1/beta is near
        # the zero of lgamma at 2: at the two shapes listed, log Gamma(1 + 1/beta)
        # from math.lgamma is 11.2 and 10.3 ulp off, from the ratio kernel 0.3
        shapes = np.geomspace(0.01, 1e300, 500).tolist()
        shapes += [1.1067280067739707, 1.0080186308017907]
        shapes += np.random.default_rng(28).uniform(1.0, 2.0, 2000).tolist()
        for beta in shapes:
            want = mp.log(mp.mpf(beta) / 2) - mp.loggamma(1 / mp.mpf(beta))
            err = abs(mp.mpf(special_functions.log_norm_z(beta)) - want) / math.ulp(float(want))
            assert err <= 10, beta

    def test_log_normalizer_taken_once_per_shape(self, monkeypatch):
        # special_functions makes every call of log_gamma (test_layout), so
        # counting its calls there counts every log Gamma of the package
        calls = []

        def counting_log_gamma(z):
            calls.append(z)
            return log_gamma(z)

        monkeypatch.setattr(special_functions, "log_gamma", counting_log_gamma)
        beta = 2.375  # a shape no other test uses, so it is not cached yet
        first = pdf_normalization(GenNormParams(1.0, beta))
        # one log Gamma for the rule's left cut and expect_power's normalizer
        assert len(calls) == 1
        assert pdf_normalization(GenNormParams(1.0, beta)) == first
        # the rule, the routes and the kernels share one cached copy: a new
        # shape takes it once, in whichever of them comes first
        other = 3.625
        fisher_quad_score_variance(GenNormParams(1.5, other))
        assert len(calls) == 2
        abs_moment_quad(GenNormParams(1.5, other), 2.0)
        log_pdf_z(other, 0.5)
        assert len(calls) == 2
        assert float(log_pdf_z(beta, 0.0)) == -math.log(2.0) - log_gamma(1.0 + 1.0 / beta)
        # a 0-d shape keys the same entry
        assert log_pdf_z(np.array(beta), 0.5) == log_pdf_z(beta, 0.5)
        assert len(calls) == 2
