"""Closed-form MLE and the Cramer-Rao experiment harness."""

import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import optimize as sp_optimize

from gennorm_fisher import (
    DegenerateDataError,
    EstimationReport,
    ExperimentConfig,
    GenNormParams,
    d2_log_pdf,
    distribution,
    estimation,
    log_pdf,
    mle_moments_exact,
    mle_theta,
    run_crlb_experiment,
    sample,
    score,
    seeding,
    trial_seed,
)
from gennorm_fisher.exact import bhattacharyya_bound, cramer_rao_bound


def _numerical_mle(samples, beta):
    # independent 1-D maximization of the sample log-likelihood
    xs = np.asarray(samples, dtype=float)

    def negll(theta):
        p = GenNormParams(theta, beta)
        return -sum(log_pdf(p, float(x)) for x in xs)

    res = sp_optimize.minimize_scalar(
        negll, bounds=(1e-3, 100.0), method="bounded", options={"xatol": 1e-12}
    )
    return float(res.x)


def _reference_ratio(beta, n, seed):
    # theta_hat/theta of one trial as |X/theta|**beta = G * (1 - U)**beta
    # builds it: G ~ Gamma(1 + 1/beta), then U, on the trial's stream; at beta
    # in {2, 4, 8} the power is (w/m) squared log2(beta) times.  At beta = 2
    # the normals z give |X/theta|**2 = z**2 / 2, and m = 1
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))))
    if beta == 2:
        z = rng.standard_normal(n)
        p = z * z * 0.5
        return 1.0 * (beta * (float(p.sum()) / n)) ** (1.0 / beta)
    g = rng.standard_gamma(1.0 + 1.0 / beta, size=n)
    w = 1.0 - rng.random(n)
    m = float(w.max())
    power = w / m
    for _ in range(int(beta).bit_length() - 1):
        power = power * power
    p = g * power
    return m * (beta * (float(p.sum()) / n)) ** (1.0 / beta)


def _reference_stream_ratio(beta, n, seed):
    # _reference_ratio at any n and shape, on the one stream
    # SeedSequence(seed, spawn_key=(0,)): its gammas for all n draws, then
    # its U; the power by squares at beta in {2, 4, 8}, by np.power at any
    # other; at beta = 2 the normals z, as z**2 / 2 with m = 1
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))))
    if beta == 2:
        z = rng.standard_normal(n)
        p = z * z * 0.5
        return 1.0 * (beta * (float(p.sum()) / n)) ** (1.0 / beta)
    g = rng.standard_gamma(1.0 + 1.0 / beta, size=n)
    w = 1.0 - rng.random(n)
    m = float(w.max())
    power = w / m
    if beta in (2, 4, 8):
        for _ in range(int(beta).bit_length() - 1):
            power = power * power
    else:
        power = np.power(power, float(beta))
    p = g * power
    return m * (beta * (float(p.sum()) / n)) ** (1.0 / beta)


class TestMleTheta:
    def test_two_point_sample(self):
        assert mle_theta([1.0, -1.0], beta=2.0) == math.sqrt(2.0)

    @pytest.mark.parametrize("beta", [1e-310, 5e-324])
    def test_a_shape_whose_reciprocal_overflows_is_named(self, beta):
        # the shape's fault, not the data's: no DegenerateDataError
        with pytest.raises(ValueError, match=f"beta={beta!r} is too small: 1/beta overflows") as exc:
            mle_theta([1.0, 2.0], beta)
        assert type(exc.value) is ValueError

    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("theta", [0.5, 2.0])
    def test_against_numerical_maximizer(self, beta, theta):
        draws = sample(GenNormParams(theta, beta), 200, seed=int(10 * beta + theta))
        closed = mle_theta(draws, beta)
        assert closed == pytest.approx(_numerical_mle(draws, beta), rel=1e-6)

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_scale_equivariance(self, c):
        draws = sample(GenNormParams(1.0, 2.0), 500, seed=8)
        assert mle_theta(c * draws, 2.0) == pytest.approx(c * mle_theta(draws, 2.0), rel=5e-15)

    @given(
        st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=2, max_size=40),
        st.floats(min_value=0.5, max_value=6.0),
        st.sampled_from([0.5, 2.0, 10.0]),
    )
    def test_equivariance_property(self, values, beta, c):
        arr = np.asarray(values)
        if not np.abs(arr).max() >= 1e-300:
            return  # all zero, or c * arr or the estimate underflows: covered separately
        base = mle_theta(arr, beta)
        assert mle_theta(c * arr, beta) == pytest.approx(c * base, rel=1e-12)

    def test_sample_score_vanishes_at_estimate(self):
        for seed, beta in ((1, 2.0), (2, 4.0), (3, 1.0)):
            draws = sample(GenNormParams(1.5, beta), 1000, seed=seed)
            theta_hat = mle_theta(draws, beta)
            p_hat = GenNormParams(theta_hat, beta)
            total = sum(score(p_hat, float(x)) for x in draws)
            assert abs(total) <= 1e-10 * draws.size / theta_hat

    def test_estimate_is_a_maximum(self):
        draws = sample(GenNormParams(2.0, 2.0), 400, seed=12)
        theta_hat = mle_theta(draws, 2.0)
        p_hat = GenNormParams(theta_hat, 2.0)
        curvature = sum(d2_log_pdf(p_hat, float(x)) for x in draws)
        assert curvature < 0.0

    def test_consistency_at_large_n(self):
        theta, beta, n = 2.0, 4.0, 10**6
        draws = sample(GenNormParams(theta, beta), n, seed=2024)
        band = 4.0 * math.sqrt(theta**2 / (n * beta))
        assert abs(mle_theta(draws, beta) - theta) <= band

    def test_degenerate_all_zero(self):
        with pytest.raises(DegenerateDataError):
            mle_theta([0.0, 0.0, 0.0], beta=2.0)

    @pytest.mark.parametrize(
        "values, beta", [([0.0, 5e-324], 1.0), ([0.0] * 39 + [1e-322], 0.5)]
    )
    def test_underflowing_estimate_is_degenerate(self, values, beta):
        # the closed form is below the smallest subnormal: theta = 0 is no estimate
        with pytest.raises(DegenerateDataError):
            mle_theta(values, beta)

    @pytest.mark.parametrize(
        "bad", [[], [1.0, float("nan")], [1.0, float("inf")], [float("-inf"), 1.0], [float("nan")] * 3]
    )
    def test_invalid_samples(self, bad):
        with pytest.raises(ValueError):
            mle_theta(bad, beta=2.0)

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan")])
    def test_invalid_beta(self, beta):
        with pytest.raises(ValueError):
            mle_theta([1.0, 2.0], beta=beta)


class TestExperimentConfig:
    def test_valid(self):
        cfg = ExperimentConfig(beta=2, theta_true=1.0, n=100, trials=10, seed=0)
        assert cfg.beta == 2 and cfg.theta_true == 1.0

    @pytest.mark.parametrize("beta, stored", [(2, 2), (2.0, 2), (3.0, 3), (1, 1), (2.5, 2.5),
                                              (0.5, 0.5), (1e6, 1000000)])
    def test_every_shape_is_taken_and_an_integral_one_kept_as_an_int(self, beta, stored):
        # an integral shape prints as 2, not 2.0, in check names and sweep cells
        cfg = ExperimentConfig(beta=beta, theta_true=1.0, n=100, trials=10, seed=0)
        assert cfg.beta == stored and type(cfg.beta) is type(stored)

    @pytest.mark.parametrize("beta", [2**53, 1e20, 1e300])
    def test_an_integral_shape_from_2_53_stays_a_float(self, beta):
        # it prints as 1e+20, not as its 21 digits
        cfg = ExperimentConfig(beta=beta, theta_true=1.0, n=10, trials=3, seed=0)
        assert cfg.beta == beta and type(cfg.beta) is float
        assert ExperimentConfig(beta=2**53 - 1, theta_true=1.0, n=10, trials=3, seed=0).beta == (
            2**53 - 1)

    @pytest.mark.parametrize("beta, n", [(1e-5, 1), (1e-6, 1), (1e-4, 10)])
    def test_a_shape_whose_ratio_law_overflows_is_rejected(self, beta, n):
        # (1e-5, n = 1, 50 trials) ran with mle_variance = inf and stderr = nan
        message = (f"the moments of the MLE at beta={beta!r}, theta=2.0, n={n} are not all "
                   "positive finite doubles")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentConfig(beta=beta, theta_true=2.0, n=n, trials=50, seed=0)

    def test_the_bound_is_checked_before_the_ratio_law(self):
        with pytest.raises(ValueError, match="^theta_true=1e[+]160 puts the bound"):
            ExperimentConfig(beta=1e-5, theta_true=1e160, n=1, trials=50, seed=0)

    def test_the_law_is_checked_at_theta_true(self):
        # the bound at theta = 1, 1e-308, is subnormal, and at theta_true it is not
        cfg = ExperimentConfig(beta=1e303, theta_true=10.0, n=10**5, trials=3, seed=0)
        assert run_crlb_experiment(cfg).crlb == 100.0 / (10**5 * 1e303)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 0.0, "theta_true": 1.0, "n": 100, "trials": 10, "seed": 0},
            {"beta": 2, "theta_true": 0.0, "n": 100, "trials": 10, "seed": 0},
            {"beta": 2, "theta_true": 1.0, "n": 0, "trials": 10, "seed": 0},
            {"beta": 2, "theta_true": 1.0, "n": 100, "trials": 2, "seed": 0},
            {"beta": 2, "theta_true": 1.0, "n": 100, "trials": 10, "seed": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)


class TestCrlbExperiment:
    def test_every_shape_against_the_exact_law(self):
        # the experiment from the Laplace shape toward the uniform, at the
        # CLI's default seed: each cell's ddof=1 variance of theta_hat within
        # k jackknife standard errors of the exact variance (mle_moments_exact);
        # the largest seen is 2.2
        k = 4.0
        for beta in (0.5, 1, 2.5, 64, 1024):
            for n in (100, 10**4):
                cfg = ExperimentConfig(beta=beta, theta_true=1.0, n=n, trials=1000, seed=20260819)
                report = run_crlb_experiment(cfg)
                exact = mle_moments_exact(beta, 1.0, n)
                assert abs(report.mle_variance - exact.variance) <= k * report.variance_stderr, (
                    beta, n, report.mle_variance, exact.variance, report.variance_stderr)
                assert report.crlb == exact.crlb and report.failed_trials == 0

    def test_deterministic_reports(self):
        cfg = ExperimentConfig(beta=2, theta_true=1.0, n=200, trials=50, seed=7)
        assert run_crlb_experiment(cfg) == run_crlb_experiment(cfg)

    def test_crlb_field_is_exact(self):
        cfg = ExperimentConfig(beta=4, theta_true=1.0, n=10**4, trials=10, seed=3)
        assert run_crlb_experiment(cfg).crlb == 1.0 / (10**4 * 4)
        cfg = ExperimentConfig(beta=2, theta_true=3.0, n=10**4, trials=10, seed=3)
        assert run_crlb_experiment(cfg).crlb == 9.0 / (2 * 10**4)

    def test_no_failed_trials(self):
        cfg = ExperimentConfig(beta=2, theta_true=1.0, n=50, trials=40, seed=1)
        report = run_crlb_experiment(cfg)
        assert report.failed_trials == 0
        assert isinstance(report, EstimationReport)

    def test_jackknife_against_brute_force(self):
        cfg = ExperimentConfig(beta=2, theta_true=1.0, n=60, trials=12, seed=99)
        report = run_crlb_experiment(cfg)
        params = GenNormParams(cfg.theta_true, float(cfg.beta))
        estimates = np.array(
            [
                mle_theta(sample(params, cfg.n, trial_seed(cfg.seed, t)), cfg.beta)
                for t in range(cfg.trials)
            ]
        )
        assert report.mle_mean == pytest.approx(estimates.mean(), rel=1e-14)
        assert report.mle_variance == pytest.approx(estimates.var(ddof=1), rel=1e-12)
        loo = np.array(
            [np.delete(estimates, t).var(ddof=1) for t in range(cfg.trials)]
        )
        brute = math.sqrt(
            (cfg.trials - 1) / cfg.trials * np.sum((loo - loo.mean()) ** 2)
        )
        assert report.variance_stderr == pytest.approx(brute, rel=1e-10)

    def test_efficiency_sane_at_moderate_size(self):
        cfg = ExperimentConfig(beta=2, theta_true=1.0, n=1000, trials=400, seed=17)
        report = run_crlb_experiment(cfg)
        assert 0.8 <= report.efficiency <= 1.2
        assert report.efficiency == report.crlb / report.mle_variance

    @pytest.mark.parametrize("beta", [2, 4, 8])
    def test_equals_reference_loop_bitwise(self, beta):
        # the experiment from numpy's Generator calls: each trial's gammas and
        # uniforms on the stream of sample(params, n, trial_seed(seed, t)),
        # taken as standardized powers, and the
        # statistics on theta_hat itself (theta_true = 1, so no scaling)
        cfg = ExperimentConfig(beta=beta, theta_true=1.0, n=700, trials=40, seed=beta)
        estimates = np.array([_reference_ratio(beta, cfg.n, trial_seed(cfg.seed, t))
                              for t in range(cfg.trials)])
        mean = float(estimates.mean())
        centered = estimates - mean
        centered_ss = float(np.sum(centered * centered))
        variance = centered_ss / (cfg.trials - 1)
        loo_var = (centered_ss - centered**2 * (cfg.trials / (cfg.trials - 1.0))) / (cfg.trials - 2.0)
        loo_dev = loo_var - loo_var.mean()
        stderr = math.sqrt((cfg.trials - 1.0) / cfg.trials * float(np.sum(loo_dev * loo_dev)))
        crlb = 1.0 / (cfg.n * beta)
        assert run_crlb_experiment(cfg) == EstimationReport(
            cfg, mean, variance, crlb, crlb / variance, stderr, 0
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n, trials", [(700, 100), (1, 50), ((1 << 18) + 3, 3)])
    @pytest.mark.parametrize("beta", [2, 4, 8, 10**6])
    def test_blocks_of_trials_equal_reference_loop_bitwise(self, beta, n, trials):
        # 700 draws a trial: blocks of 46, 46 and 8 trials; 1 draw: one block
        # of 50; 2**18 + 3 draws: a block per trial.  Under -W error: at
        # 10**6 the finish underflows, and warns of nothing
        ratios = estimation._trial_ratios(float(beta), n, 7, trials)
        want = [_reference_stream_ratio(beta, n, trial_seed(7, t)) for t in range(trials)]
        assert ratios.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("n", [1, 10, 100, 10**4, (1 << 18) + 3])
    @pytest.mark.parametrize("beta", [2, 4, 8, 64, 1024, 10**6])
    def test_each_trial_is_mle_theta_of_its_draws(self, beta, n):
        # theta_hat from the powers, against mle_theta of the same draws: a
        # few roundings apart, never bit for bit
        params = GenNormParams(1.0, float(beta))
        trials = 3 if n > 10**4 else 20
        ratios = estimation._trial_ratios(params.beta, n, 11, trials)
        for t, ratio in enumerate(ratios):
            want = mle_theta(sample(params, n, trial_seed(11, t)), beta)
            assert abs(ratio - want) <= 4 * math.ulp(want), (t, ratio, want)

    @pytest.mark.filterwarnings("error")
    def test_a_ratio_past_the_double_range_names_the_shape(self):
        # the float power raised OverflowError (34, 'Numerical result out of range')
        with pytest.raises(OverflowError) as exc:
            estimation._trial_ratios(1e-6, 1, 0, 50)
        assert exc.value.args == (
            "theta_hat/theta_true overflows double precision at beta=1e-06, n=1",)

    def test_degenerate_trials_are_counted(self, monkeypatch):
        def zero_in_odd_trials(params, count, seed, trials):
            # blocks of 8 trials, the last one of 4 (60 = 7 * 8 + 4)
            out = np.empty((8, count))
            for first in range(0, trials, 8):
                block = out[:min(8, trials - first)]
                for row, t in zip(block, range(first, trials)):
                    ts = trial_seed(seed, t)
                    row[:] = 0.0 if ts % 2 else 1.0 + (ts % 7)
                yield np.ones(len(block)), block

        monkeypatch.setattr(estimation, "sample_power_trials", zero_in_odd_trials)
        cfg = ExperimentConfig(beta=2, theta_true=1.0, n=10, trials=60, seed=5)
        odd = sum(trial_seed(cfg.seed, t) % 2 for t in range(cfg.trials))
        assert 3 <= cfg.trials - odd and odd > 0
        assert run_crlb_experiment(cfg).failed_trials == odd

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_draws_raise(self, bad, monkeypatch):
        def one_bad_draw(params, count, seed, trials):
            # one block, whose last trial has the one bad draw
            out = np.ones((trials, count))
            out[-1, count // 2] = bad
            yield np.ones(trials), out

        monkeypatch.setattr(estimation, "sample_power_trials", one_bad_draw)
        cfg = ExperimentConfig(beta=2, theta_true=1.0, n=100, trials=5, seed=1)
        with pytest.raises(ValueError, match="samples must all be finite"):
            run_crlb_experiment(cfg)

    def test_trial_seed_split_is_stable(self):
        # documented derivation: SeedSequence(seed, spawn_key=(trial,))
        expected = int(
            np.random.SeedSequence(entropy=123, spawn_key=(4,)).generate_state(
                1, np.uint64
            )[0]
        )
        assert trial_seed(123, 4) == expected
        assert trial_seed(123, 5) != expected

    @pytest.mark.parametrize("seed, trial, name", [
        (True, 0, "seed"), (1.5, 0, "seed"), ("3", 0, "seed"), (-1, 0, "seed"), (None, 0, "seed"),
        (3, 1.0, "trial"), (3, False, "trial"), (3, "1", "trial"), (3, -1, "trial"),
    ])
    def test_trial_seed_rejects_what_the_samplers_reject(self, seed, trial, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0, got "):
            trial_seed(seed, trial)

    @pytest.mark.parametrize("seed", [0, 123, 2**32 + 1, 2**70])
    def test_batched_trial_seeds_equal_trial_seed(self, seed):
        # the derivation sample_power_trials runs for a block of 1000 trials
        batched = seeding.trial_seeds(seed, np.arange(1000))
        assert batched.dtype == np.uint64
        assert batched.tolist() == [trial_seed(seed, t) for t in range(1000)]

    def test_trial_seed_is_re_exported(self):
        assert estimation.trial_seed is distribution.trial_seed


class TestMleExtremeScales:
    def test_an_estimate_past_the_double_range_overflows(self):
        # every |x| is finite, but (3 * mean(|x/m|**3))**(1/3) * m = 1.5e308 * 3**(1/3) is not
        with pytest.raises(OverflowError, match=r"theta_hat overflows double precision"):
            mle_theta([1.5e308] * 3, 3)

    @pytest.mark.parametrize("theta", [1e-300, 1e300])
    def test_estimate_stays_in_parameter_space(self, theta):
        base = sample(GenNormParams(1.0, 2.0), 1000, seed=1)
        draws = sample(GenNormParams(theta, 2.0), 1000, seed=1)
        expected = theta * mle_theta(base, 2.0)
        assert mle_theta(draws, 2.0) == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestCrlbExtremeScales:
    @pytest.mark.parametrize("theta", [1e-150, 1e150])
    def test_statistics_scale_with_theta(self, theta):
        base = run_crlb_experiment(ExperimentConfig(beta=2, theta_true=1.0, n=100, trials=30, seed=4))
        cfg = ExperimentConfig(beta=2, theta_true=theta, n=100, trials=30, seed=4)
        report = run_crlb_experiment(cfg)
        assert report.mle_mean == pytest.approx(theta * base.mle_mean, rel=1e-13, abs=0.0)
        assert report.mle_variance == pytest.approx(theta**2 * base.mle_variance, rel=1e-11, abs=0.0)
        assert report.variance_stderr == pytest.approx(
            theta**2 * base.variance_stderr, rel=1e-9, abs=0.0)
        assert report.efficiency == pytest.approx(base.efficiency, rel=1e-11)
        assert report.efficiency == report.crlb / report.mle_variance
        assert report.crlb == theta**2 / (cfg.n * cfg.beta)

    @pytest.mark.parametrize(
        "theta, n",
        [(1e-170, 100), (1e-153, 10**4), (5e-324, 3), (1e160, 100), (1e155, 10**4), (1e308, 1)],
    )
    def test_unrepresentable_bound_is_rejected_before_any_trial(self, theta, n, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(estimation, "sample_power_trials", no_trials)
        with pytest.raises(ValueError, match="theta_true"):
            run_crlb_experiment(ExperimentConfig(beta=2, theta_true=theta, n=n, trials=5, seed=1))

    @pytest.mark.parametrize(
        "theta, n",
        [(1e-170, 100), (1e-153, 10**4), (5e-324, 3), (1e160, 100), (1e155, 10**4), (1e308, 1)],
    )
    def test_unrepresentable_bound_is_rejected_when_the_config_is_built(self, theta, n):
        # a sweep builds every config before its first cell, so each is checked up front
        bound = theta * theta / (n * 2)  # inf, not OverflowError, past the range
        message = (f"theta_true={theta!r} puts the bound theta_true**2/(n*beta) = {bound!r} "
                   f"outside the finite, normal doubles at n={n}, beta=2")
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(beta=2, theta_true=theta, n=n, trials=5, seed=1)
        assert str(exc.value) == message

    @pytest.mark.parametrize("beta, theta, n", [(1e-4, 3e-156, 1), (1e-100, 1e-160, 1),
                                                (1e-10, 1e-157, 3), (1e-3, 1e-155, 1)])
    def test_the_bound_keeps_its_digits_where_theta_squared_is_subnormal(self, beta, theta, n):
        # theta*theta/(n*beta) was 511 ulp off at the first point, and 1.1e-5
        # relative at the second, which still passed as a normal double
        want = float(Fraction(theta) ** 2 / (n * Fraction(beta)))
        assert abs(cramer_rao_bound(beta, theta, n) - want) <= math.ulp(want)


@pytest.fixture(scope="module")
def perfbench_workloads():
    # the benchmark's own oracle, loaded from its file as the benchmark runs it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _mle_law_mp(beta, n):
    """Mean, variance, unbiased variance and bias of theta_hat at theta = 1, in
    60-digit mpmath, from E[W**k] = (beta/n)**(k/beta) Gamma((n + k)/beta) / Gamma(n/beta)."""
    with mp.workdps(60):
        b = mp.mpf(beta)
        a, h = n / b, 1 / b
        lga = mp.loggamma(a)
        l1, l2 = mp.loggamma(a + h) - lga, mp.loggamma(a + 2 * h) - lga
        mean = mp.exp(mp.log(b / n) / b + l1)
        rel_var = mp.expm1(l2 - 2 * l1)
        return mean, mean * mean * rel_var, rel_var, mean - 1


class TestExactMleLaw:
    @pytest.mark.parametrize("beta, n, efficiency, unbiased", [
        (2, 10, 1.0269, 0.9769), (8, 10, 0.8282, 0.7533), (64, 100, 0.7400, 0.7321)])
    def test_efficiencies(self, beta, n, efficiency, unbiased):
        law = mle_moments_exact(beta, 1.7, n)
        assert round(law.efficiency, 4) == efficiency
        assert round(law.unbiased_efficiency, 4) == unbiased

    @pytest.mark.parametrize("n", [1, 10, 100, 10**4, 10**6])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0, 4.0, 8.0, 64.0, 1000.0, 1e6])
    def test_against_high_precision_oracle(self, beta, n):
        # worst measured 3.8e-15 (the variance at beta 0.5, n 10**4); subtracting
        # math.lgamma values instead gave 2.1e-3 at beta 2, n 10**6.  The bias
        # is 0 at beta 1; elsewhere worst 3.3e-16, where log_gamma_ratio less
        # h log a gave 1.3e-9 at beta 3, n 10**6
        law = mle_moments_exact(beta, 1.0, n)
        *expected, bias = _mle_law_mp(beta, n)
        for got, want in zip((law.mean, law.variance, law.unbiased_variance), expected):
            assert abs(got / want - 1) <= 1e-13
        if beta == 1.0:
            assert abs(law.bias) <= 1e-15
        else:
            assert abs(law.bias / bias - 1) <= 1e-13

    @pytest.mark.parametrize("n", [1, 3, 10, 100, 10**4])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0, 8.0, 64.0, 1e6])
    def test_agrees_with_the_benchmarks_oracle(self, perfbench_workloads, beta, n):
        # The oracle subtracts math.lgamma values, so it loses digits as n/beta
        # grows (1.2e-11 at beta 2, n 100).  Where it is within 1e-12 of mpmath
        # the package must agree with it to 1e-12; elsewhere the package is the
        # accurate side, which test_against_high_precision_oracle holds to 1e-13.
        oracle = perfbench_workloads.mle_moments_exact
        mean_mp, variance_mp, *_ = _mle_law_mp(beta, n)
        for theta in (0.3, 2.5):
            law = mle_moments_exact(beta, theta, n)
            for got, want, exact in zip((law.mean, law.variance), oracle(beta, theta, n),
                                        (theta * mean_mp, theta**2 * variance_mp)):
                if abs(want / exact - 1) <= 1e-12:
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                else:
                    assert abs(got / exact - 1) <= 1e-13

    @pytest.mark.parametrize("beta, n", [(2.0, 10), (0.5, 1), (8.0, 100), (64.0, 10**4)])
    def test_its_fields_are_one_law(self, beta, n):
        theta = 3.0
        law = mle_moments_exact(beta, theta, n)
        ew = law.mean / theta
        assert law.bias == pytest.approx(law.mean - theta, rel=1e-9, abs=1e-15)
        assert law.crlb == theta**2 / (n * beta)
        assert law.efficiency == pytest.approx(law.crlb / law.variance, rel=1e-14)
        assert law.unbiased_variance == pytest.approx(law.variance / ew**2, rel=1e-14)
        assert law.unbiased_efficiency == pytest.approx(
            law.crlb / law.unbiased_variance, rel=1e-14)
        unit = mle_moments_exact(beta, 1.0, n)
        assert law.mean == pytest.approx(theta * unit.mean, rel=1e-15)
        assert law.variance == pytest.approx(theta**2 * unit.variance, rel=1e-15)
        assert law.efficiency == unit.efficiency

    @pytest.mark.parametrize("args", [
        (0.0, 1.0, 10), (True, 1.0, 10), (1e-310, 1.0, 10), (2.0, -1.0, 10), (2.0, "1", 10),
        (2.0, 1.0, 0), (2.0, 1.0, 2.5), (2.0, 1e160, 10), (2.0, 1e-170, 10)])
    def test_rejects_bad_arguments_and_unrepresentable_moments(self, args):
        with pytest.raises(ValueError):
            mle_moments_exact(*args)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta, n", [(1e-4, 10), (3e-4, 1), (1e-3, 1), (1e-5, 1), (1e-300, 1)])
    def test_a_tiny_shape_raises_the_documented_error(self, beta, n):
        # (1e-4, 10) and (3e-4, 1) raised a bare OverflowError: math range error
        with pytest.raises(ValueError, match=f"^the moments of the MLE at beta={beta!r}, "
                                             f"theta=1.0, n={n} are not all positive finite "
                                             "doubles$"):
            mle_moments_exact(beta, 1.0, n)

    def test_a_variance_past_the_double_range_is_rejected(self):
        # the bound 1e304 / (1 * 0.1) = 1e305 is finite, but Var(theta_hat/theta)
        # at beta = 0.1, n = 1 is 2.4e5, so theta**2 times it overflows
        with pytest.raises(ValueError, match=r"are not all positive finite doubles"):
            mle_moments_exact(0.1, 1e152, 1)

    def test_the_experiment_and_the_law_share_one_bound(self):
        # theta**2 rounds one ulp away from theta*theta at this theta
        theta = 0.5609652345887124
        report = run_crlb_experiment(
            ExperimentConfig(beta=2, theta_true=theta, n=10, trials=3, seed=0))
        assert report.crlb == mle_moments_exact(2, theta, 10).crlb == theta * theta / 20

    @pytest.mark.parametrize("beta", [4, 8])
    def test_the_experiment_draws_from_the_exact_law(self, beta):
        # integer shapes raise their powers by squaring; the simulated
        # variance lies within 5 jackknife standard errors of the exact one
        cfg = ExperimentConfig(beta=beta, theta_true=1.3, n=100, trials=4000, seed=2026)
        report = run_crlb_experiment(cfg)
        law = mle_moments_exact(beta, cfg.theta_true, cfg.n)
        assert report.crlb == law.crlb
        assert abs(report.mle_variance - law.variance) <= 5 * report.variance_stderr
        assert abs(report.mle_mean - law.mean) <= 5 * math.sqrt(law.variance / cfg.trials)


def _bhattacharyya_exact(beta, n, theta):
    # the order-2 bound J22/(J11 J22 - J12**2) in rationals, J from the scores
    # at theta = 1: L'/L = D = beta (T - a) and L''/L = D**2 - (beta + 1) D -
    # beta n, with T ~ Gamma(a = n/beta) of central moments a, 2a, 3a**2 + 6a
    b, a = Fraction(beta), Fraction(n, beta)
    d2, d3, d4 = b**2 * a, b**3 * 2 * a, b**4 * (3 * a * a + 6 * a)
    c = -b * n  # the constant of L''/L
    j11 = d2
    j12 = d3 - (b + 1) * d2
    j22 = d4 - 2 * (b + 1) * d3 + (b + 1) ** 2 * d2 + 2 * c * d2 + c * c
    return j22 / (j11 * j22 - j12 * j12) * Fraction(theta) ** 2


class TestBhattacharyyaBound:
    @pytest.mark.parametrize("beta, n, want", [
        (2, 1, 0.5417), (2, 10, 0.05104), (8, 10, 0.01463), (64, 100, 1.858e-4),
        (1024, 100, 1.421e-5), (1e6, 10, 1.5e-7)])
    def test_known_values(self, beta, n, want):
        assert float(f"{bhattacharyya_bound(beta, 1.0, n):.4g}") == want

    @pytest.mark.parametrize("theta", [1.0, 0.3])
    @pytest.mark.parametrize("n", [1, 10, 100, 10**4])
    @pytest.mark.parametrize("beta", [1, 2, 3, 8, 64, 1024])
    def test_equals_the_information_matrix_at_integer_shapes(self, beta, n, theta):
        want = float(_bhattacharyya_exact(beta, n, theta))
        assert abs(bhattacharyya_bound(beta, theta, n) - want) <= 2 * math.ulp(want)

    @pytest.mark.parametrize("n", [1, 10, 100, 10**4])
    @pytest.mark.parametrize("beta", [0.25, 0.5, 1, 2, 8, 64, 1024, 1e6])
    def test_lies_between_the_crlb_and_the_umvue_variance(self, beta, n):
        # equal to the CRLB, bit for bit, at beta = 1; attained by the UMVUE,
        # a quadratic in T, at beta = 1/2 (and, with the CRLB, at beta = 1):
        # there the two computations agree within 4 ulp, elsewhere the bound
        # lies strictly inside
        crlb = cramer_rao_bound(beta, 1.0, n)
        b2 = bhattacharyya_bound(beta, 1.0, n)
        umvue = mle_moments_exact(beta, 1.0, n).unbiased_variance
        if beta == 1:
            assert b2 == crlb
        if beta in (0.5, 1):
            assert crlb <= b2 and abs(b2 - umvue) <= 4 * math.ulp(umvue)
        else:
            assert crlb < b2 < umvue

    @pytest.mark.parametrize("beta, theta, n", [(1e-3, 1e-155, 1), (1e-4, 3e-156, 1),
                                                (0.25, 1e-154, 1), (2.5, 3.3, 7)])
    def test_keeps_its_digits_where_theta_squared_is_subnormal(self, beta, theta, n):
        # theta**2 = 1e-310 kept 14 digits; the bound is a normal double
        b, t = Fraction(beta), Fraction(theta)
        want = float(t * t * (2 * b * n + 3 * b * b - 2 * b + 1) / (2 * b * b * n * (n + b)))
        assert abs(bhattacharyya_bound(beta, theta, n) - want) <= 2 * math.ulp(want)

    @pytest.mark.parametrize("args", [
        (0.0, 1.0, 10), (True, 1.0, 10), (1e-310, 1.0, 10), (2.0, -1.0, 10), (2.0, "1", 10),
        (2.0, 1.0, 0), (2.0, 1.0, 2.5), (2.0, 1e160, 10), (2.0, 1e-170, 10)])
    def test_rejects_what_the_crlb_rejects_and_bad_arguments(self, args):
        with pytest.raises(ValueError):
            bhattacharyya_bound(*args)

    def test_a_bound_past_the_double_range_is_named(self):
        # the CRLB, 1e300, is finite; B2, about 1/(2 beta**2), is not
        with pytest.raises(ValueError, match="^theta=1.0 puts the order-2 Bhattacharyya bound "
                                             "past the double range at n=1, beta=1e-300$"):
            bhattacharyya_bound(1e-300, 1.0, 1)
