"""Maximum-likelihood estimation of theta and the Cramer-Rao experiment.

With beta known, the sample score has a unique root in closed form:

    theta_hat = ((beta/n) * sum |x_i|^beta) ** (1/beta)

The experiment harness repeats estimation over many independent trials and
compares the empirical variance of theta_hat against the Cramer-Rao lower
bound theta^2/(n*beta), whose information term is the closed-form
beta/theta^2, at any shape.  The efficiency tends to 1 as n grows, but toward
the uniform it is 0.01 at beta = 10^6, n = 10^4 (exact.mle_moments_exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import sample_power_trials, standardized_power
from .distribution import sample, trial_seed  # noqa: F401  perfbench's tracer patches these names
from .exact import cramer_rao_bound, mle_moments_exact, require_shape
from .special_functions import require_count, require_real

__all__ = [
    "DegenerateDataError",
    "ExperimentConfig",
    "EstimationReport",
    "mle_theta",
    "run_crlb_experiment",
]


class DegenerateDataError(ValueError):
    """Samples admit no interior likelihood maximum (all zero), or one that
    underflows to theta = 0."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of the CRLB experiment grid, at any shape the sampler takes.

    An integral beta below 2**53 is kept as an int (it prints as 2; 1e20
    stays a float and prints as 1e+20).  trials must be at least 3 so the
    jackknife delete-one variances (divisor trials - 2) are defined.  The
    bound theta_true**2/(n*beta) must be a finite, normal double
    (cramer_rao_bound), and then the exact law of theta_hat positive finite
    doubles (mle_moments_exact, which a tiny beta fails at any theta);
    ValueError otherwise, when the config is built, so a grid of configs is
    checked before any cell runs.
    """

    beta: float
    theta_true: float
    n: int
    trials: int
    seed: int

    def __post_init__(self):
        beta = require_shape(self.beta)
        object.__setattr__(self, "beta", int(beta) if beta.is_integer() and beta < 2**53 else beta)
        theta = require_real("theta_true", self.theta_true, positive=True)
        object.__setattr__(self, "theta_true", theta)
        require_count("n", self.n, 1)
        require_count("trials", self.trials, 3)
        require_count("seed", self.seed, 0)
        cramer_rao_bound(self.beta, theta, self.n)
        mle_moments_exact(self.beta, theta, self.n)


@dataclass(frozen=True)
class EstimationReport:
    """Empirical estimator statistics for one config, next to the bound.

    mle_variance is the unbiased (ddof=1) variance across trials;
    variance_stderr is its jackknife standard error; crlb is
    cramer_rao_bound(beta, theta_true, n); efficiency = crlb / mle_variance.
    failed_trials counts degenerate-data aborts (0 in any real run).
    """

    config: ExperimentConfig
    mle_mean: float
    mle_variance: float
    crlb: float
    efficiency: float
    variance_stderr: float
    failed_trials: int = 0


def mle_theta(samples, beta) -> float:
    """The unique stationary point of the sample log-likelihood in theta.

    Closed form ((beta/n) * sum |x_i|^beta)**(1/beta), evaluated as
    m * (beta * mean((|x_i|/m)^beta))**(1/beta) with m = max |x_i| so the
    power neither overflows nor underflows for any representable estimate;
    the sample score at the returned value vanishes to roundoff.  All-zero
    samples put the maximum at theta = 0, outside the parameter space, and
    raise DegenerateDataError, as does an estimate that underflows to 0.0.
    """
    bf = require_shape(beta)
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("samples must be nonempty")
    magnitudes = np.abs(arr)
    # a max that is not finite (inf, or nan, which max propagates) is the
    # one finite check: it is non-finite exactly when some magnitude is
    m = float(magnitudes.max())
    if not math.isfinite(m):
        raise ValueError("samples must all be finite")
    if m == 0.0:
        raise DegenerateDataError(
            "all samples are zero; the likelihood maximum theta=0 is outside the parameter space"
        )
    magnitudes /= m
    standardized_power(bf, magnitudes, out=magnitudes)
    # the sum and the division np.mean makes, without its dispatch
    theta_hat = m * (bf * (float(magnitudes.sum()) / magnitudes.size)) ** (1.0 / bf)
    if not math.isfinite(theta_hat):
        raise OverflowError(f"theta_hat overflows double precision (max |x| = {m!r})")
    if theta_hat == 0.0:
        raise DegenerateDataError(
            f"theta_hat underflows to zero (max |x| = {m!r}), outside the parameter space"
        )
    return theta_hat


def _trial_ratios(beta: float, n: int, seed: int, trials: int) -> np.ndarray:
    """theta_hat/theta of each trial, the same at every theta: from its
    standardized powers (sample_power_trials), m * (beta * mean(p))**(1/beta).

    One sum and one finite check per block of trials; each ratio is then
    taken on Python floats, as one scalar power per trial.  0.0 marks a
    degenerate trial (all terms zero, or an estimate that underflows).
    Every term is at most its gamma draw (z**2 / 2 at beta = 2), so a sum
    that is not finite is the one finite check: ValueError, as mle_theta
    raises.  A ratio past the double range raises OverflowError naming beta
    and n.
    """
    ratios = []
    for m, p in sample_power_trials(beta, n, seed, trials):
        totals = p.sum(axis=1)
        if not math.isfinite(totals.max()):  # max propagates nan
            raise ValueError("samples must all be finite")
        try:
            ratios += [mt * (beta * (total / n)) ** (1.0 / beta)
                       for mt, total in zip(m.tolist(), totals.tolist())]
        except OverflowError:  # the float power's errno error names nothing
            raise OverflowError(f"theta_hat/theta_true overflows double precision at "
                                f"beta={beta!r}, n={n}") from None
    return np.array(ratios)


def run_crlb_experiment(config: ExperimentConfig) -> EstimationReport:
    """Estimate theta over config.trials independent repetitions.

    Trial t takes the stream of sample(GenNormParams(theta, beta), n,
    trial_seed(seed, t)) at any theta, up to its signs, drawn by sample's
    generator for the shape, as its standardized powers (sample_power_trials,
    a block of trials at a time), so trials may run in any order, in blocks
    of any size or in parallel without changing the report.  Its
    theta_hat/theta_true is m * (beta * mean(p))**(1/beta), within a few ulp
    of mle_theta of those draws over theta_true (not bit for bit).  The statistics below are
    reduced with numpy pairwise summation over the trial-indexed array, which
    is order-independent; they are taken from theta_hat/theta_true and scaled
    back, so they neither overflow nor underflow at extreme scales.
    Degenerate trials are skipped and counted (never seen for n >= 10).
    The bound and the law of theta_hat/theta_true were checked when config
    was built; raises ValueError where a draw is not finite, and
    OverflowError where a trial's estimate passes the double range.
    """
    theta = config.theta_true
    crlb = cramer_rao_bound(config.beta, theta, config.n)
    ratios = _trial_ratios(float(config.beta), config.n, config.seed, config.trials)
    ratios = ratios[ratios > 0.0]
    if ratios.size < 3:
        raise DegenerateDataError(
            f"only {ratios.size} of {config.trials} trials produced an estimate"
        )
    t_count = int(ratios.size)
    mean = float(ratios.mean())
    centered = ratios - mean
    centered_ss = float(np.sum(centered * centered))
    variance = centered_ss / (t_count - 1)

    # Jackknife the variance estimator: the delete-one unbiased variances
    # have the closed form (centered_ss - d_t^2 * T/(T-1)) / (T-2).
    loo_var = (centered_ss - centered**2 * (t_count / (t_count - 1.0))) / (t_count - 2.0)
    loo_dev = loo_var - loo_var.mean()
    variance_stderr = math.sqrt((t_count - 1.0) / t_count * float(np.sum(loo_dev * loo_dev)))

    variance = variance * theta * theta
    return EstimationReport(
        config=config,
        mle_mean=mean * theta,
        mle_variance=variance,
        crlb=crlb,
        efficiency=crlb / variance,
        variance_stderr=variance_stderr * theta * theta,
        failed_trials=config.trials - t_count,
    )
