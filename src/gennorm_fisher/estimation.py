"""Maximum-likelihood estimation of theta and the Cramer-Rao experiment.

With beta known, the sample score has a unique root in closed form:

    theta_hat = ((beta/n) * sum |x_i|^beta) ** (1/beta)

The experiment harness repeats estimation over many independent trials and
compares the empirical variance of theta_hat against the Cramer-Rao lower
bound theta^2/(n*beta), whose information term is the closed-form
beta/theta^2.  The efficiency ratio tends to 1 from below the band edges as
n grows; at n = 10^4 and 1000 trials it sits well inside [0.9, 1.1].
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distribution import (
    GenNormParams,
    require_count,
    require_even_shape,
    require_real,
    sample_abs_trials,
    trial_seed,
)
from .distribution import sample  # noqa: F401  perfbench's tracer patches this name
from .exact import require_shape

__all__ = [
    "DegenerateDataError",
    "ExperimentConfig",
    "EstimationReport",
    "mle_theta",
    "run_crlb_experiment",
    "trial_seed",
]


class DegenerateDataError(ValueError):
    """Samples admit no interior likelihood maximum (all zero), or one that
    underflows to theta = 0."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of the CRLB experiment grid.

    trials must be at least 3 so the jackknife delete-one variances
    (divisor trials - 2) are defined.
    """

    beta: int
    theta_true: float
    n: int
    trials: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "beta", require_even_shape(self.beta))
        theta = require_real("theta_true", self.theta_true, positive=True)
        object.__setattr__(self, "theta_true", theta)
        require_count("n", self.n, 1)
        require_count("trials", self.trials, 3)
        require_count("seed", self.seed, 0)


@dataclass(frozen=True)
class EstimationReport:
    """Empirical estimator statistics for one config, next to the bound.

    mle_variance is the unbiased (ddof=1) variance across trials;
    variance_stderr is its jackknife standard error; crlb is exactly
    theta_true**2 / (n * beta); efficiency = crlb / mle_variance.
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
    return _mle_of_magnitudes(np.abs(arr), bf)


def _mle_of_magnitudes(magnitudes: np.ndarray, beta: float) -> float:
    """mle_theta of nonnegative float64 magnitudes, overwriting them.

    A max that is not finite (inf, or nan, which max propagates) is the
    one finite check: it is non-finite exactly when some magnitude is.
    """
    m = float(magnitudes.max())
    if not math.isfinite(m):
        raise ValueError("samples must all be finite")
    if m == 0.0:
        raise DegenerateDataError(
            "all samples are zero; the likelihood maximum theta=0 is outside the parameter space"
        )
    magnitudes /= m
    magnitudes **= beta
    # the sum and the division np.mean makes, without its dispatch
    theta_hat = m * (beta * (float(magnitudes.sum()) / magnitudes.size)) ** (1.0 / beta)
    if not math.isfinite(theta_hat):
        raise OverflowError(f"theta_hat overflows double precision (max |x| = {m!r})")
    if theta_hat == 0.0:
        raise DegenerateDataError(
            f"theta_hat underflows to zero (max |x| = {m!r}), outside the parameter space"
        )
    return theta_hat


def run_crlb_experiment(config: ExperimentConfig) -> EstimationReport:
    """Estimate theta over config.trials independent repetitions.

    Trial t draws config.n magnitudes seeded by trial_seed(config.seed, t)
    into one buffer reused across trials (sample_abs_trials), so trials may
    run in any order or in parallel without changing the report; the
    statistics below are reduced with numpy pairwise summation over the
    trial-indexed array, which is order-independent.  They are taken from theta_hat/theta_true
    and scaled back, so they neither overflow nor underflow at extreme
    scales.  Degenerate trials are skipped and counted (never seen for
    n >= 10).  Raises ValueError, before any trial, where the bound
    theta_true**2/(n*beta) is not a finite, normal double.
    """
    theta = config.theta_true
    try:
        crlb = theta**2 / (config.n * config.beta)
    except OverflowError:
        crlb = math.inf
    if not sys.float_info.min <= crlb < math.inf:
        raise ValueError(
            f"theta_true={theta!r} puts the bound theta_true**2/(n*beta) = {crlb!r} "
            f"outside the finite, normal doubles at n={config.n}, beta={config.beta}"
        )
    params = GenNormParams(theta=theta, beta=float(config.beta))
    estimates = np.full(config.trials, np.nan)
    failed = 0
    draws = sample_abs_trials(params, config.n, config.seed, config.trials)
    for t, magnitudes in enumerate(draws):
        try:
            estimates[t] = _mle_of_magnitudes(magnitudes, params.beta)
        except DegenerateDataError:
            failed += 1
    kept = estimates[np.isfinite(estimates)]
    if kept.size < 3:
        raise DegenerateDataError(
            f"only {kept.size} of {config.trials} trials produced an estimate"
        )
    ratios = kept / theta
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
        failed_trials=failed,
    )
