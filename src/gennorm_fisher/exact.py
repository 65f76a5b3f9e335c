"""The layer of the package that needs no numpy: the family's parameters, its
exact moments, the exact finite-n law of the scale MLE, the names of the
Fisher information routes and the checks of their options, and the error the
quadrature raises.

The CLI's exact commands (`verify lemma2`, `moments`), its parser and its
error handling need only these, so they start without importing numpy.  The
numeric modules re-export the names they share with this one: distribution
the parameters and moments, quadrature its error, fisher builds METHODS from
METHOD_NAMES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .special_functions import log_gamma, require_count, require_real

__all__ = [
    "MC_MIN_DRAWS",
    "METHOD_NAMES",
    "GenNormParams",
    "MleMoments",
    "MomentSpec",
    "QuadratureError",
    "exact_moment",
    "mle_moments_exact",
    "require_even_shape",
    "require_shape",
    "require_tol",
]

# The Fisher information routes, in report order (fisher.METHODS maps each to its callable).
METHOD_NAMES = ("closed_form", "quad_score_variance", "quad_neg_hessian", "mc_score_variance")
MC_MIN_DRAWS = 100  # the fewest draws n the Monte Carlo route takes


@dataclass(frozen=True, init=False)
class GenNormParams:
    """Scale theta and shape beta, both strictly positive and finite, and
    beta large enough that 1/beta is finite (the density needs Gamma(1/beta))."""

    theta: float
    beta: float

    def __init__(self, theta: float, beta: float) -> None:
        # each field is checked and set once, straight into the instance dict
        # (the frozen class's __setattr__ raises)
        fields = self.__dict__
        fields["theta"] = require_real("theta", theta, positive=True)
        fields["beta"] = require_shape(beta)


@dataclass(frozen=True)
class MomentSpec:
    """Moment order k >= 0 and the parameters to evaluate it under."""

    k: int
    params: GenNormParams

    def __post_init__(self):
        require_count("moment order k", self.k, 0)


def require_shape(beta) -> float:
    """Return beta as a float after checking it is a positive, finite real
    number whose reciprocal is finite too."""
    bf = require_real("beta", beta, positive=True)
    if math.isinf(1.0 / bf):
        raise ValueError(f"beta={bf!r} is too small: 1/beta overflows the double range")
    return bf


def require_even_shape(beta) -> int:
    """Return beta as an int after checking it is a positive even integer (a
    real number, not a bool or numeric text)."""
    bf = require_real("shape beta", beta)
    if bf <= 0.0 or not bf.is_integer() or int(bf) % 2 != 0:
        raise ValueError(f"shape beta must be a positive even integer, got {beta!r}")
    return int(bf)


def require_tol(tol) -> float:
    """Return tol as a float after checking it is a real number in (0, 1e-2],
    the relative tolerance the quadrature routes take."""
    tf = require_real("tol", tol)
    if not 0.0 < tf <= 1e-2:
        raise ValueError(f"tol must be in (0, 1e-2], got {tol!r}")
    return tf


def exact_moment(spec: MomentSpec) -> float:
    """E[X^k]: 0 for odd k, theta^k * Gamma((k+1)/beta) / Gamma(1/beta) for even k.

    The even branch runs through log_gamma differences and a single exp so
    large k stays finite as long as the result itself is representable;
    beyond that it raises OverflowError naming the order and the parameters.
    """
    if spec.k % 2 == 1:
        return 0.0
    p = spec.params
    try:
        return math.exp(
            spec.k * math.log(p.theta) + log_gamma((spec.k + 1) / p.beta) - log_gamma(1.0 / p.beta)
        )
    except OverflowError:
        raise OverflowError(
            f"E[X^{spec.k}] at theta={p.theta!r}, beta={p.beta!r} exceeds the double range"
        ) from None


@dataclass(frozen=True)
class MleMoments:
    """The exact mean, bias and variance of the scale MLE theta_hat from n
    draws at known beta, next to the bound crlb = theta**2/(n*beta).

    efficiency = crlb/variance; unbiased_variance and unbiased_efficiency are
    those of the unbiased rescaling theta_hat/E[theta_hat/theta].  The MLE's
    efficiency can exceed 1 (1.0269 at beta 2, n 10): the bound holds only
    for unbiased estimators.
    """

    mean: float
    bias: float
    variance: float
    unbiased_variance: float
    crlb: float
    efficiency: float
    unbiased_efficiency: float


def mle_moments_exact(beta, theta, n) -> MleMoments:
    """The finite-n law of mle_theta's estimate from n draws, in closed form.

    sum |X_i/theta|**beta ~ Gamma(n/beta), so theta_hat/theta = W =
    (beta G/n)**(1/beta) with G ~ Gamma(n/beta), and
    E[W**k] = (beta/n)**(k/beta) Gamma((n + k)/beta) / Gamma(n/beta).  The
    log-Gamma differences come from math.lgamma; the bias is
    theta * expm1(log E W) and the variance (E W)**2 * expm1(log E[W**2] -
    2 log E W), so neither is a difference of two numbers near 1.  Both
    still come from differences of log-Gammas of about (n/beta) log(n/beta)
    each, so their relative error grows with n/beta: against 60-digit
    mpmath, at most 3e-13 at n = 10 and 2e-11 at n = 100 (beta from 0.5 to
    10**6), 4e-7 at beta 2 and n = 10**4, 3e-4 at beta 4 and n = 10**6.

    beta is a shape as GenNormParams takes it, theta > 0 and n >= 1 an
    integer; ValueError otherwise, and where theta puts a moment or the
    bound outside the positive finite doubles.
    """
    bf = require_shape(beta)
    tf = require_real("theta", theta, positive=True)
    require_count("n", n, 1)
    a = n / bf
    log_ga = math.lgamma(a)
    l1 = math.lgamma(a + 1.0 / bf) - log_ga  # log E W - log(beta/n)/beta
    log_ew = math.log(bf / n) / bf + l1
    ew = math.exp(log_ew)
    rel_var = math.expm1(math.lgamma(a + 2.0 / bf) - log_ga - 2.0 * l1)  # Var W / (E W)**2
    var_w = ew * ew * rel_var
    unit = 1.0 / (n * bf)  # the bound at theta = 1
    moments = MleMoments(
        mean=tf * ew,
        bias=tf * math.expm1(log_ew),
        variance=tf * tf * var_w,
        unbiased_variance=tf * tf * rel_var,
        crlb=tf * tf / (n * bf),
        efficiency=unit / var_w,
        unbiased_efficiency=unit / rel_var,
    )
    positive = (moments.mean, moments.variance, moments.unbiased_variance, moments.crlb)
    if not all(0.0 < v < math.inf for v in positive):
        raise ValueError(
            f"the moments of the MLE at beta={bf!r}, theta={tf!r}, n={n} "
            "are not all positive finite doubles"
        )
    return moments


class QuadratureError(RuntimeError):
    """Raised when refinement exhausts its budget; carries the partial result."""

    def __init__(self, message: str, partial: float, error_estimate: float):
        super().__init__(message)
        self.partial = partial
        self.error_estimate = error_estimate

    def __str__(self) -> str:
        return (
            f"{self.args[0]} (last difference {self.error_estimate:.3e}, "
            f"partial value {self.partial!r})"
        )
