"""The layer of the package that needs no numpy: the family's parameters, its
exact moments, its closed-form information beta/theta**2 with the Cramer-Rao
bound theta**2/(n*beta), the exact finite-n law of the scale MLE, the names
of the Fisher information routes and the checks of their options, and the
error the quadrature raises.

The CLI's exact commands (`verify lemma2`, `moments`), its parser and its
error handling need only these, so they start without importing numpy.  This
module is the one home of every closed form: the numeric modules import them
from here, and fisher builds METHODS from METHOD_NAMES and fisher_closed_form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .special_functions import log_gamma_ratio, log_gamma_ratio_excess, log_gamma_second_difference
from .special_functions import require_count, require_real

__all__ = [
    "MC_MIN_DRAWS",
    "METHOD_NAMES",
    "FisherEstimate",
    "GenNormParams",
    "MleMoments",
    "MomentSpec",
    "QuadratureError",
    "cramer_rao_bound",
    "exact_moment",
    "expected_abs_moment",
    "fisher_closed_form",
    "fisher_information",
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

    The even branch is one exp of k log theta + log_gamma_ratio(1/beta, k/beta), finite
    while the result is; beyond that, OverflowError naming the order and the parameters.
    """
    if spec.k % 2 == 1:
        return 0.0
    p = spec.params
    try:
        return math.exp(spec.k * math.log(p.theta) + log_gamma_ratio(1.0 / p.beta, spec.k / p.beta))
    except OverflowError:
        raise OverflowError(f"E[X^{spec.k}] at theta={p.theta!r}, beta={p.beta!r} "
                            "exceeds the double range") from None


def expected_abs_moment(params: GenNormParams) -> float:
    """E[|X|^beta] = theta^beta / beta, for positive even integer beta.

    Kept separate from exact_moment on purpose: this is the short route that
    needs even beta, while exact_moment(k=beta) is the general gamma-ratio
    route.  Their equality is asserted in tests, not assumed here.
    """
    b = require_even_shape(params.beta)
    return params.theta**b / b


def fisher_information(beta, theta) -> float:
    """I(theta) = beta/theta**2, the information about the scale theta.

    ValueError, naming theta, where it is not a finite, normal double.
    """
    information = beta / theta / theta
    if not sys.float_info.min <= information < math.inf:
        raise ValueError(
            f"theta={theta!r} puts the information beta/theta**2 = {information!r} "
            f"outside the finite, normal doubles at beta={beta!r}"
        )
    return information


def cramer_rao_bound(beta, theta, n) -> float:
    """theta**2/(n*beta) = 1/(n I(theta)), the Cramer-Rao bound on the variance
    of an unbiased estimate of theta from n draws.

    ValueError, naming theta as the experiment's theta_true, where it is not
    a finite, normal double.
    """
    bound = theta * theta / (n * beta)
    if not sys.float_info.min <= bound < math.inf:
        raise ValueError(
            f"theta_true={theta!r} puts the bound theta_true**2/(n*beta) = {bound!r} "
            f"outside the finite, normal doubles at n={n}, beta={beta!r}"
        )
    return bound


@dataclass(frozen=True, init=False)
class FisherEstimate:
    """One estimate of I(theta): value, producing method, and an error bound.

    value is a finite, normal double, the rule fisher_information applies:
    a value that underflowed to 0.0 or to a subnormal, whose last digits are
    lost, is rejected rather than reported.  error_estimate is the
    quadrature error bound or the Monte Carlo standard error; exactly 0.0
    for the closed form.
    """

    value: float
    method: str
    error_estimate: float

    def __init__(self, value: float, method: str, error_estimate: float) -> None:
        if method not in METHOD_NAMES:
            raise ValueError(f"method must be one of {sorted(METHOD_NAMES)}, got {method!r}")
        if not sys.float_info.min <= value < math.inf:
            raise ValueError(f"value must be finite and > 0, got {value!r}, "
                             "outside the finite, normal doubles")
        if not (error_estimate >= 0.0 and math.isfinite(error_estimate)):
            raise ValueError(f"error_estimate must be finite and >= 0, got {error_estimate!r}")
        # each field is set once, straight into the instance dict (the frozen
        # class's __setattr__ raises)
        fields = self.__dict__
        fields["value"] = value
        fields["method"] = method
        fields["error_estimate"] = error_estimate


def fisher_closed_form(params: GenNormParams) -> FisherEstimate:
    """I(theta) = beta/theta^2, valid for positive even integer beta only.

    Non-even shapes are rejected rather than extrapolated; fisher's
    quadrature and Monte Carlo routes remain available for any beta > 0.
    ValueError, naming theta, where the value is not a finite, normal double.
    """
    require_even_shape(params.beta)
    return FisherEstimate(fisher_information(params.beta, params.theta), "closed_form", 0.0)


@dataclass(frozen=True)
class MleMoments:
    """The exact mean, bias and variance of the scale MLE theta_hat from n
    draws at known beta, next to the bound crlb = cramer_rao_bound(beta, theta, n).

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
    E[W**k] = (beta/n)**(k/beta) Gamma((n + k)/beta) / Gamma(n/beta): mean,
    variances and bias (off beta near 1) within 1e-13 of mpmath to n = 10**6.

    beta is a shape as GenNormParams takes it, theta > 0 and n >= 1 an
    integer; ValueError otherwise, where theta puts a moment outside the
    positive finite doubles, and where cramer_rao_bound rejects the bound.
    """
    bf = require_shape(beta)
    tf = require_real("theta", theta, positive=True)
    require_count("n", n, 1)
    a, h = n / bf, 1.0 / bf
    log_ew = log_gamma_ratio_excess(a, h)  # log E W = log Gamma(a + h) - log Gamma(a) - h log a
    ew = math.exp(log_ew)
    rel_var = math.expm1(log_gamma_second_difference(a, h))  # Var W / (E W)**2
    var_w = ew * ew * rel_var
    unit = 1.0 / (n * bf)  # the bound at theta = 1
    moments = MleMoments(
        mean=tf * ew,
        bias=tf * math.expm1(log_ew),
        variance=tf * tf * var_w,
        unbiased_variance=tf * tf * rel_var,
        crlb=cramer_rao_bound(bf, tf, n),
        efficiency=unit / var_w,
        unbiased_efficiency=unit / rel_var,
    )
    positive = (moments.mean, moments.variance, moments.unbiased_variance)
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
