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
from .special_functions import multifactorial, require_count, require_real

__all__ = [
    "MC_MIN_DRAWS",
    "METHOD_NAMES",
    "FisherEstimate",
    "GenNormParams",
    "MleMoments",
    "QuadratureError",
    "bhattacharyya_bound",
    "cramer_rao_bound",
    "exact_moment",
    "fisher_closed_form",
    "fisher_information",
    "fisher_moment_identity",
    "mle_moments_exact",
    "require_even_shape",
    "require_mc_draws",
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


def require_mc_draws(n, beta) -> None:
    """Check that n draws give the Monte Carlo route a relative standard
    error of at most 1.  Its squared score (beta p - 1)**2 has mean beta and
    variance beta**2 (6 beta + 2), so the error is sqrt((6 beta + 2)/n):
    ValueError, naming n, beta and the bound, where n < 6 beta + 2.
    """
    bound = 6.0 * beta + 2.0
    if n < bound:
        raise ValueError(f"n={n} is below 6*beta + 2 = {bound!r} at beta={beta!r}, where the "
                         "Monte Carlo route's relative standard error exceeds 1")


def require_tol(tol) -> float:
    """Return tol as a float after checking it is a real number in (0, 1e-2],
    the relative tolerance the quadrature routes take."""
    tf = require_real("tol", tol)
    if not 0.0 < tf <= 1e-2:
        raise ValueError(f"tol must be in (0, 1e-2], got {tol!r}")
    return tf


def exact_moment(params: GenNormParams, k: int) -> float:
    """E[X^k]: 0 for odd k, theta^k * Gamma((k+1)/beta) / Gamma(1/beta) for even k.

    k is an integer >= 0 (ValueError otherwise).  The even branch is one exp of
    k log theta + log_gamma_ratio(1/beta, k/beta), finite while the result is;
    beyond that, OverflowError naming the order and the parameters.
    """
    require_count("moment order k", k, 0)
    if k % 2 == 1:
        return 0.0
    theta, beta = params.theta, params.beta
    try:
        return math.exp(k * math.log(theta) + log_gamma_ratio(1.0 / beta, k / beta))
    except OverflowError:
        raise OverflowError(f"E[X^{k}] at theta={theta!r}, beta={beta!r} "
                            "exceeds the double range") from None


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

    Where theta*theta falls below the normal doubles, and so has lost digits,
    it is taken as theta*(theta/(n*beta)).  ValueError, naming theta as the
    experiment's theta_true, where the bound is not a finite, normal double.
    """
    square = theta * theta
    bound = square / (n * beta) if square >= sys.float_info.min else theta * (theta / (n * beta))
    if not sys.float_info.min <= bound < math.inf:
        raise ValueError(
            f"theta_true={theta!r} puts the bound theta_true**2/(n*beta) = {bound!r} "
            f"outside the finite, normal doubles at n={n}, beta={beta!r}"
        )
    return bound


def bhattacharyya_bound(beta, theta, n) -> float:
    """The order-2 Bhattacharyya bound on the variance of an unbiased estimate
    of theta from n draws: theta**2 (2 beta n + 3 beta**2 - 2 beta + 1) /
    (2 beta**2 n (n + beta)).

    It bounds with L''/L as well as the score L'/L.  Both are polynomials in
    T = sum |x_i/theta|**beta ~ Gamma(n/beta): at theta = 1, L'/L = D =
    beta T - n and L''/L = D**2 - (beta + 1) D - beta n, and T's central
    moments a, 2a and 3a**2 + 6a (a = n/beta) give J11 = n beta,
    J12 = n beta (beta - 1) and J22 = 2 beta**2 n**2 + n (3 beta**3 -
    2 beta**2 + beta); the bound is J22/(J11 J22 - J12**2).  It is taken as
    the Cramer-Rao bound plus theta**2 ((beta - 1)/beta)**2 / (2 n (n + beta)),
    so it is never below cramer_rao_bound in floating point and equals it bit
    for bit at beta = 1, where the MLE attains both; the square is taken of
    theta (beta - 1)/beta, which stays a normal double where theta**2 alone
    would not.  At beta = 1/2 the UMVUE, a quadratic in T, attains it: it
    equals mle_moments_exact's unbiased_variance.

    beta is a shape as GenNormParams takes it, theta > 0 and n >= 1 an
    integer; ValueError otherwise, wherever cramer_rao_bound raises, and
    where the bound, about theta**2/(2 beta**2 n**2) at a tiny shape,
    exceeds the double range.
    """
    bf = require_shape(beta)
    tf = require_real("theta", theta, positive=True)
    require_count("n", n, 1)
    excess = tf * ((bf - 1.0) / bf)
    bound = cramer_rao_bound(bf, tf, n) + excess * excess / (2.0 * n * (n + bf))
    if bound == math.inf:
        raise ValueError(f"theta={tf!r} puts the order-2 Bhattacharyya bound past the double "
                         f"range at n={n}, beta={bf!r}")
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

    Non-even shapes are rejected rather than extrapolated; fisher's quadrature
    routes remain for any beta > 0, its Monte Carlo route from beta = eps.
    ValueError, naming theta, where the value is not a finite, normal double.
    """
    require_even_shape(params.beta)
    return FisherEstimate(fisher_information(params.beta, params.theta), "closed_form", 0.0)


def fisher_moment_identity(beta, theta) -> float:
    """I(theta) = (beta**2 m_2beta - 2 beta m_beta + 1)/theta**2, with
    m_k = E|Z|**k: Theorem 1 at any shape, from the absolute moments.

    With s_h = beta**h m_(h beta), I(1) = s_2 - 2 s_1 + 1.  At an integral
    beta = p, Lemma 2 gives s_h = multifactorial((h - 1) p + 1, p), that is
    s_1 = 1 and s_2 = p + 1 (m_p = 1/p, m_2p = (p + 1)/p**2), so I(1) = p
    exactly, in integers, odd p included.  At any other beta,
    s_h = exp(log_gamma_ratio_excess(1/beta, h)), analytically 1 and
    1 + beta: there this checks the ratio kernel as much as the theorem.
    The sum cancels toward beta -> 0, to a relative rounding of about
    2 eps/beta (0.5 eps/beta seen); below beta = sqrt(eps) = 1.5e-8 that
    passes half the digits, and ValueError is raised.  ValueError, as
    fisher_information raises it, where the value is not a finite, normal
    double.
    """
    bf = require_shape(beta)
    tf = require_real("theta", theta, positive=True)
    if bf.is_integer():
        p = int(bf)
        s1, s2 = (multifactorial((h - 1) * p + 1, p) for h in (1, 2))
        i1 = float(s2 - 2 * s1 + 1)
    elif bf < math.sqrt(sys.float_info.epsilon):
        raise ValueError(f"beta={bf!r} is below sqrt(eps) = 1.5e-8, where the moment identity "
                         "keeps less than half its digits")
    else:
        s1, s2 = (math.exp(log_gamma_ratio_excess(1.0 / bf, h)) for h in (1.0, 2.0))
        i1 = s2 - 2.0 * s1 + 1.0
    return fisher_information(i1, tf)


@dataclass(frozen=True)
class MleMoments:
    """The exact mean, bias and variance of the scale MLE theta_hat from n
    draws at known beta, next to the bound crlb = cramer_rao_bound(beta, theta, n).

    efficiency = crlb/variance; unbiased_variance and unbiased_efficiency are
    those of the unbiased rescaling theta_hat/E[theta_hat/theta].  That
    rescaling is a function of the complete sufficient statistic
    T = sum |x_i/theta|**beta, so by Lehmann-Scheffe it is the UMVUE, and
    unbiased_variance is the least variance of any unbiased estimate of
    theta: at least bhattacharyya_bound(beta, theta, n), and equal to it at
    beta = 1/2 and 1.  The MLE's efficiency can exceed 1 (1.0269 at beta 2,
    n 10): the bound holds only for unbiased estimators.
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
    integer; ValueError otherwise, where theta or a tiny beta (1e-4 at
    n = 10) puts a moment outside the positive finite doubles, and where
    cramer_rao_bound rejects the bound.
    """
    bf = require_shape(beta)
    tf = require_real("theta", theta, positive=True)
    require_count("n", n, 1)
    a, h = n / bf, 1.0 / bf
    try:
        log_ew = log_gamma_ratio_excess(a, h)  # log Gamma(a + h) - log Gamma(a) - h log a
        ew = math.exp(log_ew)
        rel_var = math.expm1(log_gamma_second_difference(a, h))  # Var W / (E W)**2
    except OverflowError:  # a moment past the double range: the check below raises
        log_ew = ew = rel_var = math.inf
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
