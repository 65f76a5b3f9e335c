"""Fisher information of the scale parameter, by four routes.

For the zero-mean generalized normal family with even integer shape beta the
information about theta is exactly beta/theta^2.  That closed form,
exact.fisher_closed_form, is cross-checked here against three independent
numerical routes:

  * quad_score_variance:  I = integral of score(x)^2 f(x) dx
  * quad_neg_hessian:     I = -integral of d2 log f(x) * f(x) dx
  * mc_score_variance:    sample mean of score^2 over simulated draws

In standardized units z = x/theta the score and second derivative are

    theta   * score(x)      = beta |z|^beta - 1
    theta^2 * d2 log f(x)   = 1 - beta (beta+1) |z|^beta

so every route integrates or averages in z and applies the exact scale law
I(theta) = I(1)/theta^2 at the end.  METHODS maps each route name to it,
the closed form through this module's name fisher_closed_form, which
perfbench's tracer patches.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np

from .distribution import sample_power_trials, standardized_power
from .distribution import sample  # noqa: F401  perfbench's tracer patches this name
from .exact import MC_MIN_DRAWS, METHOD_NAMES, FisherEstimate, GenNormParams, QuadratureError
from .exact import fisher_closed_form, require_even_shape, require_mc_draws, require_tol
from .quadrature import QuadResult, expect_power
from .quadrature import integrate_decaying  # noqa: F401  perfbench's tracer patches this name
from .special_functions import require_count, require_real

__all__ = [
    "METHODS",
    "score_z",
    "neg_d2_z",
    "score",
    "d2_log_pdf",
    "fisher_quad_score_variance",
    "fisher_quad_neg_hessian",
    "fisher_mc_score_variance",
    "fisher_beta_sweep",
    "expected_score_quad",
]


def _affine(p: np.ndarray, slope: float) -> np.ndarray:
    """slope*p - 1 in place on p = |z|**beta: the standardized score at slope
    beta, the negated second derivative at slope beta*(beta+1)."""
    p *= slope
    p -= 1.0
    return p


def score_z(beta: float, z, out=None) -> np.ndarray:
    """theta * score at x = theta*z: beta*|z|^beta - 1 (vectorized kernel),
    in a new array or in out (which may be z)."""
    return _affine(standardized_power(beta, z, out), beta)


def neg_d2_z(beta: float, z) -> np.ndarray:
    """-theta^2 * d2 log f at x = theta*z: beta(beta+1)|z|^beta - 1 (vectorized kernel)."""
    return _affine(standardized_power(beta, z), beta * (beta + 1.0))


def score(params: GenNormParams, x) -> float:
    """d/dtheta of log f at x: -1/theta + beta*|x|^beta/theta^(beta+1).

    Zero exactly at |x| = theta / beta**(1/beta), negative below, positive above.
    """
    z = require_real("x", x) / params.theta
    return float(score_z(params.beta, z)) / params.theta


def d2_log_pdf(params: GenNormParams, x) -> float:
    """Second theta-derivative of log f: 1/theta^2 - beta(beta+1)|x|^beta/theta^(beta+2)."""
    z = require_real("x", x) / params.theta
    return -float(neg_d2_z(params.beta, z)) / (params.theta * params.theta)


def _scaled_quad(weight, beta: float, unit: float, **tol) -> QuadResult:
    """expect_power of weight against f_Z, times unit; a QuadratureError's
    partial value and error are rescaled by unit too."""
    try:
        res = expect_power(weight, beta, **tol)
    except QuadratureError as exc:
        raise QuadratureError(exc.args[0], exc.partial * unit, exc.error_estimate * unit) from None
    return QuadResult(res.value * unit, res.error_estimate * unit, res.intervals)


def _fisher_quad(params, weight, method, tol, max_level) -> FisherEstimate:
    """Integrate I(1)/beta = E[weight(p)] over z, then multiply by beta/theta^2.

    Taking I/beta keeps every weight below beta * 700^2, so beta^2 never
    overflows.  tol must pass require_tol.
    """
    tf = require_tol(tol)
    beta = params.beta
    unit = beta / params.theta / params.theta
    res = _scaled_quad(weight, beta, unit, rel_tol=tf, max_level=max_level)
    return FisherEstimate(res.value, method, res.error_estimate)


def fisher_quad_score_variance(
    params: GenNormParams, tol: float = 1e-9, max_level: int = 22
) -> FisherEstimate:
    """Variance-of-score route: quadrature of score^2 * pdf over the real line.

    tol is relative; the reported error_estimate is at most tol*value.
    Non-convergence within max_level refinements raises QuadratureError
    carrying the partial value (in the units of I(theta)).
    """
    b = params.beta

    def score_sq_over_beta(p):  # (beta p - 1)^2 / beta
        return (b * p - 1.0) * (p - 1.0 / b)

    return _fisher_quad(params, score_sq_over_beta, "quad_score_variance", tol, max_level)


def fisher_quad_neg_hessian(
    params: GenNormParams, tol: float = 1e-9, max_level: int = 22
) -> FisherEstimate:
    """Negative-expected-Hessian route: quadrature of -d2_log_pdf * pdf."""
    b = params.beta

    def neg_d2_over_beta(p):  # (beta (beta+1) p - 1) / beta
        return (b + 1.0) * p - 1.0 / b

    return _fisher_quad(params, neg_d2_over_beta, "quad_neg_hessian", tol, max_level)


def fisher_mc_score_variance(params: GenNormParams, n: int, seed: int) -> FisherEstimate:
    """Monte Carlo route: mean of score^2 over the n powers m, p of trial 0 of
    sample_power_trials(beta, n, seed, 1), whose score is beta * m**beta * p - 1
    (|z|**beta = m**beta * p: no root is taken and raised back).

    error_estimate is the standard error of that mean under the law: the
    squared score has variance beta**2 (6 beta + 2) at theta = 1, so the
    error is I(theta) sqrt((6 beta + 2)/n).  A sampled standard deviation,
    set by rare large scores where most draws score -1, mostly falls short
    of it (by 13 % at beta = 100, n = 10**5 at seeds 2 and 3).
    Deterministic given seed; theta enters only as 1/theta/theta.
    ValueError where n < 6 beta + 2 (require_mc_draws), a relative error
    above 1.  The score spreads sqrt(beta) about 0 and is rounded to about
    eps, a relative eps/sqrt(beta): below beta = eps (2.2e-16) that passes
    sqrt(eps), half the digits, and ValueError is raised.
    """
    require_count("n", n, MC_MIN_DRAWS)
    beta = params.beta
    require_mc_draws(n, beta)
    if beta < math.ulp(1.0):  # eps
        raise ValueError(f"beta={beta!r} is below eps = 2.2e-16, where the Monte Carlo score "
                         "keeps less than half the digits of its spread")
    m, p = next(sample_power_trials(beta, n, seed, 1))
    sq = _affine(p[0], beta * float(standardized_power(beta, m, out=m)[0]))
    sq *= sq
    unit = 1.0 / params.theta / params.theta
    stderr = beta * math.sqrt((6.0 * beta + 2.0) / n) * unit
    return FisherEstimate(float(sq.sum()) / n * unit, "mc_score_variance", stderr)


def expected_score_quad(params: GenNormParams, abs_tol: float = 1e-11) -> QuadResult:
    """Quadrature of score * pdf over the real line (the zero-mean identity).

    Integrates theta * score in z and divides by theta.  abs_tol applies to
    the dimensionless theta * E[score], so the work does not depend on theta
    and the result's error bound is abs_tol / theta.
    """
    beta = params.beta
    return _scaled_quad(lambda p: beta * p - 1.0, beta, 1.0 / params.theta, abs_tol=abs_tol)


_ROUTES = {
    "closed_form": lambda params, *, tol, n, seed: fisher_closed_form(params),
    "quad_score_variance": lambda params, *, tol, n, seed: fisher_quad_score_variance(params, tol),
    "quad_neg_hessian": lambda params, *, tol, n, seed: fisher_quad_neg_hessian(params, tol),
    "mc_score_variance": lambda params, *, tol, n, seed: fisher_mc_score_variance(params, n, seed),
}
# Route name -> callable(params, *, tol, n, seed), in the report order of METHOD_NAMES.
METHODS = MappingProxyType({name: _ROUTES[name] for name in METHOD_NAMES})


def fisher_beta_sweep(
    theta: float, betas, tol: float = 1e-9
) -> list[tuple[int, float, float]]:
    """Closed-form vs quadrature Fisher information along a sweep of even shapes.

    Returns one (beta, closed_form value, quad_score_variance value) triple
    per entry; along an increasing sweep the values grow without bound
    (linearly in beta at fixed theta).
    """
    betas = list(betas)
    if not betas:
        raise ValueError("betas must be a nonempty sequence of positive even integers")
    out = []
    for b in betas:
        params = GenNormParams(theta=theta, beta=float(require_even_shape(b)))
        closed = fisher_closed_form(params)
        quad = fisher_quad_score_variance(params, tol=tol)
        out.append((int(params.beta), closed.value, quad.value))
    return out
