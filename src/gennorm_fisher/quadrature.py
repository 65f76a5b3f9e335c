"""Shared quadrature core: tanh-sinh rule on the half-line.

All the integrals in this package have the shape

    integral over R of  g(x) * exp(-|x/scale|^shape) dx

up to bounded prefactors.  Folding the line at 0 leaves an integral over
[0, b], where b is the point past which the integrand is below the double
range (or negligible) relative to its bulk, so the truncation is exact.  The
double exponential (tanh-sinh) substitution of Takahasi & Mori, Publ. RIMS 9
(1974) 721-741,

    x = b * logistic(s),   s = pi * sinh(u),   dx/du = pi * cosh(u) * x * logistic(-s),

sends both ends of [0, b] to infinity in u with doubly exponential decay, so
the trapezoid rule in u converges geometrically.  The fold puts the |x| kink
of shape = 1, and the power singularity of shape < 1, on the endpoint x = 0,
where the node clustering absorbs it.  Two integrators share that rule and
one refinement loop:

  * integrate_decaying(f, scale, shape, ...) integrates any vectorized f over
    R, odd parts included.  Each pass evaluates f once, on the symmetric
    nodes [x, -x], with b = scale * 746**(1/shape) (exp(-746) == 0.0).  The
    u range is cut on the right where x rounds to b (s = 54 ln 2), and on
    the left where the mass below x = scale * eps * Gamma(1 + 1/shape) is
    negligible (relative eps); where b exceeds the double range (shape
    below 0.0093 at scale 1) the call raises ValueError.
  * expect_power(weight, beta, ...) integrates a function of p = |z|**beta
    times exp(-p) over z, the form of every quadrature route of the package:
    with the density's log-normalizer passed in as log_unit, it is the
    expectation under the standardized density f_Z.  The integrand is even,
    so it evaluates the half-line once and doubles it.  With
    L = log1p(exp(-s)), each node has p = p_end * exp(-beta * L), and its
    Jacobian and density come from the same L, so p keeps full relative
    precision at any beta (a
    power of a rounded node carries an error of about beta * eps) and each
    term is one exp of a sum of logarithms, which cannot overflow before
    the result does.  p_end = 700 for the density alone (exp(-700) is
    still a normal double; a subnormal exp costs ~30x a normal one), and
    for a factor p**exponent the point where p**exponent * exp(-p) has
    fallen exp(-700) below its peak at p = exponent.  The right cut is at
    s = ln(beta * p_end), where p = p_end * exp(-1/p_end); for large beta
    the density drops from 1 to exp(-p_end) over a few units of s around
    s = ln(beta), so this cut moves with beta, out to s ~ 700 at 1e300.

No level below min_level may end a call, so the first pass evaluates the
whole grid of level min_level (capped by max_level) in one pass; its
even-indexed nodes form the grid one level down, whose sum gives the first
successive difference.  Each further level halves the step and evaluates
only the new midpoints.  Convergence is declared when two successive levels
agree to the requested tolerance, and the last successive difference is
reported as a (conservative) error bound.  A nan or infinite value never
converges, so it raises QuadratureError at once.  expect_power's floor is
ROUTE_MIN_LEVEL, raised until the floor grid's nodes lie at most 0.25 apart
in s at s = ln(beta): two grids that both step over the drop there would
agree on a wrong value (0, for the information at beta = 1e300).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["QuadResult", "QuadratureError", "integrate_decaying", "expect_power", "scaled"]

_EXP_UNDERFLOW = 746.0  # exp(-746) == 0.0 in double precision
_LOG_EPS = math.log(sys.float_info.epsilon)
_LOG_MAX = math.log(sys.float_info.max)
_S_RIGHT = 54.0 * math.log(2.0)  # logistic(s) rounds to 1.0 beyond this
_BASE_INTERVALS = 16  # per half-line at level 0
_U_GRID = 2.0**20  # the u cutoffs are multiples of 1/_U_GRID
_P_DROP = 700.0  # expect_power's cut: exp(-700) below the peak, still a normal double
_S_SPACING = 0.25  # widest s step of expect_power's floor grid at s = ln(beta)

# Floor of expect_power, the integrator of the package's own routes: their
# integrands are the density times a power of |z| or a polynomial in
# |z|^shape, which 512 intervals resolve for every shape up to about 5e4;
# larger shapes raise the floor (see the module docstring).
ROUTE_MIN_LEVEL = 4


@dataclass(frozen=True)
class QuadResult:
    """value, its error bound, and the trapezoid intervals of the final level.

    intervals counts both halves of the line: 32 at level 0, doubling per
    level.  integrate_decaying evaluates intervals + 2 nodes in all;
    expect_power evaluates only one half-line, intervals/2 + 1 nodes.
    """

    value: float
    error_estimate: float
    intervals: int


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


def scaled(unit: float, integrate: Callable[[], QuadResult]) -> QuadResult:
    """integrate() with its value and error (or the partial value and error of
    the QuadratureError it raises) multiplied by unit: an exact scale law that
    maps an integral taken in z = x/theta to the caller's units."""
    try:
        res = integrate()
    except QuadratureError as exc:
        raise QuadratureError(exc.args[0], exc.partial * unit, exc.error_estimate * unit) from None
    return QuadResult(res.value * unit, res.error_estimate * unit, res.intervals)


def _nodes_u(start: float, step: float, count: int) -> np.ndarray:
    u = np.arange(count, dtype=np.float64)
    u *= step
    u += start
    return u


def _refine(terms, u_left, u_right, abs_tol, rel_tol, min_level, max_level) -> QuadResult:
    """The trapezoid rule in u over [u_left, u_right], refined by step halving.

    terms(start, step, count) returns the terms at u_k = start + k*step
    (k < count) of one pass, each still to be multiplied by pi * step.
    """
    if abs_tol < 0.0 or rel_tol < 0.0 or (abs_tol == 0.0 and rel_tol == 0.0):
        raise ValueError("need abs_tol >= 0, rel_tol >= 0, and not both zero")
    # Widen the range to multiples of 2**-20, so that every node start + k*step
    # of every level is exact in double precision.  A rounded u moves
    # s = pi sinh u by up to pi cosh(u) * ulp(u), the same way at every node
    # near it: at the right end of a large-beta range (s ~ 700) that shift
    # biases the result by ~1e-13 relative.
    u_left = math.floor(u_left * _U_GRID) / _U_GRID
    u_right = math.ceil(u_right * _U_GRID) / _U_GRID
    # The first pass evaluates the whole grid of the floor min_level (capped
    # by the budget max_level, and at least level 1 so that a coarser grid
    # exists): no level below it may end the call.  Its even-indexed nodes
    # are the grid one level down, since 2j * (h/2) == j * h exactly.
    level = max(min(min_level, max_level), 1)
    n = _BASE_INTERVALS << level
    h = (u_right - u_left) / n
    first = terms(u_left, h, n + 1)
    previous = 2.0 * math.pi * h * float(first[::2].sum())
    total = math.pi * h * float(first.sum())
    while True:
        err = abs(total - previous)
        if not math.isfinite(total):
            raise QuadratureError(f"non-finite value at refinement {level}", total, err)
        if level >= min_level and err <= max(abs_tol, rel_tol * abs(total)):
            return QuadResult(value=total, error_estimate=err, intervals=2 * n)
        if level >= max_level:
            raise QuadratureError(f"no convergence after {level} refinements", total, err)
        midpoints = terms(u_left + 0.5 * h, h, n)
        previous = total
        total = 0.5 * total + 0.5 * math.pi * h * float(midpoints.sum())
        n *= 2
        h *= 0.5
        level += 1


def _u_left(shape: float, log_b: float) -> float:
    # asinh(s / pi) for s = log(x/b) at the left cutoff x = eps * Gamma(1 + 1/shape)
    return math.asinh((_LOG_EPS + math.lgamma(1.0 + 1.0 / shape) - log_b) / math.pi)


def integrate_decaying(
    f: Callable[[np.ndarray], np.ndarray],
    scale: float,
    shape: float,
    abs_tol: float,
    rel_tol: float,
    max_level: int = 22,
    min_level: int = 6,
) -> QuadResult:
    """Integrate a vectorized f over the real line.

    f maps an ndarray of x values to integrand values and must decay at
    least like exp(-|x/scale|^shape).  Convergence requires the successive
    refinement difference to drop below max(abs_tol, rel_tol*|value|); at
    least one of the tolerances must be positive, and the integration range
    scale * 746**(1/shape) must be finite.  min_level guards against
    accidental agreement on grids too coarse to see narrow features; f is
    called once on the whole min_level grid, then once per further level.
    """
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    if not (shape > 0.0 and math.isfinite(shape)):
        raise ValueError(f"shape must be positive and finite, got {shape!r}")
    try:
        b = scale * _EXP_UNDERFLOW ** (1.0 / shape)
    except OverflowError:
        b = math.inf
    if not math.isfinite(b):
        raise ValueError(f"scale * 746**(1/shape) overflows at shape {shape!r}, scale {scale!r}")

    def fold_terms(start, step, count):
        # cosh(u) * x * logistic(-s) * (f(x) + f(-x)), x = b * logistic(s)
        u = _nodes_u(start, step, count)
        w = np.cosh(u)
        e = np.exp(np.multiply(np.sinh(u, out=u), math.pi, out=u), out=u)
        one_plus_e = e + 1.0
        x = np.empty(2 * count)
        pos = np.divide(e, one_plus_e, out=x[:count])
        pos *= b
        np.negative(pos, out=x[count:])
        fx = f(x)
        w *= pos
        w /= one_plus_e
        w *= fx[:count] + fx[count:]
        return w

    u_left = _u_left(shape, math.log(_EXP_UNDERFLOW) / shape)
    u_right = math.asinh(_S_RIGHT / math.pi)
    return _refine(fold_terms, u_left, u_right, abs_tol, rel_tol, min_level, max_level)


def _p_end(exponent: float) -> float:
    """The p > exponent where p**exponent * exp(-p) is exp(-_P_DROP) below its
    peak at p = exponent; _P_DROP itself for exponent 0.

    d = p - exponent solves d - exponent * log1p(d / exponent) = _P_DROP.  It
    starts from the bound _P_DROP + sqrt(2 _P_DROP exponent), right of the
    root, and three Newton steps on that convex function bring the drop within
    1e-6 of _P_DROP for exponents up to 1e20.  The root lies between _P_DROP
    and the bound, so each step is kept there: beyond 1e20, where rounding
    swamps the function, p stays within 1e-8 relative of exponent.
    """
    if exponent == 0.0:
        return _P_DROP
    a = exponent
    bound = d = _P_DROP + math.sqrt(2.0 * _P_DROP * a)
    for _ in range(3):
        d -= (d - a * math.log1p(d / a) - _P_DROP) * (a + d) / d
        d = min(max(d, _P_DROP), bound)
    return a + d


def expect_power(
    weight: Optional[Callable[[np.ndarray], np.ndarray]],
    beta: float,
    *,
    exponent: float = 0.0,
    log_unit: float = 0.0,
    abs_tol: float = 0.0,
    rel_tol: float = 0.0,
    max_level: int = 22,
) -> QuadResult:
    """exp(log_unit) * integral over R of p**exponent * weight(p) * exp(-p) dz,
    with p = |z|**beta.

    With log_unit = distribution.log_norm_z(beta), the log of the normalizer
    of f_Z(z) = beta / (2 Gamma(1/beta)) * exp(-|z|**beta), this is
    E[p**exponent * weight(p)] under f_Z; callers add the log of their own
    units to it.  weight maps an ndarray of p values to weights of at most
    polynomial growth, and may overwrite it; None stands for 1.
    p**exponent (that is |z|**(beta*exponent)) and exp(log_unit) enter the
    integrand through its logarithm, so that neither overflows or underflows
    ahead of the result.  Tolerances as in integrate_decaying; the floor is
    ROUTE_MIN_LEVEL or above (see the module docstring).  Raises ValueError
    for a beta or an exponent out of range, or where the range
    p_end**(1/beta) overflows (beta below 0.00923 for the density alone),
    and OverflowError where the rule's sum exceeds the double range: where
    the result does, or comes within a factor of about 20 of its top (1e3 at
    beta = 1e300).
    """
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    if not (exponent >= 0.0 and math.isfinite(exponent)):
        raise ValueError(f"exponent must be finite and >= 0, got {exponent!r}")
    p_end = _p_end(exponent)
    log_p_end = math.log(p_end)
    log_b = log_p_end / beta  # z = b * logistic(s)
    if log_b > _LOG_MAX:
        raise ValueError(f"the integration range overflows at beta {beta!r}, exponent {exponent!r}")
    s_right = math.log(beta) + log_p_end
    # log of 2 (both halves of the line) * b * exp(log_unit): the factors of
    # every term that do not depend on the node
    log_const = math.log(2.0) + log_b + log_unit
    u_left = _u_left(beta, log_b)
    u_right = math.asinh(s_right / math.pi)
    # The floor grid spaces its nodes at most _S_SPACING apart in s where
    # exp(-p) drops, at s ~ ln(beta) (ds/du = hypot(pi, s) there), so that
    # no two grids can agree by stepping over the drop.
    floor_step = (u_right - u_left) / (_BASE_INTERVALS << ROUTE_MIN_LEVEL)
    spacing = floor_step * math.hypot(math.pi, max(math.log(beta), 0.0))
    min_level = ROUTE_MIN_LEVEL + max(0, math.ceil(math.log2(spacing / _S_SPACING)))
    # s is taken relative to s_ref = pi sinh(u_ref), on the grid of the u
    # nodes near the drop of exp(-p) at s ~ ln(beta): the difference
    #   d = pi (sinh u - sinh u_ref) = 2 pi cosh((u + u_ref)/2) sinh((u - u_ref)/2)
    # has a relative error of a few eps, so exp(-s) = exp(-s_ref) * exp(-d) has
    # an error of about |d| * eps where exp of a rounded s would have s * eps,
    # and p, whose relative error is beta * L times that, stays exact to
    # ~1e-15 even where s ~ 700.  s_ref stays within 700 of the left end,
    # so that exp(-d) never overflows.
    s_ref = min(max(math.log(beta), 0.0), math.pi * math.sinh(u_left) + 700.0)
    u_ref = math.floor(math.asinh(s_ref / math.pi) * _U_GRID) / _U_GRID
    exp_ref = math.exp(-math.pi * math.sinh(u_ref))

    def power_terms(start, step, count):
        # cosh(u) * exp(-s) * exp(log_const - 2L + exponent*log p - p) * weight(p)
        # with L = log1p(exp(-s)) and p = p_end * exp(-beta L)
        u = _nodes_u(start, step, count)
        jac = np.cosh(u)
        x = np.add(u, u_ref)
        x *= 0.5
        np.cosh(x, out=x)
        u -= u_ref
        u *= 0.5
        x *= np.sinh(u, out=u)
        x *= -2.0 * math.pi  # -d
        np.exp(x, out=x)
        x *= exp_ref  # exp(-s)
        jac *= x
        big_l = np.log1p(x, out=x)
        log_p = np.multiply(big_l, -beta, out=u)
        log_p += log_p_end
        g = np.multiply(big_l, -2.0, out=big_l)
        g += log_const
        if exponent:
            g += exponent * log_p
        p = np.exp(log_p, out=log_p)
        g -= p
        np.exp(g, out=g)
        g *= jac
        if weight is not None:
            g *= weight(p)
        return g

    try:
        with np.errstate(over="ignore"):  # an inf term is reported below
            return _refine(power_terms, u_left, u_right, abs_tol, rel_tol, min_level, max_level)
    except QuadratureError as exc:
        if math.isinf(exc.partial):
            raise OverflowError(
                f"the integral exceeds the double range at beta {beta!r}, "
                f"exponent {exponent!r}, log_unit {log_unit!r}"
            ) from None
        raise
