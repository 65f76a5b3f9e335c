"""Shared quadrature core: tanh-sinh rule on the half-line.

All the integrals in this package have the shape

    integral over R of  g(x) * exp(-|x/scale|^shape) dx

up to bounded prefactors.  Folding the line at 0 leaves an integral over
[0, b], b = scale * p_end**(1/shape), past which the integrand has fallen
exp(-p_end) below its bulk, so the truncation is exact.  The double
exponential (tanh-sinh) substitution of Takahasi & Mori, Publ. RIMS 9 (1974)
721-741,

    x = b * logistic(s) = b * exp(-L),   L = log1p(exp(-s)),   s = pi * sinh(u),
    dx/du = pi * cosh(u) * exp(-s) * b * exp(-2L),

sends both ends of [0, b] to infinity in u with doubly exponential decay, so
the trapezoid rule in u converges geometrically.  The fold puts the |x| kink
of shape = 1, and the power singularity of shape < 1, on the endpoint x = 0,
where the node clustering absorbs it.

One rule places the nodes of both integrators.  The u range is cut on the
left where the mass below x = scale * eps * Gamma(1 + 1/shape) is negligible
(relative eps), and on the right at s = ln(shape * p_end), where
p = |x/scale|**shape = p_end * exp(-shape * L) is p_end * exp(-1/p_end): for
large shapes the density drops from 1 to exp(-p_end) over a few units of s
around s = ln(shape), so this cut moves with the shape, out to s ~ 700 at
1e300.  x, p, the Jacobian and the density all follow from L, so they keep
full relative precision at any shape (a power of a rounded node carries an
error of about shape * eps).  p_end = 700 for the density alone: exp(-700)
is still a normal double, and a subnormal exp costs ~30x a normal one.

  * integrate_decaying(f, scale, shape, ...) integrates any vectorized f over
    R, odd parts included: each pass evaluates f once, on the nodes [x, -x].
  * expect_power(weight, beta, ...) takes E[weight(p)], p = |z|**beta, under
    f_Z (log_norm_z), the form of every quadrature route of the package.
    The integrand is even, so it evaluates the half-line once and doubles it.

No level below min_level may end a call, so the first pass evaluates the
whole grid of level min_level (capped by max_level) in one pass; its
even-indexed nodes form the grid one level down, whose sum gives the first
successive difference.  Each further level halves the step and evaluates
only the new midpoints.  Convergence is declared when two successive levels
agree to the requested tolerance, and the last successive difference is
reported as a (conservative) error bound.  A nan or infinite value never
converges, so it raises QuadratureError at once.  Above shapes of about 5e4
the floor is raised by as many levels as the grid of ROUTE_MIN_LEVEL needs
to space its nodes at most 0.25 apart in s at s = ln(shape): two grids that
both step over the drop there would agree on a wrong value (0, for the
information at beta = 1e300).

The rule of a shape (its range and floor raise) is cached for the 128 most
recent shapes.  Each of its passes of up to 1025 nodes keeps expect_power's
p and density terms, in one slot for the last (log_const, exponent) it
served: the routes at one shape integrate different weights against the
same density, so a repeated pass is its weight times the kept terms.  A
pass asked for another (log_const, exponent), and every pass of
integrate_decaying, builds its nodes afresh.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .exact import QuadratureError
from .special_functions import log_norm_z, require_real

__all__ = ["QuadResult", "integrate_decaying", "expect_power"]

_LOG_EPS = math.log(sys.float_info.epsilon)
_LOG_MAX = math.log(sys.float_info.max)
_BASE_INTERVALS = 16  # per half-line at level 0
_U_GRID = 2.0**20  # the u cutoffs are multiples of 1/_U_GRID
_P_DROP = 700.0  # the right cut: exp(-700) below the peak, still a normal double
_LOG_P_DROP = math.log(_P_DROP)
_LOG_2 = math.log(2.0)
_S_SPACING = 0.25  # widest s step of the floor grid at s = ln(shape)
# A cached rule keeps one slot of density terms, 16 B a node, for each of its
# passes of at most _KEEP_COUNT nodes: the first and midpoint passes of levels
# 1-6, 4038 nodes, so 128 rules keep at most ~8.3 MB.  One caller at one floor
# keeps at most 2049 nodes a rule (a first pass and the midpoint levels up to
# 6), so the package's routes keep at most ~4.2 MB.
_KEEP_COUNT = 1025

# Floor of expect_power, the integrator of the package's own routes: their
# integrands are the density times a power of |z| or a polynomial in
# |z|^shape, which 512 intervals resolve for every shape up to about 5e4;
# larger shapes raise the floor (see the module docstring).
ROUTE_MIN_LEVEL = 4


@dataclass(frozen=True, init=False)
class QuadResult:
    """value, its error bound, and the trapezoid intervals of the final level.

    intervals counts both halves of the line: 32 at level 0, doubling per
    level.  integrate_decaying evaluates intervals + 2 nodes in all;
    expect_power evaluates only one half-line, intervals/2 + 1 nodes.
    """

    value: float
    error_estimate: float
    intervals: int

    def __init__(self, value: float, error_estimate: float, intervals: int) -> None:
        # straight into the instance dict: the frozen class's __setattr__ raises
        fields = self.__dict__
        fields["value"] = value
        fields["error_estimate"] = error_estimate
        fields["intervals"] = intervals


class _Rule(NamedTuple):
    """What the rule of one (shape, p_end) needs, whatever the tolerances."""

    u_left: float  # the u range, widened to multiples of 2**-20
    u_right: float
    floor_raise: int  # levels added to the caller's min_level
    u_ref: float  # s is taken relative to s_ref = pi sinh(u_ref)
    exp_ref: float  # exp(-s_ref)
    # (start, step, count) -> the slot of a kept pass's density terms:
    # ((log_const, exponent), p, w), for the last pair expect_power asked of it
    densities: dict


@functools.lru_cache
def _rule(shape: float, log_p_end: float) -> _Rule:
    """The u range, floor raise and reference node of the half-line rule of
    exp(-|z|**shape) cut at p_end, with an empty store of density terms.

    Cached: the same shape recurs across routes and calls, and each cached
    rule keeps a slot of density terms for each of its small passes (see
    expect_power).
    """
    # s = log(z/b) at the left cutoff z = eps * Gamma(1 + 1/shape), b = p_end**(1/shape)
    s_left = _LOG_EPS + (-_LOG_2 - log_norm_z(shape)) - log_p_end / shape
    u_left = math.asinh(s_left / math.pi)
    u_right = math.asinh((math.log(shape) + log_p_end) / math.pi)
    # The floor raise of the module docstring, at the drop of exp(-p) at
    # s ~ ln(shape), where ds/du = hypot(pi, s).
    floor_step = (u_right - u_left) / (_BASE_INTERVALS << ROUTE_MIN_LEVEL)
    spacing = floor_step * math.hypot(math.pi, max(math.log(shape), 0.0))
    floor_raise = max(0, math.ceil(math.log2(spacing / _S_SPACING)))
    # s is taken relative to s_ref = pi sinh(u_ref), on the grid of the u
    # nodes near the drop of exp(-p) at s ~ ln(shape): the difference
    #   d = pi (sinh u - sinh u_ref) = 2 pi cosh((u + u_ref)/2) sinh((u - u_ref)/2)
    # has a relative error of a few eps, so exp(-s) = exp(-s_ref) * exp(-d) has
    # an error of about |d| * eps where exp of a rounded s would have s * eps,
    # and p, whose relative error is shape * L times that, stays exact to
    # ~1e-15 even where s ~ 700.  s_ref stays within 700 of the left end,
    # so that exp(-d) never overflows.
    s_ref = min(max(math.log(shape), 0.0), math.pi * math.sinh(u_left) + 700.0)
    u_ref = math.floor(math.asinh(s_ref / math.pi) * _U_GRID) / _U_GRID
    # Widen the range to multiples of 2**-20, so that every node start + k*step
    # of every level is exact in double precision.  A rounded u moves
    # s = pi sinh u by up to pi cosh(u) * ulp(u), the same way at every node
    # near it: at the right end of a large-shape range (s ~ 700) that shift
    # biases the result by ~1e-13 relative.
    return _Rule(
        u_left=math.floor(u_left * _U_GRID) / _U_GRID,
        u_right=math.ceil(u_right * _U_GRID) / _U_GRID,
        floor_raise=floor_raise,
        u_ref=u_ref,
        exp_ref=math.exp(-math.pi * math.sinh(u_ref)),
        densities={},
    )


def _nodes(rule: _Rule, key: tuple):
    """jac = cosh(u) * exp(-s) and L = log1p(exp(-s)) at u_k = start + k*step,
    k < count, as new arrays; key is (start, step, count)."""
    start, step, count = key
    u = np.arange(count, dtype=np.float64)
    u *= step
    u += start
    jac = np.cosh(u)
    x = np.add(u, rule.u_ref)
    x *= 0.5
    np.cosh(x, out=x)
    u -= rule.u_ref
    u *= 0.5
    x *= np.sinh(u, out=u)
    x *= -2.0 * math.pi  # -d
    np.exp(x, out=x)
    x *= rule.exp_ref  # exp(-s)
    jac *= x
    return jac, np.log1p(x, out=x)


def _half_line(terms, shape, log_p_end, abs_tol, rel_tol, min_level, max_level) -> QuadResult:
    """The trapezoid rule in u over the half-line of exp(-|z|**shape), cut
    where exp(-|z|**shape) = exp(-p_end), refined by step halving.

    terms(rule, key) returns the terms of the pass key = (start, step, count)
    of the rule, each still to be multiplied by pi * step; _nodes(rule, key)
    gives its nodes.  _half_line only reads the terms, so they may be arrays
    the rule keeps.
    """
    if not (  # the common case, checked in one expression; _budget checks the rest
        type(abs_tol) is float and type(rel_tol) is float and abs_tol >= 0.0 and rel_tol >= 0.0
        and abs_tol + rel_tol > 0.0 and type(min_level) is int and type(max_level) is int
    ):
        abs_tol, rel_tol, min_level, max_level = _budget(abs_tol, rel_tol, min_level, max_level)
    rule = _rule(float(shape), log_p_end)
    min_level += rule.floor_raise
    u_left = rule.u_left

    # The first pass is at level 1 or above, so that a coarser grid exists:
    # its even-indexed nodes, since 2j * (h/2) == j * h exactly.
    level = max(min(min_level, max_level), 1)
    n = _BASE_INTERVALS << level
    h = (rule.u_right - u_left) / n
    first = terms(rule, (u_left, h, n + 1))
    # np.add.reduce is the reduction ndarray.sum runs, without its Python wrapper
    previous = 2.0 * math.pi * h * float(np.add.reduce(first[::2]))
    total = math.pi * h * float(np.add.reduce(first))
    while True:
        err = abs(total - previous)
        if not math.isfinite(total):
            raise QuadratureError(f"non-finite value at refinement {level}", total, err)
        if level >= min_level and err <= max(abs_tol, rel_tol * abs(total)):
            return QuadResult(value=total, error_estimate=err, intervals=2 * n)
        if level >= max_level:
            raise QuadratureError(f"no convergence after {level} refinements", total, err)
        midpoints = terms(rule, (u_left + 0.5 * h, h, n))
        previous = total
        total = 0.5 * total + 0.5 * math.pi * h * float(np.add.reduce(midpoints))
        n *= 2
        h *= 0.5
        level += 1


def _budget(abs_tol, rel_tol, min_level, max_level) -> tuple[float, float, int, int]:
    """The tolerances as floats and the levels as ints, after checking that
    each tolerance is a real number >= 0 or +inf (not a bool, text or nan),
    that they are not both zero, and that each level is an integer (not a
    bool); ValueError otherwise."""
    tols = [
        math.inf if tol == math.inf else require_real(name, tol)
        for name, tol in (("abs_tol", abs_tol), ("rel_tol", rel_tol))
    ]
    if min(tols) < 0.0 or max(tols) == 0.0:
        raise ValueError("need abs_tol >= 0, rel_tol >= 0, and not both zero")
    for name, level in (("min_level", min_level), ("max_level", max_level)):
        if isinstance(level, bool) or not isinstance(level, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {level!r}")
    return (*tols, int(min_level), int(max_level))


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
    refinement difference to drop below max(abs_tol, rel_tol*|value|).  scale
    and shape are positive, finite real numbers (not bools or text); each
    tolerance is a real number >= 0 or +inf (not a bool, text or nan), at
    least one of them positive; min_level and max_level are integers; and
    the integration range scale * 700**(1/shape) must be finite (shape above
    0.00923 at scale 1); ValueError otherwise, before any pass.  min_level
    guards against accidental agreement on grids too coarse to see narrow
    features; f is called once on the whole min_level grid (raised above
    shapes of about 5e4), then once per further level.
    """
    scale = require_real("scale", scale, positive=True)
    shape = require_real("shape", shape, positive=True)
    log_p_end = _LOG_P_DROP
    log_b = math.log(scale) + log_p_end / shape  # x = b * exp(-L)
    if log_b > _LOG_MAX:
        raise ValueError(f"scale * 700**(1/shape) overflows at shape {shape!r}, scale {scale!r}")

    def fold_terms(rule, key):
        # jac * b * exp(-2L) * (f(x) + f(-x)), x = b * exp(-L)
        jac, big_l = _nodes(rule, key)
        x = np.exp(log_b - big_l)
        fx = f(np.concatenate((x, -x)))
        t = np.exp(log_b - 2.0 * big_l)
        t *= jac
        t *= fx[: x.size] + fx[x.size :]
        return t

    return _half_line(fold_terms, shape, log_p_end, abs_tol, rel_tol, min_level, max_level)


def _p_end(exponent: float) -> float:
    """The p > exponent where p**exponent * exp(-p) is exp(-_P_DROP) below its
    peak at p = exponent, for exponent > 0 (_P_DROP itself at 0).

    d = p - exponent solves d - exponent * log1p(d / exponent) = _P_DROP.  It
    starts from the bound _P_DROP + sqrt(2 _P_DROP exponent), right of the
    root, and three Newton steps on that convex function bring the drop within
    1e-6 of _P_DROP for exponents up to 1e20.  The root lies between _P_DROP
    and the bound, so each step is kept there: beyond 1e20, where rounding
    swamps the function, p stays within 1e-8 relative of exponent.
    """
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
    """exp(log_unit) * E[p**exponent * weight(p)] under
    f_Z(z) = beta / (2 Gamma(1/beta)) * exp(-|z|**beta), with p = |z|**beta.

    log_unit is the log of the caller's own unit: the normalizer is
    log_norm_z's.  weight maps a read-only ndarray of p values to a new array
    of weights of at most polynomial growth; None stands for 1.  p**exponent
    (that is |z|**(beta*exponent)) and exp(log_unit) enter the integrand
    through its logarithm, so that neither overflows or underflows ahead of
    the result.  Tolerances as in integrate_decaying; the floor is
    ROUTE_MIN_LEVEL or above (see the module docstring).  Raises ValueError
    for a beta or an exponent out of range or not a real number (a bool or
    text), or where the range p_end**(1/beta) overflows (beta below 0.00923
    for the density alone), and OverflowError where the rule's sum exceeds
    the double range: where the result does, or comes within a factor of
    about 20 of its top (1e3 at beta = 1e300).
    """
    beta = require_real("beta", beta, positive=True)
    exponent = require_real("exponent", exponent)
    if exponent < 0.0:
        raise ValueError(f"exponent must be finite and >= 0, got {exponent!r}")
    log_p_end = math.log(_p_end(exponent)) if exponent else _LOG_P_DROP
    log_b = log_p_end / beta  # z = b * exp(-L)
    if log_b > _LOG_MAX:
        raise ValueError(f"the integration range overflows at beta {beta!r}, exponent {exponent!r}")
    # log of 2 (both halves of the line) * b * the normalizer of f_Z * exp(log_unit):
    # the factors of every term that do not depend on the node
    log_const = _LOG_2 + log_b + (log_norm_z(beta) + log_unit)

    density_key = (log_const, exponent)

    def power_terms(rule, key):
        # weight(p) * w: the weight at p = p_end * exp(-beta L) times the
        # density terms w = jac * exp(log_const - 2L + exponent*log p - p)
        slot = rule.densities.get(key)
        if slot is not None and slot[0] == density_key:
            _, p, w = slot
        else:
            jac, big_l = _nodes(rule, key)
            log_p = big_l * -beta
            log_p += log_p_end
            w = np.multiply(big_l, -2.0, out=big_l)
            w += log_const
            if exponent:
                w += exponent * log_p
            p = np.exp(log_p, out=log_p)
            p.setflags(write=False)
            w -= p
            np.exp(w, out=w)
            w *= jac
            del jac  # before the weight allocates: a fresh pass peaks at 4 arrays, not 5
            if key[2] <= _KEEP_COUNT:  # a kept pass keeps one slot, for the last density_key
                w.setflags(write=False)
                rule.densities[key] = (density_key, p, w)
        out = w if w.flags.writeable else None  # a fresh pass multiplies its own w in place
        return w if weight is None else np.multiply(w, weight(p), out=out)

    try:
        with np.errstate(over="ignore"):  # an inf term is reported below
            return _half_line(
                power_terms, beta, log_p_end, abs_tol, rel_tol, ROUTE_MIN_LEVEL, max_level
            )
    except QuadratureError as exc:
        if math.isinf(exc.partial):
            raise OverflowError(
                f"the integral exceeds the double range at beta {beta!r}, "
                f"exponent {exponent!r}, log_unit {log_unit!r}"
            ) from None
        raise
