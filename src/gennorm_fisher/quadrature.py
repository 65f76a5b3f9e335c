"""Shared quadrature core: tanh-sinh rule on the folded real line.

All the integrals in this package have the shape

    integral over R of  g(x) * exp(-|x/scale|^shape) dx

up to bounded prefactors.  Folding the line at 0 leaves the integral of
f(x) + f(-x) over [0, b] with b = scale * 746**(1/shape): beyond b the factor
exp(-|x/scale|^shape) underflows to 0.0 in double precision, so the
truncation is exact.  The double exponential (tanh-sinh) substitution of
Takahasi & Mori, Publ. RIMS 9 (1974) 721-741,

    x = b * logistic(pi * sinh(u)),   dx/du = pi * cosh(u) * x * logistic(-pi * sinh(u)),

sends both ends of [0, b] to infinity in u with doubly exponential decay, so
the trapezoid rule in u converges geometrically.  The fold puts the |x| kink
of shape = 1, and the power singularity of shape < 1, on the endpoint x = 0,
where the node clustering absorbs it.  Each pass evaluates f once, on the
symmetric nodes [x, -x].

The u range is cut on the right where the node reaches b in double precision,
and on the left where the mass below x = scale * eps * Gamma(1 + 1/shape) is
negligible (relative eps).  Both cutoffs follow from shape alone: about
[-3.14, 3.17] for large shapes and [-4.38, 3.17] at shape 0.05, and the
tests cover shapes from 0.05 to 1e4.  Where b itself exceeds the double
range (shape below 0.0093 at scale 1), the call raises ValueError.

No level below min_level may end a call, so the first pass evaluates the
whole grid of level min_level (capped by max_level) in one call of f; its
even-indexed nodes form the grid one level down, whose sum gives the first
successive difference.  Each further level halves the step and evaluates f
only at the new midpoints.  Convergence is declared when two successive
levels agree to the requested tolerance, and the last successive difference
is reported as a (conservative) error bound.
A nan or infinite value never converges, so it raises QuadratureError at
once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["QuadResult", "QuadratureError", "integrate_decaying", "scaled"]

_EXP_UNDERFLOW = 746.0  # exp(-746) == 0.0 in double precision
_LOG_EPS = math.log(sys.float_info.epsilon)
_S_RIGHT = 54.0 * math.log(2.0)  # logistic(s) rounds to 1.0 beyond this
_BASE_INTERVALS = 16  # per half-line at level 0

# min_level of the package's own routes: their integrands are the density
# times a power of |z| or a polynomial in |z|^shape, which 512 intervals
# already resolve for every shape in [0.05, 1e4].
ROUTE_MIN_LEVEL = 4


@dataclass(frozen=True)
class QuadResult:
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


def _fold_terms(f, b: float, start: float, step: float, count: int) -> np.ndarray:
    """cosh(u_k) * x_k * logistic(-pi sinh u_k) * (f(x_k) + f(-x_k)) for
    u_k = start + k*step (k < count), x_k = b * logistic(pi sinh u_k): the
    tanh-sinh terms of one pass, each still to be multiplied by pi * step."""
    u = np.arange(count, dtype=np.float64)
    u *= step
    u += start
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
    intervals counts the trapezoid intervals of both halves of the line:
    32 at level 0, doubling per level.
    """
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    if not (shape > 0.0 and math.isfinite(shape)):
        raise ValueError(f"shape must be positive and finite, got {shape!r}")
    if abs_tol < 0.0 or rel_tol < 0.0 or (abs_tol == 0.0 and rel_tol == 0.0):
        raise ValueError("need abs_tol >= 0, rel_tol >= 0, and not both zero")

    try:
        b = scale * _EXP_UNDERFLOW ** (1.0 / shape)
    except OverflowError:
        b = math.inf
    if not math.isfinite(b):
        raise ValueError(f"scale * 746**(1/shape) overflows at shape {shape!r}, scale {scale!r}")
    # log(x/b) at the left cutoff x = scale * eps * Gamma(1 + 1/shape)
    s_left = _LOG_EPS + math.lgamma(1.0 + 1.0 / shape) - math.log(_EXP_UNDERFLOW) / shape
    u_left = math.asinh(s_left / math.pi)
    u_right = math.asinh(_S_RIGHT / math.pi)

    # The first pass evaluates the whole grid of the floor min_level (capped
    # by the budget max_level, and at least level 1 so that a coarser grid
    # exists): no level below it may end the call.  Its even-indexed nodes
    # are the grid one level down, since 2j * (h/2) == j * h exactly.
    level = max(min(min_level, max_level), 1)
    n = _BASE_INTERVALS << level
    h = (u_right - u_left) / n
    terms = _fold_terms(f, b, u_left, h, n + 1)
    previous = 2.0 * math.pi * h * float(terms[::2].sum())
    total = math.pi * h * float(terms.sum())
    while True:
        err = abs(total - previous)
        if not math.isfinite(total):
            raise QuadratureError(f"non-finite value at refinement {level}", total, err)
        if level >= min_level and err <= max(abs_tol, rel_tol * abs(total)):
            return QuadResult(value=total, error_estimate=err, intervals=2 * n)
        if level >= max_level:
            raise QuadratureError(f"no convergence after {level} refinements", total, err)
        midpoints = _fold_terms(f, b, u_left + 0.5 * h, h, n)
        previous = total
        total = 0.5 * total + 0.5 * math.pi * h * float(midpoints.sum())
        n *= 2
        h *= 0.5
        level += 1
