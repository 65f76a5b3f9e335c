"""Shared quadrature core: adaptive trapezoid rule on the real line.

All the integrals in this package have the shape

    integral over R of  g(x) * exp(-|x/scale|^shape) dx

up to bounded prefactors.  Substituting x = scale*sinh(u) turns the tail
decay doubly exponential in u, where the trapezoid rule converges
geometrically (and still at a healthy O(h^2) when shape = 1 puts a |x| kink
at the origin, which the symmetric grid pins on a node).  Truncation is
exact in double precision: beyond |x/scale|^shape = 746 the exponential
factor underflows to 0.0.

Refinement halves the step and reuses previous evaluations; convergence is
declared when two successive levels agree to the requested tolerance, and
the last successive difference is reported as a (conservative) error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["QuadResult", "QuadratureError", "integrate_decaying", "scaled"]

_EXP_UNDERFLOW = 746.0  # exp(-746) == 0.0 in double precision
_BASE_INTERVALS = 32


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
    least one of the tolerances must be positive.  min_level guards against
    accidental agreement on grids too coarse to see narrow features (shape
    up to ~128 keeps all variation at |x/scale| near 1).
    """
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    if not (shape > 0.0 and math.isfinite(shape)):
        raise ValueError(f"shape must be positive and finite, got {shape!r}")
    if abs_tol < 0.0 or rel_tol < 0.0 or (abs_tol == 0.0 and rel_tol == 0.0):
        raise ValueError("need abs_tol >= 0, rel_tol >= 0, and not both zero")

    # Half-width in u: |sinh(u)|^shape reaches the underflow cutoff at the ends.
    u_max = math.asinh(_EXP_UNDERFLOW ** (1.0 / shape))

    def eval_at(u: np.ndarray) -> np.ndarray:
        return f(scale * np.sinh(u)) * (scale * np.cosh(u))

    n = _BASE_INTERVALS
    h = 2.0 * u_max / n
    fu = eval_at(np.linspace(-u_max, u_max, n + 1))
    total = h * (float(fu.sum()) - 0.5 * (float(fu[0]) + float(fu[-1])))

    err = math.inf
    for level in range(1, max_level + 1):
        mid = np.linspace(-u_max + 0.5 * h, u_max - 0.5 * h, n)
        refined = 0.5 * total + 0.5 * h * float(eval_at(mid).sum())
        err = abs(refined - total)
        total = refined
        n *= 2
        h *= 0.5
        if level >= min_level and err <= max(abs_tol, rel_tol * abs(total)):
            return QuadResult(value=total, error_estimate=err, intervals=n)
    raise QuadratureError(f"no convergence after {max_level} refinements", total, err)
