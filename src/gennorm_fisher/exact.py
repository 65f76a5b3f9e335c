"""The layer of the package that needs no numpy: the family's parameters, its
exact moments, the names of the Fisher information routes, and the error the
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
    "METHOD_NAMES",
    "GenNormParams",
    "MomentSpec",
    "QuadratureError",
    "exact_moment",
    "require_even_shape",
    "require_shape",
]

# The Fisher information routes, in report order (fisher.METHODS maps each to its callable).
METHOD_NAMES = ("closed_form", "quad_score_variance", "quad_neg_hessian", "mc_score_variance")


@dataclass(frozen=True)
class GenNormParams:
    """Scale theta and shape beta, both strictly positive and finite, and
    beta large enough that 1/beta is finite (the density needs Gamma(1/beta))."""

    theta: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", require_real("theta", self.theta, positive=True))
        object.__setattr__(self, "beta", require_shape(self.beta))


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
