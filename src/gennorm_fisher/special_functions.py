"""Gamma-function machinery and the shared input validators of the package.

Everything downstream (densities, moments, Fisher information) reduces to
evaluations of Gamma at positive real arguments.  gamma() and log_gamma()
validate their argument and call the standard library's math.gamma and
math.lgamma.  Against 50-digit references, gamma() stays within 8e-16
relative error on (0, 171.62] and log_gamma() within 1e-14 (absolute error
near its zeros at 1 and 2), inside the 1e-13 contract the tests assert.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "GAMMA_OVERFLOW_Z",
    "RationalArg",
    "gamma",
    "log_gamma",
    "multifactorial",
    "gamma_rational",
    "require_count",
    "require_real",
]

# Largest argument with a finite double result: Gamma(171.62) is representable,
# Gamma(171.63) is not.  Integer arguments overflow one step earlier in the
# factorial sense: 170! fits, 171! does not.
GAMMA_OVERFLOW_Z = 171.62437695630271

_MAX_EXACT_FACTORIAL_ARG = 171  # gamma(171) = 170! is the last representable one


def require_count(name: str, value, minimum: int) -> None:
    """Check that value is an int (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def require_real(name: str, value, positive: bool = False) -> float:
    """Return value as a float after checking it is a finite real number (not
    a bool or numeric text), and strictly positive when positive is set."""
    np = sys.modules.get("numpy")  # a numpy bool exists only once numpy is imported
    try:
        if isinstance(value, (bool, str, bytes, bytearray)) or (
            np is not None and isinstance(value, np.bool_)
        ):
            raise TypeError
        val = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a real number, got {value!r}") from None
    if not math.isfinite(val) or (positive and val <= 0.0):
        kind = "positive and finite" if positive else "finite"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return val


def gamma(z) -> float:
    """Gamma(z) for real z > 0.

    Integer arguments return the correctly rounded (z-1)! while that is
    representable (math.gamma is not correctly rounded at some of them).
    Raises ValueError for z <= 0, non-finite or non-real z, and
    OverflowError once the result exceeds the double range (see
    GAMMA_OVERFLOW_Z).
    """
    zf = require_real("gamma argument z", z, positive=True)
    if zf.is_integer() and zf <= _MAX_EXACT_FACTORIAL_ARG:
        return float(math.factorial(int(zf) - 1))
    try:
        return math.gamma(zf)
    except OverflowError:
        raise OverflowError(
            f"gamma({z!r}) exceeds the double range (finite only for z < {GAMMA_OVERFLOW_Z})"
        ) from None


def log_gamma(z) -> float:
    """ln Gamma(z) for real z > 0, exactly 0.0 at the zeros z = 1 and z = 2.

    Usable far beyond the gamma() overflow threshold; raises OverflowError
    only once ln Gamma(z) itself exceeds the double range (z above 2.55e305).
    """
    zf = require_real("log_gamma argument z", z, positive=True)
    try:
        return math.lgamma(zf)
    except OverflowError:
        raise OverflowError(f"log_gamma({z!r}) exceeds the double range") from None


def multifactorial(m: int, p: int) -> int:
    """The p-th multifactorial m * (m-p) * (m-2p) * ..., stopping above 0.

    multifactorial(0, p) is the empty product 1, and multifactorial(m, p) = m
    for 1 <= m <= p.  Results are exact arbitrary-precision integers, so
    there is no overflow here; the float conversion in gamma_rational() is
    where the representable range ends.
    """
    require_count("multifactorial m", m, 0)
    require_count("multifactorial p", p, 1)
    out = 1
    while m >= 1:
        out *= m
        m -= p
    return out


@dataclass(frozen=True)
class RationalArg:
    """Argument n + 1/p of the gamma product identity, with n >= 1, p >= 1."""

    n: int
    p: int

    def __post_init__(self):
        require_count("n", self.n, 1)
        require_count("p", self.p, 1)


def gamma_rational(arg: RationalArg) -> float:
    """Gamma(n + 1/p) via the multifactorial identity.

    Evaluates Gamma(1/p) * (p*n - (p-1))!^(p) / p**n in log space and
    exponentiates once, which keeps n up to ~50 usable before the final
    exp() overflows (propagated as OverflowError).
    """
    if not isinstance(arg, RationalArg):
        raise ValueError(f"gamma_rational expects a RationalArg, got {arg!r}")
    n, p = arg.n, arg.p
    mf = multifactorial(p * n - (p - 1), p)
    return math.exp(log_gamma(1.0 / p) + math.log(mf) - n * math.log(p))
