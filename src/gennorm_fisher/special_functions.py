"""Gamma-function machinery for the generalized normal family.

Everything downstream (densities, moments, Fisher information) reduces to
evaluations of Gamma at positive real arguments, so this module carries the
accuracy budget for the whole package: gamma() is built to a relative error
of about 2e-15 on (0, 170], comfortably inside the 1e-13 contract asserted
by the tests.

The evaluation is a Lanczos approximation with g = 671/128 and 14
coefficients (the classic 9-term g=7 set has an intrinsic error near 1e-13,
too close to the contract to ship).  Two compositions of the usual formula

    Gamma(z) = sqrt(2*pi) * t**(z+0.5) * exp(-t) * S(z),   t = z + g + 0.5

lose a decade or two of accuracy: exponentiating log-gamma amplifies the
absolute log error, and pow(t/e, z+0.5) amplifies the rounding of t/e.
Instead we split the power into t**((z+0.5)/2) applied twice, keep exp(-t)
separate, and correct to first order for the rounding of BOTH sums
t = z + 5.2421875 and w = z + 0.5 (w is inexact whenever the sum crosses a
binade; uncorrected, that alone costs ~7e-14).  The residuals r, rw come
from exact Fast2Sum steps, and the correction factor is

    1 + r*(w/t - 1) + rw*ln(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "GAMMA_OVERFLOW_Z",
    "RationalArg",
    "gamma",
    "log_gamma",
    "multifactorial",
    "gamma_rational",
    "require_count",
]

# Lanczos coefficients for g = 671/128 = 5.2421875, n = 14 (double precision set).
_LANCZOS = (
    57.1562356658629235,
    -59.5979603554754912,
    14.1360979747417471,
    -0.491913816097620199,
    0.339946499848118887e-4,
    0.465236289270485756e-4,
    -0.983744753048795646e-4,
    0.158088703224912494e-3,
    -0.210264441724104883e-3,
    0.217439618115212643e-3,
    -0.164318106536763890e-3,
    0.844182239838527433e-4,
    -0.261908384015814087e-4,
    0.368991826595316234e-5,
)
_C0 = 0.999999999999997092
_SQRT_2PI = 2.5066282746310002  # sqrt(2*pi), correctly rounded
_G_PLUS_HALF = 5.2421875  # g + 0.5, exact in binary

# Largest argument with a finite double result: Gamma(171.62) is representable,
# Gamma(171.63) is not.  Integer arguments overflow one step earlier in the
# factorial sense: 170! fits, 171! does not.
GAMMA_OVERFLOW_Z = 171.62437695630271

_MAX_EXACT_FACTORIAL_ARG = 171  # gamma(171) = 170! is the last representable one


def require_count(name: str, value, minimum: int) -> None:
    """Check that value is an int (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _series(z: float) -> float:
    s = _C0
    y = z
    for c in _LANCZOS:
        y += 1.0
        s += c / y
    return s


def _residuals(z: float) -> tuple[float, float, float, float]:
    # Fast2Sum residuals of the two rounded sums used by the core formula.
    # Requires z >= 0.5 so the branch ordering below is the exact one.
    t = z + _G_PLUS_HALF
    r = (z - t) + _G_PLUS_HALF if z >= _G_PLUS_HALF else (_G_PLUS_HALF - t) + z
    w = z + 0.5
    rw = (z - w) + 0.5
    return t, r, w, rw


def _core(z: float) -> float:
    # Lanczos evaluation for z >= 0.5.
    t, r, w, rw = _residuals(z)
    p = math.pow(t, 0.5 * w)
    base = _SQRT_2PI * _series(z) / z
    # multiply the sub-unity factors in before the second p to stay in range
    # all the way up to the true overflow threshold
    val = ((p * math.exp(-t)) * base) * p
    return val * (1.0 + (r * (w / t - 1.0) + rw * math.log(t)))


def _core_log(z: float) -> float:
    t, r, w, rw = _residuals(z)
    out = w * math.log(t) - t + math.log(_SQRT_2PI * _series(z) / z)
    return out + (r * (w / t - 1.0) + rw * math.log(t))


def _check_domain(z, name: str) -> float:
    try:
        zf = float(z)
    except (TypeError, ValueError):
        raise ValueError(f"{name} requires a real argument, got {z!r}") from None
    if not math.isfinite(zf) or zf <= 0.0:
        raise ValueError(f"{name} is defined for finite z > 0, got {z!r}")
    return zf


def gamma(z) -> float:
    """Gamma(z) for real z > 0.

    Integer arguments return the correctly rounded (z-1)! while that is
    representable.  Raises ValueError for z <= 0 or non-finite z, and
    OverflowError once the result exceeds the double range (see
    GAMMA_OVERFLOW_Z).
    """
    zf = _check_domain(z, "gamma")
    if zf.is_integer():
        zi = int(zf)
        if zi <= _MAX_EXACT_FACTORIAL_ARG:
            return float(math.factorial(zi - 1))
        raise OverflowError(
            f"gamma({z!r}) exceeds the double range (finite only for z < {GAMMA_OVERFLOW_Z})"
        )
    try:
        # For z < 0.5 recurse up: the direct base factor sqrt(2pi)*S/z can
        # overflow for z below ~1.4e-308 even where Gamma(z) itself fits.
        val = _core(zf + 1.0) / zf if zf < 0.5 else _core(zf)
    except OverflowError:
        val = math.inf
    if math.isinf(val):
        raise OverflowError(
            f"gamma({z!r}) exceeds the double range (finite only for z < {GAMMA_OVERFLOW_Z})"
        )
    return val


def log_gamma(z) -> float:
    """ln Gamma(z) for real z > 0.

    Exactly 0.0 at the two zeros z = 1 and z = 2; elsewhere the same Lanczos
    core as gamma(), evaluated in log space so arguments far beyond the
    gamma() overflow threshold remain usable.
    """
    zf = _check_domain(z, "log_gamma")
    if zf == 1.0 or zf == 2.0:
        return 0.0
    if zf < 0.5:
        return _core_log(zf + 1.0) - math.log(zf)
    val = _core_log(zf)
    if math.isinf(val):
        raise OverflowError(f"log_gamma({z!r}) exceeds the double range")
    return val


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
