"""Gamma-function machinery and the shared input validators of the package.

Everything downstream reduces to Gamma at positive real arguments.  gamma()
and log_gamma() validate theirs and call math.gamma and math.lgamma: within
8e-16 relative error on (0, 171.62] and 1e-14 (absolute near the zeros at 1
and 2) of 50-digit references.  Every ratio of Gammas goes through one kernel:
log_gamma_ratio(a, h), its excess over h log a, or its second difference.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

__all__ = [
    "GAMMA_OVERFLOW_Z",
    "RationalArg",
    "gamma",
    "log_gamma",
    "log_gamma_ratio",
    "log_gamma_ratio_excess",
    "log_gamma_second_difference",
    "log_norm_z",
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
_INF = math.inf
_STIRLING_FROM = 10.0  # the ratio kernels step a up to here, then difference Stirling's series
# B_2j / (2j (2j - 1)), j = 1..8: the coefficients of z**(1 - 2j) in that series (DLMF 5.11.1)
_STIRLING = (1/12, -1/360, 1/1260, -1/1680, 1/1188, -691/360360, 1/156, -3617/122400)


def require_count(name: str, value, minimum: int) -> None:
    """Check that value is an int (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def require_real(name: str, value, positive: bool = False) -> float:
    """Return value as a float after checking it is a finite real number (not
    a bool or numeric text), and strictly positive when positive is set."""
    if type(value) is float and (0.0 < value < _INF if positive else -_INF < value < _INF):
        return value  # an exact float that passes: float(value) is value itself
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


def log_gamma_ratio(a, h) -> float:
    """log Gamma(a + h) - log Gamma(a) for real a > 0, h >= 0.  ValueError as log_gamma
    raises it; OverflowError once the result, or h/a, exceeds the double range."""
    return _gamma_difference("log_gamma_ratio", a, h, "ratio")


def log_gamma_ratio_excess(a, h) -> float:
    """log Gamma(a + h) - log Gamma(a) - h log a, the log of Gamma(a + h) / (Gamma(a) a**h)
    (DLMF 5.11.13), without subtracting h log a: its relative digits survive where it is
    small, about h (h - 1) / (2a) at large a.  Errors as log_gamma_ratio's."""
    return _gamma_difference("log_gamma_ratio_excess", a, h, "excess")


def log_gamma_second_difference(a, h) -> float:
    """log Gamma(a + 2h) - 2 log Gamma(a + h) + log Gamma(a); errors as log_gamma_ratio's."""
    return _gamma_difference("log_gamma_second_difference", a, h, "second")


def _gamma_difference(name: str, a, h, kind: str) -> float:
    # Steps below b take their own terms.  A Stirling term z**-m has k-th difference k! (-h)**k
    # prod(y) h_(m-1)(y), y = 1/z, h_d the complete homogeneous symmetric polynomial.
    af = require_real(f"{name} argument a", a, positive=True)
    hf = require_real(f"{name} step h", h)
    if hf < 0.0:
        raise ValueError(f"{name} step h must be >= 0, got {h!r}")
    second = kind == "second"
    steps = max(0, math.ceil(_STIRLING_FROM - af))
    b = af + steps
    ys = [1.0 / b, 1.0 / (b + hf)] + [1.0 / (b + 2.0 * hf)] * second
    complete = [1.0] + [0.0] * (2 * len(_STIRLING) - 2)  # h_0 .. h_14 of ys
    for y in ys:
        for d in range(1, len(complete)):
            complete[d] += y * complete[d - 1]
    corrections = ((2.0 if second else -1.0) * ys[0] * math.prod(hf * y for y in ys[1:])
                   * sum(c * complete[2 * j] for j, c in enumerate(_STIRLING)))
    if second:
        out = (b - 0.5) * _log1m_square(b, hf) + 2.0 * hf * math.log1p(hf / (b + hf)) + corrections
        out -= math.fsum(_log1m_square(af + k, hf) for k in range(steps))
    elif kind == "excess":  # the ratio's terms less h log b = h log a + h sum log1p(1/(a + k))
        x, t = hf / b, hf / (2.0 * b + hf)  # log1p(x) = 2 atanh(t) and x - 2t = x t, so below
        # x = 1, log1p(x) - x = -x t + 2 t**3 sum t**2k / (2k + 3) with t <= 1/3
        log1p_minus_x = (math.log1p(x) - x if x > 1.0 else
                         2.0 * t**3 * sum(t ** (2 * k) / (2 * k + 3) for k in range(18)) - x * t)
        out = b * log1p_minus_x + (hf - 0.5) * math.log1p(x) + corrections
        # terms of one sign: sum, not fsum, which raises on an overflowing partial sum
        out -= sum(math.log1p(hf / (af + k)) - hf * math.log1p(1.0 / (af + k))
                   for k in range(steps))
    else:
        out = (b - 0.5) * math.log1p(hf / b) + hf * (math.log(b + hf) - 1.0) + corrections
        out -= math.fsum(math.log1p(hf / (af + k)) for k in range(steps))
    if not math.isfinite(out):
        raise OverflowError(f"{name}({a!r}, {h!r}) exceeds the double range")
    return out


@functools.lru_cache
def log_norm_z(beta: float) -> float:
    """log(beta / (2 Gamma(1/beta))), the log-normalizer of f_Z, cached per shape: the
    one copy behind the density kernels and the quadrature.  Callers pass float(beta),
    so a 0-d array or numpy scalar shape keys the same entry.

    From beta = 1 on it is -log 2 - log Gamma(1 + 1/beta), free of the cancellation
    of two logs that grow with beta (529 ulp at beta = 1e300).  Between 1 and 2 that
    log Gamma is -log_gamma_ratio(1 + 1/beta, 1 - 1/beta), as Gamma(2) = 1, away from
    lgamma's zero at 2.  8 ulp off at worst against 40-digit values.
    """
    if 1.0 < beta < 2.0:
        return -math.log(2.0) + log_gamma_ratio(1.0 + 1.0 / beta, 1.0 - 1.0 / beta)
    if beta >= 1.0:
        return -math.log(2.0) - log_gamma(1.0 + 1.0 / beta)
    return math.log(beta / 2.0) - log_gamma(1.0 / beta)


def _log1m_square(x: float, h: float) -> float:  # log(1 - v**2) at v = h/(x + h)
    v = h / (x + h)
    return math.log1p(-v * v) if v * v < 0.5 else math.log1p(v) - math.log1p(h / x)


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
