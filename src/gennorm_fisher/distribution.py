"""Zero-mean generalized normal family: density, exact moments, sampling.

The family is parameterized by a scale theta > 0 and a shape beta > 0:

    f(x) = beta / (2 * theta * Gamma(1/beta)) * exp(-|x/theta|^beta)

Laplace at beta = 1, Gaussian (with sigma^2 = theta^2/2) at beta = 2, and
pointwise convergence to the uniform density on [-theta, theta] as
beta -> infinity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadResult, expect_power
from .quadrature import integrate_decaying  # noqa: F401  perfbench's tracer patches this name
from .special_functions import log_gamma, require_count, require_real

__all__ = [
    "GenNormParams",
    "MomentSpec",
    "standardized_power",
    "log_norm_z",
    "log_pdf_z",
    "pdf_z",
    "log_pdf",
    "pdf",
    "exact_moment",
    "expected_abs_moment",
    "sample",
    "pdf_normalization",
    "abs_moment_quad",
    "require_count",
    "require_even_shape",
    "require_real",
]

_SAMPLE_CHUNK = 1 << 18  # fixed chunking keeps parallel generation deterministic


@dataclass(frozen=True)
class GenNormParams:
    """Scale theta and shape beta, both strictly positive and finite."""

    theta: float
    beta: float

    def __post_init__(self):
        for name in ("theta", "beta"):
            object.__setattr__(self, name, require_real(name, getattr(self, name), positive=True))


@dataclass(frozen=True)
class MomentSpec:
    """Moment order k >= 0 and the parameters to evaluate it under."""

    k: int
    params: GenNormParams

    def __post_init__(self):
        require_count("moment order k", self.k, 0)


def require_even_shape(beta) -> int:
    """Return beta as an int after checking it is a positive even integer."""
    bf = float(beta)
    if not math.isfinite(bf) or bf <= 0.0 or not bf.is_integer() or int(bf) % 2 != 0:
        raise ValueError(f"shape beta must be a positive even integer, got {beta!r}")
    return int(bf)


# Standardized-unit kernels: every quantity depends on x only through z = x/theta,
# and f(x) = f_Z(z)/theta.  A kernel takes an ndarray or a scalar (as a 0-d array),
# so scalar wrappers and vectorized callers run the same ufuncs and get the same bits.


def standardized_power(beta: float, z) -> np.ndarray:
    """|z|**beta as a new float64 array; inf where it overflows.

    The one place the package raises |x/theta| to the power beta: every
    kernel builds its quantity from this value, in place.
    """
    p = np.absolute(z, out=np.empty(np.shape(z)))
    with np.errstate(over="ignore"):
        np.power(p, beta, out=p)
    return p


@functools.lru_cache
def log_norm_z(beta: float) -> float:
    """log(beta / (2 Gamma(1/beta))), the log-normalizer of f_Z.

    The one copy behind the density kernels and the quadrature routes.
    Cached: a pure function of beta, taken once per shape rather than once
    per kernel call or quadrature pass.  Callers pass float(beta), so a 0-d
    array or numpy scalar shape keys the same entry.
    """
    return math.log(beta / 2.0) - log_gamma(1.0 / beta)


def log_pdf_z(beta: float, z) -> np.ndarray:
    """log f_Z(z) = log(beta/2) - log Gamma(1/beta) - |z|^beta (-inf where the power overflows)."""
    p = standardized_power(beta, z)
    return np.subtract(log_norm_z(float(beta)), p, out=p)


def pdf_z(beta: float, z) -> np.ndarray:
    """Standardized density f_Z(z) = beta / (2 Gamma(1/beta)) * exp(-|z|^beta)."""
    p = standardized_power(beta, z)
    np.subtract(log_norm_z(float(beta)), p, out=p)
    return np.exp(p, out=p)


def log_pdf(params: GenNormParams, x) -> float:
    """log f(x): log(beta/2) - log(theta) - log Gamma(1/beta) - |x/theta|^beta.

    -inf when the power term overflows double precision (the true density
    underflows to zero there anyway).
    """
    z = require_real("x", x) / params.theta
    return float(log_pdf_z(params.beta, z)) - math.log(params.theta)


def pdf(params: GenNormParams, x) -> float:
    """Density exp(log_pdf); symmetric in x bit-for-bit since |x| enters first."""
    return math.exp(log_pdf(params, x))


def exact_moment(spec: MomentSpec) -> float:
    """E[X^k]: 0 for odd k, theta^k * Gamma((k+1)/beta) / Gamma(1/beta) for even k.

    The even branch runs through log_gamma differences and a single exp so
    large k stays finite as long as the result itself is representable;
    beyond that the exp raises OverflowError.
    """
    if spec.k % 2 == 1:
        return 0.0
    p = spec.params
    return math.exp(
        spec.k * math.log(p.theta) + log_gamma((spec.k + 1) / p.beta) - log_gamma(1.0 / p.beta)
    )


def expected_abs_moment(params: GenNormParams) -> float:
    """E[|X|^beta] = theta^beta / beta, for positive even integer beta.

    Kept separate from exact_moment on purpose: this is the short route that
    needs even beta, while exact_moment(k=beta) is the general gamma-ratio
    route.  Their equality is asserted in tests, not assumed here.
    """
    b = require_even_shape(params.beta)
    return params.theta**b / b


def sample(params: GenNormParams, count: int, seed: int) -> np.ndarray:
    """Draw count independent variates, deterministically in (params, count, seed).

    Construction: |X| = theta * G**(1/beta) with G ~ Gamma(1/beta, scale 1),
    and an independent equiprobable sign.  For beta > 1 the gamma shape is
    below 1, so G comes from the boost G = G1 * U**beta with
    G1 ~ Gamma(1 + 1/beta); folding the U power into the magnitude gives

        |X| = theta * U * G1**(1/beta)

    which stays well-scaled for arbitrarily large beta (it tends to the
    uniform theta*U).  Streams are PCG64 seeded via SeedSequence(seed); the
    index space is cut into fixed 2**18 chunks with spawned child seeds, so
    any parallel execution of chunks reproduces this exact output.
    """
    require_count("count", count, 1)
    require_count("seed", seed, 0)
    theta, beta = params.theta, params.beta
    inv_beta = 1.0 / beta
    n_chunks = (count + _SAMPLE_CHUNK - 1) // _SAMPLE_CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    out = np.empty(count, dtype=np.float64)
    for i, child in enumerate(children):
        lo = i * _SAMPLE_CHUNK
        hi = min(lo + _SAMPLE_CHUNK, count)
        m = hi - lo
        rng = np.random.Generator(np.random.PCG64(child))
        # Built in place in its slice of out, one chunk-sized temporary at a
        # time: a fresh array per step let a loop of calls (the CRLB
        # experiment) return heap pages to the system and fault them back in.
        x = out[lo:hi]
        rng.standard_gamma(1.0 + inv_beta if beta > 1.0 else inv_beta, out=x)
        x **= inv_beta
        if beta > 1.0:
            u = rng.random(m)
            x *= np.subtract(1.0, u, out=u)  # (0, 1], avoids log/pow of exact zero
            del u
        signs = rng.integers(0, 2, size=m)
        signs *= 2
        signs -= 1
        # theta enters in exactly one multiply and signs are exact, so
        # samples scale bit-for-bit with theta
        x *= theta
        x *= signs
    return out


def pdf_normalization(params: GenNormParams, abs_tol: float = 1e-11) -> QuadResult:
    """Quadrature of the density over the real line (should be 1).

    The integral is dimensionless, so it is taken in z = x/theta directly.
    """
    beta = params.beta
    return expect_power(None, beta, log_unit=log_norm_z(beta), abs_tol=abs_tol)


def abs_moment_quad(params: GenNormParams, order: float, rel_tol: float = 1e-11) -> QuadResult:
    """Quadrature of E[|X|^order], the numerical route next to the exact formulas.

    Integrates theta^order * |z|^order against f_Z, with both factors taken
    through their logarithms, so the result is finite wherever E|X|^order is
    (E|Z|^order alone can overflow: 4e550 at beta 4, order 1100); a
    QuadratureError carries its partial value in x units too.  Raises
    OverflowError where E|X|^order itself exceeds the double range.
    """
    if not (order >= 0.0 and math.isfinite(order)):
        raise ValueError(f"order must be finite and >= 0, got {order!r}")
    beta = params.beta
    return expect_power(
        None, beta, exponent=order / beta,
        log_unit=log_norm_z(beta) + order * math.log(params.theta), rel_tol=rel_tol,
    )
