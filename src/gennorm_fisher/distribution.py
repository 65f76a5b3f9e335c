"""Zero-mean generalized normal family: density, sampling, and the quadrature
routes beside the exact moments (defined in exact, re-exported here).

The family is parameterized by a scale theta > 0 and a shape beta > 0:

    f(x) = beta / (2 * theta * Gamma(1/beta)) * exp(-|x/theta|^beta)

Laplace at beta = 1, Gaussian (with sigma^2 = theta^2/2) at beta = 2, and
pointwise convergence to the uniform density on [-theta, theta] as
beta -> infinity.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator

import numpy as np

from .exact import GenNormParams, MomentSpec, exact_moment, require_even_shape
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
    "sample_abs",
    "sample_abs_trials",
    "trial_seed",
    "pdf_normalization",
    "abs_moment_quad",
    "require_count",
    "require_even_shape",
    "require_real",
]

_SAMPLE_CHUNK = 1 << 18  # fixed chunking keeps parallel generation deterministic
_SEED_ROWS = 2048  # (trial, chunk) streams seeded per vectorized pass in sample_abs_trials


# Standardized-unit kernels: every quantity depends on x only through z = x/theta,
# and f(x) = f_Z(z)/theta.  A kernel takes an ndarray or a scalar (as a 0-d array),
# so scalar wrappers and vectorized callers run the same ufuncs and get the same bits.


def standardized_power(beta: float, z, out=None) -> np.ndarray:
    """|z|**beta as a new float64 array, or in out (z itself may be out); inf
    where it overflows.

    The one place the package raises |x/theta| to the power beta: every
    kernel builds its quantity from this value, in place.
    """
    p = np.absolute(z, out=np.empty(np.shape(z)) if out is None else out)
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
    index space is cut into fixed 2**18 chunks, chunk i seeded by
    SeedSequence(seed, spawn_key=(i,)) (the i-th child of SeedSequence(seed)),
    so any parallel execution of chunks reproduces this exact output.  Each
    chunk draws its magnitudes first and its signs last, so sample_abs, which
    stops before the signs, returns |sample(...)| bit for bit.
    """
    return _draw(params, count, seed, signed=True)


def sample_abs(params: GenNormParams, count: int, seed: int) -> np.ndarray:
    """|sample(params, count, seed)|, bit for bit, without drawing the signs.

    For callers that use only |x| (the MLE, the score).
    """
    return _draw(params, count, seed, signed=False)


def trial_seed(seed: int, trial: int) -> int:
    """The documented per-trial seed split: SeedSequence(seed, spawn_key=(trial,)).

    sample_abs_trials derives the same seeds for a block of trials at once;
    this is the one-trial view, to reproduce a trial in isolation.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return int(ss.generate_state(1, np.uint64)[0])


def sample_abs_trials(
    params: GenNormParams, count: int, seed: int, trials: int
) -> Iterator[np.ndarray]:
    """For t in range(trials), yield sample_abs(params, count, trial_seed(seed, t)),
    bit for bit, in one buffer that every yield refills.

    The streams are those of sample_abs; only their seeding is batched: the
    trial seeds and every trial's chunk seed words are derived a block of
    trials at a time in vectorized passes (the seeding module), so the
    per-trial work is the draws alone.  Arguments are checked once, at the
    call.
    """
    require_count("count", count, 1)
    require_count("seed", seed, 0)
    require_count("trials", trials, 0)
    return _trial_draws(params, count, seed, trials)


def _draw(params: GenNormParams, count: int, seed: int, signed: bool) -> np.ndarray:
    require_count("count", count, 1)
    require_count("seed", seed, 0)
    streams = (np.random.SeedSequence(seed, spawn_key=(i,)) for i in itertools.count())
    return _fill(np.empty(count), params, streams, _uniform_scratch(params, count), signed)


def _trial_draws(params: GenNormParams, count: int, seed: int, trials: int):
    from . import seeding  # on first use: it imports numpy.random, which most callers never need

    out = np.empty(count)
    chunks = len(range(0, count, _SAMPLE_CHUNK))
    scratch = _uniform_scratch(params, count)
    block = max(1, _SEED_ROWS // chunks)
    for first in range(0, trials, block):
        seeds = seeding.trial_seeds(seed, np.arange(first, min(first + block, trials)))
        keys = np.tile(np.arange(chunks), seeds.size)
        words = seeding.stream_words(np.repeat(seeds, chunks), keys)
        for trial_words in words.reshape(seeds.size, chunks, 4):
            yield _fill(out, params, map(seeding.SeedWords, trial_words), scratch)


def _fill(out: np.ndarray, params: GenNormParams, streams, scratch, signed: bool = False):
    """Fill out chunk by chunk and return it: chunk i is drawn from a PCG64
    seeded by the i-th seed source of streams, its magnitudes first and then,
    if signed, its signs."""
    for lo, stream in zip(range(0, out.size, _SAMPLE_CHUNK), streams):  # streams may be endless
        rng = np.random.Generator(np.random.PCG64(stream))
        x = out[lo:lo + _SAMPLE_CHUNK]
        _draw_magnitudes(x, rng, params, scratch)
        if signed:  # the last draw on the chunk's stream: skipping it changes no magnitude
            signs = rng.integers(0, 2, size=x.size)
            signs *= 2
            signs -= 1
            x *= signs
    return out


def _uniform_scratch(params: GenNormParams, count: int) -> np.ndarray | None:
    """The buffer the boost's uniforms are drawn into (beta > 1 only), one per call."""
    return np.empty(min(count, _SAMPLE_CHUNK)) if params.beta > 1.0 else None


def _draw_magnitudes(x, rng, params: GenNormParams, scratch) -> None:
    """Fill x with the chunk magnitudes drawn from rng.

    Built in place in x, with the uniforms in scratch: a fresh array per step
    let a loop of calls (the CRLB experiment) return heap pages to the system
    and fault them back in.
    """
    beta = params.beta
    inv_beta = 1.0 / beta
    rng.standard_gamma(1.0 + inv_beta if beta > 1.0 else inv_beta, out=x)
    x **= inv_beta
    if beta > 1.0:
        u = rng.random(out=scratch[:x.size])
        x *= np.subtract(1.0, u, out=u)  # (0, 1], avoids log/pow of exact zero
    # theta enters in exactly one multiply and signs are exact, so
    # samples scale bit-for-bit with theta
    x *= params.theta


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
