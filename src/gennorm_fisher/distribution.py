"""Zero-mean generalized normal family: density, sampling, and the quadrature
routes beside the exact moments (in exact).

The family is parameterized by a scale theta > 0 and a shape beta > 0:

    f(x) = beta / (2 * theta * Gamma(1/beta)) * exp(-|x/theta|^beta)

Laplace at beta = 1, Gaussian (with sigma^2 = theta^2/2) at beta = 2, and
pointwise convergence to the uniform density on [-theta, theta] as
beta -> infinity.  Its log-normalizer in z = x/theta is
special_functions.log_norm_z, which expect_power adds to every route itself.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator

import numpy as np

from .exact import GenNormParams, require_shape
from .quadrature import QuadResult, expect_power
from .quadrature import integrate_decaying  # noqa: F401  perfbench's tracer patches this name
from .special_functions import log_gamma  # noqa: F401  perfbench's tracer patches this name
from .special_functions import log_norm_z, require_count, require_real

__all__ = [
    "standardized_power",
    "log_pdf_z",
    "log_pdf",
    "pdf",
    "sample",
    "sample_power_trials",
    "trial_seed",
    "pdf_normalization",
    "abs_moment_quad",
]

# Integer shapes up to this one are raised by squaring.  A square costs about a
# tenth of a pow per element, but the error grows with the shape, about
# 0.7 (beta - 1) ulp at worst: at 8 it is at most 5 ulp from np.power, and
# the powers overflow and underflow at np.power's thresholds ulp for ulp.
_SQUARING_MAX = 8
_SEED_ROWS = 2048  # trial streams seeded per vectorized pass in sample_power_trials
_BLOCK_DRAWS = 1 << 15  # draws of the trials sample_power_trials finishes in one block
_GAUSSIAN = 2.0  # the shape drawn from the normal generator, not the boost
_SQRT_HALF = math.sqrt(0.5)


# Standardized-unit kernels: every quantity depends on x only through z = x/theta,
# and f(x) = f_Z(z)/theta.  A kernel takes an ndarray or a scalar (as a 0-d array),
# so scalar wrappers and vectorized callers run the same ufuncs and get the same bits.


def standardized_power(beta: float, z, out=None) -> np.ndarray:
    """|z|**beta as a new float64 array, or in out (z itself may be out); inf
    where it overflows.

    The one place the package raises a value to the power beta: every
    kernel and the MLE build their quantity from it, in place, and the
    experiment's trial terms from its in-place power (_raise), which takes
    values in (0, 1] and so needs neither the abs pass nor the overflow
    guard.  An integer beta up to 8 is raised by binary powering, in place:
    one square per bit after the leading one, and a product with |z| for
    each further set bit.  That is np.power itself at beta 1 and 2, and
    within beta ulp of it (5 ulp seen at beta 8) from 3 to 8; every other
    beta calls np.power.
    """
    p = np.absolute(z, out=np.empty(np.shape(z)) if out is None else out)
    with np.errstate(over="ignore"):
        return _raise(p, beta)


def _raise(p: np.ndarray, beta: float) -> np.ndarray:
    """p**beta in place, for p >= 0, by standardized_power's rule; returns p."""
    b = float(beta)
    if b.is_integer() and 1.0 <= b <= _SQUARING_MAX:
        k = int(b)
        base = p.copy() if k & (k - 1) else None  # p, for the set bits
        for bit in bin(k)[3:]:
            np.square(p, out=p)
            if bit == "1":
                p *= base
    else:
        np.power(p, b, out=p)
    return p


def log_pdf_z(beta: float, z) -> np.ndarray:
    """log f_Z(z) = log(beta/2) - log Gamma(1/beta) - |z|^beta (-inf where the power overflows)."""
    p = standardized_power(beta, z)
    return np.subtract(log_norm_z(float(beta)), p, out=p)


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


def sample(params: GenNormParams, count: int, seed: int) -> np.ndarray:
    """Draw count independent variates, deterministically in (params, count, seed).

    Construction: |X| = theta * G**(1/beta) with G ~ Gamma(1/beta, scale 1),
    and an independent equiprobable sign.  The generator depends on the
    shape alone.  At beta <= 1, G is drawn directly (numpy draws Gamma(1),
    the Laplace shape, as an exponential).  At beta = 2, the Gaussian shape,
    X = theta * Z / sqrt(2) with Z a standard normal, one draw per variate,
    sign and all.  At every other beta > 1 the gamma shape is below 1, so G
    comes from the boost G = G1 * U**beta with G1 ~ Gamma(1 + 1/beta);
    folding the U power into the magnitude gives

        |X| = theta * U * G1**(1/beta)

    which stays well-scaled for arbitrarily large beta (it tends to the
    uniform theta*U).  Every draw comes from one SFC64 stream, seeded by
    SeedSequence(seed, spawn_key=(0,)): the magnitudes' draws first and the
    signs last (at beta = 2 the normals are the only draws), so |x| depends
    only on the draws before the signs, the stream each trial of
    sample_power_trials draws.  A boosted shape holds its uniforms in a
    second buffer of count doubles, freed before the signs are drawn.  A
    draw past the double range (G**(1/beta) at beta = 0.005, or theta near
    the largest double) raises OverflowError naming theta and beta.
    """
    require_count("count", count, 1)
    require_count("seed", seed, 0)
    beta = params.beta
    x = np.empty(count)
    w = np.empty(count) if _boosted(beta) else None  # the boost's 1 - U
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(0,))))
    _draw_variates(x, w, rng, beta)
    with np.errstate(over="ignore"):  # an overflow is raised below, naming its inputs
        if beta == _GAUSSIAN:
            x *= _SQRT_HALF  # X/theta = N(0, 1) / sqrt(2)
        else:
            x **= 1.0 / beta
            if w is not None:
                x *= np.subtract(1.0, w, out=w)
        # theta enters in exactly one multiply and signs are exact, so
        # samples scale bit-for-bit with theta
        x *= params.theta
    del w  # folded in: its buffer is free before the signs are drawn
    # the one finite check, before any sign is drawn; the normals reach
    # their largest magnitude at either end
    if not math.isfinite(max(x.max(), -x.min())):
        raise OverflowError(
            f"a draw overflows the double range at theta={params.theta!r}, beta={beta!r}")
    if beta != _GAUSSIAN:  # the normals carry their own signs
        signs = rng.integers(0, 2, size=count)
        signs *= 2
        signs -= 1
        x *= signs
    return x


def trial_seed(seed: int, trial: int) -> int:
    """The documented per-trial seed split: SeedSequence(seed, spawn_key=(trial,)).

    sample_power_trials derives the same seeds for a block of trials at once;
    this is the one-trial view, to reproduce a trial in isolation.
    """
    require_count("seed", seed, 0)
    require_count("trial", trial, 0)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return int(ss.generate_state(1, np.uint64)[0])


def sample_power_trials(
    beta: float, count: int, seed: int, trials: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (m, p) for the trials in order, a block of them at a time: m of
    shape (r,) and p of shape (r, count), row i the draws of the block's i-th
    trial as standardized powers, with sum |x_j/theta|**beta equal to
    m[i]**beta * p[i].sum() up to rounding and 0 < m[i] <= 1.  The CRLB
    experiment takes every trial, the Monte Carlo information route trial 0.

    A block holds max(1, min(trials, 2**15 // count)) trials (_BLOCK_DRAWS),
    the last one those left over.  Trial t draws the stream of
    sample(GenNormParams(theta, beta), count, trial_seed(seed, t)) at any
    theta, up to its signs, in the same order, with sample's generator for
    the shape; only the finish differs, once per block.  The trial seeds and
    their streams' seed words are derived a block of trials at a time (the
    seeding module).
    For a boosted shape (beta > 1, beta != 2), |X/theta|**beta =
    G * (1 - U)**beta exactly (G ~ Gamma(1 + 1/beta)), so p_j =
    G_j * ((1 - U_j)/m)**beta with m = max(1 - U_j) over the trial: one
    power per draw, no root taken and raised back, and no theta.  Each p_j
    is at most its G_j, and the one at m equals it, so no term overflows
    and no trial's sum underflows at any beta.  At beta = 2, m = 1 and
    p_j = z_j**2 * 0.5 from standard normals; at beta <= 1, m = 1 and p
    holds the gammas G ~ Gamma(1/beta).  p is a view of one buffer that
    every yield refills.  Arguments are checked at the call, beta by
    require_shape.
    """
    bf = require_shape(beta)
    require_count("count", count, 1)
    require_count("seed", seed, 0)
    require_count("trials", trials, 0)
    rows = max(1, min(trials, _BLOCK_DRAWS // count))
    g = np.empty((rows, count))
    w = np.empty((rows, count)) if _boosted(bf) else None  # all of 1 - U: m is their max
    streams = _trial_streams(seed, trials)
    return (_powers(g[:r], None if w is None else w[:r], bf, streams)
            for r in (min(rows, trials - first) for first in range(0, trials, rows)))


def _trial_streams(seed: int, trials: int):
    """Trial t's generator: SFC64 on SeedSequence(trial_seed(seed, t), spawn_key=(0,)),
    sample's stream, its seed words derived a block of trials at a time."""
    from . import seeding  # on first use: it imports numpy.random, which most callers never need

    for first in range(0, trials, _SEED_ROWS):
        seeds = seeding.trial_seeds(seed, np.arange(first, min(first + _SEED_ROWS, trials)))
        for words in seeding.stream_words(seeds, np.zeros_like(seeds)):
            yield np.random.Generator(np.random.SFC64(seeding.SeedWords(words)))


def _powers(g: np.ndarray, w, beta: float, streams) -> tuple[np.ndarray, np.ndarray]:
    """One block of sample_power_trials: row i's draws, from the next trial's
    stream, into g[i] and w[i], then the block's terms into g.

    The finish needs no abs pass and no overflow guard: w/m lies in (0, 1],
    and a normal's square is far inside the double range.
    """
    for row, rng in zip(range(len(g)), streams):  # range first: the next block's trial stays
        _draw_variates(g[row], None if w is None else w[row], rng, beta)
    if beta == _GAUSSIAN:  # |X/theta|**2 = z**2 / 2
        np.square(g, out=g)
        g *= 0.5
    if w is None:
        return np.ones(len(g)), g
    np.subtract(1.0, w, out=w)  # the whole block's 1 - U at once
    m = w.max(axis=1)
    w /= m[:, None]
    g *= _raise(w, beta)
    return m, g


def _boosted(beta: float) -> bool:
    """Whether the shape draws through the boost, and so a uniform per variate."""
    return beta > 1.0 and beta != _GAUSSIAN


def _draw_variates(x, w, rng, beta: float) -> None:
    """Draw the variates into x and then, for a boosted shape (w not None),
    the boost's uniforms U into w: every draw but the signs, in stream
    order.  The caller takes 1 - U, in (0, 1] (no log or pow of exact zero).

    The generator depends on the shape alone: at beta = 2, standard normals
    z, one draw per variate, with |X/theta| = |z|/sqrt(2) (the normal's
    ziggurat costs about half the boost); at beta <= 1, the gammas
    G ~ Gamma(1/beta) (numpy draws Gamma(1) as an exponential); at every
    other shape the boost's G1 ~ Gamma(1 + 1/beta) and then U.

    Built in place in x and w: a fresh array per step let a loop of calls
    (the CRLB experiment) return heap pages to the system and fault them
    back in.
    """
    if beta == _GAUSSIAN:
        rng.standard_normal(out=x)
        return
    rng.standard_gamma(1.0 + 1.0 / beta if beta > 1.0 else 1.0 / beta, out=x)
    if w is not None:
        rng.random(out=w)


def pdf_normalization(params: GenNormParams, abs_tol: float = 1e-11) -> QuadResult:
    """Quadrature of the density over the real line (should be 1).

    The integral is dimensionless, so it is taken in z = x/theta directly.
    """
    return expect_power(None, params.beta, abs_tol=abs_tol)


def abs_moment_quad(params: GenNormParams, order: float, rel_tol: float = 1e-11) -> QuadResult:
    """Quadrature of E[|X|^order], the numerical route next to the exact formulas.

    Integrates theta^order * |z|^order against f_Z, with both factors taken
    through their logarithms, so the result is finite wherever E|X|^order is
    (E|Z|^order alone can overflow: 4e550 at beta 4, order 1100); a
    QuadratureError carries its partial value in x units too.  order is a
    finite real number >= 0 (not a bool or text); ValueError otherwise.
    Raises OverflowError where E|X|^order exceeds the double range, and
    ValueError where it falls below the normal doubles, as FisherEstimate does.
    """
    of = require_real("order", order)
    if of < 0.0:
        raise ValueError(f"order must be finite and >= 0, got {order!r}")
    beta = params.beta
    res = expect_power(None, beta, exponent=of / beta, log_unit=of * math.log(params.theta),
                       rel_tol=rel_tol)
    if res.value < sys.float_info.min:
        raise ValueError(f"E|X|^{of!r} at theta={params.theta!r}, beta={beta!r} is "
                         f"{res.value!r}, below the normal doubles")
    return res
