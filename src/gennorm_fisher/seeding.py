"""numpy's SeedSequence hash, run elementwise over many streams at once.

SeedSequence(entropy, spawn_key=(key,)) hashes its entropy and spawn key
into a pool of four uint32 words and hashes the pool out again.  Its hash
constants do not depend on the data, so the same steps run on uint32 arrays
with one element per stream.  seed_words reproduces that hash bit for bit;
SFC64's own seeding stays in numpy, which receives the words through
SeedWords.

distribution imports this module on first use, so importing the package
does not import numpy.random.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["SeedWords", "seed_words", "stream_words", "trial_seeds"]

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hashing the pool out
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def seed_words(entropy, keys: np.ndarray, n_words: int) -> np.ndarray:
    """Row j: SeedSequence(entropy_j, spawn_key=(keys[j],)).generate_state(n_words).

    entropy is one non-negative int shared by all rows (any size) or a
    uint64 array with one value per row; keys is an integer array, each
    below 2**32 (one word, as numpy encodes it).  Returns uint32 words of
    shape (rows, n_words).  A negative or non-integer entropy is a ValueError,
    where numpy's SeedSequence raises too.
    """
    if isinstance(entropy, np.ndarray):
        ok = entropy.dtype.kind == "u" or entropy.dtype.kind == "i" and not (entropy < 0).any()
    else:
        ok = isinstance(entropy, (int, np.integer)) and entropy >= 0
    if not ok:  # a negative int would never shift down to 0 in _hash_columns
        raise ValueError(f"entropy must be non-negative integers, got {entropy!r}")
    if np.count_nonzero(keys >> 32):  # also a negative key, whose shift is -1
        raise ValueError("spawn keys must be in [0, 2**32)")
    return np.stack(_hash_columns(entropy, keys.astype(np.uint32), n_words), axis=-1)


def trial_seeds(seed: int, trials: np.ndarray) -> np.ndarray:
    """trial_seed(seed, t) for every t in trials, as uint64."""
    return _as_uint64(seed_words(seed, trials, 2))[:, 0]


def stream_words(entropy, keys: np.ndarray) -> np.ndarray:
    """SFC64's seed, SeedSequence(...).generate_state(3, np.uint64), per row."""
    return _as_uint64(seed_words(entropy, keys, 6))


class SeedWords(ISeedSequence):
    """One stream's precomputed SFC64 seed words, from a row of stream_words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # SFC64 asks for exactly this; anything else has no words here
        if n_words != 3 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds 3 uint64 words, not {n_words} of {np.dtype(dtype)}")
        return self.words


def _hash_constants(h: int, mult: int) -> Iterator[tuple[int, int]]:
    while True:
        nxt = h * mult & _MASK32
        yield h, nxt
        h = nxt


def _hashmix(value, constants):
    # value is a Python int or a uint32 array; numpy's uint32 products wrap,
    # and the mask does the same for Python ints
    xor, mul = next(constants)
    value = (value ^ xor) * mul & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    r = (_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32) & _MASK32
    return r ^ r >> 16


def _hash_columns(entropy, key: np.ndarray, n_words: int) -> list[np.ndarray]:
    """The n_words output words of the hash, each a uint32 array with one
    element per key."""
    if isinstance(entropy, np.ndarray):
        lo_hi = entropy.astype("<u8").view("<u4").reshape(-1, 2)
        words = [lo_hi[:, 0], lo_hi[:, 1]]
    else:  # numpy's little-endian split into 32-bit words
        e = int(entropy)
        words = [e & _MASK32]
        while e := e >> 32:
            words.append(e & _MASK32)
    # a spawn key pads the entropy with zeros to the pool size, then follows it
    words += [0] * (4 - len(words))
    words.append(key)
    a = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(w, a) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], a))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(w, a))
    b = _hash_constants(_INIT_B, _MULT_B)
    return [_hashmix(pool[i % 4], b) for i in range(n_words)]


def _as_uint64(words: np.ndarray) -> np.ndarray:
    """Pairs of uint32 words as uint64, as generate_state(..., np.uint64) joins them."""
    return words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
