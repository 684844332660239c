"""Deterministic pseudo-randomness for sampled experiments.

Everything random in this package flows from a single 64-bit seed through
named sub-streams.  The generator is the SplitMix64 update (additive
constant 0x9E3779B97F4A7C15 followed by a 64-bit finalizer), used in
counter mode so that any output word can be produced independently of the
others.  Counter mode is what makes sampled builds reproducible under any
work split: a worker that owns stratum i draws exactly the words
mix(stream_state + j * GAMMA) for its own j range, no matter how many
workers there are.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GAMMA64",
    "mix64",
    "mix64_array",
    "stream_seed",
    "SplitMix64",
]

GAMMA64 = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

# FNV-1a, used only to fold stream names into the seed.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a64(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK
    return h


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a single 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def mix64_array(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized SplitMix64 finalizer (uint64 in, uint64 out).

    out, a uint64 array of z's shape, receives the result in place of a
    fresh copy.
    """
    if out is None:
        z = z.astype(np.uint64, copy=True)
    else:
        out[...] = z
        z = out
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


def stream_seed(seed: int, name: str) -> int:
    """Derive the state of the named sub-stream from the master seed.

    The name is conventionally "<experiment>.<module>" so that two modules
    inside one experiment never share a stream.
    """
    return mix64((seed ^ _fnv1a64(name)) & _MASK)


class SplitMix64:
    """Counter-mode SplitMix64 stream.

    ``word(j)`` returns output j of the stream without advancing shared
    state, so blocks of outputs can be produced in any order.
    """

    def __init__(self, seed: int, name: str = ""):
        self.state = stream_seed(seed, name) if name else (seed & _MASK)

    def word(self, j: int) -> int:
        return mix64((self.state + (j + 1) * GAMMA64) & _MASK)

    def words(self, start: int, count: int) -> np.ndarray:
        """Outputs start .. start+count-1 as a uint64 array."""
        idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z = np.uint64(self.state) + idx * np.uint64(GAMMA64)
        return mix64_array(z)

    def uniform(self, start: int, count: int) -> np.ndarray:
        """count floats in [0, 1) from the given counter offset."""
        return (self.words(start, count) >> np.uint64(11)) * 2.0**-53

    def integers(self, start: int, count: int, bound: int) -> np.ndarray:
        """count integers in [0, bound) from the given counter offset.

        Plain modulo; the bias is ~bound/2^64 and irrelevant at the
        bounds used here (digit alphabets, grid sizes).
        """
        return (self.words(start, count) % np.uint64(bound)).astype(np.int64)

    def derive(self, name: str) -> "SplitMix64":
        child = SplitMix64(0)
        child.state = stream_seed(self.state, name)
        return child
