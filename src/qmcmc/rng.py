"""Small, fully specified pseudorandom generator for reproducible sampling.

Sampling results must be reproducible from a single integer seed, across
platforms and across independent implementations, so instead of an opaque
library generator we fix a tiny explicit one:

* Stream derivation (splitting): a shot with index ``s`` under master seed
  ``seed`` uses the initial state ``splitmix64(seed + s) mod 2**64`` (a state
  of 0 is replaced by the splitmix64 golden-ratio constant, since the
  xorshift state must be nonzero).
* Stream advance: xorshift64*, i.e. the state update
  ``s ^= s >> 12; s ^= s << 25; s ^= s >> 27`` followed by the output
  ``s * 0x2545F4914F6CDD1D`` (all mod 2**64).
* Uniform doubles: the top 53 bits of the output, ``(out >> 11) * 2**-53``,
  giving values in ``[0, 1)``.

All functions operate elementwise on uint64 arrays so that many independent
streams advance in lockstep.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_STAR = np.uint64(0x2545F4914F6CDD1D)
_INV_2_53 = 2.0 ** -53


def splitmix64(x):
    """One splitmix64 step applied elementwise; returns uint64 of same shape.

    All arithmetic wraps mod 2**64 by construction.
    """
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=np.uint64) + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def derive_streams(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Initial xorshift64* states for streams ``start .. start+count-1``."""
    base = np.uint64(seed % (1 << 64))
    idx = np.arange(start, start + count, dtype=np.uint64)
    states = splitmix64(base + idx)
    states[states == 0] = _GOLDEN
    return states


def next_uniform(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Advance every stream one step; returns (uniforms in [0,1), new states).

    ``states`` is a uint64 array, whose shifts, xors and products wrap mod
    2**64 without a warning, so no error-state block is needed here, unlike
    :func:`splitmix64`, which also takes scalars."""
    s = states ^ (states >> np.uint64(12))
    s = s ^ (s << np.uint64(25))
    s = s ^ (s >> np.uint64(27))
    return ((s * _STAR) >> np.uint64(11)).astype(np.float64) * _INV_2_53, s


class Stream:
    """A single sequential stream with the same bit behavior as the arrays."""

    def __init__(self, state: int):
        self._state = np.atleast_1d(np.uint64(state % (1 << 64)))
        if self._state[0] == 0:
            self._state[0] = _GOLDEN

    @classmethod
    def from_seed(cls, seed: int, index: int = 0) -> "Stream":
        return cls(int(derive_streams(seed + index, 1)[0]))

    def uniform(self) -> float:
        u, self._state = next_uniform(self._state)
        return float(u[0])
