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
_11, _12, _25, _27 = map(np.uint64, (11, 12, 25, 27))


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
    """Initial xorshift64* states for streams ``start .. start+count-1``.

    Stream ``s`` of ``seed`` is seeded by ``splitmix64(seed + s)``, so it is
    stream ``s - 1`` of ``seed + 1``: N streams of seeds ``S`` and ``S + 1``
    share N - 1. Runs meant to be independent should step their seeds by at
    least their stream (shot) count."""
    base = np.uint64(seed % (1 << 64))
    idx = np.arange(start, start + count, dtype=np.uint64)
    states = splitmix64(base + idx)
    states[states == 0] = _GOLDEN
    return states


def next_uniforms(states: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance every stream ``count`` steps; returns the (count, *states.shape)
    uniforms in [0, 1), step by step, and the new states.

    The xorshift steps run in place in one uint64 buffer, whose rows are the
    states after each step; the ``_STAR`` product, the shift to 53 bits and
    the scaling then run once over the whole buffer. ``states`` is a uint64
    array, whose shifts, xors and products wrap mod 2**64 without a warning,
    so no error-state block is needed here, unlike :func:`splitmix64`, which
    also takes scalars."""
    out = np.empty((count, *np.shape(states)), dtype=np.uint64)
    scratch = np.empty(np.shape(states), dtype=np.uint64)
    s = states
    for row in out:
        np.right_shift(s, _12, out=row)
        row ^= s
        np.left_shift(row, _25, out=scratch)
        row ^= scratch
        np.right_shift(row, _27, out=scratch)
        row ^= scratch
        s = row
    s = s.copy()
    out *= _STAR
    out >>= _11
    return out.astype(np.float64) * _INV_2_53, s


def next_uniform(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Advance every stream one step; returns (uniforms in [0,1), new states):
    the one-step case of :func:`next_uniforms`."""
    u, s = next_uniforms(states, 1)
    return u[0], s


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
