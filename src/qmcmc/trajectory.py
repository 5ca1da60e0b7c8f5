"""Shot-based stochastic unraveling of the thermalization protocol.

Every trajectory is a pure state on the N_s + M composite register. One
period applies, in order:

1. reset: each ancilla (ascending index) is measured in the computational
   basis (one uniform draw per ancilla, outcome 1 when ``u < P(1)``); the
   state is collapsed and renormalized, and outcome-1 ancillas are flipped
   back to ``|0>``;
2. excitation: each ancilla (ascending index) receives an X gate with
   probability ``1 - p0(t_k)``, one uniform draw per ancilla;
3. the period unitary ``W(Omega_k)``, as one product of the amplitude batch
   with the matrix the channel module builds for the exact cycle map. Each
   distinct comb value's ``W`` is built once per run, before any batch
   starts, and is only read afterwards.

Averaged over trajectories, steps 1-2 reproduce the reset-plus-excitation
preparation of the channel module. ``W`` is the power of one Trotter step
by repeated squaring, which matches applying the steps one by one to
roundoff, so seeded samples are those of step-by-step application unless a
uniform lands within roundoff of a branch probability.

Randomness comes exclusively from the fixed generator in :mod:`qmcmc.rng`;
shot ``s`` under master seed ``seed`` owns the stream seeded by
``splitmix64(seed + s)`` and consumes, in order: one draw for its initial
basis state, ``2 M`` draws per period, and one draw for the terminal
measurement. Shots are therefore independent of how they are batched, and
identical ``(spec, cfg, seed)`` reproduce identical samples bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _period_table, _thread_map
from .errors import NormalizationLoss
from .hamiltonians import HamiltonianSpec
from .rng import derive_streams, next_uniform
from .schedule import ProtocolConfig, ground_probability

# shots per batch are capped so a batch stays around 2^22 amplitudes
_CHUNK_ELEMS = 1 << 22


@dataclass(frozen=True)
class SampleSet:
    """Measured computational-basis outcomes (bitstring keys, qubit 0 first)."""

    counts: dict[str, int]
    shots: int
    seed: int

    def probabilities(self) -> np.ndarray:
        n = len(next(iter(self.counts)))
        p = np.zeros(2**n)
        for key, c in self.counts.items():
            p[int(key, 2)] = c / self.shots
        return p


def _renormalize(amps: np.ndarray) -> None:
    norms = np.linalg.norm(amps, axis=1)
    if norms.min() <= 1e-150:
        raise NormalizationLoss("trajectory collapsed onto a zero-probability branch")
    amps /= norms[:, np.newaxis]


def _apply_unitary(amps: np.ndarray, w: np.ndarray) -> np.ndarray:
    # BLAS takes a one-row product through gemv, which rounds differently from
    # the gemm of wider batches; a duplicated row keeps a shot's amplitudes
    # independent of the batch it runs in
    if amps.shape[0] == 1:
        return (np.concatenate([amps, amps]) @ w.T)[:1]
    return amps @ w.T


def _period(amps: np.ndarray, states: np.ndarray, w: np.ndarray, p0: float,
            m_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance a batch of trajectories by one interaction period with period
    unitary ``w`` and ancilla ground probability ``p0`` (reset and flips write
    into the amplitude buffer; a fresh buffer is returned)."""
    amps = np.ascontiguousarray(amps)  # reset/flip phases write through views
    batch = amps.shape[0]
    for m in range(m_count):
        view = amps.reshape(batch, -1, 2, 2**(m_count - 1 - m))
        p_one = np.abs(view[:, :, 1, :]) ** 2
        p_one = p_one.sum(axis=(1, 2))
        u, states = next_uniform(states)
        got_one = u < p_one
        view[got_one, :, 0, :] = 0.0
        view[~got_one, :, 1, :] = 0.0
        _renormalize(amps)
        if got_one.any():
            view[got_one, :, 0, :], view[got_one, :, 1, :] = (
                view[got_one, :, 1, :], view[got_one, :, 0, :])
    for m in range(m_count):
        u, states = next_uniform(states)
        flip = u < (1.0 - p0)
        if flip.any():
            view = amps.reshape(batch, -1, 2, 2**(m_count - 1 - m))
            view[flip, :, 0, :], view[flip, :, 1, :] = (
                view[flip, :, 1, :], view[flip, :, 0, :])
    amps = _apply_unitary(amps, w)
    norms = np.linalg.norm(amps, axis=1)
    drift = np.abs(norms - 1.0).max()
    if drift > 1e-6:
        raise NormalizationLoss(f"norm drifted by {drift:.3e} over one period")
    amps /= norms[:, np.newaxis]
    return amps, states


def _run_shots(spec: HamiltonianSpec, cfg: ProtocolConfig, cycles: int, shots: int,
               seed: int, system_index: int | None, workers: int | None, finish) -> list:
    """The one shot driver of :func:`run_trajectories` and :func:`sample_gibbs`:
    ``finish(lo, amps, states)`` for each batch of shots from ``lo`` on, after
    ``cycles`` comb cycles, in batch order. Batches of up to ``_CHUNK_ELEMS``
    amplitudes run across ``workers`` threads."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    n_s, m = spec.qubit_count, cfg.m_count
    ds, da = 2**n_s, 2**m
    if system_index is not None and not 0 <= system_index < ds:
        raise ValueError(f"system_index {system_index} outside 0..{ds - 1}")
    omegas, by_omega = _period_table(
        spec, cfg, lambda omega, w: (w, ground_probability(omega, cfg.beta)), workers)
    periods = [by_omega[omega] for omega in omegas]
    chunk = max(1, _CHUNK_ELEMS // (ds * da))

    def run_chunk(lo: int):
        batch = min(chunk, shots - lo)
        states = derive_streams(seed, batch, start=lo)
        if system_index is None:
            u, states = next_uniform(states)
            idx = np.minimum((u * ds).astype(int), ds - 1)
        else:
            idx = np.full(batch, system_index, dtype=int)
        amps = np.zeros((batch, ds * da), dtype=complex)
        amps[np.arange(batch), idx * da] = 1.0
        for _ in range(cycles):
            for w, p0 in periods:
                amps, states = _period(amps, states, w, p0, m)
        return finish(lo, amps, states)

    return _thread_map(run_chunk, list(range(0, shots, chunk)), workers)


def run_trajectories(spec: HamiltonianSpec, cfg: ProtocolConfig, cycles: int,
                     shots: int, seed: int, system_index: int | None = None,
                     workers: int | None = None) -> np.ndarray:
    """Final composite amplitudes of ``shots`` independent trajectories,
    as a (shots, 2^(N_s+M)) array. Memory scales with both factors.

    Every shot starts with its ancillas in ``|0>`` and the system in basis
    state ``system_index``, or, when that is None, in a uniformly random one
    drawn from the shot's stream."""
    # a negative count reaches the driver, which refuses it
    out = np.empty((max(shots, 0), 2**(spec.qubit_count + cfg.m_count)), dtype=complex)

    def keep(lo, amps, states):
        out[lo:lo + len(amps)] = amps

    _run_shots(spec, cfg, cycles, shots, seed, system_index, workers, keep)
    return out


def sample_gibbs(spec: HamiltonianSpec, cfg: ProtocolConfig, burn_in_cycles: int,
                 shots: int, seed: int, workers: int | None = None) -> SampleSet:
    """Run the sampler: per shot, start from a random basis state, burn in,
    and measure the system register once."""
    if burn_in_cycles < 0:
        raise ValueError(f"burn_in_cycles must be >= 0, got {burn_in_cycles}")
    n_s = spec.qubit_count

    def measure(lo, amps, states):
        probs = (np.abs(amps.reshape(len(amps), 2**n_s, -1)) ** 2).sum(axis=2)
        cum = np.cumsum(probs, axis=1)
        u, _ = next_uniform(states)
        idx = (cum < u[:, np.newaxis] * cum[:, -1:]).sum(axis=1)
        return np.bincount(np.minimum(idx, 2**n_s - 1), minlength=2**n_s)

    totals = np.sum(_run_shots(spec, cfg, burn_in_cycles, shots, seed, None, workers,
                               measure), axis=0)
    counts = {format(i, f"0{n_s}b"): int(c) for i, c in enumerate(totals) if c}
    return SampleSet(counts=counts, shots=shots, seed=seed)
