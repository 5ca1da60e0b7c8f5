"""Shot-based stochastic unraveling of the thermalization protocol.

Every trajectory is a pure state on the N_s + M composite register. One
period applies, in order:

1. reset: the ancillas are measured into one outcome index per shot, one
   uniform draw per ancilla in ascending order, each outcome 1 when
   ``u < P(1)`` for that ancilla's marginal given the outcomes already drawn;
2. excitation: each ancilla (ascending index) is set to ``|1>`` with
   probability ``1 - p0(t_k)``, one uniform draw per ancilla, which gives the
   excited index. After the two steps a shot is the product state of the
   outcome's normalized system amplitudes and the excited index (a reset is
   a quantum jump), and it is re-embedded at that index;
3. the period unitary ``W(Omega_k)``, as one product of the amplitude batch
   with a dense matrix assembled from the sector blocks that the channel
   module builds for the exact cycle map. The sampler takes them from the
   same comb walk, which powers the blocks of several comb values in one
   stacked call, and keeps one dense ``W`` per distinct value in a table:
   every burn-in cycle reads each entry again. The table is built once per
   run, before any batch starts, and is only read afterwards.

Averaged over trajectories, steps 1-2 reproduce the reset-plus-excitation
preparation of the channel module. Each symmetry sector's block of ``W`` is
the power of that block of one Trotter step by repeated squaring (then
moved to the nearest unitary), which matches applying the steps one by one
to roundoff, so seeded samples are
those of step-by-step application unless a uniform lands within roundoff of
a branch probability. The sampler applies the assembled dense ``W``, not the
blocks, because the resets move a shot between sectors.

Randomness comes exclusively from the fixed generator in :mod:`qmcmc.rng`;
shot ``s`` under master seed ``seed`` owns the stream seeded by
``splitmix64(seed + s)`` and consumes, in order: one draw for its initial
basis state when no ``system_index`` is given, ``2 M`` draws per period,
and, in :func:`sample_gibbs`, one draw for the terminal measurement. Shots
are therefore independent of how they are batched, and identical
``(spec, cfg, seed)`` reproduce identical samples bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _period_table, _thread_map, admit_run
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
    unitary ``w`` and ancilla ground probability ``p0`` (each shot's row of
    the amplitude buffer is overwritten with its reset outcome's normalized
    system amplitudes at its excited index; a fresh buffer is returned)."""
    batch, rows = amps.shape[0], np.arange(amps.shape[0])
    grid = amps.reshape(batch, -1, 2**m_count)
    probs = (np.abs(grid) ** 2).sum(axis=1)
    outcome = np.zeros(batch, dtype=int)
    for m in range(m_count):
        pair = probs.reshape(batch, 2**m, 2, -1).sum(axis=3)[rows, outcome]
        u, states = next_uniform(states)
        # u < P(1 | outcomes drawn so far), scaled by their probability so
        # that a zero-probability prefix divides nothing by zero
        outcome = 2 * outcome + (u * pair.sum(axis=1) < pair[:, 1])
    excited = np.zeros(batch, dtype=int)
    for _ in range(m_count):
        u, states = next_uniform(states)
        excited = 2 * excited + (u < 1.0 - p0)
    norms = np.sqrt(probs[rows, outcome])
    if not norms.min() > 1e-150:
        raise NormalizationLoss("trajectory collapsed onto a zero-probability branch")
    kept = grid[rows, :, outcome] / norms[:, np.newaxis]
    grid[...] = 0.0
    grid[rows, :, excited] = kept
    amps = _apply_unitary(grid.reshape(batch, -1), w)
    norms = np.linalg.norm(amps, axis=1)
    drift = np.abs(norms - 1.0).max()
    if not drift <= 1e-6:
        raise NormalizationLoss(f"norm drifted by {drift:.3e} over one period")
    amps /= norms[:, np.newaxis]
    return amps, states


def _run_shots(spec: HamiltonianSpec, cfg: ProtocolConfig, cycles: int, shots: int,
               seed: int, system_index: int | None, workers: int | None, finish) -> list:
    """The one shot driver of :func:`run_trajectories` and :func:`sample_gibbs`:
    ``finish(amps, states)`` for each batch of shots after ``cycles`` comb
    cycles, in batch order, once ``admit_run`` admits the run. Batches of up
    to ``_CHUNK_ELEMS`` amplitudes run across the threads it admits."""
    if cycles < 0:
        raise ValueError(f"cycles must be >= 0, got {cycles}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    n_s, m = spec.qubit_count, cfg.m_count
    ds, da = 2**n_s, 2**m
    if system_index is not None and not 0 <= system_index < ds:
        raise ValueError(f"system_index {system_index} outside 0..{ds - 1}")
    chunk = max(1, _CHUNK_ELEMS // (ds * da))
    workers = admit_run(spec, cfg, "sample", workers=workers, batch=min(chunk, shots) * ds * da)
    _, omegas, walk = _period_table(
        spec, cfg, lambda omega, sectors, w: (sectors.unitary(w),
                                              ground_probability(omega, cfg.beta)), workers)
    by_omega = dict(walk)
    periods = [by_omega[omega] for omega in omegas]

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
        return finish(amps, states)

    return list(_thread_map(run_chunk, range(0, shots, chunk), workers))


def run_trajectories(spec: HamiltonianSpec, cfg: ProtocolConfig, cycles: int,
                     shots: int, seed: int, system_index: int | None = None,
                     workers: int | None = None) -> np.ndarray:
    """Final composite amplitudes of ``shots`` independent trajectories,
    as a (shots, 2^(N_s+M)) array. Memory scales with both factors.

    Every shot starts with its ancillas in ``|0>`` and the system in basis
    state ``system_index``, or, when that is None, in a uniformly random one
    drawn from the shot's stream."""
    return np.concatenate(_run_shots(spec, cfg, cycles, shots, seed, system_index, workers,
                                     lambda amps, states: amps))


def sample_gibbs(spec: HamiltonianSpec, cfg: ProtocolConfig, burn_in_cycles: int,
                 shots: int, seed: int, workers: int | None = None) -> SampleSet:
    """Run the sampler: per shot, start from a random basis state, burn in,
    and measure the system register once."""
    n_s = spec.qubit_count

    def measure(amps, states):
        probs = (np.abs(amps.reshape(len(amps), 2**n_s, -1)) ** 2).sum(axis=2)
        cum = np.cumsum(probs, axis=1)
        u, _ = next_uniform(states)
        idx = (cum < u[:, np.newaxis] * cum[:, -1:]).sum(axis=1)
        return np.bincount(np.minimum(idx, 2**n_s - 1), minlength=2**n_s)

    totals = np.sum(_run_shots(spec, cfg, burn_in_cycles, shots, seed, None, workers,
                               measure), axis=0)
    counts = {format(i, f"0{n_s}b"): int(c) for i, c in enumerate(totals) if c}
    return SampleSet(counts=counts, shots=shots, seed=seed)
