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

from .channel import _period_unitary, _thread_map, _trotter_parts
from .errors import NormalizationLoss
from .hamiltonians import HamiltonianSpec
from .rng import derive_streams, next_uniform
from .schedule import ProtocolConfig, comb_value, ground_probability

# shots per batch are capped so a batch stays around 2^22 amplitudes
_CHUNK_ELEMS = 1 << 22


@dataclass(frozen=True)
class TrajectoryState:
    """One pure-state trajectory: composite amplitudes plus its own
    generator state and progress counters."""

    amplitudes: np.ndarray
    rng_state: int
    cycle_index: int = 0
    period_index: int = 0


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


def _cycle_periods(spec: HamiltonianSpec,
                   cfg: ProtocolConfig) -> list[tuple[np.ndarray, float]]:
    """``(W(Omega_k), p0(Omega_k))`` for each period k of one comb cycle.

    The comb is symmetric, so periods share at most ``n_cycle // 2 + 1``
    distinct unitaries; each is built once and shared by every period with
    that comb value.
    """
    ab, weights = _trotter_parts(spec, cfg)
    by_omega: dict[float, np.ndarray] = {}
    periods = []
    for k in range(cfg.n_cycle):
        omega = comb_value(cfg, k)
        if omega not in by_omega:
            by_omega[omega] = _period_unitary(ab, weights, cfg, omega)
        periods.append((by_omega[omega], ground_probability(omega, cfg.beta)))
    return periods


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


def _run_cycles(amps, states, periods, m_count: int, n_cycles: int):
    for _ in range(n_cycles):
        for w, p0 in periods:
            amps, states = _period(amps, states, w, p0, m_count)
    return amps, states


def make_initial_state(spec: HamiltonianSpec, cfg: ProtocolConfig, seed: int,
                       system_index: int | None = None) -> TrajectoryState:
    """Fresh trajectory with ancillas in ``|0>``.

    With ``system_index=None`` the system starts in a uniformly random basis
    state, consuming the stream's first draw (exactly as batch shot 0 would);
    passing an index pins the start without consuming a draw.
    """
    ds, da = 2**spec.qubit_count, 2**cfg.m_count
    states = derive_streams(seed, 1)
    if system_index is None:
        u, states = next_uniform(states)
        system_index = min(int(u[0] * ds), ds - 1)
    if not 0 <= system_index < ds:
        raise ValueError(f"system_index {system_index} outside register")
    amps = np.zeros(ds * da, dtype=complex)
    amps[system_index * da] = 1.0
    return TrajectoryState(amplitudes=amps, rng_state=int(states[0]))


def run_cycle(state: TrajectoryState, spec: HamiltonianSpec,
              cfg: ProtocolConfig) -> TrajectoryState:
    """Advance one trajectory through a full comb cycle (n_cycle periods)."""
    periods = _cycle_periods(spec, cfg)
    dim = 2**(spec.qubit_count + cfg.m_count)
    amps = np.array(state.amplitudes, dtype=complex, copy=True)
    if amps.shape != (dim,):
        raise NormalizationLoss(
            f"state has {amps.shape[0]} amplitudes, expected {dim}")
    if abs(np.linalg.norm(amps) - 1.0) > 1e-6:
        raise NormalizationLoss("input trajectory state is not normalized")
    batch = amps[np.newaxis, :]
    states = np.array([state.rng_state], dtype=np.uint64)
    batch, states = _run_cycles(batch, states, periods, cfg.m_count, 1)
    return TrajectoryState(
        amplitudes=batch[0],
        rng_state=int(states[0]),
        cycle_index=state.cycle_index + 1,
        period_index=0,
    )


def _chunk_ranges(shots: int, dim: int):
    chunk = max(1, _CHUNK_ELEMS // dim)
    return [(lo, min(lo + chunk, shots)) for lo in range(0, shots, chunk)]


def _start_chunk(seed: int, lo: int, hi: int, n_s: int, m_count: int,
                 system_index: int | None):
    states = derive_streams(seed, hi - lo, start=lo)
    batch = hi - lo
    ds, da = 2**n_s, 2**m_count
    if system_index is None:
        u, states = next_uniform(states)
        idx = np.minimum((u * ds).astype(int), ds - 1)
    else:
        idx = np.full(batch, system_index, dtype=int)
    amps = np.zeros((batch, ds * da), dtype=complex)
    amps[np.arange(batch), idx * da] = 1.0
    return amps, states


def run_trajectories(spec: HamiltonianSpec, cfg: ProtocolConfig, cycles: int,
                     shots: int, seed: int, system_index: int | None = None,
                     workers: int | None = None) -> np.ndarray:
    """Final composite amplitudes of ``shots`` independent trajectories,
    as a (shots, 2^(N_s+M)) array. Memory scales with both factors."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    n_s, m = spec.qubit_count, cfg.m_count
    periods = _cycle_periods(spec, cfg)
    out = np.empty((shots, 2**(n_s + m)), dtype=complex)

    def run_range(bounds):
        lo, hi = bounds
        amps, states = _start_chunk(seed, lo, hi, n_s, m, system_index)
        amps, _ = _run_cycles(amps, states, periods, m, cycles)
        out[lo:hi] = amps

    _thread_map(run_range, _chunk_ranges(shots, out.shape[1]), workers)
    return out


def ensemble_reduced_state(amplitudes: np.ndarray, n_s: int, m_count: int) -> np.ndarray:
    """Ensemble-averaged system density matrix of a batch of trajectories."""
    batch = amplitudes.shape[0]
    psi = amplitudes.reshape(batch, 2**n_s, 2**m_count)
    return np.einsum("bia,bja->ij", psi, psi.conj()) / batch


def _measure_system(amps: np.ndarray, states: np.ndarray, n_s: int):
    batch = amps.shape[0]
    probs = np.abs(amps.reshape(batch, 2**n_s, -1)) ** 2
    probs = probs.sum(axis=2)
    cum = np.cumsum(probs, axis=1)
    u, states = next_uniform(states)
    idx = (cum < u[:, np.newaxis] * cum[:, -1:]).sum(axis=1)
    return np.minimum(idx, 2**n_s - 1), states


def sample_gibbs(spec: HamiltonianSpec, cfg: ProtocolConfig, burn_in_cycles: int,
                 shots: int, seed: int, workers: int | None = None) -> SampleSet:
    """Run the sampler: per shot, start from a random basis state, burn in,
    and measure the system register once."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if burn_in_cycles < 0:
        raise ValueError(f"burn_in_cycles must be >= 0, got {burn_in_cycles}")
    n_s, m = spec.qubit_count, cfg.m_count
    periods = _cycle_periods(spec, cfg)

    def run_range(bounds):
        lo, hi = bounds
        amps, states = _start_chunk(seed, lo, hi, n_s, m, None)
        amps, states = _run_cycles(amps, states, periods, m, burn_in_cycles)
        idx, _ = _measure_system(amps, states, n_s)
        return np.bincount(idx, minlength=2**n_s)

    partials = _thread_map(run_range, _chunk_ranges(shots, 2**(n_s + m)), workers)
    totals = np.sum(partials, axis=0)
    counts = {
        format(i, f"0{n_s}b"): int(c)
        for i, c in enumerate(totals) if c
    }
    return SampleSet(counts=counts, shots=shots, seed=seed)
