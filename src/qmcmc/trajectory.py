"""Shot-based stochastic unraveling of the thermalization protocol.

Every trajectory is a pure state on the N_s + M composite register. One
period applies, in order:

1. reset: the ancillas are measured into one outcome index per shot, one
   uniform draw per ancilla in ascending order, each outcome 1 when
   ``u < P(1)`` for that ancilla's marginal given the outcomes already drawn;
2. excitation: each ancilla (ascending index) is set to ``|1>`` with
   probability ``1 - p0(t_k)``, one uniform draw per ancilla, which gives the
   excited index ``b``. After the two steps a shot is the product ``psi (x)
   |b>`` of the outcome's normalized system amplitudes and the excited index:
   a reset is a quantum jump (Dalibard, Castin and Molmer, PRL 68, 580
   (1992));
3. the period unitary ``W(Omega_k)`` on that product, ``out = sum_x psi_x
   W[:, (x, b)]``: only the columns of ``W`` at the excited index.

Shots live in the frame ``F`` of the run's sectors (:class:`qmcmc.channel.Sectors`),
where ``W`` is block-diagonal on sets of basis states. ``F`` acts on the
system qubits alone and every ancilla letter of the sectors is I or Z, so
neither the reset's outcome probabilities nor the excitation see it: a shot
starts at ``F|i>`` and ``F^dag`` is applied once, at the terminal
measurement and to :func:`run_trajectories`' output, both by the package's
one one-qubit kernel, :func:`qmcmc.linalg._apply_frame`. For a graph ``F`` is
the identity. Column ``(x, b)`` lies in the sector labeled ``l(x) xor
l(b)`` (the labels are linear over GF(2)), so each sector holds ``k =
2^N_s / sectors`` of the columns at ``b``, one for every graph, and the
period's sum takes ``k`` terms per entry of ``out``. The sampler's table
holds, for each distinct comb value, only those columns, gathered from the
sector blocks that the comb walk of :mod:`qmcmc.channel` builds for the
exact cycle map: ``4^(N_s+M) / sectors`` entries per value, the size of the
blocks themselves (:class:`_Layout` gives their order, one order of the
system states by label, from where :attr:`Sectors.state_at` puts each
state). The walk yields one table per period k = 0..n_cycle // 2, a run of
equal values sharing one, and period k reads the table at ``min(k, n_cycle
- k)``. The table is built once per run, before any batch starts, and is
only read afterwards; every burn-in cycle reads each entry again.

A shot holds a row of ``k 2^M`` amplitudes for each label it spans, and
names the label of each row. A period moves every label: the system
amplitudes of a row of label ``l``, after a reset with outcome ``a`` from a
period with excited index ``b``, have the label ``l ^ l(a) ^ l(b)``, and the
row's sum reads the table's rows at ``b`` and that label, one gather per
term. A framed shot starts at ``F|i>``, which spans every label, row ``t``
holding label ``t``; with no frame (every graph, and every model whose
sectors need none) a shot starts in a basis state ``|i>``, which lies in
the one label ``l(i)``, and so holds one row for good: a graph period
touches ``2^M`` amplitudes per shot, not ``2^(N_s+M)``. Each row's sum is
formed entry by entry in a fixed order of its ``k`` terms, so a shot's
arithmetic does not depend on the batch it runs in, nor on how many labels
it holds. The next reset's outcome probabilities and the norm-drift check
both read ``|out|^2``; no shot is renormalized, since the reset divides by
the outcome's probability. Averaged over trajectories, steps 1-2 reproduce
the reset-plus-excitation preparation of the channel module. Each symmetry
sector's block of ``W`` is the power of that block of one Trotter step by
repeated squaring (then moved to the nearest unitary), which matches
applying the steps one by one to roundoff, so seeded samples are those of
step-by-step application unless a uniform lands within roundoff of a branch
probability.

Randomness comes exclusively from the fixed generator in :mod:`qmcmc.rng`;
shot ``s`` under master seed ``seed`` owns the stream seeded by
``splitmix64(seed + s)`` and consumes, in order: one draw for its initial
basis state when no ``system_index`` is given, ``2 M`` draws per period
(taken in one :func:`qmcmc.rng.next_uniforms` call), and, in
:func:`sample_gibbs`, one draw for the terminal measurement. Shots are
therefore independent of how they are batched, and identical ``(spec, cfg,
seed)`` reproduce identical samples bit for bit. Seeds ``S`` and ``S + 1``
share all streams but one; :func:`qmcmc.rng.derive_streams` says more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import _CHUNK_ELEMS, Sectors, _period_table, _sectors, _thread_map, admit_run
from .errors import NormalizationLoss
from .hamiltonians import HamiltonianSpec
from .linalg import _apply_frame
from .rng import derive_streams, next_uniform, next_uniforms
from .schedule import ProtocolConfig, ground_probability


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


class _Layout(NamedTuple):
    """Where a shot keeps its amplitudes, and the order of the column tables.

    A system state ``x`` of the frame has a label ``l(x)``, the sector of
    ``(x, 0)``, and a rank among the ``k`` states of its label: ``order[t k
    + i]`` is the state of label ``t`` and rank ``i``, and ``place`` is its
    inverse, ``place[x] = l(x) k + i``. ``psi`` is held as (sectors, k) in
    this order. After a period with excited index ``b``, a shot's
    amplitudes are held as (sectors, k, 2^M): ``[t, i, a]`` is the entry
    ``(x, a)`` of label ``t ^ labels[a] ^ labels[b]`` and rank ``i``, where
    ``labels[a] = l(a)``, the sector of ``(0, a)``. So ``out[t, i', a] =
    sum_i psi[t, i] C_b[i, t, i', a]``: each entry reads the ``k``
    amplitudes of one label of ``psi``.

    ``index`` holds the flat positions in the (sectors, size, size) W blocks
    of the column tables ``C[b, i, t, i', a]``.
    ``start`` holds the states ``F|i>`` as rows in (label, rank) order, and
    ``gates`` the one-qubit factors of ``F``.

    A shot holds some of the labels (:class:`_Shots`): one row of the
    (sectors, k, 2^M) above for each, and its sum at a row of label ``t``
    reads ``C_b[i, t]`` alone."""

    m_count: int
    k: int
    labels: np.ndarray
    index: np.ndarray
    order: np.ndarray
    place: np.ndarray
    start: np.ndarray
    gates: list

    @classmethod
    def of(cls, sectors: Sectors) -> _Layout:
        ds, da = 2**sectors.n_s, 2**sectors.m_count
        count, size = sectors.states.shape
        at = sectors.state_at
        k = ds // count
        order = np.argsort(at[::da] // size, kind="stable")
        labels = at[:da] // size
        b, i, t, j, a = np.ix_(*map(np.arange, (da, k, count, k, da)))
        column = order[t * k + i] * da + b
        row = order[(t ^ labels[a] ^ labels[b]) * k + j] * da + a
        index = at[row] * size + at[column] % size  # row and column share a sector
        start = _apply_frame(np.eye(ds, dtype=complex), sectors.gates)[:, order]
        return cls(sectors.m_count, k, labels, index, order, np.argsort(order), start,
                   sectors.gates)

    def columns(self, blocks: np.ndarray) -> np.ndarray:
        """The column table ``C[b, i, t, i', a]`` of one comb value's
        (sectors, size, size) W blocks: one gather."""
        return np.take(blocks.reshape(-1), self.index)


class _Shots(NamedTuple):
    """A batch of shots: ``amps`` (rows, batch, k, 2^M), each shot's in the
    layout keyed by its ``excited`` index (:class:`_Layout`), ``probs``
    (batch, 2^M) their ancilla outcome probabilities, ``states`` their
    streams, and ``label`` the label ``t`` of the layout whose entries each
    row holds, (rows, batch) or, shared by the batch, (rows, 1); a shot's
    labels without a row are zero. A shot of an unframed model has one row,
    and a framed shot a row for every label."""

    amps: np.ndarray
    probs: np.ndarray
    excited: np.ndarray
    states: np.ndarray
    label: np.ndarray


def _probabilities(amps: np.ndarray) -> np.ndarray:
    """The (batch, 2^M) ancilla outcome probabilities of a batch's
    amplitudes, each shot's added in the same order whatever its batch: over
    the rows, then the ranks, then the real and imaginary parts."""
    squares = np.square(amps.view(float)).sum(axis=0).sum(axis=1)
    return squares[:, 0::2] + squares[:, 1::2]


def _start(layout: _Layout, system: np.ndarray, states: np.ndarray) -> _Shots:
    """Shots at ``F|i> (x) |0>`` for each basis state ``i`` of ``system``:
    a framed shot holds every label, row ``t`` label ``t``; with no frame
    ``|i>`` is a basis state of one label, and each shot holds that label
    alone."""
    batch, k = len(system), layout.k
    if layout.gates:
        start = layout.start[system].reshape(batch, -1, k).swapaxes(0, 1)
        label = np.arange(len(start))[:, np.newaxis]
    else:
        label, rank = np.divmod(layout.place[system][np.newaxis], k)
        start = rank[..., np.newaxis] == np.arange(k)
    amps = np.zeros((*start.shape, 2**layout.m_count), dtype=complex)
    amps[..., 0] = start
    return _Shots(amps, _probabilities(amps), np.zeros(batch, dtype=int), states, label)


def _period(shots: _Shots, columns: np.ndarray, p0: float, layout: _Layout) -> _Shots:
    """Advance a batch of trajectories by one interaction period with the
    column table ``columns`` and the ancilla ground probability ``p0``: the
    batch after it, in the same order, whose amplitudes overwrite those of
    ``shots``. Each row of a shot reads the table's rows at the shot's
    excited index and the row's label, one gather per term."""
    amps, probs, excited, states, label = shots
    count, batch, k, da = amps.shape
    m_count, labels = layout.m_count, layout.labels
    rows = np.arange(batch)
    # the marginals of the first m + 1 ancillas, m = M - 1 down to 0
    levels = [probs]
    for _ in range(m_count - 1):
        levels.append(levels[-1][:, 0::2] + levels[-1][:, 1::2])
    u, states = next_uniforms(states, 2 * m_count)
    outcome = np.zeros(batch, dtype=int)
    for level, draw in zip(reversed(levels), u):
        at = rows * level.shape[1] + 2 * outcome
        p_zero, p_one = level.reshape(-1)[at], level.reshape(-1)[at + 1]
        # u < P(1 | outcomes drawn so far), scaled by their probability so
        # that a zero-probability prefix divides nothing by zero
        outcome = 2 * outcome + (draw * (p_zero + p_one) < p_one)
    new = np.zeros(batch, dtype=int)
    for draw in u[m_count:]:
        new = 2 * new + (draw < 1.0 - p0)
    norms = np.sqrt(probs[rows, outcome])
    if not norms.min() > 1e-150:
        raise NormalizationLoss("trajectory collapsed onto a zero-probability branch")
    psi = amps[:, rows, :, outcome].swapaxes(0, 1) / norms[:, np.newaxis]
    # psi's label is the row's, moved by the reset's outcome and the excited
    # index; each shot's sum reads its rows C[b, i, t] of (k, 2^M) entries
    # and is formed term by term, into the amplitudes just read
    label = label ^ labels[outcome] ^ labels[excited]
    tables = columns.reshape(da, k, -1, k * da)
    out = amps
    part = out.reshape(count, batch, -1)
    np.multiply(psi[:, :, 0, np.newaxis], tables[new, 0, label], out=part)
    for i in range(1, k):
        term = tables[new, i, label]
        part += np.multiply(psi[:, :, i, np.newaxis], term, out=term)
    probs = _probabilities(out)
    drift = np.abs(np.sqrt(probs.sum(axis=1)) - 1.0).max()
    if not drift <= 1e-6:
        raise NormalizationLoss(f"norm drifted by {drift:.3e} over one period")
    return _Shots(out, probs, new, states, label)


def _composite(shots: _Shots, layout: _Layout) -> tuple[np.ndarray, np.ndarray]:
    """The computational-basis (batch, 2^(N_s+M)) amplitudes of a batch and
    its streams: each held entry put at its state, every other entry zero,
    then ``F^dag`` applied one qubit at a time."""
    amps, _, excited, states, label = shots
    _, batch, k, da = amps.shape
    # the label of each held entry (row, shot, 1, a), and its state
    held = (label[:, :, np.newaxis, np.newaxis] ^ layout.labels
            ^ layout.labels[excited, np.newaxis, np.newaxis])
    state = layout.order[held * k + np.arange(k)[:, np.newaxis]]
    out = np.zeros((batch, len(layout.order), da), dtype=complex)
    out[np.arange(batch)[:, np.newaxis, np.newaxis], state, np.arange(da)] = amps
    out = _apply_frame(out, [(q, v.conj().T) for q, v in layout.gates])
    return out.reshape(batch, -1), states


def _run_shots(spec: HamiltonianSpec, cfg: ProtocolConfig, cycles: int, shots: int,
               seed: int, system_index: int | None, workers: int | None, finish) -> list:
    """The one shot driver of :func:`run_trajectories` and :func:`sample_gibbs`:
    ``finish(amps, states)`` for each batch of shots after ``cycles`` comb
    cycles, with their computational-basis amplitudes, in batch order, once
    ``admit_run`` admits the run. Batches of up to ``_CHUNK_ELEMS``
    amplitudes run across the threads it admits."""
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
    layout = _Layout.of(_sectors(spec, cfg))
    half = list(_period_table(spec, cfg, lambda omega, w: (
        layout.columns(w), ground_probability(omega, cfg.beta)), workers))
    periods = [half[min(k, cfg.n_cycle - k)] for k in range(cfg.n_cycle)]

    def run_chunk(lo: int):
        batch = min(chunk, shots - lo)
        states = derive_streams(seed, batch, start=lo)
        if system_index is None:
            u, states = next_uniform(states)
            idx = np.minimum((u * ds).astype(int), ds - 1)
        else:
            idx = np.full(batch, system_index, dtype=int)
        live = _start(layout, idx, states)
        for _ in range(cycles):
            for columns, p0 in periods:
                live = _period(live, columns, p0, layout)
        return finish(*_composite(live, layout))

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
    and measure the system register once.

    Shot ``s`` runs on stream ``s`` of ``seed``, which is stream ``s - 1`` of
    ``seed + 1`` (:func:`qmcmc.rng.derive_streams`), so the samples of
    adjacent seeds share all shots but one. For independent samples, step
    the seed by at least ``shots``."""
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
