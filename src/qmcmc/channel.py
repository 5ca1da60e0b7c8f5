"""Per-period thermalization channels and the full-cycle dynamical map.

One interaction period applies, in order: ancilla reset, probabilistic
ancilla excitation, and the Trotterized coupled evolution ``W_t``. Because
the reset discards the previous ancilla state entirely, no ancilla
correlations survive between periods, and the reduced action on the system
is exactly

    ``Lambda_t(rho) = Tr_anc[ W_t (rho (x) rho_prep(t)) W_t^dag ]``

with ``rho_prep`` the product of single-ancilla thermal mixtures. This is
what lets a cycle be composed from 2^(N_s+M)-dimensional pieces instead of
propagating a composite density matrix; the equivalence is enforced by the
brute-force composite-space tests.

The exact path runs per symmetry sector. A Pauli string that commutes with
every composite term (each system term, each ancilla Z and each X_s X_a
coupling) commutes with the Trotter step, so ``W_t`` is block-diagonal in
its eigenspaces. :func:`pauli_sectors` finds the strings that one relabel of
the letters of each system qubit makes Z-type; in that frame a sector is a
set of basis states. The reset leaves the ancillas in a diagonal state, so
each period channel keeps the entry ``rho_jk`` in the sector of ``j xor k``
under the strings' system letters, and the channels, the cycle map and its
spectrum split into blocks as well. A model with no such string is the
one-sector case. :class:`Sectors` keeps this bookkeeping once: each
sector's states and coherences, and where each one sits, which the Gram
reshuffle, the pairings below and the sampler's column tables read.

Within the sectors, involutions change coordinates by one pair basis
(:class:`_PairBasis`): a fixed position keeps its coordinate, and each pair
``x < y`` becomes ``(v_x + v_y) / sqrt(2)`` and ``odd (v_y - v_x) /
sqrt(2)``. The pairs ``rho_jk <-> rho_kj`` (``odd = i``) give each cycle-map
sector a Hermitian basis, where every period channel's block is real: it is
gathered there as float64 straight from the Gram matrices of its Kraus
sets, and the fold and the eigensolve run in real arithmetic. The open
chain's reflection ``s -> n_s - 1 - s``, ancillas moved along
(:func:`_mirror`), commutes with the Trotter step and, as a signed
permutation of the Hermitian coordinates, with every cycle-map block. So
both split by parity, each block at its own width: W is powered, and the
cycle map gathered, folded and diagonalized, in blocks of 72, 56, 64 and
64 states for the 4-spin chain instead of two of 128. Blocks of one width
share one stacked call; without the reflection there is one parity, and
the split stacks are the sector blocks themselves. One table splits the
step and each period channel (:meth:`_PairBasis.split_gather`). Only W's
chunks (by one precomputed gather), :meth:`Sectors.superoperator` and
:meth:`Sectors.state` map back.

The comb walk (:func:`_period_table`) yields one result per period of the
half cycle, in period order, and nothing else: its callers look up the
sectors and the comb values that they need. Over k = 0..n // 2 the comb
never decreases, so equal values are neighbours: :func:`_walk_plan` finds
these runs once, W is built once per run, and the run's result is repeated
for each of its periods and then dropped. The walk powers the W blocks of
several values in one stacked call, as many as fit ``_CHUNK_BYTES``, and
drops them once their channels are built. ``comb_value`` makes the comb
symmetric, ``Omega_(n-k) = Omega_k``, so the cycle ``S_(n-1)...S_1 S_0`` is
a palindrome. :func:`build_cycle_maps` folds it as the channels arrive: it
grows ``L = S_k L`` and ``R = R S_k`` for k = 1..ceil(n/2)-1 and returns
``R M L S_0``, with ``M = S_(n/2)`` for even n. A run then holds a fixed
handful of block sets whatever ``n_cycle``.

W does not depend on the inverse temperature: beta enters a period only
through the ancilla preparation. So :func:`build_cycle_maps` walks the comb
once for several betas of one model and protocol, builds each beta's channel
from the one W of every comb value, and folds all of them at once on a
leading beta axis. :func:`build_cycle_map` is its one-beta case. Every run
entry first applies the one size rule, :func:`admit_run`.

Composite ordering: system qubits 0..N_s-1, then ancillas (ancilla m sits at
index N_s + m). Superoperators follow the package-wide column-stacking
convention (see :mod:`qmcmc.linalg`).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CompletenessViolation,
    DimensionMismatch,
    InvalidSize,
    NegativeEigenvalue,
    NoUnitEigenvalue,
)
from .hamiltonians import PAULIS, HamiltonianSpec, spectral_norm
from .linalg import _apply_frame, _bits, dominant_eigs, expm_hermitian, unvec
from .schedule import ProtocolConfig, comb_value, ground_probability

# Largest system a run admits: a cheap guard before the model matrix and its
# sectors are built. At 7 spins the exact path alone needs 12 GiB of dense W.
MAX_SPINS = 6
# Bytes a run may hold at once, as run_bytes predicts them: 8 GiB, so that
# a run refused at entry could not have finished on an 8 GiB host.
MAX_RUN_BYTES = 8 << 30
# Bytes of stacked W(Omega) blocks per _period_unitary call: the walk powers
# as many comb values at once as fit (at least one). Small blocks are bound by
# per-call overhead, which stacking removes: a 3-spin graph's 8 KiB of blocks
# per value go 8 to a call. The call's temporaries are about five times this,
# so they stay small beside the rest of a run and do not grow with n_cycle.
_CHUNK_BYTES = 1 << 16
# Amplitudes of one shot batch: the sampler cuts its shots into batches of
# about this many, and a sample run is admitted at entry as if it held one.
_CHUNK_ELEMS = 1 << 22
_PRUNE_TOL = 1e-14  # see build_period_channel
_MAX_CLUSTER = 16  # see steady_state

# symmetry letter L of a system qubit -> (V with V L V^dag = Z, the letter
# V X V^dag that the qubit's couplings take in the frame): the Hadamard, and
# the Hadamard after S^dag
_TO_Z = {"X": (np.array([[1, 1], [1, -1]]) / np.sqrt(2), "Z"),
         "Y": (np.array([[1, -1j], [1, 1j]]) / np.sqrt(2), "Y")}
_SYMPLECTIC = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


def _conjugate(gates, a: np.ndarray) -> np.ndarray:
    """The contiguous square ``a`` overwritten with ``G^dag a G``, for ``G``
    the product of the one-qubit ``gates`` ``(qubit, V)``: a row pass of each
    ``V^dag`` and a column pass of each ``V^T`` (``a V`` is ``(V^T a^T)^T``),
    both by :func:`qmcmc.linalg._apply_frame`. With ``_scatter``,
    ``Sectors.frame_blocks`` and ``Sectors.superoperator`` it builds
    ``CycleMap.superoperator``, which ``bench/tracer.py`` reads in an
    observer under a non-reentrant lock, so none may call a public ``qmcmc``
    function: over ``apply_gate``, this one hung the tier-1 tests silently."""
    _apply_frame(a[np.newaxis], [(q, v.conj().T) for q, v in gates])
    return _apply_frame(a, [(q, v.T) for q, v in gates])


def _nullspace(rows: list[int], width: int) -> list[int]:
    """Basis of the ``width``-bit vectors ``v`` with ``popcount(v & r)`` even
    for every row ``r``: Gauss-Jordan elimination over GF(2) on bitmasks."""
    pivots: dict[int, int] = {}
    for r in rows:
        for bit, p in pivots.items():
            if r >> bit & 1:
                r ^= p
        if r:
            top = r.bit_length() - 1
            for bit in pivots:
                if pivots[bit] >> top & 1:
                    pivots[bit] ^= r
            pivots[top] = r
    return [1 << free | sum(1 << bit for bit, p in pivots.items() if p >> free & 1)
            for free in range(width) if free not in pivots]


def _commuting_words(letters: list[dict[int, str]], n: int) -> list[str]:
    """A basis of the Pauli words on ``n`` qubits that commute with every
    string in ``letters`` (each a ``{qubit: letter}`` map): the GF(2)
    nullspace of the symplectic form (Gottesman, arXiv:quant-ph/9705052)."""
    rows = []
    for string in letters:
        x = sum(_SYMPLECTIC[c][0] << q for q, c in string.items())
        z = sum(_SYMPLECTIC[c][1] << q for q, c in string.items())
        rows.append(z | x << n)  # P = x' | z' << n commutes iff x'.z + z'.x is even
    return ["".join("IXZY"[(v >> q & 1) | (v >> (n + q) & 1) << 1] for q in range(n))
            for v in _nullspace(rows, 2 * n)]


def _gram_gather(pairs: np.ndarray, at: np.ndarray) -> np.ndarray:
    """For each entry of the blocks of a superoperator split by ``pairs``,
    its flat position in the stacked :func:`_grams` of the operators'
    :func:`_sector_entries`; ``at`` is the inverse of ``pairs``, each
    entry's ``sector * size + position``.

    Entry ``[(i, i'), (j, j')]`` of ``sum_K kron(conj(K), K)`` is the Gram
    entry ``sum_K conj(K_ij) K_i'j'``; the Kraus elements ``(i, j)`` and
    ``(i', j')`` lie in one sector of ``pairs``, because ``i xor j`` and
    ``i' xor j'`` share their sector whenever ``i xor i'`` and ``j xor j'``
    do.
    """
    size, d = pairs.shape[1], math.isqrt(at.size)
    i, i2 = np.divmod(pairs[:, :, np.newaxis], d)
    j, j2 = np.divmod(pairs[:, np.newaxis, :], d)
    return at[i * d + j] * size + at[i2 * d + j2] % size


def _sector_entries(operators: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The operators' entries in each sector of ``pairs``, as a (sectors,
    operators, size) stack."""
    count, d, _ = operators.shape
    return np.take(operators.reshape(count, d * d), pairs, axis=1).transpose(1, 0, 2)


def _grams(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The Gram matrices ``x^dag x`` of a :func:`_sector_entries` stack, as
    a (sectors, size, size) stack from one stacked GEMM, into ``out`` when
    given."""
    return np.matmul(x.conj().transpose(0, 2, 1), x, out=out)


def _real_gather(sectors: Sectors) -> tuple[np.ndarray, np.ndarray]:
    """``(index, coef)`` such that the cycle-map split stack (see
    :class:`_PairBasis`) of a Hermiticity-preserving map that commutes with
    the reflection is ``sum_t coef[t] * view[index[t]]``, for ``view`` the
    float view of its :func:`_grams` stack.

    With ``a`` the Hermitian basis' coefficient and ``q'`` the partner of
    ``q``, the real block entry ``R[s, p, q]`` of ``T S T^dag`` is ``2
    Re(a_p conj(a_q) S[p, q] + a_p a_q S[p, q'])``, because such a map has
    ``S[p', q'] = conj(S[p, q])``. Each product of two coefficients is real
    or imaginary, so each term is one real or imaginary part of a Gram
    entry: for one parity, two terms, each (sectors, size, size). Split by
    ``sectors.map_reflection`` with :meth:`_PairBasis.split_gather`, two
    entries of ``R`` each: four terms, each (entries,), over half the entries.
    """
    a, partner = sectors.hermitian.a, sectors.hermitian.image
    gram = _gram_gather(sectors.pairs, sectors.pair_at)
    index = np.stack([gram, np.take_along_axis(gram, partner[:, np.newaxis, :], axis=2)])
    del gram
    coef = np.empty(index.shape)
    for t, right in enumerate((a.conj(), a)):
        product = a[:, :, np.newaxis] * right[:, np.newaxis, :]
        imaginary = product.imag != 0
        index[t] = 2 * index[t] + imaginary
        coef[t] = 2.0 * np.where(imaginary, -product.imag, product.real)
    if (gather := sectors.map_reflection.split_gather()) is None:
        return index, coef
    at, mix = gather
    return (np.take(index.reshape(2, -1), at, axis=1).reshape(4, -1),
            (np.take(coef.reshape(2, -1), at, axis=1) * mix).reshape(4, -1))


def _real_blocks(gather: tuple[np.ndarray, np.ndarray], grams: np.ndarray) -> np.ndarray:
    """The real cycle-map split stacks (see :func:`_real_gather`), float64,
    of the Hermiticity-preserving maps whose :func:`_grams` stacks are
    ``grams`` (..., sectors, size, size): one ``gather`` into their float
    view per term, and one real combination."""
    return _combine(grams.view(float).reshape(grams.shape[:-3] + (-1,)), gather)


def _combine(source: np.ndarray, gather: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``sum_t coef[t] * source[..., index[t]]`` for ``gather = (index,
    coef)``: one take along the last axis per term, and one real
    combination."""
    index, coef = gather
    # np.take, not fancy indexing, whose set-up dominates small blocks
    out = np.take(source, index[0], axis=-1)
    out *= coef[0]
    for at, c in zip(index[1:], coef[1:]):
        part = np.take(source, at, axis=-1)
        part *= c
        out += part
    return out


@dataclass(frozen=True)
class _PairBasis:
    """The pair basis of an involution ``image`` of each sector's positions
    with the phase ``odd``, one or one per position: the unitary ``T v = a v
    + b v[image]`` keeps a fixed ``v_x`` (``a = b = 1/2``) and turns each
    pair ``x < y = image[s, x]`` into ``odd (v_y - v_x) / sqrt(2)`` at ``x``
    (``-a = b = odd / sqrt(2)``) and ``(v_x + v_y) / sqrt(2)`` at ``y`` (``a
    = b = 1 / sqrt(2)``).

    With ``odd`` +-1 (equal on a pair), each coordinate is even or odd under
    the signed permutation ``(P v)_x = odd_x v[image[x]]``: odd when it is
    the first of a pair or ``odd_x = -1``, but not both. A stack that
    commutes with ``P`` links no even coordinate to an odd one. A real
    ``odd`` splits it (:meth:`split_gather`) into its blocks, sector 0's even
    coordinates, its odd ones, sector 1's even ones and so on: ``order``
    holds, for each distinct block width in order of first appearance, a
    (blocks, width) array of the flat positions ``s size + x`` of each
    block's coordinates. The split stack of a (..., sectors, size, size)
    stack holds these blocks flattened end to end on its last axis; with one
    parity, ``order`` is empty and the split stack is the stack itself."""

    image: np.ndarray
    a: np.ndarray
    b: np.ndarray
    odd: complex | np.ndarray
    order: tuple[np.ndarray, ...] = ()

    @classmethod
    def of(cls, image: np.ndarray, odd: complex | np.ndarray) -> _PairBasis:
        x = np.arange(image.shape[1])
        fixed, first = image == x, x < image
        a, b = (np.where(fixed, 0.5, np.where(first, c, 1.0) * np.sqrt(0.5)) for c in (-odd, odd))
        parity = first ^ (np.real(odd) < 0)
        if np.iscomplexobj(odd) or not parity.any():
            return cls(image, a, b, odd)
        count = len(image)
        block = (2 * np.arange(count)[:, np.newaxis] + parity).reshape(-1)
        widths = np.bincount(block, minlength=2 * count)
        start, pos = np.cumsum(widths) - widths, np.argsort(block, kind="stable")
        order = tuple(pos[start[widths == w][:, np.newaxis] + np.arange(w)]
                      for w in dict.fromkeys(widths[widths > 0].tolist()))
        return cls(image, a, b, odd, order)

    def dagger(self, stack: np.ndarray) -> np.ndarray:
        """A (..., sectors, size, columns) ``stack`` whose dtype holds the
        result, overwritten with ``T^dag stack``: row ``x`` becomes
        ``conj(a_x) v_x + conj(b[image[x]]) v[image[x]]``, by one take of
        whole rows (row ``x`` of sector ``s`` is row ``s size + x``)."""
        count, size = self.image.shape
        rows = (np.arange(count)[:, np.newaxis] * size + self.image).reshape(-1)
        part = np.take(stack.reshape(stack.shape[:-3] + (count * size, -1)), rows,
                       axis=-2).reshape(stack.shape)
        part *= np.take_along_axis(self.b, self.image, axis=1).conj()[..., np.newaxis]
        stack *= self.a.conj()[..., np.newaxis]
        stack += part
        return stack

    def widths(self, shape: tuple[int, int]) -> list[int]:
        """Each block's width, in the order of the split stack of a
        (sectors, size) ``shape`` of this basis' kind."""
        return [pos.shape[1] for pos in self.order for _ in pos] or [shape[1]] * shape[0]

    def parts(self, stack: np.ndarray, dims: int = 2) -> list[np.ndarray]:
        """The width groups of a split ``stack``, as views: (..., blocks,
        width, width) of a stack of matrices, (..., blocks, width) of one of
        vectors (``dims`` 1); the stack itself for one parity."""
        if not self.order:
            return [stack]
        groups, at = [], 0
        for pos in self.order:
            shape = pos.shape + pos.shape[1:] * (dims - 1)
            groups.append(stack[..., at:at + math.prod(shape)].reshape(stack.shape[:-1] + shape))
            at += math.prod(shape)
        return groups

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a @ b`` for two split stacks, block by block."""
        if not self.order:
            return a @ b
        out = np.empty_like(a)
        for x, y, z in zip(self.parts(a), self.parts(b), self.parts(out)):
            np.matmul(x, y, out=z)
        return out

    def split_gather(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(at, mix)``, each (2, entries), such that entry ``[p, q]`` of the
        split stack of a (sectors, size, size) stack ``M`` that commutes with
        ``P`` is ``mix[0] M.flat[at[0]] + mix[1] M.flat[at[1]]``; None for one
        parity. A real ``odd`` makes ``T`` real: with ``x' = image[x]``, entry
        ``[p, q]`` of ``T M T^T`` is ``a_p a_q M[p, q] + a_p b_q M[p, q'] +
        b_p a_q M[p', q] + b_p b_q M[p', q']``, and ``M[x', y'] = odd_x odd_y
        M[x, y]``. So ``at`` holds the flat positions of ``M[p, q]`` and
        ``M[p, q']``, and ``mix`` the coefficients ``a_p a_q + b_p b_q odd_p
        odd_q`` and ``a_p b_q + b_p a_q odd_p odd_q``. Two entries stand for
        four, so ``M``'s roundoff in commuting with ``P`` enters the split."""
        if not self.order:
            return None
        size, odd = self.image.shape[1], np.broadcast_to(self.odd, self.image.shape)
        at, mix = [], []
        for pos in self.order:
            s, p = pos[:, :1, np.newaxis] // size, pos[:, :, np.newaxis] % size  # one sector each
            q = p.swapaxes(1, 2)
            (ap, bp, op), (aq, bq, oq) = ([c[s, x] for c in (self.a, self.b, odd)]
                                          for x in (p, q))
            at.append(np.stack([(s * size + p) * size + x for x in (q, self.image[s, q])]))
            mix.append(np.stack([ap * aq + bp * bq * op * oq, ap * bq + bp * aq * op * oq]))
        return tuple(np.concatenate([t.reshape(2, -1) for t in x], axis=1) for x in (at, mix))

    def split(self, blocks: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The split stack (:meth:`split_gather`) of the (sectors, size, size)
        ``blocks`` of a matrix that commutes with ``P``, and the split weights
        of a diagonal one that does; both as they are for one parity."""
        if (gather := self.split_gather()) is None:
            return blocks, weights
        return (_combine(blocks.reshape(-1), gather),
                weights.reshape(-1)[np.concatenate([pos.reshape(-1) for pos in self.order])])

    def unsplit_gather(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(index, coef)``, each (2, sectors, size, size), such that entry
        ``[s, x, y]`` of ``T^T B T`` is ``sum_t coef[t] * stack[index[t]]``
        for the split stack of ``B`` and a real ``odd``: of the coordinates
        ``x`` and ``image[x]`` that ``v_x`` enters, with ``T[x, x] = a_x``
        (1 when fixed) and ``T[image[x], x] = b[image[x]]``, term ``t`` takes
        the one of parity ``t``, for ``x`` and for ``y``. None for one
        parity, whose split stack is the stack itself."""
        if not self.order:
            return None
        count, size = self.image.shape
        sector = np.arange(count)[:, np.newaxis] * size
        start, rank = np.empty(count * size, dtype=np.intp), np.empty(count * size, dtype=np.intp)
        at = 0
        for pos in self.order:
            start[pos.reshape(-1)] = at + np.arange(pos.size) * pos.shape[1]
            rank[pos.reshape(-1)] = np.tile(np.arange(pos.shape[1]), len(pos))
            at += pos.size * pos.shape[1]
        fixed = self.image == np.arange(size)
        odd = (np.arange(size) < self.image) ^ (np.real(self.odd) < 0)
        own, partner = self.a + np.where(fixed, self.b, 0.0), np.where(
            fixed, 0.0, np.take_along_axis(self.b, self.image, axis=1))
        index, coef = [], []
        for parity in (False, True):
            mine = odd == parity
            u = np.where(mine, sector + np.arange(size), sector + self.image)
            c = np.where(mine, own, partner)
            # a fixed position of the other parity has no term: coefficient
            # 0 at its row or column start, an index in range
            row, col = (np.where(mine | ~fixed, t[u], 0) for t in (start, rank))
            index.append(row[:, :, np.newaxis] + col[:, np.newaxis, :])
            coef.append(c[:, :, np.newaxis] * c[:, np.newaxis, :])
        return np.stack(index), np.stack(coef)

    def unsplit(self, stack: np.ndarray, gather=None) -> np.ndarray:
        """The (..., sectors, size, size) blocks ``T^T B T`` of a split
        ``stack`` of a real-``odd`` basis, by its :meth:`unsplit_gather`,
        built here when not given."""
        if not self.order:
            return stack
        return _combine(stack, self.unsplit_gather() if gather is None else gather)

    def embed(self, v: np.ndarray) -> np.ndarray:
        """The (size, columns) coordinates ``T^T c`` in sector 0 of the split
        vectors ``c`` that are the columns of ``v`` on the first block, sector
        0's even one, and zero elsewhere."""
        if not self.order:
            return v
        count, size = self.image.shape
        coords = np.zeros((count, size) + v.shape[1:], dtype=np.result_type(v, self.a))
        coords[0, self.order[0][0]] = v
        return self.dagger(coords)[0]


@dataclass(frozen=True)
class Sectors:
    """The symmetry split of one run's composite register.

    ``generators`` are independent Pauli words (system letters, then
    ancilla letters) that commute with each other and with every factor of
    the Trotter step. ``frame`` lists the system qubits whose letter L is X
    or Y, as ``(qubit, L)``: the frame ``F`` applies, on each, the ``V`` with
    ``V L V^dag = Z``, so that every generator is Z-type in it. Sector ``s``
    of the register holds the basis states ``states[s]`` whose parities under
    the generators' letters spell ``s`` in binary. The density-matrix entry
    ``rho_jk`` (column-stacked index ``k d + j``) lies in cycle-map sector
    ``s`` when ``j xor k`` does under the generators' system letters;
    ``pairs[s]`` lists them, and ``pairs[0]`` holds the diagonal. Every
    sector of either kind has the same size. The labels are linear over
    GF(2): a composite state's is the xor of its system and ancilla parts',
    and ``rho_jk``'s that of ``j``'s and ``k``'s. ``state_at`` and
    ``pair_at`` invert ``states`` and ``pairs``: for each basis state, and
    each ``rho_jk`` by its column-stacked index, its ``sector * size +
    position``.

    Pair bases (:class:`_PairBasis`) act within the sectors. In
    ``hermitian`` (phase i; ``rho_kj`` lies in the sector of ``rho_jk``) the
    coordinate at ``rho_jk`` is ``rho_jj``, ``(rho_jk + rho_kj) / sqrt(2)``
    for j < k and ``i (rho_kj - rho_jk) / sqrt(2)`` for j > k; the blocks of
    Hermiticity-preserving maps, such as the period channels, are real in
    it. ``reflection`` (phase 1) pairs each W sector's states by ``q -> n_s
    - 1 - q`` on the system qubits, with ancilla ``a`` moved to
    ``mirror[a]``, and splits W by parity; it has one parity when
    ``mirror`` is None or when the move changes the frame or takes a state
    out of its sector. Where it has two, the same move of the system qubits
    takes each Hermitian coordinate of a cycle-map sector to one of the same
    sector, up to a sign, and ``map_reflection`` (phase that sign) splits
    the cycle map by parity; else it is ``reflection`` itself, whose split
    stacks are the stacks themselves.
    """

    n_s: int
    m_count: int
    generators: tuple[str, ...] = ()
    mirror: tuple[int, ...] | None = None
    frame: tuple[tuple[int, str], ...] = field(init=False)
    states: np.ndarray = field(init=False, repr=False, compare=False)
    pairs: np.ndarray = field(init=False, repr=False, compare=False)
    state_at: np.ndarray = field(init=False, repr=False, compare=False)
    pair_at: np.ndarray = field(init=False, repr=False, compare=False)
    hermitian: _PairBasis = field(init=False, repr=False, compare=False)
    reflection: _PairBasis = field(init=False, repr=False, compare=False)
    map_reflection: _PairBasis = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        letters = {q: w[q] for w in self.generators for q in range(self.n_s) if w[q] != "I"}
        count, d = 2 ** len(self.generators), 2**self.n_s
        masks = np.array([[c != "I" for c in w] for w in self.generators],
                         dtype=int).reshape(-1, self.n_s + self.m_count)
        # the parities under the generators of the system and of the ancilla
        # states; a composite state's, and a coherence's, are an xor of two
        system, ancilla = ((_bits(qubits) @ part.T & 1) @ (1 << np.arange(len(masks)))
                           for qubits, part in ((self.n_s, masks[:, :self.n_s]),
                                                (self.m_count, masks[:, self.n_s:])))
        states, pairs = (np.argsort((system[:, np.newaxis] ^ part).reshape(-1), kind="stable")
                         for part in (ancilla, system))
        object.__setattr__(self, "states", states.reshape(count, -1))
        object.__setattr__(self, "pairs", pairs.reshape(count, -1))
        object.__setattr__(self, "state_at", np.argsort(states))  # the inverse permutations
        object.__setattr__(self, "pair_at", np.argsort(pairs))
        object.__setattr__(self, "frame",
                           tuple((q, c) for q, c in sorted(letters.items()) if c in _TO_Z))
        pairs = self.pairs
        object.__setattr__(self, "hermitian", _PairBasis.of(
            self.pair_at[pairs % d * d + pairs // d] % pairs.shape[1], 1j))
        reflection = _PairBasis.of(self._reflection_image(), 1)
        object.__setattr__(self, "reflection", reflection)
        object.__setattr__(self, "map_reflection", _PairBasis.of(
            *self._map_reflection_image()) if reflection.order else reflection)

    def _reflection_image(self) -> np.ndarray:
        count, size = self.states.shape
        identity = np.tile(np.arange(size), (count, 1))
        letters = dict(self.frame)
        if self.mirror is None or any(letters.get(q) != letters.get(self.n_s - 1 - q)
                                      for q in range(self.n_s)):
            return identity
        n = self.n_s + self.m_count
        # qubit q moves to target[q]; qubit 0 is the most significant bit
        target = np.array([*range(self.n_s - 1, -1, -1), *(self.n_s + a for a in self.mirror)])
        image = self.state_at[(_bits(n) @ (1 << (n - 1 - target)))[self.states]]
        return np.where((image // size == np.arange(count)[:, None]).all(), image % size, identity)

    def _map_reflection_image(self) -> tuple[np.ndarray, np.ndarray]:
        """The reversal ``R`` of the system qubits on each cycle-map sector's
        Hermitian coordinates: the coordinate at ``rho_jk`` goes to the one
        at ``rho_R(j)R(k)``, or at ``rho_R(k)R(j)`` when ``R`` swaps the
        order of j and k, and then, for j > k, changes sign."""
        d, size = 2**self.n_s, self.pairs.shape[1]
        reverse = _bits(self.n_s) @ (1 << np.arange(self.n_s))
        k, j = np.divmod(self.pairs, d)
        swap = (j < k) != (reverse[j] < reverse[k])
        row, col = np.where(swap, reverse[k], reverse[j]), np.where(swap, reverse[j], reverse[k])
        return self.pair_at[col * d + row] % size, np.where(swap & (j > k), -1.0, 1.0)

    @property
    def gates(self) -> list[tuple[int, np.ndarray]]:
        """``(qubit, V)`` of the frame ``F``."""
        return [(q, _TO_Z[c][0]) for q, c in self.frame]

    @property
    def widths(self) -> tuple[list[int], list[int]]:
        """The widths of the blocks that W is powered in and of those that
        the cycle map is folded in, each in the order of its split stack."""
        return (self.reflection.widths(self.states.shape),
                self.map_reflection.widths(self.pairs.shape))

    def frame_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """The cycle-map blocks ``T^dag R T`` in the frame's computational
        basis, of the real cycle-map split stack ``blocks`` in the Hermitian
        basis."""
        h = self.hermitian
        left = h.dagger(self.map_reflection.unsplit(blocks).astype(complex))
        return h.dagger(left.conj().swapaxes(-1, -2)).conj().swapaxes(-1, -2)

    def superoperator(self, blocks: np.ndarray) -> np.ndarray:
        """The dense computational-basis superoperator with this real
        cycle-map split stack: ``U^dag T^dag R T U`` for ``U =
        kron(conj(F), F)``."""
        gates = ([(q, v.conj()) for q, v in self.gates]
                 + [(self.n_s + q, v) for q, v in self.gates])
        return _conjugate(gates, _scatter(self.frame_blocks(blocks), self.pairs))

    def state(self, v0: np.ndarray) -> np.ndarray:
        """The computational-basis matrix whose coordinates in the split
        Hermitian basis of the frame are ``v0`` on block 0, sector 0's even
        block under ``map_reflection``, and zero elsewhere."""
        coords = np.zeros(self.pairs.shape + (1,), dtype=complex)
        coords[0] = self.map_reflection.embed(v0[:, np.newaxis])
        flat = np.empty(4**self.n_s, dtype=complex)
        flat[self.pairs] = self.hermitian.dagger(coords)[..., 0]
        return _conjugate(self.gates, unvec(flat))


def _scatter(blocks: np.ndarray, index: np.ndarray) -> np.ndarray:
    out = np.zeros((index.size, index.size), dtype=complex)
    out[index[:, :, np.newaxis], index[:, np.newaxis, :]] = blocks
    return out


def pauli_sectors(spec: HamiltonianSpec, cfg: ProtocolConfig) -> Sectors:
    """The Pauli symmetries of the run ``(spec, cfg)`` and their sectors.

    Takes the Pauli words that commute with every nonzero term of ``spec``,
    each ancilla Z and each X_s X_a coupling, and keeps those with only I or
    one letter per system qubit: Z where some commuting word has a Z there,
    which needs no change of frame, else the first of X and Y that one has.
    Ancilla letters are always I or Z, since every word commutes with each
    ancilla Z. A graph model gets its n_s words Z_s Z_a(s); the
    transverse-field chain gets prod Y_s prod Z_a. This is the
    qubit-tapering construction of Bravyi et al., arXiv:1701.08213.

    The sectors' ``mirror`` is :func:`_mirror`'s ancilla move, whose pair
    basis :class:`Sectors` keeps when it also holds in their frame.
    """
    n_s, m = spec.qubit_count, cfg.m_count
    if any(q >= n_s for q in cfg.ancilla_map):
        raise DimensionMismatch(
            f"ancilla_map {cfg.ancilla_map} references qubits outside 0..{n_s - 1}"
        )
    n = n_s + m
    terms = [dict(enumerate(t.letters)) for t in spec.terms if t.coefficient != 0.0]
    terms += [{n_s + a: "Z"} for a in range(m)]
    terms += [{s: "X", n_s + a: "X"} for a, s in enumerate(cfg.ancilla_map)]
    commuting = _commuting_words(terms, n)
    letters = []
    for q in range(n_s):
        seen = sorted({w[q] for w in commuting} - {"I"})
        letters.append("Z" if "Z" in seen or not seen else seen[0])
    # a word commutes with the letter L on qubit q iff its letter there is I or L
    return Sectors(n_s, m, tuple(_commuting_words(
        terms + [{q: c} for q, c in enumerate(letters)], n)), _mirror(spec, cfg))


def _mirror(spec: HamiltonianSpec, cfg: ProtocolConfig) -> tuple[int, ...] | None:
    """The ancilla move of the reflection ``s -> n_s - 1 - s`` of the run
    ``(spec, cfg)``, found exactly: None unless the nonzero terms of
    ``spec``, their letters reversed, are the same terms with the same
    coefficients, and the reflected principals of ``cfg.ancilla_map`` are a
    permutation of it. Ancilla ``a`` moves to the first unused ancilla whose
    principal is the reflection of its own."""
    terms = sorted((t.letters, t.coefficient) for t in spec.terms if t.coefficient != 0.0)
    if sorted((word[::-1], c) for word, c in terms) != terms:
        return None
    mirror, free = [], list(range(cfg.m_count))
    for principal in cfg.ancilla_map:
        match = [b for b in free if cfg.ancilla_map[b] == spec.qubit_count - 1 - principal]
        if not match:
            return None
        free.remove(match[0])
        mirror.append(match[0])
    return tuple(mirror)


def _sectors(spec: HamiltonianSpec, cfg: ProtocolConfig) -> Sectors:
    """``pauli_sectors(spec, cfg)``, found once per model and ancilla map and
    kept with the model, so that the byte check at entry and every comb walk
    of one model share them."""
    kept = spec._sectors
    if cfg.ancilla_map not in kept:
        kept[cfg.ancilla_map] = pauli_sectors(spec, cfg)
    return kept[cfg.ancilla_map]


@dataclass(frozen=True)
class KrausSet:
    """Operational form of a channel: operators stacked as (count, dim, dim)
    with ``sum K^dag K = I``."""

    dim: int
    operators: np.ndarray

    def completeness_error(self) -> float:
        rows = self.operators.reshape(-1, self.dim)  # sum K^dag K as one GEMM
        return float(np.linalg.norm(rows.conj().T @ rows - np.eye(self.dim)))


@dataclass(frozen=True)
class Superoperator:
    """Channel as a dim x dim matrix on column-stacked density matrices
    (``dim = d**2`` for system dimension d)."""

    dim: int
    matrix: np.ndarray

    @property
    def system_dim(self) -> int:
        return int(round(np.sqrt(self.dim)))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        d = self.system_dim
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (d, d):
            raise DimensionMismatch(f"state shape {rho.shape}, expected ({d}, {d})")
        return unvec(self.matrix @ rho.T.reshape(-1))


@dataclass(frozen=True)
class CycleMap:
    """Composition of the ``n_cycle`` period channels, with their comb
    values: ``blocks`` is the map's split stack under
    ``sectors.map_reflection`` (see :class:`_PairBasis`), its blocks on the
    cycle-map sectors of ``sectors`` in the Hermitian basis of their frame
    (see :class:`Sectors`), where they are real, cut again by the
    reflection's parity where the model has one. :func:`build_cycle_maps`
    folds and :attr:`spectrum` diagonalizes it in float64;
    :attr:`superoperator` and :func:`steady_state` map back to the
    computational basis."""

    blocks: np.ndarray
    sectors: Sectors
    omegas: tuple[float, ...]
    _spectrum: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _superoperator: Superoperator | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def superoperator(self) -> Superoperator:
        """The dense computational-basis view of the map, assembled on first
        use."""
        if self._superoperator is None:
            object.__setattr__(self, "_superoperator", Superoperator(
                4**self.sectors.n_s, self.sectors.superoperator(self.blocks)))
        return self._superoperator

    @property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(w, block, v0)``: every eigenvalue of the map by descending
        ``|lam|``, the block of the split stack each comes from, and the
        eigenvectors of block 0 (sector 0's even block), the only one whose
        matrices have a trace, in its basis, as columns in the order its
        eigenvalues take in ``w``. The one diagonalization, one stacked call
        per block width, that :func:`steady_state` and :func:`spectral_gap`
        share, in the arithmetic of the blocks: complex eigenvalues of real
        blocks come in conjugate pairs. Computed on first use; the blocks
        must not change afterwards."""
        if self._spectrum is None:
            basis = self.sectors.map_reflection
            eigs = [dominant_eigs(part) for part in basis.parts(self.blocks)]
            w = np.concatenate([w.reshape(-1) for w, _ in eigs])
            widths = basis.widths(self.sectors.pairs.shape)
            order = np.argsort(-np.abs(w), kind="stable")
            block = np.repeat(np.arange(len(widths)), widths)
            object.__setattr__(self, "_spectrum", (w[order], block[order], eigs[0][1][0]))
        return self._spectrum


def _thread_map(fn, items, workers: int | None) -> Iterator:
    """``fn(x)`` for each of ``items``, lazily and in order. With ``workers``
    above one and more than one item, the calls run across that many threads
    and at most ``workers`` of them are in flight at once."""
    if workers is None or workers <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    # imported here: concurrent.futures pulls in logging, several ms of
    # start-up that a run without worker threads never needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for x in items:
            if len(pending) == workers:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, x))
        while pending:
            yield pending.popleft().result()


def _trotter_parts(spec: HamiltonianSpec, cfg: ProtocolConfig):
    """Omega-independent pieces of one Trotter step in the frame of the
    run's sectors: the sectors, the split stack under their ``reflection``
    (:meth:`_PairBasis.split`) of the step's blocks, and the split weights
    ``w`` of the phase diagonal ``exp(i (omega dt / 2) w)``: each ancilla
    adds +1 in ``|0>`` and -1 in ``|1>``. The couplings ``exp(-i theta L_p
    X_a)`` commute, so the step (couplings @ u_s) is ``sum_S c_S L_S u_s
    (x) X^S``, ``c_S = cos^(M-|S|) theta (-i sin theta)^|S|``: block entry
    ``((x, a), (y, b))`` is ``c_(a^b) (L_(a^b) u_s)[x, y]``, gathered from
    the 2^M system-size products ``L_S u_s`` (ancilla 0 the top bit of S)."""
    sectors = _sectors(spec, cfg)
    n_s, m = spec.qubit_count, cfg.m_count
    # F u_s F^dag: conjugation by the inverse gates
    u_s = _conjugate([(q, v.conj().T) for q, v in sectors.gates],
                     expm_hermitian(spec.spectrum, -1j * (cfg.t_g / cfg.n_trotter)))
    coupled = {q: _TO_Z[c][1] for q, c in sectors.frame}
    products = u_s[:, np.newaxis, :]
    for principal in cfg.ancilla_map:
        flipped = _apply_frame(products[np.newaxis].copy(),
                               [(principal, PAULIS[coupled.get(principal, "X")])])[0]
        products = np.stack([products, flipped], axis=2).reshape(2**n_s, -1, 2**n_s)
    theta = np.pi / cfg.n_trotter  # = g dt exactly
    ones = _bits(m).sum(axis=1)
    products *= (np.cos(theta) ** (m - ones) * (-1j * np.sin(theta)) ** ones)[:, np.newaxis]
    x, a = np.divmod(sectors.states, 2**m)
    blocks = products[x[:, :, np.newaxis], a[:, :, np.newaxis] ^ a[:, np.newaxis, :],
                      x[:, np.newaxis, :]]
    return (sectors, *sectors.reflection.split(blocks, m - 2.0 * ones[a]))


def _w_bytes(sectors: Sectors) -> int:
    """Bytes of one comb value's W blocks: the sector blocks that
    :func:`_period_unitary`'s split stack, never larger, is unsplit into."""
    return 16 * sectors.states.size * sectors.states.shape[1]


def _period_unitary(sectors: Sectors, ab: np.ndarray, weights: np.ndarray,
                    cfg: ProtocolConfig, omegas) -> np.ndarray:
    """The split stacks of W(Omega) under ``sectors.reflection`` for each of
    ``omegas``, as a (values, ...) stack: every block of the step from
    :func:`_trotter_parts` powered by repeated squaring, one stacked call
    per block width. The squarings leave W unitary only to about
    ``n_trotter`` roundoffs; one stacked Newton-Schulz step ``W (3 - W^dag
    W) / 2`` toward its polar factor squares that defect away, so the period
    channels preserve the trace to roundoff."""
    dt = cfg.t_g / cfg.n_trotter
    angle = np.asarray(omegas, dtype=float) * dt / 2.0
    basis = sectors.reflection
    out = np.empty(angle.shape + ab.shape, dtype=complex)
    for ab_k, weights_k, out_k in zip(basis.parts(ab), basis.parts(weights, 1), basis.parts(out)):
        phase = np.exp(1j * angle[:, np.newaxis, np.newaxis] * weights_k)
        w = np.linalg.matrix_power(ab_k * phase[:, :, np.newaxis, :], cfg.n_trotter)
        np.matmul(w, 1.5 * np.eye(w.shape[-1]) - 0.5 * (w.conj().swapaxes(-1, -2) @ w), out=out_k)
    return out


def build_period_unitary(spec: HamiltonianSpec, cfg: ProtocolConfig,
                         omega: float) -> np.ndarray:
    """First-order Trotterization of one interaction period.

    ``W = [(prod_m e^{-i g X X dt}) e^{-i H_s dt} (prod_m e^{+i (omega/2) Z dt})]^{n_trotter}``
    with ``dt = T_g / n_trotter``, acting on the N_s + M composite register.
    Ancilla-phase factors act first, then the system step, then the
    interactions; each symmetry sector's block of the power is computed by
    repeated squaring, which reproduces the step-by-step product to working
    precision, and the blocks are assembled into the dense matrix.

    Over ``T_g = pi / g`` a resonant exchange under ``g X X`` completes a
    full 2 pi turn and moves no population; detuned ones move it, most at
    ``|Delta| = 2.05 g`` (see :mod:`qmcmc.schedule`).
    """
    sectors, ab, weights = _trotter_parts(spec, cfg)
    w = sectors.reflection.unsplit(_period_unitary(sectors, ab, weights, cfg, [omega]))
    return _conjugate(sectors.gates, _scatter(w[0], sectors.states))  # F^dag W F


def _period_table(spec: HamiltonianSpec, cfg: ProtocolConfig, per_omega,
                  workers: int | None = None) -> Iterator:
    """The one walk over a comb cycle, for the exact map and the sampler:
    yields ``per_omega(Omega_k, blocks of W(Omega_k))`` for k = 0..n_cycle
    // 2 in order, with ``Omega_k = comb_value(cfg, k)``; the symmetric comb
    repeats these backwards. W is built once per run of equal values
    (:func:`_walk_plan`), one :func:`_period_unitary` call per chunk of
    runs, and unsplit by the one gather that the walk builds before its
    threads start; with ``workers`` threads at most that many chunks are in
    flight. A chunk's W blocks are dropped once its values' ``per_omega``
    results are built, and each result is yielded once per period of its run
    and then dropped."""
    sectors, ab, weights = _trotter_parts(spec, cfg)
    lengths, chunks = _walk_plan(cfg, sectors)
    gather = sectors.reflection.unsplit_gather()

    def build(chunk: tuple[float, ...]) -> list:
        w = sectors.reflection.unsplit(_period_unitary(sectors, ab, weights, cfg, chunk), gather)
        # reversed, so that the walk pops each result in turn
        return [per_omega(omega, w_k) for omega, w_k in zip(chunk, w)][::-1]

    runs = iter(lengths)
    for built in _thread_map(build, chunks, workers):
        while built:
            yield from itertools.repeat(built.pop(), next(runs))


def _walk_plan(cfg: ProtocolConfig, sectors: Sectors) -> tuple[tuple[int, ...], list[tuple]]:
    """The runs of equal values among ``Omega_k = comb_value(cfg, k)`` for k
    = 0..n_cycle // 2, which never decrease, so that equal values are
    neighbours: each run's length, and the runs' values in order, in chunks
    of as many as their W blocks (:func:`_w_bytes`) fit ``_CHUNK_BYTES``, at
    least one: the plan that :func:`_period_table` walks and
    :func:`run_bytes` counts."""
    half = (comb_value(cfg, k) for k in range(cfg.n_cycle // 2 + 1))
    values, lengths = zip(*((omega, len(list(run))) for omega, run in itertools.groupby(half)))
    per_chunk = max(1, _CHUNK_BYTES // _w_bytes(sectors))
    return lengths, [values[i:i + per_chunk] for i in range(0, len(values), per_chunk)]


def run_bytes(spec: HamiltonianSpec, cfg: ProtocolConfig, sample: bool,
              betas: int = 1) -> int:
    """Predicted bytes of the arrays that one serial run of ``(spec, cfg)``
    holds at its peak: the sampler's shared column tables when ``sample``,
    else the exact path folding the cycle maps of ``betas`` inverse
    temperatures at once.

    The sampler keeps one column table per run of equal comb values
    (:func:`_walk_plan`), its W blocks' entries in the order the shots read
    them (:func:`_w_bytes`).
    The exact path holds one walk chunk (:func:`_walk_bytes`) while it
    powers it, three dense 4^(n_s+M) arrays while one value's W
    becomes its Kraus sets and channel blocks, the tables that each walk
    builds once (:func:`_table_bytes`), and up to seven split stacks of
    cycle-map blocks per beta, float64 in the Hermitian basis, while it
    folds the cycle and solves for its spectrum.
    """
    dense = 16 * 4 ** (spec.qubit_count + cfg.m_count)
    sectors = _sectors(spec, cfg)
    if sample:
        return sum(map(len, _walk_plan(cfg, sectors)[1])) * _w_bytes(sectors)
    return (_walk_bytes(spec, cfg) + 3 * dense + _table_bytes(sectors)
            + 7 * betas * _map_bytes(sectors))


def _map_bytes(sectors: Sectors) -> int:
    """Bytes of one split stack of real cycle-map blocks."""
    return 8 * sum(w * w for w in sectors.widths[1])


def _table_bytes(sectors: Sectors) -> int:
    """Bytes of the tables that one exact walk builds and its threads share:
    the real gather, an index and a coefficient per term and split entry,
    two terms for one parity and four for two (:func:`_real_gather`), and
    with a reflection W's unsplit gather, two of each per sector-block
    entry (:meth:`_PairBasis.unsplit_gather`)."""
    terms = 4 if sectors.map_reflection.order else 2
    unsplit = 2 * _w_bytes(sectors) if sectors.reflection.order else 0
    return 2 * terms * _map_bytes(sectors) + unsplit


def _walk_bytes(spec: HamiltonianSpec, cfg: ProtocolConfig) -> int:
    """Bytes that the comb walk's first, largest chunk holds while it is
    powered: about five times its values' W blocks (:func:`_w_bytes`)."""
    sectors = _sectors(spec, cfg)
    return 5 * len(_walk_plan(cfg, sectors)[1][0]) * _w_bytes(sectors)


def admit_spins(n_s: int) -> None:
    """Refuses with InvalidSize a system of over ``MAX_SPINS`` spins: the one
    spin cap, checked before the model is built and again by
    :func:`admit_run`."""
    if n_s > MAX_SPINS:
        raise InvalidSize(f"system size {n_s} exceeds the limit of {MAX_SPINS} spins")


def admit_run(spec: HamiltonianSpec, cfg: ProtocolConfig, kind: str, betas: int = 1,
              workers: int | None = None, batch: int = _CHUNK_ELEMS) -> int:
    """The entry rule of every run. Refuses a run of over ``MAX_SPINS`` spins
    (:func:`admit_spins`); with ValueError a config whose Trotter step
    ``dt = t_g / n_trotter`` overflows a step's largest phase, ``omega_m dt
    M / 2`` on the ancillas or ``||H_s|| dt`` on the system; and with
    InvalidSize a ``kind`` run that would exceed ``MAX_RUN_BYTES`` on one
    thread, except a ``"validate"`` run, which only predicts its bytes.
    Returns ``workers`` cut to the threads that fit, at least 1.

    A thread holds its run's :func:`run_bytes` for ``betas`` but what the
    threads share: one ``"exact"`` walk's tables, built before they
    start (a sweep's groups, which may be different models, count it per
    thread), or the sampler's column tables, :func:`run_bytes` with
    ``sample``, beside which each thread holds its own walk chunk
    (:func:`_walk_bytes`) and about three buffers of its shot batch of
    ``batch`` amplitudes, by default the largest batch a thread runs, so that
    the check at entry, before the shot count is known, refuses whatever the
    run would."""
    admit_spins(spec.qubit_count)
    dt = cfg.t_g / cfg.n_trotter
    if not all(map(math.isfinite, (cfg.omega_m * dt * cfg.m_count, spectral_norm(spec) * dt))):
        raise ValueError(f"omega_m = {cfg.omega_m:g} and ||H_s|| = {spectral_norm(spec):g} "
                         f"overflow one Trotter step of dt = {dt:g}")
    if kind == "validate":
        return 1
    held = run_bytes(spec, cfg, kind == "sample", betas)
    shared, each = 0, held
    if kind == "sample":
        shared, each = held, _walk_bytes(spec, cfg) + 3 * 16 * batch
    elif kind == "exact":  # the walk's gathers
        shared = _table_bytes(_sectors(spec, cfg))
        each = held - shared
    if shared + each > MAX_RUN_BYTES:
        per_thread = f" and {each} more per thread" if kind == "sample" else ""
        raise InvalidSize(f"this {kind} run would hold {held} bytes ({held / 2**30:.1f} GiB) "
                          f"at once{per_thread}; the limit is {MAX_RUN_BYTES >> 30} GiB")
    return max(1, min(workers or 1, (MAX_RUN_BYTES - shared) // each))


def ancilla_preparation(omega: float, beta: float, m_count: int) -> np.ndarray:
    """Product distribution over the 2^M ancilla basis states after reset
    plus probabilistic excitation: ``P(b) = prod_m p0^(1-b_m) (1-p0)^(b_m)``,
    one product over the 2^M x M bit table, ancilla 0 first."""
    p0 = ground_probability(omega, beta)
    return np.array([p0, 1.0 - p0])[_bits(m_count)].prod(axis=1, initial=1.0)


def build_period_channel(w: np.ndarray, prep: np.ndarray, n_s: int,
                         m_count: int) -> KrausSet:
    """Reduced system channel of one period as a Kraus set.

    ``K_(i,b) = sqrt(P(b)) <i|_anc W |b>_anc`` over all ancilla basis pairs;
    operators with Frobenius norm below ``_PRUNE_TOL`` are dropped (harmless
    to completeness, bounds the 4^M operator count when p0 -> 1).
    """
    d_s, d_a = 2**n_s, 2**m_count
    w = np.asarray(w, dtype=complex)
    if w.shape != (d_s * d_a, d_s * d_a):
        raise DimensionMismatch(
            f"unitary shape {w.shape}, expected {(d_s * d_a, d_s * d_a)}"
        )
    prep = np.asarray(prep, dtype=float)
    if prep.shape != (d_a,):
        raise DimensionMismatch(f"prep length {prep.shape}, expected ({d_a},)")
    if abs(prep.sum() - 1.0) > 1e-9 or prep.min() < -1e-12:
        raise ValueError("prep is not a probability distribution")
    blocks = w.reshape(d_s, d_a, d_s, d_a).transpose(1, 3, 0, 2)  # [i, b, :, :]
    kraus = np.ascontiguousarray(
        (np.sqrt(np.clip(prep, 0.0, None))[np.newaxis, :, None, None] * blocks)
        .reshape(d_a * d_a, d_s * d_s))
    parts = kraus.view(float)  # squared norms, without a temporary
    keep = np.einsum("ij,ij->i", parts, parts) >= _PRUNE_TOL**2
    del parts  # a view: it would keep the unpruned operators alive
    kraus = kraus[keep]
    kset = KrausSet(dim=d_s, operators=kraus.reshape(-1, d_s, d_s))
    err = kset.completeness_error()
    if err >= 1e-8:
        raise CompletenessViolation(
            f"sum K^dag K deviates from identity by {err:.3e}", deviation=err
        )
    return kset


def to_superoperator(kraus: KrausSet) -> Superoperator:
    """Column-stacking superoperator ``sum_K kron(conj(K), K)``: an index
    reshuffle of the Gram matrix of the flattened operators (one GEMM), the
    one-sector case of the cycle map's blocks."""
    d = kraus.dim
    pairs = np.arange(d * d)[np.newaxis]  # one sector: its own inverse
    gram = _grams(_sector_entries(kraus.operators, pairs))
    return Superoperator(d * d, gram.reshape(-1)[_gram_gather(pairs, pairs[0])[0]])


def superoperator_to_choi(s: Superoperator) -> np.ndarray:
    """Reshuffle a column-stacking superoperator into its Choi matrix."""
    d = s.system_dim
    return s.matrix.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def build_cycle_maps(spec: HamiltonianSpec, cfg: ProtocolConfig, betas,
                     workers: int | None = None) -> list[CycleMap]:
    """The cycle maps of ``(spec, cfg)`` at each inverse temperature of
    ``betas``, in order; ``cfg.beta`` is not read.

    Period k uses ``Omega_k = comb_value(cfg, k)`` both in the unitary and in
    the ancilla preparation; the maps carry these values. W does not depend
    on beta, so :func:`_period_table` builds it once per distinct Omega
    (across ``workers`` threads when requested), and each beta's channel is
    built from it, in the frame of the run's sectors (:func:`_sectors`,
    looked up once here), as its cycle-map split stack:
    the dense W is scattered once per Omega, every beta's Gram blocks are
    stacked, and the stack becomes real blocks, split by the reflection's
    parity where there is one, in one :func:`_real_blocks` call, with the
    gather that this walk alone builds and holds. The symmetric comb makes
    the cycle a palindrome, which is folded for every beta at once, on a
    leading beta axis, in float64, block by block, as the walk yields the
    channels in period order: the run holds about five sets of blocks per
    beta, whatever ``n_cycle``, and multiplies as often as the sequential
    product with period 0 applied first. :func:`admit_run` refuses an
    oversized run before any work, and the walk runs on the threads it
    admits.
    """
    n_s, m = spec.qubit_count, cfg.m_count
    betas = tuple(betas)
    if not betas:
        raise ValueError("betas must be nonempty")
    workers = admit_run(spec, cfg, "exact", len(betas), workers)
    sectors = _sectors(spec, cfg)
    # built here, on the calling thread, before the walk's threads share it
    gather = _real_gather(sectors)
    mul = sectors.map_reflection.matmul

    def superops(omega: float, w: np.ndarray) -> np.ndarray:
        dense = _scatter(w, sectors.states)
        count, size = sectors.pairs.shape
        grams = np.empty((len(betas), count, size, size), dtype=complex)
        for i, beta in enumerate(betas):
            kraus = build_period_channel(dense, ancilla_preparation(omega, beta, m), n_s, m)
            entries = _sector_entries(kraus.operators, sectors.pairs)
            del kraus  # beside the dense W, at most two more dense arrays at once
            _grams(entries, out=grams[i])
            del entries  # before the next beta's Kraus set is built
        del dense
        return _real_blocks(gather, grams)

    factors = _period_table(spec, cfg, superops, workers)
    # S_(n-k) = S_k, so the cycle S_(n-1)...S_1 S_0 is R M L S_0 with
    # L = S_h...S_1 and R = S_1...S_h for h = ceil(n/2) - 1, and M = S_(n/2)
    # for even n, the identity for odd n: each S_k is used twice and dropped
    total = next(factors)
    left = right = None
    for _ in range((cfg.n_cycle + 1) // 2 - 1):
        s = next(factors)
        left = s if left is None else mul(s, left)
        right = s if right is None else mul(right, s)
        del s
    for factor in (left, next(factors, None), right):
        if factor is not None:
            total = mul(factor, total)
    omegas = tuple(comb_value(cfg, k) for k in range(cfg.n_cycle))
    return [CycleMap(blocks, sectors, omegas) for blocks in total]


def build_cycle_map(spec: HamiltonianSpec, cfg: ProtocolConfig,
                    workers: int | None = None) -> CycleMap:
    """Compose the ``n_cycle`` period channels of one full comb sweep at
    ``cfg.beta``: the one-beta case of :func:`build_cycle_maps`."""
    return build_cycle_maps(spec, cfg, (cfg.beta,), workers)[0]


def steady_state(m: CycleMap) -> tuple[np.ndarray, complex]:
    """Fixed point of the cycle map and its dominant eigenvalue.

    Requires ``|lam_1 - 1| < 1e-6``. The fixed point is the least-squares
    projection of the maximally mixed state ``I/d`` onto the span of the
    eigenvectors with eigenvalue within 1e-6 of 1, among the ``_MAX_CLUSTER``
    dominant pairs: the infinite-time limit seeded from an unbiased state.
    A simple unit eigenvalue gives its eigenvector; a degenerate one, as in
    models with conserved quantities (the infinite-temperature single-site
    chain is one such case), gives ``I/d`` whenever that is a fixed point.
    Only eigenvectors of block 0, sector 0's even block, have a trace or
    overlap ``I/d``, so only they enter. The result is scaled to unit trace,
    Hermitized, and its negative eigenvalues clipped to zero (at most 1e-6
    total mass) before renormalizing.
    """
    w, block, v0 = m.spectrum
    w, block = w[:_MAX_CLUSTER], block[:_MAX_CLUSTER]
    lam1 = complex(w[0])
    if abs(lam1 - 1.0) >= 1e-6:
        raise NoUnitEigenvalue(
            f"largest-modulus eigenvalue {lam1} is not within 1e-6 of 1"
        )
    cluster = np.abs(w - 1.0) < 1e-6
    size = int(cluster.sum())
    if size == len(w):
        raise NoUnitEigenvalue(
            f"at least {size} eigenvalues lie within 1e-6 of 1; "
            "the fixed point is not meaningfully defined"
        )
    # block 0's eigenvalues keep their order in w, so the k-th is column k of v0
    column = np.cumsum(block == 0) - 1
    basis = v0[:, column[cluster & (block == 0)]]
    if basis.shape[1] == 0:
        raise NoUnitEigenvalue("fixed-point eigenvector has vanishing trace")
    d = 2**m.sectors.n_s
    # the Hermitian basis keeps the diagonal coordinates, so these are I's
    # in sector 0, where the block's vectors are embedded isometrically
    identity = (m.sectors.pairs[0] % (d + 1) == 0).astype(complex)
    embedded = m.sectors.map_reflection.embed(basis)
    coeff, *_ = np.linalg.lstsq(embedded, identity / d, rcond=None)
    rho = m.sectors.state(basis @ coeff)
    tr = np.trace(rho)
    if abs(tr) < 1e-9:
        raise NoUnitEigenvalue("fixed-point eigenvector has vanishing trace")
    rho = rho / tr
    rho = (rho + rho.conj().T) / 2.0
    ev, basis = np.linalg.eigh(rho)
    clipped = float(-ev[ev < 0].sum())
    if clipped > 1e-6:
        raise NegativeEigenvalue(
            f"clipping negative eigenvalues would remove {clipped:.3e} mass"
        )
    ev = np.clip(ev, 0.0, None)
    rho = (basis * ev) @ basis.conj().T
    rho /= np.trace(rho).real
    return rho, lam1


def spectral_gap(m: CycleMap) -> tuple[float, bool]:
    """``1 - |lam_2|`` of the cycle map and whether the unit eigenvalue is
    non-degenerate (exactly one eigenvalue within 1e-6 of 1), read off the
    map's full spectrum, every sector's eigenvalues merged. Sub-roundoff
    negative gaps (above -1e-6) are clamped to zero.
    """
    w = m.spectrum[0]
    gap = 1.0 - abs(w[1])
    if -1e-6 < gap < 0.0:
        gap = 0.0
    unique = int(np.sum(np.abs(w - 1.0) < 1e-6)) == 1
    return float(gap), bool(unique)
