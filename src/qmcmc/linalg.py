"""Dense matrix kernels used by every other module.

Conventions fixed here and used consistently across the package:

* Qubit 0 is the leftmost tensor factor, i.e. the most significant bit of a
  computational-basis index.
* Density matrices are vectorized by column stacking, so the map
  ``rho -> A rho B^†`` has superoperator matrix ``kron(conj(B), A)``.

The bookkeeping of the qubit order lives here once: :func:`_bits` is the
package's one bit table, read by the sector labels, the reflections, the
ancilla preparation and the model matrix, and :func:`_apply_frame` its one
entrywise one-qubit kernel, for the shots' frame, the Trotter step's Pauli
flips, both passes of the frame's conjugation and the magnetization's
``Y_i rho``. ``_apply_frame``
overwrites its argument; all public functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NonHermitianInput

_HERM_RTOL = 1e-10


def unvec(v: np.ndarray) -> np.ndarray:
    """The square matrix whose column stacking is ``v``: the inverse of
    ``m.T.reshape(-1)``."""
    v = np.asarray(v)
    dim = int(round(np.sqrt(v.size)))
    if dim * dim != v.size:
        raise DimensionMismatch(f"cannot unvec a vector of length {v.size}")
    return v.reshape(dim, dim).T.copy()


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {h.shape}")
    # exact rescaling by a power of two keeps both norms from overflowing
    scale = 2.0 ** max(int(np.frexp(np.abs(h).max(initial=0.0))[1]) - 1, 0)
    unit = h / scale
    norm = float(np.linalg.norm(unit))
    dev = float(np.linalg.norm(unit - unit.conj().T))
    if dev > _HERM_RTOL * norm:
        raise NonHermitianInput(
            f"matrix is not Hermitian: ||h - h^dag|| = {dev * scale:.3e} "
            f"exceeds {_HERM_RTOL:g} * ||h|| = {_HERM_RTOL * norm * scale:.3e}"
        )
    return h


def hermitian_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition ``(w, v)`` of a Hermitian matrix: ``w`` real
    and ascending, column i of the unitary ``v`` pairing with ``w[i]``.

    Raises NonHermitianInput when ``||h - h^dag||_F`` exceeds 1e-10 ``||h||_F``.
    """
    return np.linalg.eigh(_check_hermitian(h))


def expm_hermitian(eig: tuple[np.ndarray, np.ndarray], c: complex) -> np.ndarray:
    """``exp(c * h)`` for Hermitian ``h`` from ``eig = hermitian_eig(h)``.

    For purely imaginary ``c`` the result is unitary to working precision;
    this covers every exponentiated operator in the protocol, so no general
    scaling-and-squaring code path is needed.
    """
    w, v = eig
    return (v * np.exp(c * w)) @ v.conj().T


@functools.cache
def _bits(n: int) -> np.ndarray:
    """The (2^n, n) bits of every basis index, qubit 0 (the most significant
    bit) first: the one bit table of the package, built once per ``n`` and
    read-only."""
    bits = np.arange(2**n)[:, np.newaxis] >> np.arange(n - 1, -1, -1) & 1
    bits.flags.writeable = False
    return bits


def _apply_frame(v: np.ndarray, gates) -> np.ndarray:
    """The contiguous (batch, 2^n, ...) ``v``, overwritten with the
    one-qubit ``gates`` ``(q, g)`` applied to each row, entry by entry, for
    qubit ``q`` the ``q``-th most significant bit of a row's flat index. The
    one one-qubit kernel of the package: the shots' frame, the Trotter
    step's Pauli flips, the row and column passes of a conjugation, and
    ``Y_i rho`` for the magnetization."""
    for q, g in gates:
        t = v.reshape(len(v), 2**q, 2, -1)
        zero, one = t[:, :, 0], t[:, :, 1]
        kept = zero.copy()
        zero *= g[0, 0]
        zero += g[0, 1] * one
        one *= g[1, 1]
        one += g[1, 0] * kept
    return v


def apply_gate(gate: np.ndarray, qubits, arr: np.ndarray, qubit_count: int) -> np.ndarray:
    """Left-multiply an operator by a local gate.

    The rows of ``arr`` (``2**qubit_count`` of them) are treated as a
    register of ``qubit_count`` qubits; ``gate`` (a ``2**k`` by ``2**k``
    matrix) acts on the listed ``qubits`` of that register, without ever
    forming the full Kronecker product.
    """
    arr = np.asarray(arr)
    qubits = list(qubits)
    k = len(qubits)
    n = int(qubit_count)
    if arr.shape[0] != 2**n:
        raise DimensionMismatch(f"axis 0 has size {arr.shape[0]}, expected {2**n}")
    if len(set(qubits)) != k or any(q < 0 or q >= n for q in qubits):
        raise DimensionMismatch(f"invalid qubit list {qubits} for {n} qubits")
    shape = arr.shape
    t = arr.reshape((2,) * n + shape[1:])
    g = np.asarray(gate).reshape((2,) * (2 * k))
    t = np.tensordot(g, t, axes=(list(range(k, 2 * k)), qubits))
    t = np.moveaxis(t, list(range(k)), qubits)
    return np.ascontiguousarray(t).reshape(shape)


def dominant_eigs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenpair ``(w, v)`` of a square matrix or of each block of a
    ``(k, n, n)`` stack, sorted by descending ``|lam|`` within each block,
    column i of ``v`` (unit norm) pairing with ``w[..., i]``.

    One dense non-Hermitian diagonalization for the whole stack, in the
    arithmetic of its dtype: a real stack is solved in real arithmetic, and
    its complex eigenvalues come in conjugate pairs of equal ``|lam|`` (``w``
    and ``v`` are complex when any block has one). Every pair satisfies
    ``||M v - lam v|| <= 1e-8 ||M||_F`` for the Frobenius norm of its own
    block, else ConvergenceFailure is raised, naming the block.
    """
    m = np.asarray(m)
    if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
        raise DimensionMismatch(f"expected a square matrix or a stack of them, got {m.shape}")
    stack = m.reshape((-1,) + m.shape[-2:])
    w, v = np.linalg.eig(stack)
    order = np.argsort(-np.abs(w), axis=-1)
    w = np.take_along_axis(w, order, axis=-1)
    v = np.take_along_axis(v, order[:, np.newaxis, :], axis=-1)
    res = np.linalg.norm(stack @ v - v * w[:, np.newaxis, :], axis=1).max(axis=1)
    norm = np.linalg.norm(stack, axis=(1, 2))
    excess = res / (1e-8 * np.maximum(norm, 1e-300))
    worst = int(np.argmax(excess))
    if excess[worst] > 1.0:
        where = f"block {worst}: " if m.ndim == 3 else ""
        raise ConvergenceFailure(
            f"{where}eigenpair residual {res[worst]:.3e} exceeds 1e-8 * ||M|| = "
            f"{1e-8 * norm[worst]:.3e}"
        )
    return w.reshape(m.shape[:-1]), v.reshape(m.shape)
