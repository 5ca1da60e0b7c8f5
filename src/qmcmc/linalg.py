"""Dense complex-matrix kernels used by every other module.

Conventions fixed here and used consistently across the package:

* Qubit 0 is the leftmost tensor factor, i.e. the most significant bit of a
  computational-basis index.
* Density matrices are vectorized by column stacking, so the map
  ``rho -> A rho B^†`` has superoperator matrix ``kron(conj(B), A)``.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NonHermitianInput

_HERM_RTOL = 1e-10


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(np.asarray(a), np.asarray(b))


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(mat).T.reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec` for square matrices."""
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


def expm_hermitian(h: np.ndarray, c: complex) -> np.ndarray:
    """``exp(c * h)`` for Hermitian ``h`` via eigendecomposition.

    For purely imaginary ``c`` the result is unitary to working precision;
    this covers every exponentiated operator in the protocol, so no general
    scaling-and-squaring code path is needed.
    """
    w, v = hermitian_eig(h)
    return (v * np.exp(c * w)) @ v.conj().T


def apply_gate(gate: np.ndarray, qubits, arr: np.ndarray, qubit_count: int,
               axis: int = 0) -> np.ndarray:
    """Apply a local gate to one tensor index of an array.

    The dimension ``axis`` of ``arr`` (of size ``2**qubit_count``) is treated
    as a register of ``qubit_count`` qubits; ``gate`` (a ``2**k`` by ``2**k``
    matrix) acts on the listed ``qubits`` of that register, without ever
    forming the full Kronecker product. The package calls it with axis=0, to
    left-multiply operators by local gates.
    """
    arr = np.asarray(arr)
    qubits = list(qubits)
    k = len(qubits)
    n = int(qubit_count)
    axis = axis % arr.ndim
    if arr.shape[axis] != 2**n:
        raise DimensionMismatch(
            f"axis {axis} has size {arr.shape[axis]}, expected {2**n}"
        )
    if len(set(qubits)) != k or any(q < 0 or q >= n for q in qubits):
        raise DimensionMismatch(f"invalid qubit list {qubits} for {n} qubits")
    shape = arr.shape
    t = arr.reshape(shape[:axis] + (2,) * n + shape[axis + 1:])
    g = np.asarray(gate).reshape((2,) * (2 * k))
    qaxes = [axis + q for q in qubits]
    t = np.tensordot(g, t, axes=(list(range(k, 2 * k)), qaxes))
    t = np.moveaxis(t, list(range(k)), qaxes)
    return np.ascontiguousarray(t).reshape(shape)


def dominant_eigs(m: np.ndarray, k: int):
    """The ``k`` eigenpairs of largest modulus, sorted by descending ``|lam|``.

    One dense non-Hermitian diagonalization; eigenvectors are unit-norm
    columns of the sorted eigenvector matrix. Every returned pair satisfies
    ``||M v - lam v|| <= 1e-8 ||M||_F``, else ConvergenceFailure is raised.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {m.shape}")
    dim = m.shape[0]
    if not 1 <= k <= dim:
        raise DimensionMismatch(f"k={k} outside 1..{dim}")

    w, v = np.linalg.eig(m)
    order = np.argsort(-np.abs(w))[:k]
    w, v = w[order], v[:, order]
    res = np.linalg.norm(m @ v - v * w, axis=0)
    norm = np.linalg.norm(m)
    worst = int(np.argmax(res))
    if res[worst] > 1e-8 * max(norm, 1e-300):
        raise ConvergenceFailure(
            f"eigenpair residual {res[worst]:.3e} exceeds 1e-8 * ||M|| = "
            f"{1e-8 * norm:.3e}"
        )
    return [(complex(w[i]), v[:, i]) for i in range(k)]
