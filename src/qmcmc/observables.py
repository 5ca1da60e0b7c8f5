"""Thermalization-quality metrics: Uhlmann fidelity, total variation
distance, and transverse magnetization."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotADistribution, NotAState
from .hamiltonians import PAULIS
from .linalg import apply_gate

_EIG_TOL = -1e-9
_TRACE_TOL = 1e-8


def _check_state(rho: np.ndarray, name: str) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise NotAState(f"{name}: not a square matrix (shape {rho.shape})")
    dev = np.linalg.norm(rho - rho.conj().T)
    if dev > 1e-8 * max(np.linalg.norm(rho), 1.0):
        raise NotAState(f"{name}: not Hermitian (||rho - rho^dag|| = {dev:.3e})")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > _TRACE_TOL:
        raise NotAState(f"{name}: trace {tr} deviates from 1 by more than {_TRACE_TOL:g}")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if w.min() < _EIG_TOL:
        raise NotAState(
            f"{name}: minimum eigenvalue {w.min():.3e} below tolerance {_EIG_TOL:g}"
        )
    return rho


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity ``(tr sqrt(sqrt(rho) sigma sqrt(rho)))^2``.

    Computed as the squared sum of singular values of
    ``sqrt(rho) sqrt(sigma)``, which avoids the outer matrix square root;
    clamped to [0, 1].
    """
    rho = _check_state(rho, "rho")
    sigma = _check_state(sigma, "sigma")
    if rho.shape != sigma.shape:
        raise DimensionMismatch(f"state shapes differ: {rho.shape} vs {sigma.shape}")
    s = np.linalg.svd(_psd_sqrt(rho) @ _psd_sqrt(sigma), compute_uv=False)
    return float(min(1.0, max(0.0, s.sum() ** 2)))


def tvd(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance ``0.5 * sum |p_i - q_i|``."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise DimensionMismatch(f"distribution shapes differ: {p.shape} vs {q.shape}")
    for name, vecp in (("p", p), ("q", q)):
        if abs(vecp.sum() - 1.0) > 1e-8:
            raise NotADistribution(f"{name} sums to {vecp.sum()!r}, not 1")
    return float(min(1.0, 0.5 * np.abs(p - q).sum()))


def site_magnetizations(rho: np.ndarray, n_s: int) -> np.ndarray:
    """``tr(rho Y_i)`` for each site i."""
    rho = _check_state(rho, "rho")
    if rho.shape != (2**n_s, 2**n_s):
        raise NotAState(f"state shape {rho.shape} does not match {n_s} qubits")
    vals = np.empty(n_s, dtype=complex)
    for i in range(n_s):
        vals[i] = np.trace(apply_gate(PAULIS["Y"], [i], rho, n_s, axis=0))
    if np.abs(vals.imag).max() > 1e-10:
        raise NotAState(
            f"magnetization has imaginary residue {np.abs(vals.imag).max():.3e}"
        )
    return vals.real


def transverse_magnetization(rho: np.ndarray, n_s: int) -> float:
    """Per-site average of ``tr(rho Y_i)``; a size-independent quantity in
    [-1, 1] that is comparable across chain lengths."""
    return float(site_magnetizations(rho, n_s).mean())
