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

Composite ordering: system qubits 0..N_s-1, then ancillas (ancilla m sits at
index N_s + m). Superoperators follow the package-wide column-stacking
convention (see :mod:`qmcmc.linalg`).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CompletenessViolation,
    DimensionMismatch,
    InvalidSize,
    NegativeEigenvalue,
    NoUnitEigenvalue,
)
from .hamiltonians import PAULIS, HamiltonianSpec
from .linalg import apply_gate, dominant_eigs, expm_hermitian, unvec, vec
from .schedule import ProtocolConfig, comb_value, ground_probability

# Largest cycle-map dimension d_s**2 (n_s = 6): the dense map alone is 256 MiB
# here and one more spin makes it 4 GiB, out of reach of the dense eigensolver.
MAX_CYCLE_DIM = 4096
_PRUNE_TOL = 1e-14  # see build_period_channel
_MAX_CLUSTER = 16  # see steady_state


@dataclass(frozen=True)
class KrausSet:
    """Operational form of a channel: operators stacked as (count, dim, dim)
    with ``sum K^dag K = I``."""

    dim: int
    operators: np.ndarray

    def completeness_error(self) -> float:
        acc = np.einsum("nij,nik->jk", self.operators.conj(), self.operators)
        return float(np.linalg.norm(acc - np.eye(self.dim)))


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
    """Composition of the ``n_cycle`` period channels, with their comb values."""

    superoperator: Superoperator
    omegas: tuple[float, ...]
    _spectrum: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Every eigenpair ``(w, v)`` by descending ``|lam|``: the one dense
        diagonalization that :func:`steady_state` and :func:`spectral_gap`
        share. Computed on first use; the matrix must not change afterwards."""
        if self._spectrum is None:
            object.__setattr__(self, "_spectrum", dominant_eigs(self.superoperator.matrix))
        return self._spectrum


def _thread_map(fn, items: list, workers: int | None) -> list:
    """``[fn(x) for x in items]``, across ``workers`` threads when that is
    more than one and there is more than one item."""
    if workers is not None and workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _phase_weights(n_s: int, m: int) -> np.ndarray:
    """Per-composite-basis-state weight of the ancilla phase diagonal.

    Each ancilla contributes +1 when in ``|0>`` and -1 when in ``|1>``; the
    omega-dependent phase factor of one Trotter step is then
    ``exp(i * (omega dt / 2) * w)`` elementwise.
    """
    anc_idx = np.arange(2**m)
    ones = sum(((anc_idx >> b) & 1) for b in range(m))
    return np.tile(m - 2 * ones, 2**n_s).astype(float)


def _trotter_parts(spec: HamiltonianSpec, cfg: ProtocolConfig):
    """Omega-independent pieces of one Trotter step: the dense product
    (interactions @ system step) and the phase-diagonal weights."""
    n_s = spec.qubit_count
    m = cfg.m_count
    if any(q >= n_s for q in cfg.ancilla_map):
        raise DimensionMismatch(
            f"ancilla_map {cfg.ancilla_map} references qubits outside 0..{n_s - 1}"
        )
    n = n_s + m
    dt = cfg.t_g / cfg.n_trotter
    u_s = expm_hermitian(spec.spectrum, -1j * dt)
    ab = np.kron(u_s, np.eye(2**m, dtype=complex))
    # exp(-i theta XX) in closed form; theta = g dt = pi / n_trotter exactly
    theta = np.pi / cfg.n_trotter
    xx = np.kron(PAULIS["X"], PAULIS["X"])
    interaction = np.cos(theta) * np.eye(4, dtype=complex) - 1j * np.sin(theta) * xx
    for anc, principal in enumerate(cfg.ancilla_map):
        ab = apply_gate(interaction, [principal, n_s + anc], ab, n)
    return ab, _phase_weights(n_s, m)


def _period_unitary(ab: np.ndarray, weights: np.ndarray, cfg: ProtocolConfig,
                    omega: float) -> np.ndarray:
    dt = cfg.t_g / cfg.n_trotter
    phase = np.exp(1j * (omega * dt / 2.0) * weights)
    step = ab * phase[np.newaxis, :]
    return np.linalg.matrix_power(step, cfg.n_trotter)


def build_period_unitary(spec: HamiltonianSpec, cfg: ProtocolConfig,
                         omega: float) -> np.ndarray:
    """First-order Trotterization of one interaction period.

    ``W = [(prod_m e^{-i g X X dt}) e^{-i H_s dt} (prod_m e^{+i (omega/2) Z dt})]^{n_trotter}``
    with ``dt = T_g / n_trotter``, acting on the N_s + M composite register.
    Ancilla-phase factors act first, then the system step, then the
    interactions; the exact power is computed by repeated squaring, which
    reproduces the step-by-step product to working precision.
    """
    return _period_unitary(*_trotter_parts(spec, cfg), cfg, omega)


def _period_table(spec: HamiltonianSpec, cfg: ProtocolConfig, per_omega,
                  workers: int | None = None) -> tuple[list[float], dict]:
    """The one walk over a comb cycle, for the exact map and the sampler:
    ``Omega_k = comb_value(cfg, k)`` for each period k in order, and
    ``{Omega: per_omega(Omega, W(Omega))}`` over the at most
    ``n_cycle // 2 + 1`` distinct values of the symmetric comb. Each ``W`` is
    built once, across ``workers`` threads, and dropped after ``per_omega``."""
    ab, weights = _trotter_parts(spec, cfg)
    omegas = [comb_value(cfg, k) for k in range(cfg.n_cycle)]
    distinct = sorted(set(omegas))

    def one(omega: float):
        return per_omega(omega, _period_unitary(ab, weights, cfg, omega))

    return omegas, dict(zip(distinct, _thread_map(one, distinct, workers)))


def ancilla_preparation(omega: float, beta: float, m_count: int) -> np.ndarray:
    """Product distribution over the 2^M ancilla basis states after reset
    plus probabilistic excitation: ``P(b) = prod_m p0^(1-b_m) (1-p0)^(b_m)``."""
    p0 = ground_probability(omega, beta)
    prep = np.array([1.0])
    single = np.array([p0, 1.0 - p0])
    for _ in range(m_count):
        prep = np.kron(prep, single)
    return prep


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
    kraus = (np.sqrt(np.clip(prep, 0.0, None))[np.newaxis, :, None, None] * blocks)
    kraus = kraus.reshape(d_a * d_a, d_s, d_s)
    norms = np.linalg.norm(kraus, axis=(1, 2))
    kraus = np.ascontiguousarray(kraus[norms >= _PRUNE_TOL])
    kset = KrausSet(dim=d_s, operators=kraus)
    err = kset.completeness_error()
    if err >= 1e-8:
        raise CompletenessViolation(
            f"sum K^dag K deviates from identity by {err:.3e}", deviation=err
        )
    return kset


def to_superoperator(kraus: KrausSet) -> Superoperator:
    """Column-stacking superoperator ``sum_K kron(conj(K), K)``: an index
    reshuffle of the Gram matrix of the flattened operators (one GEMM)."""
    d = kraus.dim
    flat = kraus.operators.reshape(-1, d * d)
    gram = (flat.conj().T @ flat).reshape(d, d, d, d)
    return Superoperator(dim=d * d, matrix=gram.transpose(0, 2, 1, 3).reshape(d * d, d * d))


def superoperator_to_choi(s: Superoperator) -> np.ndarray:
    """Reshuffle a column-stacking superoperator into its Choi matrix."""
    d = s.system_dim
    return s.matrix.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def build_cycle_map(spec: HamiltonianSpec, cfg: ProtocolConfig,
                    workers: int | None = None) -> CycleMap:
    """Compose the ``n_cycle`` period channels of one full comb sweep.

    Period k uses ``Omega_k = comb_value(cfg, k)`` both in the unitary and in
    the ancilla preparation. Each distinct Omega's superoperator is built
    once by :func:`_period_table` (across ``workers`` threads when
    requested); composition is the sequential product with period 0 applied
    first. Systems whose map exceeds ``MAX_CYCLE_DIM`` (more than six spins)
    are refused with InvalidSize before any work.
    """
    n_s, m = spec.qubit_count, cfg.m_count
    if 4**n_s > MAX_CYCLE_DIM:
        raise InvalidSize(
            f"{n_s} system qubits give a {4**n_s}-dimensional cycle map; the "
            f"dense eigensolver is limited to {MAX_CYCLE_DIM} (6 qubits)"
        )

    def superop(omega: float, w: np.ndarray) -> np.ndarray:
        prep = ancilla_preparation(omega, cfg.beta, m)
        return to_superoperator(build_period_channel(w, prep, n_s, m)).matrix

    omegas, by_omega = _period_table(spec, cfg, superop, workers)
    d_s = 2**n_s
    total = np.eye(d_s * d_s, dtype=complex)
    for om in omegas:
        total = by_omega[om] @ total
    return CycleMap(Superoperator(d_s * d_s, total), tuple(omegas))


def steady_state(m: CycleMap) -> tuple[np.ndarray, complex]:
    """Fixed point of the cycle map and its dominant eigenvalue.

    Requires ``|lam_1 - 1| < 1e-6``. When the unit eigenvalue is simple, the
    corresponding eigenvector is devectorized, its arbitrary phase removed
    via the trace, Hermitized, negative eigenvalues clipped to zero (at most
    1e-6 total mass), and the result renormalized to unit trace.

    Models with conserved quantities can make the unit eigenvalue exactly
    degenerate (the infinite-temperature single-site chain is one such
    case), leaving "the" eigenvector ill-defined. The fixed point is then
    chosen as the least-squares projection of the maximally mixed state onto
    the near-unit eigenspace among the ``_MAX_CLUSTER`` dominant pairs: the
    natural infinite-time limit seeded from an unbiased state, and exactly
    ``I/d`` whenever that is a fixed point.
    """
    w, v = m.spectrum
    w, v = w[:_MAX_CLUSTER], v[:, :_MAX_CLUSTER]
    lam1 = complex(w[0])
    if abs(lam1 - 1.0) >= 1e-6:
        raise NoUnitEigenvalue(
            f"largest-modulus eigenvalue {lam1} is not within 1e-6 of 1"
        )
    cluster = np.abs(w - 1.0) < 1e-6
    size = int(cluster.sum())
    if size == 1:
        rho = unvec(v[:, 0])
    elif size < len(w):
        d = m.superoperator.system_dim
        basis = np.ascontiguousarray(v[:, cluster])
        coeff, *_ = np.linalg.lstsq(basis, vec(np.eye(d, dtype=complex)) / d,
                                    rcond=None)
        rho = unvec(basis @ coeff)
    else:
        raise NoUnitEigenvalue(
            f"at least {size} eigenvalues lie within 1e-6 of 1; "
            "the fixed point is not meaningfully defined"
        )
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
    map's full spectrum. Sub-roundoff negative gaps (above -1e-6) are clamped
    to zero.
    """
    w = m.spectrum[0]
    gap = 1.0 - abs(w[1])
    if -1e-6 < gap < 0.0:
        gap = 0.0
    unique = int(np.sum(np.abs(w - 1.0) < 1e-6)) == 1
    return float(gap), bool(unique)
