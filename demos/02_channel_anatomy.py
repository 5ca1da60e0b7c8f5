"""Anatomy of one interaction period: the Trotterized unitary, its reduced
Kraus channel, the superoperator, and the Choi-matrix CPTP certificate.

Every period does three things: reset the ancillas, re-excite them with the
thermal probability 1 - p0(t), and run the coupled Trotter evolution. The
reduced action on the system alone is an exactly computable channel. Pauli
strings that commute with every term of the coupled evolution split both the
unitary and the channel into equal blocks, which the exact path builds one
by one.
"""

import numpy as np

from qmcmc import (
    ProtocolConfig,
    ancilla_preparation,
    build_period_channel,
    build_period_unitary,
    build_tfim,
    comb_value,
    ground_probability,
    pauli_sectors,
    spectral_width,
    superoperator_to_choi,
    to_superoperator,
)

spec = build_tfim(1, j=1.0, h=1.0)
cfg = ProtocolConfig(g=0.05, beta=2.0, omega_m=spectral_width(spec),
                     n_trotter=400, n_cycle=40, ancilla_map=(0,))

# pick the period a quarter of the way through the comb sweep
k = cfg.n_cycle // 4
omega = comb_value(cfg, k)
p0 = ground_probability(omega, cfg.beta)
print(f"period k={k}: Omega = {omega:.4f}, ancilla ground occupation p0 = {p0:.4f}")

w = build_period_unitary(spec, cfg, omega)
print(f"\nperiod unitary W: {w.shape[0]}x{w.shape[1]}, "
      f"unitarity defect {np.linalg.norm(w @ w.conj().T - np.eye(4)):.2e}")

sectors = pauli_sectors(spec, cfg)
count, size = sectors.states.shape
print(f"symmetry generators (system letters, then ancilla): {', '.join(sectors.generators)}")
print(f"W splits into {count} blocks of {size}x{size}; the channel on column-stacked "
      f"states into {len(sectors.pairs)} blocks of {sectors.pairs.shape[1]}x{sectors.pairs.shape[1]}")

prep = ancilla_preparation(omega, cfg.beta, m_count=1)
kraus = build_period_channel(w, prep, n_s=1, m_count=1)
print(f"\nKraus operators: {kraus.operators.shape[0]} of dim {kraus.dim}")
print(f"completeness defect ||sum K^dag K - I|| = {kraus.completeness_error():.2e}")

s = to_superoperator(kraus)
print(f"\nsuperoperator: {s.dim}x{s.dim} (column-stacking convention)")
eigs = np.sort(np.abs(np.linalg.eigvals(s.matrix)))[::-1]
print(f"eigenvalue moduli: {np.round(eigs, 6)}")

# complete positivity: the reshuffled superoperator (= sum of the outer
# products of the column-stacked Kraus operators) must be positive semidefinite
choi_a = superoperator_to_choi(s)
choi_b = sum(np.outer(op.T.reshape(-1), op.T.reshape(-1).conj()) for op in kraus.operators)
print(f"\nChoi via reshuffle vs via Kraus: {np.linalg.norm(choi_a - choi_b):.2e}")
print(f"Choi minimum eigenvalue: {np.linalg.eigvalsh(choi_a).min():+.2e} (>= -1e-8 required)")

# trace preservation, spot-checked on a random state
rng = np.random.default_rng(1)
a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
rho = a @ a.conj().T
rho /= np.trace(rho)
print(f"trace after channel: {np.trace(s.apply(rho)).real:.12f}")
