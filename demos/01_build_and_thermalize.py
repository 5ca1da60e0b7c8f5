"""Build a transverse-field Ising chain, drive it to its thermal state with
the comb-swept ancilla protocol, and score the result against the exact
Gibbs state.

This is the core workflow: Hamiltonian -> protocol config -> cycle map ->
steady state -> metrics.
"""

from qmcmc import (
    ProtocolConfig,
    build_cycle_map,
    build_tfim,
    fidelity,
    spectral_gap,
    spectral_width,
    steady_state,
    thermal_state,
    transverse_magnetization,
    validate_hierarchy,
)
from qmcmc.hamiltonians import spectral_norm

# Two spins with h/J = 1, targeting beta*J = 10 (energies in units of J).
n = 2
spec = build_tfim(n, j=1.0, h=1.0)
print(f"model: {spec.label} with terms")
for term in spec.terms:
    print(f"  {term.coefficient:+g} * {term.letters}")

# The comb amplitude is the exact spectral width; one ancilla per spin.
omega_m = spectral_width(spec)
cfg = ProtocolConfig(g=0.005, beta=10.0, omega_m=omega_m, n_trotter=5000,
                     n_cycle=500, ancilla_map=tuple(range(n)))
print(f"\nspectral width omega_m = {omega_m:.6f}")
print(f"interaction period T_g = {cfg.t_g:.1f}, full sweep T_cycle = {cfg.t_cycle:.3g}")

# Sanity-check the separation of timescales before any heavy work.
h_s_norm = spectral_norm(spec)
print("\n" + validate_hierarchy(cfg, h_s_norm).summary())

# The full-cycle dynamical map is a 16x16 matrix acting on vectorized
# two-qubit density matrices; its unit-eigenvalue eigenvector is the
# protocol's steady state.
cycle = build_cycle_map(spec, cfg)
rho_ss, lam1 = steady_state(cycle)
gap, unique = spectral_gap(cycle)

rho_th = thermal_state(spec, cfg.beta)

print(f"\n|lambda_1 - 1|      = {abs(lam1 - 1):.2e}")
print(f"unique fixed point  = {unique}")
print(f"spectral gap        = {gap:.4f}  (thermalizes in ~{1/gap:.1f} cycles)")
print(f"infidelity vs Gibbs = {1.0 - fidelity(rho_th, rho_ss):.5f}")
print(f"m_y (steady state)  = {transverse_magnetization(rho_ss, n):+.5f}")
print(f"m_y (exact thermal) = {transverse_magnetization(rho_th, n):+.5f}")
