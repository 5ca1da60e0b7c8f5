"""The executable face of the algorithm: pure-state trajectories with
mid-circuit ancilla resets, probabilistic X gates, and a terminal
computational-basis measurement.

Every shot owns an explicitly specified xorshift64* stream derived from
(seed, shot index), so sample sets are bit-reproducible.
"""

import numpy as np

from qmcmc import (
    ProtocolConfig,
    build_cycle_map,
    build_tfim,
    run_trajectories,
    sample_gibbs,
    spectral_width,
    steady_state,
    tvd,
)

spec = build_tfim(1, j=1.0, h=1.0)
cfg = ProtocolConfig(g=0.05, beta=1.0, omega_m=spectral_width(spec),
                     n_trotter=100, n_cycle=20, ancilla_map=(0,))

# one trajectory, inspected cycle by cycle: shot 0 of seed 5 draws the same
# stream whatever the cycle count, so each run extends the previous one
print("single trajectory, system+ancilla amplitudes after each comb cycle:")
for cycles in (1, 2, 3):
    amps = run_trajectories(spec, cfg, cycles=cycles, shots=1, seed=5,
                            system_index=0)[0]
    print(f"  cycle {cycles}: {np.round(amps, 3)}")

# many shots, measured once after burn-in
samples = sample_gibbs(spec, cfg, burn_in_cycles=5, shots=4000, seed=11)
print(f"\ncounts over {samples.shots} shots: {samples.counts}")

again = sample_gibbs(spec, cfg, burn_in_cycles=5, shots=4000, seed=11)
print(f"same seed reproduces counts exactly: {samples == again}")

# the empirical distribution should sit on the dense steady state's diagonal
rho, _ = steady_state(build_cycle_map(spec, cfg))
dist = tvd(samples.probabilities(), np.diag(rho).real)
print(f"TVD(empirical, steady-state diagonal) = {dist:.4f} "
      f"(shot noise scale ~ {1/np.sqrt(samples.shots):.4f})")
