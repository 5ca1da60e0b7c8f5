"""Digital dissipative thermalization of few-qubit spin models.

Periodically modulated ancilla qubits with mid-circuit resets drive a system
toward its Gibbs state; this package builds the per-period channels and the
full-cycle dynamical map exactly, extracts steady states and spectral gaps,
runs the shot-based stochastic unraveling, and scores everything against
exact thermal oracles.
"""

from .channel import (
    CycleMap,
    KrausSet,
    Sectors,
    Superoperator,
    ancilla_preparation,
    build_cycle_map,
    build_cycle_maps,
    build_period_channel,
    build_period_unitary,
    pauli_sectors,
    spectral_gap,
    steady_state,
    superoperator_to_choi,
    to_superoperator,
)
from .experiments import (
    ExperimentKind,
    ExperimentPlan,
    ResultRow,
    generate_er_instance,
    preset_graph_instance,
    run_plan,
)
from .hamiltonians import (
    GraphInstance,
    HamiltonianSpec,
    PauliString,
    build_graph_ising,
    build_tfim,
    gibbs_distribution,
    load_hamiltonian,
    dump_hamiltonian,
    spectral_width,
    thermal_state,
    to_matrix,
)
from .linalg import (
    apply_gate,
    dominant_eigs,
    expm_hermitian,
    hermitian_eig,
    unvec,
)
from .observables import (
    fidelity,
    site_magnetizations,
    transverse_magnetization,
    tvd,
)
from .schedule import (
    HierarchyReport,
    ProtocolConfig,
    comb_value,
    ground_probability,
    suggest_trotter_steps,
    validate_hierarchy,
)
from .trajectory import (
    SampleSet,
    run_trajectories,
    sample_gibbs,
)

__version__ = "0.1.0"
