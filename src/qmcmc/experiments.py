"""Sweep drivers for the three numerical studies: chain-model steady-state
infidelity, transverse magnetization versus temperature, and Gibbs sampling
on random graph instances.

Units: for the chain model, the coupling ``j`` sets the energy scale, so
``plan.g`` is g/J and ``plan.beta`` entries are beta*J. Graph instances carry
raw weights in [0, 1], so there ``g`` and ``beta`` are absolute.

Sweep points run independently (optionally across worker threads); a point
that fails with a package error, a ValueError or a LinAlgError records it in
its row and the sweep continues. Any other exception is a bug and propagates.
"""

from __future__ import annotations

import enum
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .channel import build_cycle_map, spectral_gap, steady_state
from .errors import QmcmcError
from .hamiltonians import (
    GraphInstance,
    HamiltonianSpec,
    build_graph_ising,
    build_tfim,
    gibbs_distribution,
    spectral_width,
    thermal_state,
)
from .observables import fidelity, transverse_magnetization, tvd
from .rng import Stream
from .schedule import ProtocolConfig

# Published local-field vectors for the three four-vertex reference
# instances; the matching edge sets were never published, so edges must be
# supplied by the caller.
FOUR_VERTEX_FIELD_PRESETS = {
    "a": (0.084, 0.026, 0.403, 0.379),
    "b": (0.403, 0.379, 0.0528, 0.805),
    "c": (0.379, 0.0528, 0.805, 0.379),
}


class ExperimentKind(enum.Enum):
    TFIM_INFIDELITY = "tfim"
    MAGNETIZATION_SWEEP = "magnetization"
    GRAPH_SAMPLING = "graph"


@dataclass(frozen=True)
class ExperimentPlan:
    """Parameters of one sweep. Lists that a given kind does not use are
    ignored; the ones it does use must be nonempty."""

    kind: ExperimentKind
    n_list: tuple[int, ...]
    beta: tuple[float, ...]
    h_over_j: tuple[float, ...] = (1.0,)
    p_e: tuple[float, ...] = ()
    j: float = 1.0
    g: float = 0.005
    n_trotter: int = 5000
    n_cycle: int = 500
    seed: int = 0
    qubit_cap: int = 12
    mode: str = "steady_state"
    n_sweeps: int = 20
    workers: int | None = None
    output_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(self, "h_over_j", tuple(float(h) for h in self.h_over_j))
        object.__setattr__(self, "p_e", tuple(float(p) for p in self.p_e))
        if not self.n_list or not self.beta:
            raise ValueError("n_list and beta must be nonempty")
        for name, values in (("beta", self.beta), ("h_over_j", self.h_over_j),
                             ("g", (self.g,))):
            bad = [v for v in values if not math.isfinite(v)]
            if bad:
                raise ValueError(f"{name} must be finite, got {bad[0]}")
        if self.kind is ExperimentKind.TFIM_INFIDELITY and not self.h_over_j:
            raise ValueError("h_over_j must be nonempty")
        if self.kind is ExperimentKind.GRAPH_SAMPLING and not self.p_e:
            raise ValueError("p_e must be nonempty")
        if self.mode not in ("steady_state", "evolve"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for n in self.n_list:
            if n < 1:
                raise ValueError(f"system size must be >= 1, got {n}")
            if 2 * n > self.qubit_cap:
                raise ValueError(
                    f"{n} system + {n} ancilla qubits exceed the cap of "
                    f"{self.qubit_cap}; raise qubit_cap to allow this"
                )


@dataclass
class ResultRow:
    """One record of a sweep; missing metrics stay None. ``wall_time`` is
    execution metadata, not part of the reproducible payload."""

    kind: str
    n_s: int
    j: float
    h: float | None
    beta: float
    p_e: float | None
    instance_seed: int | None
    g: float
    n_trotter: int
    n_cycle: int
    mode: str | None
    infidelity: float | None = None
    tvd: float | None = None
    magnetization_exact: float | None = None
    magnetization_algorithm: float | None = None
    magnetization_error: float | None = None
    spectral_gap: float | None = None
    lambda_dev: float | None = None
    wall_time: float = 0.0
    error: str | None = None


RESULT_FIELDS = tuple(f.name for f in fields(ResultRow))


def row_to_dict(row: ResultRow) -> dict:
    return asdict(row)


def generate_er_instance(n: int, p_e: float, seed: int) -> GraphInstance:
    """Seeded random graph: every unordered pair appears independently with
    probability ``p_e``; included edges and all vertex fields draw U[0,1).

    Draw order is fixed (vertex fields ascending, then pairs in
    lexicographic order with the weight drawn immediately after a successful
    inclusion test), so a seed fully determines the instance.
    """
    if not 0.0 <= p_e <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p_e}")
    stream = Stream.from_seed(seed)
    local_fields = tuple(stream.uniform() for _ in range(n))
    edges = []
    for j in range(n):
        for k in range(j + 1, n):
            if stream.uniform() < p_e:
                edges.append((j, k, stream.uniform()))
    return GraphInstance(n, local_fields, tuple(edges))


def preset_graph_instance(key: str, edges) -> GraphInstance:
    """Four-vertex instance with one of the published field vectors and
    caller-supplied edges."""
    if key not in FOUR_VERTEX_FIELD_PRESETS:
        raise KeyError(f"unknown preset {key!r}; choose from a/b/c")
    return GraphInstance(4, FOUR_VERTEX_FIELD_PRESETS[key], tuple(edges))


def protocol_config(spec: HamiltonianSpec, g: float, beta: float,
                    n_trotter: int, n_cycle: int) -> ProtocolConfig:
    """The protocol every sweep and CLI command runs on a model: comb
    amplitude ``spectral_width(spec)`` and one ancilla per spin. ``g`` and
    ``beta`` are absolute (already scaled by the energy unit)."""
    return ProtocolConfig(
        g=g,
        beta=beta,
        omega_m=spectral_width(spec),
        n_trotter=n_trotter,
        n_cycle=n_cycle,
        ancilla_map=tuple(range(spec.qubit_count)),
    )


def _run_points(points, point_fn, workers):
    def guarded(args):
        row = args[0]
        t0 = time.perf_counter()
        try:
            point_fn(*args)
        except (QmcmcError, ValueError, np.linalg.LinAlgError) as exc:
            row.error = f"{type(exc).__name__}: {exc}"
        row.wall_time = time.perf_counter() - t0
        return row

    if workers is not None and workers > 1 and len(points) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(guarded, points))
    return [guarded(args) for args in points]


def _solve_steady(spec: HamiltonianSpec, cfg: ProtocolConfig):
    cm = build_cycle_map(spec, cfg)
    rho, lam1 = steady_state(cm)
    gap, _ = spectral_gap(cm)
    return cm, rho, gap, abs(lam1 - 1.0)


def run_tfim_infidelity(plan: ExperimentPlan) -> list[ResultRow]:
    """Steady-state infidelity against the exact thermal state across
    (n, h/J, beta*J) for the chain model, one ancilla per principal qubit."""
    if plan.kind is not ExperimentKind.TFIM_INFIDELITY:
        raise ValueError(f"plan kind is {plan.kind}, expected TFIM_INFIDELITY")
    points = []
    for n in plan.n_list:
        for hj in plan.h_over_j:
            for beta_j in plan.beta:
                row = ResultRow(
                    kind=plan.kind.value, n_s=n, j=plan.j, h=hj * plan.j,
                    beta=beta_j, p_e=None, instance_seed=None, g=plan.g,
                    n_trotter=plan.n_trotter, n_cycle=plan.n_cycle, mode=None,
                )
                points.append((row, n, hj, beta_j))

    def point(row, n, hj, beta_j):
        spec = build_tfim(n, plan.j, hj * plan.j)
        beta_abs = beta_j / plan.j
        cfg = protocol_config(spec, plan.g * plan.j, beta_abs, plan.n_trotter,
                              plan.n_cycle)
        _, rho, gap, lam_dev = _solve_steady(spec, cfg)
        row.infidelity = 1.0 - fidelity(thermal_state(spec, beta_abs), rho)
        row.spectral_gap = gap
        row.lambda_dev = lam_dev

    return _run_points(points, point, plan.workers)


def run_magnetization_sweep(plan: ExperimentPlan) -> list[ResultRow]:
    """Exact vs algorithm transverse magnetization across (n, beta*J).

    ``mode="steady_state"`` reads the fixed point of the cycle map;
    ``mode="evolve"`` applies the map ``n_sweeps`` times to a seeded random
    basis state, mirroring a finite-length run. The mode is recorded per row.
    """
    if plan.kind is not ExperimentKind.MAGNETIZATION_SWEEP:
        raise ValueError(f"plan kind is {plan.kind}, expected MAGNETIZATION_SWEEP")
    hj = plan.h_over_j[0]
    points = []
    for idx_n, n in enumerate(plan.n_list):
        for idx_b, beta_j in enumerate(plan.beta):
            row = ResultRow(
                kind=plan.kind.value, n_s=n, j=plan.j, h=hj * plan.j,
                beta=beta_j, p_e=None, instance_seed=None, g=plan.g,
                n_trotter=plan.n_trotter, n_cycle=plan.n_cycle, mode=plan.mode,
            )
            points.append((row, n, beta_j, idx_n * len(plan.beta) + idx_b))

    def point(row, n, beta_j, point_index):
        spec = build_tfim(n, plan.j, hj * plan.j)
        beta_abs = beta_j / plan.j
        cfg = protocol_config(spec, plan.g * plan.j, beta_abs, plan.n_trotter,
                              plan.n_cycle)
        cm, rho_ss, gap, lam_dev = _solve_steady(spec, cfg)
        if plan.mode == "evolve":
            stream = Stream.from_seed(plan.seed, point_index)
            start = min(int(stream.uniform() * 2**n), 2**n - 1)
            rho_alg = np.zeros((2**n, 2**n), dtype=complex)
            rho_alg[start, start] = 1.0
            for _ in range(plan.n_sweeps):
                rho_alg = cm.superoperator.apply(rho_alg)
            rho_alg = (rho_alg + rho_alg.conj().T) / 2.0
        else:
            rho_alg = rho_ss
        exact = transverse_magnetization(thermal_state(spec, beta_abs), n)
        approx = transverse_magnetization(rho_alg, n)
        row.magnetization_exact = exact
        row.magnetization_algorithm = approx
        row.magnetization_error = abs(exact - approx)
        row.spectral_gap = gap
        row.lambda_dev = lam_dev

    return _run_points(points, point, plan.workers)


def run_graph_sampling(plan: ExperimentPlan) -> list[ResultRow]:
    """Gibbs-sampling quality on seeded random graph instances: total
    variation distance between the steady-state computational-basis
    distribution and the exact Boltzmann distribution, plus infidelity."""
    if plan.kind is not ExperimentKind.GRAPH_SAMPLING:
        raise ValueError(f"plan kind is {plan.kind}, expected GRAPH_SAMPLING")
    points = []
    pair_index = 0
    for n in plan.n_list:
        for p_e in plan.p_e:
            instance_seed = plan.seed + pair_index
            pair_index += 1
            for beta in plan.beta:
                row = ResultRow(
                    kind=plan.kind.value, n_s=n, j=plan.j, h=None, beta=beta,
                    p_e=p_e, instance_seed=instance_seed, g=plan.g,
                    n_trotter=plan.n_trotter, n_cycle=plan.n_cycle, mode=None,
                )
                points.append((row, n, p_e, instance_seed, beta))

    def point(row, n, p_e, instance_seed, beta):
        instance = generate_er_instance(n, p_e, instance_seed)
        spec = build_graph_ising(instance)
        cfg = protocol_config(spec, plan.g, beta, plan.n_trotter, plan.n_cycle)
        _, rho, gap, lam_dev = _solve_steady(spec, cfg)
        row.tvd = tvd(np.diag(rho).real, gibbs_distribution(spec, beta))
        row.infidelity = 1.0 - fidelity(thermal_state(spec, beta), rho)
        row.spectral_gap = gap
        row.lambda_dev = lam_dev

    return _run_points(points, point, plan.workers)


def run_plan(plan: ExperimentPlan) -> list[ResultRow]:
    """Dispatch on the plan kind."""
    runner = {
        ExperimentKind.TFIM_INFIDELITY: run_tfim_infidelity,
        ExperimentKind.MAGNETIZATION_SWEEP: run_magnetization_sweep,
        ExperimentKind.GRAPH_SAMPLING: run_graph_sampling,
    }[plan.kind]
    return runner(plan)
