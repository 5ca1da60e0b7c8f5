"""The sweep runner for the three numerical studies: chain-model
steady-state infidelity, transverse magnetization versus temperature, and
Gibbs sampling on random graph instances. ``run_plan`` runs all three, and
``score_steady_state`` scores a state against the exact thermal state for
them and for ``qmcmc thermalize``.

Units: for the chain model, the coupling ``j`` sets the energy scale, so
``plan.g`` is g/J and ``plan.beta`` entries are beta*J. Graph instances carry
raw weights in [0, 1], so there ``g`` and ``beta`` are absolute.

Sweep points run independently (optionally across worker threads); a point
that fails with a package error, a ValueError or a LinAlgError records it in
its row and the sweep continues. Any other exception is a bug and propagates.
"""

from __future__ import annotations

import enum
import itertools
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .channel import _thread_map, build_cycle_map, spectral_gap, steady_state
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
    ignored; the ones it does use must be nonempty. ``mode="evolve"`` is
    for magnetization sweeps only, and ``n_sweeps`` (20 when not given) is
    for evolve mode only."""

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
    n_sweeps: int | None = None
    workers: int | None = None

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
        for beta in self.beta:
            if beta < 0:
                raise ValueError(f"beta must be >= 0, got {beta}")
        if self.kind is ExperimentKind.GRAPH_SAMPLING:
            if not self.p_e:
                raise ValueError("p_e must be nonempty")
            for p_e in self.p_e:
                if not 0.0 <= p_e <= 1.0:
                    raise ValueError(f"edge probability must be in [0, 1], got {p_e}")
        elif not self.h_over_j:
            raise ValueError("h_over_j must be nonempty")
        if self.mode not in ("steady_state", "evolve"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "evolve":
            if self.kind is not ExperimentKind.MAGNETIZATION_SWEEP:
                raise ValueError(f"mode 'evolve' is for magnetization sweeps, "
                                 f"not {self.kind.value}")
            if self.n_sweeps is None:
                object.__setattr__(self, "n_sweeps", 20)
        elif self.n_sweeps is not None:
            raise ValueError(f"n_sweeps is used only in mode 'evolve', got {self.n_sweeps}")
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


# Metric columns each sweep kind scores; see score_steady_state.
_KIND_METRICS = {
    ExperimentKind.TFIM_INFIDELITY: ("infidelity",),
    ExperimentKind.MAGNETIZATION_SWEEP: ("magnetization",),
    ExperimentKind.GRAPH_SAMPLING: ("tvd", "infidelity"),
}


def score_steady_state(row: ResultRow, spec: HamiltonianSpec, beta: float,
                       rho: np.ndarray, metrics) -> None:
    """Fill the metric columns of ``row`` named in ``metrics`` by comparing
    ``rho`` with the exact thermal state of ``spec`` at absolute ``beta``:
    ``"infidelity"``, ``"tvd"`` (computational-basis populations against the
    Boltzmann distribution; diagonal models only) and ``"magnetization"``
    (exact, algorithm and error columns)."""
    rho_th = thermal_state(spec, beta)
    if "tvd" in metrics:
        row.tvd = tvd(np.diag(rho).real, gibbs_distribution(spec, beta))
    if "infidelity" in metrics:
        row.infidelity = 1.0 - fidelity(rho_th, rho)
    if "magnetization" in metrics:
        n = spec.qubit_count
        row.magnetization_exact = transverse_magnetization(rho_th, n)
        row.magnetization_algorithm = transverse_magnetization(rho, n)
        row.magnetization_error = abs(row.magnetization_exact - row.magnetization_algorithm)


def run_plan(plan: ExperimentPlan) -> list[ResultRow]:
    """One row per point of the grid ``n x (h/J, or p_e for graph) x beta``,
    in that order.

    Each point builds its model and cycle map, takes the fixed point and
    scores it with the plan kind's metrics. Graph point ``index`` draws its
    instance with seed ``plan.seed + index // len(plan.beta)``, so the betas
    of one (n, p_e) pair share an instance. A magnetization plan with
    ``mode="evolve"`` scores instead the state reached by applying the map
    ``n_sweeps`` times to a random basis state drawn from the stream
    ``(plan.seed, index)``, mirroring a finite-length run.
    """
    graph = plan.kind is ExperimentKind.GRAPH_SAMPLING
    mode = plan.mode if plan.kind is ExperimentKind.MAGNETIZATION_SWEEP else None
    grid = itertools.product(plan.n_list, plan.p_e if graph else plan.h_over_j, plan.beta)

    def point(indexed):
        index, (n, x, beta) = indexed
        row = ResultRow(
            kind=plan.kind.value, n_s=n, j=plan.j, h=None if graph else x * plan.j,
            beta=beta, p_e=x if graph else None,
            instance_seed=plan.seed + index // len(plan.beta) if graph else None,
            g=plan.g, n_trotter=plan.n_trotter, n_cycle=plan.n_cycle, mode=mode,
        )
        t0 = time.perf_counter()
        try:
            if graph:
                spec, unit = build_graph_ising(generate_er_instance(n, x, row.instance_seed)), 1.0
            else:
                spec, unit = build_tfim(n, plan.j, x * plan.j), plan.j
            cfg = protocol_config(spec, plan.g * unit, beta / unit, plan.n_trotter,
                                  plan.n_cycle)
            cm = build_cycle_map(spec, cfg)
            rho, lam1 = steady_state(cm)
            gap, _ = spectral_gap(cm)
            if mode == "evolve":
                stream = Stream.from_seed(plan.seed, index)
                start = min(int(stream.uniform() * 2**n), 2**n - 1)
                rho = np.zeros((2**n, 2**n), dtype=complex)
                rho[start, start] = 1.0
                for _ in range(plan.n_sweeps):
                    rho = cm.superoperator.apply(rho)
                rho = (rho + rho.conj().T) / 2.0
            score_steady_state(row, spec, cfg.beta, rho, _KIND_METRICS[plan.kind])
            row.spectral_gap, row.lambda_dev = gap, abs(lam1 - 1.0)
        except (QmcmcError, ValueError, np.linalg.LinAlgError) as exc:
            row.error = f"{type(exc).__name__}: {exc}"
        row.wall_time = time.perf_counter() - t0
        return row

    return _thread_map(point, list(enumerate(grid)), plan.workers)
