"""Run points and the sweep runner for the three numerical studies:
chain-model steady-state infidelity, transverse magnetization versus
temperature, and Gibbs sampling on random graph instances.

``make_point`` builds every run's points (model, protocol config and row
parameters) and refuses bad values before any point runs; ``solve_point``
solves and scores one point for ``qmcmc thermalize`` and for ``run_plan``.

Units: for the chain model, the coupling ``j`` sets the energy scale, so
``g`` is g/J and ``beta`` entries are beta*J. Graph instances and
Hamiltonian files carry raw weights, so there ``g`` and ``beta`` are
absolute.

Sweep points run independently (optionally across worker threads); a point
that fails with a package error, a ValueError or a LinAlgError records it in
its row and the sweep continues. Any other exception is a bug and propagates.
"""

from __future__ import annotations

import enum
import itertools
import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .channel import MAX_CYCLE_DIM, _thread_map, build_cycle_map, spectral_gap, steady_state
from .errors import QmcmcError
from .hamiltonians import (
    GraphInstance,
    HamiltonianSpec,
    build_graph_ising,
    build_tfim,
    gibbs_distribution,
    load_hamiltonian,
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

# Largest system any command admits: log4(MAX_CYCLE_DIM) = 6 spins.
MAX_SPINS = (MAX_CYCLE_DIM.bit_length() - 1) // 2


class ExperimentKind(enum.Enum):
    TFIM_INFIDELITY = "tfim"
    MAGNETIZATION_SWEEP = "magnetization"
    GRAPH_SAMPLING = "graph"


@dataclass(frozen=True)
class ExperimentPlan:
    """Parameters of one sweep and its points, one per entry of the grid
    ``n x (h/J, or p_e for graph) x beta`` in that order.

    Every point is built with :func:`make_point` when the plan is made, so
    a value that any point refuses raises here, as a ValueError or a package
    error. Graph point ``index`` draws
    its instance with seed ``seed + index // len(beta)``, so the betas of one
    (n, p_e) pair share an instance. Lists that a given kind does not use
    are ignored; the ones it does use must be nonempty. ``mode="evolve"`` is
    for magnetization sweeps only: each point is scored after ``n_sweeps``
    (20 when not given) map applications to a random basis state drawn from
    the stream ``(seed, index)``, mirroring a finite-length run.
    """

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
    mode: str = "steady_state"
    n_sweeps: int | None = None
    workers: int | None = None
    points: tuple[Point, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(self, "h_over_j", tuple(float(h) for h in self.h_over_j))
        object.__setattr__(self, "p_e", tuple(float(p) for p in self.p_e))
        graph = self.kind is ExperimentKind.GRAPH_SAMPLING
        axis = "p_e" if graph else "h_over_j"
        if not self.n_list or not self.beta or not getattr(self, axis):
            raise ValueError(f"n_list, beta and {axis} must be nonempty")
        if self.mode not in ("steady_state", "evolve"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "evolve":
            if self.kind is not ExperimentKind.MAGNETIZATION_SWEEP:
                raise ValueError(f"mode 'evolve' is for magnetization sweeps, "
                                 f"not {self.kind.value}")
            if self.n_sweeps is None:
                object.__setattr__(self, "n_sweeps", 20)
            if self.n_sweeps < 1:
                raise ValueError(f"n_sweeps must be >= 1, got {self.n_sweeps}")
        elif self.n_sweeps is not None:
            raise ValueError(f"n_sweeps is used only in mode 'evolve', got {self.n_sweeps}")

        mode = self.mode if self.kind is ExperimentKind.MAGNETIZATION_SWEEP else None
        grid = itertools.product(self.n_list, getattr(self, axis), self.beta)
        points = []
        for index, (n, x, beta) in enumerate(grid):
            point = make_point(
                self.kind.value, "graph" if graph else "tfim", n, beta, **{axis: x},
                j=self.j, g=self.g, n_trotter=self.n_trotter, n_cycle=self.n_cycle,
                seed=self.seed + index // len(self.beta) if graph else self.seed,
                mode=mode)
            if self.mode == "evolve":
                d = 2**n
                start = min(int(Stream.from_seed(self.seed, index).uniform() * d), d - 1)
                point = replace(point, evolve=(start, self.n_sweeps))
            points.append(point)
        object.__setattr__(self, "points", tuple(points))


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


@dataclass(frozen=True)
class Point:
    """One run point: the model, the protocol run on it, and the parameter
    columns of its row. ``evolve`` is (start basis state, map applications)
    for a point scored after a finite run instead of at the fixed point."""

    spec: HamiltonianSpec
    config: ProtocolConfig
    columns: dict
    evolve: tuple[int, int] | None = None


def make_point(kind: str, model: str, n: int, beta: float, *, h_over_j: float = 1.0,
               p_e: float = 0.0, j: float = 1.0, g: float, n_trotter: int, n_cycle: int,
               seed: int = 0, mode: str | None = None) -> Point:
    """Build one point of a run whose rows are of ``kind``.

    ``model`` is ``"tfim"`` (chain of ``n`` spins, field ``h_over_j``,
    coupling ``j``), ``"graph"`` (``generate_er_instance(n, p_e, seed)``) or a
    Hamiltonian file path. The chain's coupling is its energy unit, by which
    ``g`` and ``beta`` are scaled into the protocol config: comb amplitude
    ``spectral_width(spec)`` and one ancilla per spin. Raises ValueError or a
    package error for a value the model or protocol refuses, a coupling that
    is not positive, a chain whose spectral width is not finite, or more than
    ``MAX_SPINS`` spins.
    """
    chain, graph = model == "tfim", model == "graph"
    spec = None if chain or graph else load_hamiltonian(model)
    n_s = n if spec is None else spec.qubit_count
    if n_s > MAX_SPINS:
        raise ValueError(f"system size {n_s} exceeds the limit of {MAX_SPINS} spins")
    if chain:
        if not (math.isfinite(j) and j > 0):
            raise ValueError(f"coupling J must be finite and > 0, got {j}")
        spec = build_tfim(n, j, h_over_j * j)
    elif graph:
        spec = build_graph_ising(generate_er_instance(n, p_e, seed))
    width = spectral_width(spec)
    if chain and not math.isfinite(width):
        raise ValueError(f"the chain at h/J = {h_over_j:g}, J = {j:g} has an infinite "
                         "spectral width")
    unit = j if chain else 1.0
    config = ProtocolConfig(
        g=g * unit,
        beta=beta / unit,
        omega_m=width,
        n_trotter=n_trotter,
        n_cycle=n_cycle,
        ancilla_map=tuple(range(spec.qubit_count)),
    )
    columns = dict(
        kind=kind, n_s=spec.qubit_count, j=unit, h=h_over_j * j if chain else None,
        beta=beta, p_e=p_e if graph else None, instance_seed=seed if graph else None,
        g=g, n_trotter=n_trotter, n_cycle=n_cycle, mode=mode,
    )
    return Point(spec, config, columns)


# Metric columns each row kind scores; "tvd" only for diagonal models.
_KIND_METRICS = {
    "thermalize": ("infidelity", "magnetization", "tvd"),
    "tfim": ("infidelity",),
    "magnetization": ("magnetization",),
    "graph": ("tvd", "infidelity"),
}


def solve_point(point: Point, workers: int | None = None) -> ResultRow:
    """Run one point and return a new row for it.

    Builds the cycle map (its period channels across ``workers`` threads),
    takes the fixed point, or for an evolve point the state its run reaches,
    and compares that state with the exact thermal state of the model:
    ``"infidelity"``, ``"tvd"`` (computational-basis populations against the
    Boltzmann distribution) and ``"magnetization"`` (exact, algorithm and
    error columns), as the row kind asks. A failure raises.
    """
    t0 = time.perf_counter()
    spec, cfg = point.spec, point.config
    cm = build_cycle_map(spec, cfg, workers=workers)
    rho, lam1 = steady_state(cm)
    gap, _ = spectral_gap(cm)
    if point.evolve is not None:
        start, sweeps = point.evolve
        rho = np.zeros((2**spec.qubit_count,) * 2, dtype=complex)
        rho[start, start] = 1.0
        for _ in range(sweeps):
            rho = cm.superoperator.apply(rho)
        rho = (rho + rho.conj().T) / 2.0
    row = ResultRow(**point.columns, spectral_gap=gap, lambda_dev=abs(lam1 - 1.0))
    metrics = _KIND_METRICS[row.kind]
    rho_th = thermal_state(spec, cfg.beta)
    if "tvd" in metrics and spec.is_diagonal:
        row.tvd = tvd(np.diag(rho).real, gibbs_distribution(spec, cfg.beta))
    if "infidelity" in metrics:
        row.infidelity = 1.0 - fidelity(rho_th, rho)
    if "magnetization" in metrics:
        n = spec.qubit_count
        row.magnetization_exact = transverse_magnetization(rho_th, n)
        row.magnetization_algorithm = transverse_magnetization(rho, n)
        row.magnetization_error = abs(row.magnetization_exact - row.magnetization_algorithm)
    row.wall_time = time.perf_counter() - t0
    return row


def run_plan(plan: ExperimentPlan) -> list[ResultRow]:
    """One new row per point of ``plan``, in grid order, solved across
    ``plan.workers`` threads. A point that fails with a package error, a
    ValueError or a LinAlgError gets a row of its parameters and the error."""

    def guarded(point: Point) -> ResultRow:
        t0 = time.perf_counter()
        try:
            return solve_point(point)
        except (QmcmcError, ValueError, np.linalg.LinAlgError) as exc:
            row = ResultRow(**point.columns, error=f"{type(exc).__name__}: {exc}")
            row.wall_time = time.perf_counter() - t0
            return row

    return _thread_map(guarded, list(plan.points), plan.workers)
