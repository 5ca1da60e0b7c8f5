"""Run points and the sweep runner for the three numerical studies:
chain-model steady-state infidelity, transverse magnetization versus
temperature, and Gibbs sampling on random graph instances.

``make_points`` builds every run's points (model, protocol config and row
parameters) and refuses bad values before any point runs. The points of one
model at several temperatures share one ``HamiltonianSpec``, so the model is
diagonalized and its symmetry sectors are found once. ``solve_point`` solves
one point for ``qmcmc thermalize``; ``run_plan`` solves a sweep. Both score
a point's cycle map through one scorer.

Units: for the chain model, the coupling ``j`` sets the energy scale, so
``g`` is g/J and ``beta`` entries are beta*J. Graph instances and
Hamiltonian files carry raw weights, so there ``g`` and ``beta`` are
absolute.

W(Omega) does not depend on the inverse temperature, so ``run_plan`` groups
consecutive points that differ only in beta (beta is the grid's innermost
axis) and builds each group's cycle maps from one comb walk
(``channel.build_cycle_maps``). A model's run of betas is split into groups
that each fit a thread's share of ``MAX_RUN_BYTES``, one point at least.
Groups run across the worker threads that ``admit_run`` admits; threads that
no group takes run the chunks of a group's walk and its scorings. A failure
with a package error, a ValueError or a LinAlgError is recorded in the rows
it touches and the sweep continues: a failed walk marks every row of its
group, a failed scoring only its own. Any other exception is a bug and
propagates.
"""

from __future__ import annotations

import enum
import itertools
import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .channel import (
    MAX_RUN_BYTES,
    MAX_SPINS,
    CycleMap,
    _thread_map,
    admit_run,
    build_cycle_map,
    build_cycle_maps,
    run_bytes,
    spectral_gap,
    steady_state,
)
from .errors import QmcmcError
from .hamiltonians import (
    GraphInstance,
    HamiltonianSpec,
    build_graph_ising,
    build_tfim,
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


class ExperimentKind(enum.Enum):
    TFIM_INFIDELITY = "tfim"
    MAGNETIZATION_SWEEP = "magnetization"
    GRAPH_SAMPLING = "graph"


@dataclass(frozen=True)
class ExperimentPlan:
    """Parameters of one sweep and its points, one per entry of the grid
    ``n x (h/J, or p_e for graph) x beta`` in that order.

    Every point is built with :func:`make_points` when the plan is made, so
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
        models = itertools.product(self.n_list, getattr(self, axis))
        points = []
        for pair, (n, x) in enumerate(models):
            points += make_points(
                self.kind.value, "graph" if graph else "tfim", n, self.beta, **{axis: x},
                j=self.j, g=self.g, n_trotter=self.n_trotter, n_cycle=self.n_cycle,
                seed=self.seed + pair if graph else self.seed, mode=mode)
        if self.mode == "evolve":
            for index, point in enumerate(points):
                d = 2**point.spec.qubit_count
                start = min(int(Stream.from_seed(self.seed, index).uniform() * d), d - 1)
                points[index] = replace(point, evolve=(start, self.n_sweeps))
        object.__setattr__(self, "points", tuple(points))


@dataclass
class ResultRow:
    """One record of a sweep; missing metrics stay None. ``wall_time`` is
    execution metadata, not part of the reproducible payload: the seconds
    spent on this row's scoring plus an equal share of the comb walk that
    built its group's cycle maps, so in a serial sweep the column sums to
    the sweep's solve time."""

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


def make_points(kind: str, model: str, n: int, betas, *, h_over_j: float = 1.0,
                p_e: float = 0.0, j: float = 1.0, g: float, n_trotter: int, n_cycle: int,
                seed: int = 0, mode: str | None = None) -> list[Point]:
    """Build the points of one model, one per inverse temperature of
    ``betas`` in order, for a run whose rows are of ``kind``. The points
    share one ``HamiltonianSpec`` and differ only in beta.

    ``model`` is ``"tfim"`` (chain of ``n`` spins, field ``h_over_j``,
    coupling ``j``), ``"graph"`` (``generate_er_instance(n, p_e, seed)``) or a
    Hamiltonian file path. The chain's coupling is its energy unit, by which
    ``g`` and ``beta`` are scaled into the protocol config: comb amplitude
    the width of ``spec.spectrum`` and one ancilla per spin. Raises ValueError or a
    package error for a value the model or protocol refuses, a coupling that
    is not positive, a spectral width that is not finite, more than
    ``MAX_SPINS`` spins, or a one-beta run that ``channel.admit_run``
    refuses (among them a Trotter step ``dt = pi / (g n_trotter)`` that
    overflows), before anything is built.
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
    what = f"the chain at h/J = {h_over_j:g}, J = {j:g}" if chain else f"model {model}"
    if not math.isfinite(width):
        raise ValueError(f"{what} has an infinite spectral width")
    unit = j if chain else 1.0
    configs = [ProtocolConfig(
        g=g * unit,
        beta=beta / unit,
        omega_m=width,
        n_trotter=n_trotter,
        n_cycle=n_cycle,
        ancilla_map=tuple(range(spec.qubit_count)),
    ) for beta in betas]
    admit_run(spec, configs[0], kind)  # the entry rule does not read beta
    columns = dict(
        kind=kind, n_s=spec.qubit_count, j=unit, h=h_over_j * j if chain else None,
        p_e=p_e if graph else None, instance_seed=seed if graph else None,
        g=g, n_trotter=n_trotter, n_cycle=n_cycle, mode=mode,
    )
    return [Point(spec, cfg, dict(columns, beta=beta)) for beta, cfg in zip(betas, configs)]


# Metric columns each row kind scores; "tvd" only for diagonal models.
_KIND_METRICS = {
    "thermalize": ("infidelity", "magnetization", "tvd"),
    "tfim": ("infidelity",),
    "magnetization": ("magnetization",),
    "graph": ("tvd", "infidelity"),
}


def _score(point: Point, cm: CycleMap) -> ResultRow:
    """The row of ``point`` from its cycle map ``cm``: the one scorer of
    :func:`solve_point` and :func:`run_plan`.

    Takes the fixed point, or for an evolve point the state its run reaches,
    and compares that state with the exact thermal state of the model:
    ``"infidelity"``, ``"tvd"`` (computational-basis populations against the
    Boltzmann distribution) and ``"magnetization"`` (exact, algorithm and
    error columns), as the row kind asks. A failure raises.
    """
    spec, cfg = point.spec, point.config
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
        row.tvd = tvd(np.diag(rho).real, np.diag(rho_th).real)
    if "infidelity" in metrics:
        row.infidelity = 1.0 - fidelity(rho_th, rho)
    if "magnetization" in metrics:
        n = spec.qubit_count
        row.magnetization_exact = transverse_magnetization(rho_th, n)
        row.magnetization_algorithm = transverse_magnetization(rho, n)
        row.magnetization_error = abs(row.magnetization_exact - row.magnetization_algorithm)
    return row


def solve_point(point: Point, workers: int | None = None) -> ResultRow:
    """Run one point and return a new row for it: its cycle map (the period
    channels across ``workers`` threads), scored by :func:`_score`. A
    failure raises."""
    t0 = time.perf_counter()
    row = _score(point, build_cycle_map(point.spec, point.config, workers=workers))
    row.wall_time = time.perf_counter() - t0
    return row


# What a failing point records in its row instead of propagating.
_POINT_ERRORS = (QmcmcError, ValueError, np.linalg.LinAlgError)


def _failed(point: Point, exc: Exception) -> ResultRow:
    return ResultRow(**point.columns, error=f"{type(exc).__name__}: {exc}")


def _groups(points, workers: int | None = None) -> list[list[Point]]:
    """``points`` in order, cut into runs of consecutive points whose model
    and protocol config differ only in beta, each run cut again into groups
    of as many points as one comb walk may fold within one thread's share of
    ``MAX_RUN_BYTES`` (at least one). With ``workers`` threads a thread's
    share is ``MAX_RUN_BYTES // workers``, as that many walks, or threads of
    one walk, may hold their arrays at once."""
    runs: list[list[Point]] = []
    for point in points:
        last = runs[-1][-1] if runs else None
        if (last is not None and point.spec is last.spec
                and replace(last.config, beta=point.config.beta) == point.config):
            runs[-1].append(point)
        else:
            runs.append([point])
    budget = MAX_RUN_BYTES // max(1, workers or 1)
    groups = []
    for run in runs:
        spec, cfg = run[0].spec, run[0].config
        fixed = run_bytes(spec, cfg, False, betas=0)
        per_beta = run_bytes(spec, cfg, False, betas=1) - fixed
        size = max(1, min(len(run), (budget - fixed) // per_beta))
        groups += [run[i:i + size] for i in range(0, len(run), size)]
    return groups


def _solve_group(points: list[Point], workers: int | None = None) -> list[ResultRow]:
    """The rows of points that differ only in beta, from one comb walk, its
    chunks and then the points' scorings across ``workers`` threads. A point
    error in the walk marks every row; one in a scoring, that row."""
    t0 = time.perf_counter()
    try:
        maps = build_cycle_maps(points[0].spec, points[0].config,
                                [point.config.beta for point in points], workers)
    except _POINT_ERRORS as exc:
        share = (time.perf_counter() - t0) / len(points)
        rows = [_failed(point, exc) for point in points]
        for row in rows:
            row.wall_time = share
        return rows
    share = (time.perf_counter() - t0) / len(points)

    def score(i: int) -> ResultRow:
        t1 = time.perf_counter()
        try:
            row = _score(points[i], maps[i])
        except _POINT_ERRORS as exc:
            row = _failed(points[i], exc)
        maps[i] = None  # its spectrum and dense view go with it
        row.wall_time = share + (time.perf_counter() - t1)
        return row

    return list(_thread_map(score, range(len(points)), workers))


def run_plan(plan: ExperimentPlan) -> list[ResultRow]:
    """One new row per point of ``plan``, in grid order. The points are
    solved in the groups of :func:`_groups`, each from one comb walk, across
    the threads of ``plan.workers`` that ``admit_run`` admits for the largest
    group; threads that no group takes go to the walks and
    scorings inside the groups. A point that fails with a package error, a
    ValueError or a LinAlgError gets a row of its parameters and the error."""
    groups = _groups(plan.points, plan.workers)
    workers = min(admit_run(group[0].spec, group[0].config, plan.kind.value, len(group),
                            plan.workers) for group in groups)
    inner = max(1, workers // len(groups))
    solved = _thread_map(lambda group: _solve_group(group, inner), groups, workers)
    return [row for rows in solved for row in rows]
