import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest

from qmcmc import channel, experiments
from qmcmc.channel import MAX_RUN_BYTES, run_bytes
from qmcmc.errors import InvalidSize, NoUnitEigenvalue
from qmcmc.experiments import (
    FOUR_VERTEX_FIELD_PRESETS,
    ExperimentKind,
    ExperimentPlan,
    generate_er_instance,
    preset_graph_instance,
    make_points,
    run_plan,
    solve_point,
)
from qmcmc.hamiltonians import (
    HamiltonianSpec,
    PauliString,
    build_graph_ising,
    build_tfim,
    gibbs_distribution,
    spectral_width,
    to_matrix,
)
from qmcmc.observables import transverse_magnetization, tvd
from qmcmc.schedule import ProtocolConfig

from oracles import composite_cycle_oracle, series_expm


def small_plan(kind, **overrides):
    params = dict(
        kind=kind, n_list=(1,), beta=(1.0,), h_over_j=(1.0,), p_e=(0.5,),
        g=0.05, n_trotter=100, n_cycle=30, seed=7,
    )
    params.update(overrides)
    return ExperimentPlan(**params)


# ------------------------------------------------------------- instances

def test_er_complete_graph():
    inst = generate_er_instance(4, 1.0, seed=0)
    assert len(inst.edges) == 6
    assert all(0.0 <= w < 1.0 for _, _, w in inst.edges)


def test_er_empty_graph():
    inst = generate_er_instance(4, 0.0, seed=0)
    assert inst.edges == ()
    assert len(inst.local_fields) == 4


def test_er_deterministic():
    a = generate_er_instance(5, 0.4, seed=42)
    b = generate_er_instance(5, 0.4, seed=42)
    assert a == b
    c = generate_er_instance(5, 0.4, seed=43)
    assert a != c


def test_er_rejects_bad_probability():
    with pytest.raises(ValueError):
        generate_er_instance(3, 1.5, seed=0)


def test_preset_instances():
    inst = preset_graph_instance("a", ((0, 1, 0.5),))
    assert inst.local_fields == FOUR_VERTEX_FIELD_PRESETS["a"]
    assert inst.vertex_count == 4
    with pytest.raises(KeyError):
        preset_graph_instance("z", ())


# ------------------------------------------------------------------ plans

def test_plan_validation():
    with pytest.raises(ValueError):
        small_plan(ExperimentKind.TFIM_INFIDELITY, n_list=())
    with pytest.raises(ValueError):
        small_plan(ExperimentKind.TFIM_INFIDELITY, beta=())
    with pytest.raises(ValueError):
        small_plan(ExperimentKind.GRAPH_SAMPLING, p_e=())
    with pytest.raises(InvalidSize):
        small_plan(ExperimentKind.TFIM_INFIDELITY, n_list=(7,))  # more than 6 spins
    with pytest.raises(ValueError):
        small_plan(ExperimentKind.TFIM_INFIDELITY, mode="bogus")


def test_the_spin_cap_is_one_check_before_the_model_is_built(monkeypatch):
    refused = "^system size 7 exceeds the limit of 6 spins$"
    spec = build_tfim(7, 1.0, 1.0)
    cfg = ProtocolConfig(g=0.05, beta=1.0, omega_m=1.0, n_trotter=10, n_cycle=2,
                         ancilla_map=tuple(range(7)))
    with pytest.raises(InvalidSize, match=refused):
        channel.admit_run(spec, cfg, "exact")
    monkeypatch.setattr(experiments, "build_tfim", None)  # any build would fail
    with pytest.raises(InvalidSize, match=refused):
        make_points("tfim", "tfim", 7, (1.0,), g=0.05, n_trotter=10, n_cycle=2)


def test_the_chain_has_no_coupling_parameter():
    # the chain is built at J = 1, its energy unit
    with pytest.raises(TypeError):
        small_plan(ExperimentKind.TFIM_INFIDELITY, j=2.0)
    with pytest.raises(TypeError):
        make_points("tfim", "tfim", 2, (1.0,), j=2.0, g=0.05, n_trotter=10, n_cycle=2)


@pytest.mark.parametrize("field, overrides", [
    ("beta", dict(beta=(1.0, math.nan))),
    ("beta", dict(beta=(math.inf,))),
    ("h_over_j", dict(h_over_j=(math.nan,))),
    ("h_over_j", dict(h_over_j=(1.0, -math.inf))),
    ("g", dict(g=math.nan)),
    ("g", dict(g=math.inf)),
])
def test_plan_rejects_non_finite(field, overrides):
    # h/J reaches the model as the field term's coefficient, which refuses it
    message = "non-finite coefficient" if field == "h_over_j" else f"{field} must be finite"
    with pytest.raises(ValueError, match=f"^{message}"):
        small_plan(ExperimentKind.TFIM_INFIDELITY, **overrides)


@pytest.mark.parametrize("kind, overrides, message", [
    (ExperimentKind.TFIM_INFIDELITY, dict(beta=(1.0, -1.0)), "beta must be >= 0"),
    (ExperimentKind.GRAPH_SAMPLING, dict(beta=(-0.5, 1.0)), "beta must be >= 0"),
    (ExperimentKind.GRAPH_SAMPLING, dict(p_e=(0.5, 1.5)), "edge probability must be in"),
    (ExperimentKind.GRAPH_SAMPLING, dict(p_e=(-0.1,)), "edge probability must be in"),
    (ExperimentKind.GRAPH_SAMPLING, dict(p_e=(math.nan,)), "edge probability must be in"),
    (ExperimentKind.MAGNETIZATION_SWEEP, dict(mode="evolve", n_sweeps=0),
     "n_sweeps must be >= 1"),
])
def test_plan_rejects_out_of_range(kind, overrides, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        small_plan(kind, **overrides)


@pytest.mark.parametrize("kind, overrides, message", [
    (ExperimentKind.TFIM_INFIDELITY, dict(mode="evolve"), "mode 'evolve' is for magnetization"),
    (ExperimentKind.GRAPH_SAMPLING, dict(mode="evolve"), "mode 'evolve' is for magnetization"),
    (ExperimentKind.TFIM_INFIDELITY, dict(n_sweeps=3), "n_sweeps is used only"),
    (ExperimentKind.MAGNETIZATION_SWEEP, dict(n_sweeps=3), "n_sweeps is used only"),
])
def test_plan_refuses_settings_it_would_ignore(kind, overrides, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        small_plan(kind, **overrides)


def test_evolve_plan_defaults_to_twenty_sweeps():
    plan = small_plan(ExperimentKind.MAGNETIZATION_SWEEP, mode="evolve")
    assert plan.n_sweeps == 20
    assert small_plan(ExperimentKind.MAGNETIZATION_SWEEP).n_sweeps is None


def test_point_programming_error_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug in a sweep point")

    monkeypatch.setattr("qmcmc.experiments.build_cycle_maps", broken)
    plan = small_plan(ExperimentKind.TFIM_INFIDELITY, n_trotter=30, n_cycle=8)
    with pytest.raises(TypeError, match="bug in a sweep point"):
        run_plan(plan)


def payload(row):
    values = dataclasses.asdict(row)
    del values["wall_time"]
    return values


# ------------------------------------------------------- beta-shared walks

@pytest.mark.parametrize("kind, overrides", [
    (ExperimentKind.TFIM_INFIDELITY, dict(n_list=(1, 2), h_over_j=(0.5, 2.0))),
    (ExperimentKind.GRAPH_SAMPLING, dict(n_list=(2, 3), p_e=(0.3, 0.9))),
    (ExperimentKind.MAGNETIZATION_SWEEP, dict(n_list=(1, 2), h_over_j=(0.8, 1.5))),
    (ExperimentKind.MAGNETIZATION_SWEEP, dict(n_list=(1, 2), mode="evolve", n_sweeps=4)),
], ids=["tfim", "graph", "magnetization", "magnetization-evolve"])
def test_grouped_rows_equal_per_point_rows(kind, overrides):
    plan = small_plan(kind, beta=(0.3, 1.0, 4.0), n_trotter=30, n_cycle=9, **overrides)
    groups = experiments._groups(plan.points)
    assert [len(group) for group in groups] == [3] * (len(plan.points) // 3)
    t0 = time.perf_counter()
    rows = run_plan(plan)
    elapsed = time.perf_counter() - t0
    assert [payload(row) for row in rows] == [payload(solve_point(p)) for p in plan.points]
    assert all(row.error is None and row.wall_time > 0.0 for row in rows)
    # each row: its own scoring plus an equal share of its group's walk
    assert sum(row.wall_time for row in rows) <= elapsed


def test_points_of_one_model_share_its_spec():
    plan = small_plan(ExperimentKind.TFIM_INFIDELITY, n_list=(1, 2), beta=(0.5, 1.0, 2.0))
    specs = [point.spec for point in plan.points]
    assert [s is specs[0] for s in specs[:3]] == [True] * 3
    assert [s is specs[3] for s in specs[3:]] == [True] * 3
    assert specs[0] is not specs[3]


def test_beta_sweep_powers_each_comb_value_once_per_model(monkeypatch):
    # three betas of two models: one walk each, n_cycle // 2 + 1 values per walk
    calls = {}  # comb values powered, by the walk's protocol config
    exact = channel._period_unitary

    def counted(sectors, ab, weights, cfg, omegas):
        calls.setdefault(cfg, []).extend(omegas)
        return exact(sectors, ab, weights, cfg, omegas)

    monkeypatch.setattr(channel, "_period_unitary", counted)
    plan = small_plan(ExperimentKind.TFIM_INFIDELITY, n_list=(2,), h_over_j=(1.0, 2.0),
                      beta=(0.5, 1.0, 2.0), n_trotter=20, n_cycle=8)
    rows = run_plan(plan)
    assert all(row.error is None for row in rows)
    assert len(calls) == 2
    for values in calls.values():
        assert len(values) == len(set(values)) == plan.n_cycle // 2 + 1


@pytest.mark.parametrize("n_trotter, aliased", [(20, "4.000"), (40, "2.000"), (200, None)])
def test_a_unit_cluster_of_an_aliased_step_names_the_ratio(n_trotter, aliased):
    # the 2-spin model -YY -YI -IY has levels -3, 1, 1, 1: at g 0.05 a step
    # of dt = pi or pi / 2 makes exp(-i H_s dt) a global phase, and every
    # dominant eigenvalue of the cycle map is 1; at n_trotter 200 the step
    # does not alias and the fixed point is unique
    spec = HamiltonianSpec(2, (PauliString(-1.0, "YY"), PauliString(-1.0, "YI"),
                               PauliString(-1.0, "IY")))
    cfg = ProtocolConfig(g=0.05, beta=1.0, omega_m=spectral_width(spec), n_trotter=n_trotter,
                         n_cycle=2 if aliased else 20, ancilla_map=(0, 1))
    assert cfg.aliasing_ratio == pytest.approx(80 / n_trotter)
    if aliased is None:
        assert abs(channel.steady_state(channel.build_cycle_map(spec, cfg))[1] - 1.0) < 1e-6
        return
    with pytest.raises(NoUnitEigenvalue, match="not meaningfully defined; the Trotter step "
                                               f"aliases, omega_m dt / pi = {aliased}$"):
        solve_point(experiments.Point(spec, cfg, {}))


def test_group_failures_mark_only_the_rows_they_touch(monkeypatch):
    plan = small_plan(ExperimentKind.TFIM_INFIDELITY, n_list=(1,), h_over_j=(1.0, 2.0),
                      beta=(0.5, 1.0, 2.0), n_trotter=30, n_cycle=8)
    real_steady = experiments.steady_state
    scored = []

    def failing_second_beta(cm):
        scored.append(cm)
        if len(scored) % 3 == 2:  # the second beta of each group
            raise NoUnitEigenvalue("injected scoring failure")
        return real_steady(cm)

    monkeypatch.setattr(experiments, "steady_state", failing_second_beta)
    rows = run_plan(plan)
    assert [row.error is not None for row in rows] == [False, True, False] * 2
    assert all(row.infidelity is not None for row in rows if row.error is None)
    monkeypatch.undo()

    real_prep = channel.ancilla_preparation

    def failing_in_the_walk(omega, beta, m_count):
        if beta == 2.0 and omega > 0.0:
            raise ValueError("injected walk failure")
        return real_prep(omega, beta, m_count)

    monkeypatch.setattr(channel, "ancilla_preparation", failing_in_the_walk)
    rows = run_plan(dataclasses.replace(plan, h_over_j=(1.0,)))
    assert len(rows) == 3
    assert all(row.error == "ValueError: injected walk failure" for row in rows)
    assert all(row.infidelity is None and row.wall_time > 0.0 for row in rows)


def test_groups_fit_the_memory_budget(monkeypatch):
    def built(*args):
        raise AssertionError("a cycle map was built")

    monkeypatch.setattr("qmcmc.channel._trotter_parts", built)
    betas = tuple(0.25 * (k + 1) for k in range(32))
    for n, split in ((6, True), (2, False)):
        plan = small_plan(ExperimentKind.TFIM_INFIDELITY, n_list=(n,), beta=betas,
                          n_trotter=5000, n_cycle=500)
        groups = experiments._groups(plan.points)
        assert [p for group in groups for p in group] == list(plan.points)
        assert (len(groups) > 1) == split
        spec, cfg = plan.points[0].spec, plan.points[0].config
        for group in groups:
            assert run_bytes(spec, cfg, False, betas=len(group)) <= MAX_RUN_BYTES
        # every group but the last is as large as the budget allows
        for group in groups[:-1]:
            assert run_bytes(spec, cfg, False, betas=len(group) + 1) > MAX_RUN_BYTES
    # one split stack of real blocks of the 6-spin chain is 32 MiB:
    # twenty-seven betas fit beside the rest
    chain6 = small_plan(ExperimentKind.TFIM_INFIDELITY, n_list=(6,), beta=betas,
                        n_trotter=5000, n_cycle=500).points
    assert [len(group) for group in experiments._groups(chain6)] == [27, 5]
    # two worker threads may hold two walks at once: each gets half the budget
    halves = experiments._groups(chain6, workers=2)
    assert [p for group in halves for p in group] == list(chain6)
    spec, cfg = chain6[0].spec, chain6[0].config
    assert all(run_bytes(spec, cfg, False, betas=len(group)) <= MAX_RUN_BYTES // 2
               for group in halves)
    assert [len(group) for group in halves] == [9, 9, 9, 5]


def test_spare_workers_go_to_the_walk_and_the_scorings(monkeypatch):
    passed = []
    real = experiments.build_cycle_maps

    def spy(spec, cfg, betas, workers=None):
        passed.append(workers)
        return real(spec, cfg, betas, workers)

    monkeypatch.setattr(experiments, "build_cycle_maps", spy)
    plan = small_plan(ExperimentKind.TFIM_INFIDELITY, n_list=(2,),
                      beta=(0.5, 1.0, 2.0), n_trotter=30, n_cycle=9)
    serial = run_plan(plan)
    threaded = run_plan(dataclasses.replace(plan, workers=2))
    assert [payload(row) for row in threaded] == [payload(row) for row in serial]
    assert passed == [1, 2]  # one group: both threads go to its walk
    passed.clear()
    run_plan(dataclasses.replace(plan, n_list=(1, 2), workers=2))
    assert passed == [1, 1]  # two groups: one thread each


def test_sweep_holds_one_walk_table_at_a_time_and_none_after():
    # four models of one sweep: each walk builds its own real gather (1 MiB
    # for the 4-spin chain) and drops it when it ends
    plan = ExperimentPlan(ExperimentKind.TFIM_INFIDELITY, n_list=(4,),
                          h_over_j=(0.5, 1, 1.5, 2), beta=(1,), g=0.05, n_trotter=30,
                          n_cycle=4)
    tracemalloc.start()
    try:
        run_plan(plan)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 20
    point = plan.points[0]
    assert peak <= run_bytes(point.spec, point.config, False)


# ------------------------------------------------------------------- tfim

def test_tfim_single_site_accuracy():
    plan = small_plan(ExperimentKind.TFIM_INFIDELITY, n_list=(1,), beta=(1.0,),
                      g=0.05, n_trotter=200, n_cycle=50)
    rows = run_plan(plan)
    assert len(rows) == 1
    row = rows[0]
    assert row.error is None
    assert row.infidelity < 0.05
    assert 0.0 <= row.infidelity <= 1.0
    assert 0.0 <= row.spectral_gap <= 1.0
    assert row.lambda_dev < 1e-6
    assert row.wall_time > 0.0


def test_tfim_beta_zero_fixed_point():
    plan = small_plan(ExperimentKind.TFIM_INFIDELITY, n_list=(2,), beta=(0.0,),
                      n_trotter=50, n_cycle=10)
    row = run_plan(plan)[0]
    assert row.error is None
    assert row.infidelity < 1e-6


def test_tfim_sweep_grid_and_error_isolation(monkeypatch):
    real = experiments.build_cycle_maps

    def failing_at_h2(spec, cfg, betas, workers=None):
        if spec.terms[-1].coefficient == -2.0:  # the field term -h Y
            raise NoUnitEigenvalue("injected failure")
        return real(spec, cfg, betas, workers)

    monkeypatch.setattr(experiments, "build_cycle_maps", failing_at_h2)
    plan = small_plan(ExperimentKind.TFIM_INFIDELITY, n_list=(1,),
                      h_over_j=(1.0, 2.0), beta=(0.5, 1.0),
                      n_trotter=30, n_cycle=8)
    rows = run_plan(plan)
    assert len(rows) == 4
    good = [r for r in rows if r.h == 1.0]
    bad = [r for r in rows if r.h == 2.0]
    assert all(r.error is None and r.infidelity is not None for r in good)
    assert all(r.error is not None and r.infidelity is None for r in bad)


def test_tfim_rows_reproducible():
    plan = small_plan(ExperimentKind.TFIM_INFIDELITY, n_list=(1,),
                      beta=(0.5, 2.0), n_trotter=40, n_cycle=10)
    rows_a = run_plan(plan)
    rows_b = run_plan(plan)
    for a, b in zip(rows_a, rows_b):
        da, db = dataclasses.asdict(a), dataclasses.asdict(b)
        da.pop("wall_time"), db.pop("wall_time")
        assert da == db


def test_tfim_workers_match_serial():
    plan = small_plan(ExperimentKind.TFIM_INFIDELITY, n_list=(1, 2),
                      beta=(1.0,), n_trotter=30, n_cycle=8)
    threaded = small_plan(ExperimentKind.TFIM_INFIDELITY, n_list=(1, 2),
                          beta=(1.0,), n_trotter=30, n_cycle=8, workers=4)
    rows_a = run_plan(plan)
    rows_b = run_plan(threaded)
    for a, b in zip(rows_a, rows_b):
        assert a.infidelity == b.infidelity


# ---------------------------------------------------------- magnetization

def test_magnetization_high_temperature_vanishes():
    plan = small_plan(ExperimentKind.MAGNETIZATION_SWEEP, n_list=(2,),
                      beta=(1e-6,), n_trotter=50, n_cycle=10)
    row = run_plan(plan)[0]
    assert abs(row.magnetization_exact) < 1e-5
    assert abs(row.magnetization_algorithm) < 1e-3
    assert row.mode == "steady_state"


def test_magnetization_exact_column_vs_series_oracle():
    plan = small_plan(ExperimentKind.MAGNETIZATION_SWEEP, n_list=(2,),
                      beta=(0.1, 1.0), n_trotter=50, n_cycle=10)
    rows = run_plan(plan)
    from qmcmc.hamiltonians import build_tfim
    for row in rows:
        h = to_matrix(build_tfim(row.n_s, row.j, row.h))
        rho = series_expm(-row.beta * h)
        rho /= np.trace(rho)
        expected = transverse_magnetization(rho, row.n_s)
        assert abs(row.magnetization_exact - expected) < 1e-10


def test_magnetization_error_column_definitional():
    plan = small_plan(ExperimentKind.MAGNETIZATION_SWEEP, n_list=(1,),
                      beta=(0.7,), n_trotter=40, n_cycle=10)
    row = run_plan(plan)[0]
    assert row.magnetization_error == abs(
        row.magnetization_exact - row.magnetization_algorithm)


def test_magnetization_runs_every_h_over_j():
    one = small_plan(ExperimentKind.MAGNETIZATION_SWEEP, h_over_j=(0.8,),
                     beta=(0.5, 1.0), n_trotter=30, n_cycle=8)
    rows_one = run_plan(one)
    rows_two = run_plan(dataclasses.replace(one, h_over_j=(0.8, 3.0)))
    assert len(rows_two) == 2 * len(rows_one)
    assert [r.h for r in rows_two] == [0.8, 0.8, 3.0, 3.0]
    assert [r.magnetization_algorithm for r in rows_two[:2]] == [
        r.magnetization_algorithm for r in rows_one]


def test_magnetization_evolve_mode():
    plan = small_plan(ExperimentKind.MAGNETIZATION_SWEEP, n_list=(1,),
                      beta=(1.0,), n_trotter=50, n_cycle=20, mode="evolve",
                      n_sweeps=60, g=0.05)
    row = run_plan(plan)[0]
    assert row.mode == "evolve"
    assert row.error is None
    # after many sweeps the evolved state should sit near the steady value
    steady = run_plan(
        small_plan(ExperimentKind.MAGNETIZATION_SWEEP, n_list=(1,), beta=(1.0,),
                   n_trotter=50, n_cycle=20, g=0.05))[0]
    assert abs(row.magnetization_algorithm - steady.magnetization_algorithm) < 0.05


# ------------------------------------------------------------------ graph

def test_graph_product_instance_at_beta_zero():
    plan = small_plan(ExperimentKind.GRAPH_SAMPLING, n_list=(2,), p_e=(0.0,),
                      beta=(0.0,), n_trotter=50, n_cycle=10)
    row = run_plan(plan)[0]
    assert row.error is None
    assert row.tvd < 1e-6
    assert row.infidelity < 1e-6


def test_graph_rows_record_instance_seed():
    plan = small_plan(ExperimentKind.GRAPH_SAMPLING, n_list=(2,), p_e=(0.3, 0.9),
                      beta=(0.5,), n_trotter=30, n_cycle=8)
    rows = run_plan(plan)
    assert [r.instance_seed for r in rows] == [plan.seed, plan.seed + 1]
    assert all(r.p_e in (0.3, 0.9) for r in rows)


def test_graph_two_vertex_matches_composite_oracle():
    plan = small_plan(ExperimentKind.GRAPH_SAMPLING, n_list=(2,), p_e=(1.0,),
                      beta=(1.0,), g=0.1, n_trotter=50, n_cycle=10)
    row = run_plan(plan)[0]
    assert row.error is None

    instance = generate_er_instance(2, 1.0, plan.seed)
    spec = build_graph_ising(instance)
    cycle = composite_cycle_oracle(
        to_matrix(spec), (0, 1), plan.g, 1.0,
        float(np.ptp(np.linalg.eigvalsh(to_matrix(spec)))),
        plan.n_trotter, plan.n_cycle)
    rho = np.eye(4, dtype=complex) / 4.0
    for _ in range(3000):
        new = cycle(rho)
        if np.linalg.norm(new - rho) < 1e-13:
            rho = new
            break
        rho = new
    tvd_oracle = tvd(np.diag(rho).real, gibbs_distribution(spec, 1.0))
    assert abs(row.tvd - tvd_oracle) < 1e-8


def test_run_plan_dispatch():
    plan = small_plan(ExperimentKind.TFIM_INFIDELITY, n_list=(1,), beta=(1.0,),
                      n_trotter=30, n_cycle=8)
    rows = run_plan(plan)
    assert rows[0].kind == "tfim"


@pytest.mark.parametrize("workers, groups, admitted", [(4, 4, 3), (2, 1, 2), (None, 1, 1)])
def test_sweep_runs_no_more_threads_than_the_budget_holds(workers, groups, admitted,
                                                          monkeypatch):
    # with a quarter of the budget, each beta of the 6-spin chain is a group
    # of its own, predicted at 2.06 GiB: three fit in 8 GiB at once; with
    # half of it, the four betas are one group, predicted at 3.4 GiB: two fit
    def built(*args):
        raise AssertionError("a cycle map was built")

    threads = []
    monkeypatch.setattr("qmcmc.channel._trotter_parts", built)
    monkeypatch.setattr(experiments, "_thread_map",
                        lambda fn, items, workers: threads.append((len(items), workers)) or [])
    plan = small_plan(ExperimentKind.TFIM_INFIDELITY, n_list=(6,), beta=(0.5, 1.0, 2.0, 4.0),
                      n_trotter=5000, n_cycle=500, workers=workers)
    assert run_plan(plan) == []
    assert threads == [(groups, admitted)]
