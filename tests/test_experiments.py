import dataclasses
import math

import numpy as np
import pytest

from qmcmc.experiments import (
    FOUR_VERTEX_FIELD_PRESETS,
    ExperimentKind,
    ExperimentPlan,
    generate_er_instance,
    preset_graph_instance,
    run_plan,
)
from qmcmc.hamiltonians import build_graph_ising, gibbs_distribution, to_matrix
from qmcmc.observables import transverse_magnetization, tvd

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
    with pytest.raises(ValueError):
        small_plan(ExperimentKind.TFIM_INFIDELITY, n_list=(7,))  # 14 > cap 12
    with pytest.raises(ValueError):
        small_plan(ExperimentKind.TFIM_INFIDELITY, mode="bogus")
    plan = small_plan(ExperimentKind.TFIM_INFIDELITY, n_list=(7,), qubit_cap=14)
    assert plan.n_list == (7,)


@pytest.mark.parametrize("field, overrides", [
    ("beta", dict(beta=(1.0, math.nan))),
    ("beta", dict(beta=(math.inf,))),
    ("h_over_j", dict(h_over_j=(math.nan,))),
    ("h_over_j", dict(h_over_j=(1.0, -math.inf))),
    ("g", dict(g=math.nan)),
    ("g", dict(g=math.inf)),
])
def test_plan_rejects_non_finite(field, overrides):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        small_plan(ExperimentKind.TFIM_INFIDELITY, **overrides)


@pytest.mark.parametrize("kind, overrides, message", [
    (ExperimentKind.TFIM_INFIDELITY, dict(beta=(1.0, -1.0)), "beta must be >= 0"),
    (ExperimentKind.GRAPH_SAMPLING, dict(beta=(-0.5, 1.0)), "beta must be >= 0"),
    (ExperimentKind.GRAPH_SAMPLING, dict(p_e=(0.5, 1.5)), "edge probability must be in"),
    (ExperimentKind.GRAPH_SAMPLING, dict(p_e=(-0.1,)), "edge probability must be in"),
    (ExperimentKind.GRAPH_SAMPLING, dict(p_e=(math.nan,)), "edge probability must be in"),
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

    monkeypatch.setattr("qmcmc.experiments.build_tfim", broken)
    plan = small_plan(ExperimentKind.TFIM_INFIDELITY, n_trotter=30, n_cycle=8)
    with pytest.raises(TypeError, match="bug in a sweep point"):
        run_plan(plan)


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_tfim_sweep_grid_and_error_isolation():
    # h/J = 1e308 is finite, so the plan accepts it, but its spectral width
    # overflows to inf and the point's protocol config refuses it
    plan = small_plan(ExperimentKind.TFIM_INFIDELITY, n_list=(1,),
                      h_over_j=(1.0, 1e308), beta=(0.5, 1.0),
                      n_trotter=30, n_cycle=8)
    rows = run_plan(plan)
    assert len(rows) == 4
    good = [r for r in rows if r.h == 1.0]
    bad = [r for r in rows if r.h == 1e308]
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
