"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and per-criterion wall times.
"""

import time

import numpy as np

from qmcmc.channel import (
    ancilla_preparation,
    build_cycle_map,
    build_period_channel,
    build_period_unitary,
    spectral_gap,
    steady_state,
    superoperator_to_choi,
    to_superoperator,
)
from qmcmc.experiments import ExperimentKind, ExperimentPlan, generate_er_instance, run_plan
from qmcmc.hamiltonians import (
    build_graph_ising,
    build_tfim,
    gibbs_distribution,
    spectral_width,
    thermal_state,
    to_matrix,
)
from numpy import kron
from qmcmc.observables import fidelity, transverse_magnetization, tvd
from qmcmc.schedule import ProtocolConfig
from qmcmc.trajectory import sample_gibbs

from oracles import I2, X, Z, composite_cycle_oracle, random_density, series_expm


def trace_distance(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()


def verdict(index, label, ok, elapsed):
    print(f"[criterion {index}] {label}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s)")
    assert ok, f"acceptance criterion {index} failed: {label}"


def test_criterion_1_cptp_suite():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(50):
        n_s = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        spec = build_tfim(n_s, 1.0, float(rng.uniform(0.2, 2.0)))
        cfg = ProtocolConfig(
            g=float(rng.uniform(0.01, 0.5)),
            beta=float(rng.uniform(0.0, 10.0)),
            omega_m=4.0,
            n_trotter=int(rng.integers(1, 201)),
            n_cycle=1,
            ancilla_map=tuple(int(rng.integers(0, n_s)) for _ in range(m)),
        )
        omega = float(rng.uniform(0.0, 4.0))
        w = build_period_unitary(spec, cfg, omega)
        kraus = build_period_channel(
            w, ancilla_preparation(omega, cfg.beta, m), n_s, m)
        choi = superoperator_to_choi(to_superoperator(kraus))
        choi_min = np.linalg.eigvalsh((choi + choi.conj().T) / 2).min()
        ok = ok and kraus.completeness_error() < 1e-8 and choi_min >= -1e-8
    elapsed = time.time() - t0
    verdict(1, "CPTP suite (50 random period channels)", ok and elapsed < 60,
            elapsed)


def test_criterion_2_infinite_temperature_fixed_point():
    t0 = time.time()
    ok = True
    for n in (1, 2):
        spec = build_tfim(n, 1.0, 1.0)
        cfg = ProtocolConfig(g=0.005, beta=0.0, omega_m=spectral_width(spec),
                             n_trotter=200, n_cycle=50,
                             ancilla_map=tuple(range(n)))
        cm = build_cycle_map(spec, cfg)
        mixed = np.eye(2**n) / 2**n
        fixed_err = np.linalg.norm(cm.superoperator.apply(mixed) - mixed)
        rho, _ = steady_state(cm)
        ok = ok and fixed_err < 1e-10 and trace_distance(rho, mixed) < 1e-8
    elapsed = time.time() - t0
    verdict(2, "infinite-temperature fixed point", ok and elapsed < 60, elapsed)


def test_criterion_3_reduced_map_equivalence():
    t0 = time.time()
    spec = build_tfim(1, 1.0, 1.0)
    cfg = ProtocolConfig(g=0.1, beta=1.0, omega_m=spectral_width(spec),
                         n_trotter=50, n_cycle=10, ancilla_map=(0,))
    cm = build_cycle_map(spec, cfg)
    oracle = composite_cycle_oracle(to_matrix(spec), cfg.ancilla_map, cfg.g,
                                    cfg.beta, cfg.omega_m, cfg.n_trotter,
                                    cfg.n_cycle)
    rng = np.random.default_rng(31)
    ok = True
    for _ in range(20):
        rho = random_density(rng, 2)
        ok = ok and trace_distance(cm.superoperator.apply(rho), oracle(rho)) < 1e-9
    elapsed = time.time() - t0
    verdict(3, "reduced-map equivalence vs composite-space oracle",
            ok and elapsed < 60, elapsed)


def test_criterion_4_trotter_first_order():
    t0 = time.time()
    spec = build_tfim(1, 1.0, 1.0)
    g = 0.5
    omega = spectral_width(spec) / 2.0
    h_full = (kron(to_matrix(spec), I2) + kron(I2, -omega / 2.0 * Z)
              + g * kron(X, X))
    exact = series_expm(-1j * (np.pi / g) * h_full)
    errs = []
    for n_t in (100, 200, 400, 800):
        cfg = ProtocolConfig(g=g, beta=1.0, omega_m=2.0, n_trotter=n_t,
                             n_cycle=1, ancilla_map=(0,))
        errs.append(np.linalg.norm(build_period_unitary(spec, cfg, omega) - exact))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    ok = all(1.5 <= r <= 2.5 for r in ratios)
    elapsed = time.time() - t0
    verdict(4, f"first-order Trotter convergence (ratios {np.round(ratios, 3)})",
            ok and elapsed < 60, elapsed)


def test_criterion_5_reference_tfim_point():
    t0 = time.time()
    spec = build_tfim(2, 1.0, 1.0)
    cfg = ProtocolConfig(g=0.005, beta=10.0, omega_m=spectral_width(spec),
                         n_trotter=5000, n_cycle=500, ancilla_map=(0, 1))
    cm = build_cycle_map(spec, cfg)
    rho, lam1 = steady_state(cm)
    gap, unique = spectral_gap(cm)
    infid = 1.0 - fidelity(thermal_state(spec, 10.0), rho)
    ok = infid < 0.1 and abs(lam1 - 1.0) < 1e-6 and unique and gap > 0.0
    elapsed = time.time() - t0
    verdict(5, f"reference chain point (infidelity {infid:.4f}, gap {gap:.3f})",
            ok, elapsed)


def test_criterion_6_magnetization_consistency():
    t0 = time.time()
    plan = ExperimentPlan(
        kind=ExperimentKind.MAGNETIZATION_SWEEP, n_list=(2,),
        beta=(0.1, 1.0, 10.0), h_over_j=(1.0,), g=0.005, n_trotter=5000,
        n_cycle=500, seed=0,
    )
    rows = run_plan(plan)
    ok = all(r.error is None for r in rows)
    for row in rows:
        rho_oracle = series_expm(-row.beta * to_matrix(build_tfim(2, 1.0, 1.0)))
        rho_oracle /= np.trace(rho_oracle)
        expected = transverse_magnetization(rho_oracle, 2)
        ok = ok and abs(row.magnetization_exact - expected) < 1e-10
    high_t = next(r for r in rows if r.beta == 0.1)
    ok = ok and high_t.magnetization_error < 0.02
    elapsed = time.time() - t0
    verdict(6, f"magnetization consistency (err at beta*J=0.1: "
               f"{high_t.magnetization_error:.2e})", ok, elapsed)


def test_criterion_7_gibbs_sampling_trend():
    t0 = time.time()
    instance = generate_er_instance(4, 0.4, seed=7)
    spec = build_graph_ising(instance)
    omega_m = spectral_width(spec)
    tvds = {}
    for beta in (0.1, 10.0):
        cfg = ProtocolConfig(g=0.005, beta=beta, omega_m=omega_m,
                             n_trotter=5000, n_cycle=100,
                             ancilla_map=(0, 1, 2, 3))
        rho, _ = steady_state(build_cycle_map(spec, cfg))
        tvds[beta] = tvd(np.diag(rho).real, gibbs_distribution(spec, beta))
    ok = tvds[0.1] < tvds[10.0] and tvds[0.1] < 0.05
    elapsed = time.time() - t0
    verdict(7, f"Gibbs-sampling trend (TVD {tvds[0.1]:.4f} @ beta=0.1 vs "
               f"{tvds[10.0]:.4f} @ beta=10)", ok, elapsed)


def test_criterion_8_trajectory_channel_agreement():
    t0 = time.time()
    spec = build_tfim(1, 1.0, 1.0)
    cfg = ProtocolConfig(g=0.05, beta=1.0, omega_m=spectral_width(spec),
                         n_trotter=100, n_cycle=20, ancilla_map=(0,))
    rho, _ = steady_state(build_cycle_map(spec, cfg))
    samples = sample_gibbs(spec, cfg, burn_in_cycles=5, shots=5000, seed=11)
    repeat = sample_gibbs(spec, cfg, burn_in_cycles=5, shots=5000, seed=11)
    dist = tvd(samples.probabilities(), np.diag(rho).real)
    ok = dist < 0.05 and samples == repeat
    elapsed = time.time() - t0
    verdict(8, f"trajectory-channel agreement (TVD {dist:.4f}, reproducible)",
            ok and elapsed < 120, elapsed)


def test_criterion_9_metric_unit_cases():
    t0 = time.time()
    rng = np.random.default_rng(99)
    rho = random_density(rng, 4)
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    ket1 = np.diag([0.0, 1.0]).astype(complex)
    plus_i = np.array([1.0, 1.0j]) / np.sqrt(2)
    y_state = np.outer(np.kron(plus_i, plus_i), np.kron(plus_i, plus_i).conj())
    checks = [
        abs(fidelity(rho, rho) - 1.0) < 1e-9,
        fidelity(ket0, ket1) < 1e-9,
        abs(fidelity(ket0, np.eye(2) / 2) - 0.5) < 1e-9,
        tvd(np.array([0.25, 0.75]), np.array([0.25, 0.75])) < 1e-9,
        abs(tvd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) - 1.0) < 1e-9,
        abs(tvd(np.array([0.5, 0.5]), np.array([1.0, 0.0])) - 0.5) < 1e-9,
        abs(transverse_magnetization(np.eye(4) / 4, 2)) < 1e-9,
        abs(transverse_magnetization(y_state, 2) - 1.0) < 1e-9,
    ]
    elapsed = time.time() - t0
    verdict(9, "metric unit cases", all(checks), elapsed)
