import dataclasses
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qmcmc import channel
from qmcmc.channel import (
    CycleMap,
    KrausSet,
    Sectors,
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
from qmcmc.errors import (
    CompletenessViolation,
    DimensionMismatch,
    InvalidSize,
    NegativeEigenvalue,
    NoUnitEigenvalue,
)
from qmcmc.experiments import generate_er_instance
from qmcmc.hamiltonians import (
    GraphInstance,
    HamiltonianSpec,
    PauliString,
    build_graph_ising,
    build_tfim,
    spectral_width,
    to_matrix,
)
from qmcmc.linalg import unvec
from qmcmc.schedule import ProtocolConfig, comb_value, ground_probability

from oracles import (
    I2,
    X,
    Z,
    apply_channel,
    composite_cycle_oracle,
    composite_period_unitary,
    dense_cycle_map,
    dense_period_unitary,
    dense_step,
    kron_preparation,
    pauli_word_matrix,
    padded_order,
    padded_split,
    pair_matrix,
    ptrace_last,
    random_density,
    random_unitary,
    scatter_unsplit,
    sequential_cycle_map,
    series_expm,
    two_term_real_gather,
)
from strategies import small_protocols


def field_spec(n=1, h=1.0):
    return build_tfim(n, 1.0, h)


def zero_spec(n=1):
    return HamiltonianSpec(n, ())


def config(spec, m=None, **overrides):
    m = spec.qubit_count if m is None else m
    params = dict(g=0.05, beta=1.0, omega_m=2.0, n_trotter=50, n_cycle=10,
                  ancilla_map=tuple(range(m)))
    params.update(overrides)
    return ProtocolConfig(**params)


# ---------------------------------------------------------------- unitary

def test_period_unitary_closed_form_minus_identity():
    # H_s = 0, Omega = 0, one Trotter step: W = exp(-i pi XX) = -I
    cfg = config(zero_spec(), n_trotter=1)
    w = build_period_unitary(zero_spec(), cfg, omega=0.0)
    assert np.linalg.norm(w + np.eye(4)) < 1e-12


def test_period_unitary_is_unitary():
    spec = field_spec(2, 0.7)
    cfg = config(spec, n_trotter=37, g=0.2)
    w = build_period_unitary(spec, cfg, omega=1.3)
    dim = w.shape[0]
    assert np.linalg.norm(w @ w.conj().T - np.eye(dim)) < 1e-9


def test_period_unitary_first_order_convergence():
    # single site, field only, Omega = omega_m / 2; error vs the exact
    # composite exponential should halve when n_trotter doubles
    spec = field_spec(1, 1.0)
    g, omega = 0.5, spectral_width(spec) / 2.0
    t_g = np.pi / g
    h_full = (np.kron(to_matrix(spec), I2) + np.kron(I2, -omega / 2.0 * Z)
              + g * np.kron(X, X))
    exact = series_expm(-1j * t_g * h_full)
    errs = []
    for n_t in (100, 200, 400, 800):
        cfg = config(spec, g=g, n_trotter=n_t)
        w = build_period_unitary(spec, cfg, omega)
        errs.append(np.linalg.norm(w - exact))
    for a, b in zip(errs, errs[1:]):
        assert 1.5 <= a / b <= 2.5


def test_period_unitary_matches_composite_oracle():
    spec = field_spec(1, 0.9)
    cfg = config(spec, g=0.3, n_trotter=20)
    w = build_period_unitary(spec, cfg, omega=0.8)
    w_oracle = composite_period_unitary(to_matrix(spec), cfg.ancilla_map,
                                        cfg.g, 0.8, cfg.n_trotter)
    assert np.linalg.norm(w - w_oracle) < 1e-10


@pytest.mark.parametrize("n_trotter, tol", [(20, 2e-2), (2000, 1e-5)])
@pytest.mark.parametrize("detuning", [0.0, 2.2], ids=["resonant", "detuned"])
def test_one_period_exchanges_population_only_off_resonance(detuning, n_trotter, tol):
    # H_s = -Z and Omega = 2 + detuning g: under g X_s X_a, |1,0> <-> |0,1>
    # is a two-level system with coupling g, so over T_g = pi / g a resonant
    # exchange turns through a full 2 pi and moves nothing, while at
    # |Delta| = 2.2 g the transfer is 0.452, near its largest (0.466 at 2.05 g)
    from scipy.linalg import expm

    g = 0.05
    omega = 2.0 + detuning * g
    spec = HamiltonianSpec(1, (PauliString(-1.0, "Z"),))
    cfg = config(spec, g=g, n_trotter=n_trotter, omega_m=omega)
    transfer = abs(build_period_unitary(spec, cfg, omega)[1, 2]) ** 2
    h = -np.kron(Z, I2) - omega / 2.0 * np.kron(I2, Z) + g * np.kron(X, X)
    exact = abs(expm(-1j * cfg.t_g * h)[1, 2]) ** 2
    if detuning == 0.0:
        assert transfer < 1e-12 and exact < 1e-12
    else:
        assert abs(exact - 0.452) < 1e-3
        assert abs(transfer - exact) < tol


# ------------------------------------------------------------- preparation

def test_ancilla_preparation_ground_lock():
    prep = ancilla_preparation(omega=1.0, beta=1e9, m_count=2)
    expected = np.zeros(4)
    expected[0] = 1.0
    assert np.allclose(prep, expected)


def test_ancilla_preparation_uniform():
    assert np.allclose(ancilla_preparation(0.0, 3.0, 2), np.full(4, 0.25))


def test_ancilla_preparation_single():
    p0 = ground_probability(2.0, 0.6931471805599453)  # beta*omega = 2 ln 2 -> p0 = 0.8
    prep = ancilla_preparation(2.0, 0.6931471805599453, 1)
    assert np.allclose(prep, [p0, 1 - p0])
    assert abs(p0 - 0.8) < 1e-12


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("omega, beta", [(0.0, 1.0), (40.0, 100.0), (0.7, 1.3)],
                         ids=["p0-half", "p0-one", "p0-generic"])
def test_ancilla_preparation_matches_kron_product_bitwise(m, omega, beta):
    p0 = ground_probability(omega, beta)  # exactly 0.5, exactly 1.0, then 0.71
    assert np.array_equal(ancilla_preparation(omega, beta, m), kron_preparation(p0, m))


# ------------------------------------------------------------------ kraus

def test_identity_unitary_gives_identity_channel():
    rng = np.random.default_rng(0)
    kraus = build_period_channel(np.eye(8), ancilla_preparation(1.0, 2.0, 1), 2, 1)
    rho = random_density(rng, 4)
    assert np.linalg.norm(apply_channel(kraus, rho) - rho) < 1e-12


def test_swap_unitary_gives_constant_channel():
    swap = np.eye(4)[[0, 2, 1, 3]]
    p = 0.73
    kraus = build_period_channel(swap, np.array([p, 1 - p]), 1, 1)
    rng = np.random.default_rng(1)
    for _ in range(3):
        out = apply_channel(kraus, random_density(rng, 2))
        assert np.linalg.norm(out - np.diag([p, 1 - p])) < 1e-12


def test_period_channel_matches_full_space_oracle():
    rng = np.random.default_rng(2)
    w = random_unitary(rng, 4)
    prep = np.array([0.6, 0.4])
    kraus = build_period_channel(w, prep, 1, 1)
    rho_prep = np.diag(prep).astype(complex)
    for _ in range(20):
        rho = random_density(rng, 2)
        full = w @ np.kron(rho, rho_prep) @ w.conj().T
        expected = np.einsum("ikjk->ij", full.reshape(2, 2, 2, 2))
        assert np.linalg.norm(apply_channel(kraus, rho) - expected) < 1e-10


def test_period_channel_completeness_violation():
    with pytest.raises(CompletenessViolation) as err:
        build_period_channel(0.9 * np.eye(4), np.array([0.5, 0.5]), 1, 1)
    assert err.value.deviation > 1e-8


@pytest.mark.parametrize("call, error", [
    (lambda: build_period_channel(np.eye(8), np.array([0.5, 0.5]), 1, 1), DimensionMismatch),
    (lambda: build_period_channel(np.eye(4), np.full(3, 1 / 3), 1, 1), DimensionMismatch),
    (lambda: build_period_channel(np.eye(4), np.array([0.7, 0.7]), 1, 1), ValueError),
    (lambda: build_period_channel(np.eye(4), np.array([1.5, -0.5]), 1, 1), ValueError),
    (lambda: pauli_sectors(field_spec(1), config(field_spec(1), ancilla_map=(1,))),
     DimensionMismatch),
    (lambda: to_superoperator(KrausSet(2, np.eye(2, dtype=complex)[np.newaxis]))
     .apply(np.eye(4)), DimensionMismatch),
], ids=["unitary-shape", "prep-length", "prep-sum", "prep-negative", "ancilla-map",
        "state-shape"])
def test_channel_refuses_bad_inputs(call, error):
    with pytest.raises(error):
        call()


def test_period_channel_prunes_zero_operators():
    kraus = build_period_channel(np.eye(8), np.array([1.0, 0.0]), 2, 1)
    assert kraus.operators.shape[0] < 4
    assert kraus.completeness_error() < 1e-12


# ---------------------------------------------------------- superoperator

def test_superoperator_identity_channel():
    kraus = KrausSet(2, np.eye(2, dtype=complex)[np.newaxis])
    s = to_superoperator(kraus)
    assert np.linalg.norm(s.matrix - np.eye(4)) < 1e-14


def test_superoperator_x_kraus_action():
    kraus = KrausSet(2, X[np.newaxis])
    s = to_superoperator(kraus)
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    out = unvec(s.matrix @ ket0.T.reshape(-1))
    expected = np.zeros((2, 2))
    expected[1, 1] = 1.0
    assert np.linalg.norm(out - expected) < 1e-14


def test_superoperator_matches_kraus_application():
    rng = np.random.default_rng(3)
    w = random_unitary(rng, 8)
    kraus = build_period_channel(w, ancilla_preparation(1.0, 0.7, 1), 2, 1)
    s = to_superoperator(kraus)
    for _ in range(20):
        rho = random_density(rng, 4)
        via_s = s.apply(rho)
        via_k = apply_channel(kraus, rho)
        assert np.linalg.norm(via_s - via_k) < 1e-10


def test_choi_constructions_agree():
    rng = np.random.default_rng(4)
    w = random_unitary(rng, 4)
    kraus = build_period_channel(w, np.array([0.3, 0.7]), 1, 1)
    j1 = sum(np.outer(k.T.reshape(-1), k.T.reshape(-1).conj()) for k in kraus.operators)
    j2 = superoperator_to_choi(to_superoperator(kraus))
    assert np.linalg.norm(j1 - j2) < 1e-12


def assert_choi_cptp(choi, d):
    # completely positive: the Choi matrix is PSD; trace preserving: tracing
    # out its output factor leaves the identity
    assert np.abs(choi - choi.conj().T).max() < 1e-10
    assert np.linalg.eigvalsh((choi + choi.conj().T) / 2).min() >= -1e-10
    assert np.abs(ptrace_last(choi, d, d) - np.eye(d)).max() < 1e-10


@settings(max_examples=60, deadline=None)
@given(protocol=small_protocols(), omega=st.floats(0.0, 4.0))
def test_random_period_channels_are_cptp(protocol, omega):
    spec, cfg = protocol
    n_s, m = spec.qubit_count, cfg.m_count
    w = build_period_unitary(spec, cfg, omega)
    kraus = build_period_channel(w, ancilla_preparation(omega, cfg.beta, m), n_s, m)
    assert kraus.completeness_error() < 1e-8
    assert_choi_cptp(superoperator_to_choi(to_superoperator(kraus)), 2**n_s)


@settings(max_examples=60, deadline=None)
@given(protocol=small_protocols())
def test_cycle_map_is_cptp(protocol):
    spec, cfg = protocol
    cm = build_cycle_map(spec, cfg)
    assert_choi_cptp(superoperator_to_choi(cm.superoperator), 2**spec.qubit_count)


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 4, 8]), count=st.integers(1, 16),
       seed=st.integers(0, 2**32 - 1))
def test_gemm_superoperator_and_choi_match_kraus_sums(d, count, seed):
    rng = np.random.default_rng(seed)
    ops = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    kset = KrausSet(dim=d, operators=ops)
    superop = sum(np.kron(k.conj(), k) for k in ops)
    choi = sum(np.outer(k.T.reshape(-1), k.T.reshape(-1).conj()) for k in ops)
    assert np.abs(to_superoperator(kset).matrix - superop).max() < 1e-12
    assert np.abs(superoperator_to_choi(to_superoperator(kset)) - choi).max() < 1e-12


# -------------------------------------------------------------- cycle map

def test_cycle_map_identity_when_w_is_scalar():
    # H_s = 0, omega_m = 0, N_T = 1: every period W = -I so the channel is
    # the identity and so is their composition
    spec = zero_spec()
    cfg = config(spec, omega_m=0.0, n_trotter=1, n_cycle=3)
    cm = build_cycle_map(spec, cfg)
    assert np.linalg.norm(cm.superoperator.matrix - np.eye(4)) < 1e-12


def test_cycle_map_metadata():
    spec = field_spec()
    cfg = config(spec, n_cycle=8)
    cm = build_cycle_map(spec, cfg)
    assert cm.omegas == tuple(comb_value(cfg, k) for k in range(8))


def test_cycle_map_unital_at_infinite_temperature():
    for n in (1, 2):
        spec = field_spec(n)
        cfg = config(spec, beta=0.0, n_trotter=30, n_cycle=6)
        cm = build_cycle_map(spec, cfg)
        mixed = np.eye(2**n) / 2**n
        assert np.linalg.norm(cm.superoperator.apply(mixed) - mixed) < 1e-10


def test_cycle_map_trace_preserving_and_contractive():
    rng = np.random.default_rng(6)
    spec = field_spec(2, 0.8)
    cfg = config(spec, n_trotter=25, n_cycle=5)
    cm = build_cycle_map(spec, cfg)
    for _ in range(5):
        rho = random_density(rng, 4)
        out = cm.superoperator.apply(rho)
        assert abs(np.trace(out) - 1.0) < 1e-8
    radius = np.abs(np.linalg.eigvals(cm.superoperator.matrix)).max()
    assert radius <= 1.0 + 1e-6


def test_cycle_map_composition_consistency():
    rng = np.random.default_rng(7)
    spec = field_spec(1, 1.1)
    cfg = config(spec, n_trotter=30, n_cycle=7)
    cm = build_cycle_map(spec, cfg)
    rho = random_density(rng, 2)
    stepwise = rho.copy()
    for k in range(cfg.n_cycle):
        omega = comb_value(cfg, k)
        w = build_period_unitary(spec, cfg, omega)
        kraus = build_period_channel(
            w, ancilla_preparation(omega, cfg.beta, 1), 1, 1)
        stepwise = apply_channel(kraus, stepwise)
    assert np.linalg.norm(cm.superoperator.apply(rho) - stepwise) < 1e-9


def test_cycle_map_workers_match_serial():
    spec = field_spec(1)
    cfg = config(spec, n_trotter=20, n_cycle=6)
    serial = build_cycle_map(spec, cfg).superoperator.matrix
    threaded = build_cycle_map(spec, cfg, workers=4).superoperator.matrix
    assert np.array_equal(serial, threaded)


@settings(max_examples=40, deadline=None)
@given(protocol=small_protocols(), n_cycle=st.integers(1, 12))
def test_folded_cycle_map_equals_sequential_product(protocol, n_cycle):
    # build_cycle_map folds the palindromic comb; odd and even cycles differ
    # in their middle factor
    spec, cfg = protocol
    cfg = dataclasses.replace(cfg, n_cycle=n_cycle)
    folded = build_cycle_map(spec, cfg).superoperator.matrix
    assert np.abs(folded - sequential_cycle_map(spec, cfg)).max() < 1e-13


@settings(max_examples=30, deadline=None)
@given(protocol=small_protocols(), n_cycle=st.integers(1, 9),
       betas=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3))
def test_cycle_maps_of_several_betas_equal_each_one_beta_map(protocol, n_cycle, betas):
    # one walk for every beta: each map is the one-beta map, bit for bit
    spec, cfg = protocol
    cfg = dataclasses.replace(cfg, n_cycle=n_cycle)
    maps = build_cycle_maps(spec, cfg, betas)
    assert len(maps) == len(betas)
    for beta, cm in zip(betas, maps):
        alone = build_cycle_map(spec, dataclasses.replace(cfg, beta=beta))
        assert np.array_equal(cm.blocks, alone.blocks)
        assert cm.omegas == alone.omegas


def test_cycle_maps_refuse_an_empty_beta_list():
    spec = field_spec(1)
    with pytest.raises(ValueError, match="betas must be nonempty"):
        build_cycle_maps(spec, config(spec), [])


def test_sectors_are_found_once_and_shared_across_threads(monkeypatch):
    spec = build_graph_ising(generate_er_instance(3, 0.5, seed=1))
    cfg = config(spec)
    calls = []
    real = channel.pauli_sectors
    monkeypatch.setattr(channel, "pauli_sectors",
                        lambda spec, cfg: calls.append(spec) or real(spec, cfg))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        found = list(channel._thread_map(lambda _: channel._sectors(spec, cfg), range(64), 8))
    finally:
        sys.setswitchinterval(interval)
    # threads that race on the first lookup may each derive the sectors once
    assert 1 <= len(calls) <= 8
    assert {s.generators for s in found} == {real(spec, cfg).generators}
    assert channel._sectors(spec, cfg) is spec._sectors[cfg.ancilla_map]


def test_cycle_map_peak_memory_does_not_grow_with_the_cycle():
    # the fold holds a fixed number of block sets, where holding every
    # distinct channel would add one per comb value: 90 more at n_cycle 200
    spec = field_spec(3)
    peaks = {}
    for n_cycle in (20, 200):
        tracemalloc.start()
        try:
            cm = build_cycle_map(spec, config(spec, n_trotter=10, n_cycle=n_cycle))
            peaks[n_cycle] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[200] < peaks[20] + 8 * cm.blocks.nbytes


def test_thread_map_keeps_at_most_workers_calls_ahead_of_the_consumer():
    # each call's result waits until the consumer takes it, so the walk's
    # memory is bounded by the calls submitted ahead of it
    started = []
    results = channel._thread_map(lambda x: started.append(x) or x * x, range(20), 3)
    for consumed, y in enumerate(results, 1):
        assert len(started) <= consumed + 2
    assert sorted(started) == list(range(20)) and y == 19 * 19


def test_walk_threads_share_one_real_gather(monkeypatch):
    # every walk builds its own gather, on the calling thread; the 4-spin
    # chain walks its comb values one to a chunk, so four threads run at
    # once, and a slow build would let each of them start its own if they
    # built it
    threads = []
    real = channel._real_gather

    def slow(*args):
        threads.append(threading.current_thread())
        time.sleep(0.1)
        return real(*args)

    monkeypatch.setattr(channel, "_real_gather", slow)
    spec = field_spec(4)
    build_cycle_maps(spec, config(spec, n_trotter=4, n_cycle=12), [0.5, 2.0], workers=4)
    assert threads == [threading.current_thread()]


def test_cycle_map_refuses_seven_spins_up_front(monkeypatch):
    # building the period parts first would already take 2 GiB at n_s = 7:
    # the two sector blocks of 8192 states
    def built_too_early(*args):
        raise AssertionError("period parts built before the size check")

    monkeypatch.setattr("qmcmc.channel._trotter_parts", built_too_early)
    spec = field_spec(7)
    with pytest.raises(InvalidSize):
        build_cycle_map(spec, config(spec))


def build_refused(*args):
    raise AssertionError("period parts built before the size check")


def test_cycle_maps_refuse_an_over_budget_walk_up_front(monkeypatch):
    # thirty-two betas of the 6-spin chain fold thirty-two 32 MiB split
    # stacks of real blocks at once, 8.9 GiB predicted; any one of them
    # alone would run
    monkeypatch.setattr(channel, "_trotter_parts", build_refused)
    spec = field_spec(6)
    cfg = config(spec, n_trotter=5000, n_cycle=500)
    betas = [0.25 * (k + 1) for k in range(32)]
    assert channel.run_bytes(spec, cfg, False, betas=1) <= channel.MAX_RUN_BYTES
    with pytest.raises(InvalidSize, match=f"{channel.run_bytes(spec, cfg, False, 32)} bytes"):
        build_cycle_maps(spec, cfg, betas)


@pytest.mark.parametrize("n, workers, admitted", [(6, 8, 4), (6, 2, 2), (2, 8, 8), (2, None, 1)])
def test_walk_runs_no_more_threads_than_the_budget_holds(n, workers, admitted, monkeypatch):
    # one walk of the 6-spin chain at n_cycle 500 is predicted at 2144 MiB,
    # 512 MiB of it the real and unsplit gathers that its threads share: four
    # threads fit in 8 GiB, as (8192 - 512) // 1632
    class Walked(Exception):
        pass

    threads = []

    def walk(spec, cfg, per_omega, workers=None):
        threads.append(workers)
        raise Walked

    monkeypatch.setattr(channel, "_trotter_parts", build_refused)
    monkeypatch.setattr(channel, "_period_table", walk)
    spec = field_spec(n)
    with pytest.raises(Walked):
        build_cycle_map(spec, config(spec, n_trotter=5000, n_cycle=500), workers=workers)
    assert threads == [admitted]


def test_cycle_map_matches_composite_space_oracle():
    rng = np.random.default_rng(8)
    spec = field_spec(1, 1.0)
    cfg = config(spec, g=0.2, n_trotter=15, n_cycle=4, beta=0.8,
                 omega_m=spectral_width(spec))
    cm = build_cycle_map(spec, cfg)
    oracle = composite_cycle_oracle(to_matrix(spec), cfg.ancilla_map, cfg.g,
                                    cfg.beta, cfg.omega_m, cfg.n_trotter,
                                    cfg.n_cycle)
    for _ in range(5):
        rho = random_density(rng, 2)
        diff = cm.superoperator.apply(rho) - oracle(rho)
        assert 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum() < 1e-9


# -------------------------------------------------------- symmetry sectors

@pytest.mark.parametrize("spec, generators", [
    (build_graph_ising(generate_er_instance(3, 0.5, 1)), ("ZIIZII", "IZIIZI", "IIZIIZ")),
    (build_tfim(2, 1.0, 1.0), ("YYZZ",)),
    (HamiltonianSpec(2, (PauliString(0.7, "ZZ"), PauliString(-0.4, "XI"),
                         PauliString(0.3, "IY"))), ("XYIZ",)),
], ids=["graph", "tfim", "file"])
def test_pauli_sectors_of_each_model(spec, generators):
    sectors = pauli_sectors(spec, config(spec))
    assert sectors.generators == generators
    assert len(sectors.states) == len(sectors.pairs) == 2 ** len(generators)
    # the diagonal, which carries the trace, lies in cycle-map sector 0
    d = 2**spec.qubit_count
    assert set(np.arange(d) * (d + 1)) <= set(sectors.pairs[0])


# ------------------------------------------------------------- pair basis

@st.composite
def involutions(draw):
    """``(image, odd)``: a random involution of the positions of one to three
    sectors of one to twelve positions each, and the phase 1 or i."""
    count, size = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    image = np.tile(np.arange(size), (count, 1))
    for s in range(count):
        perm = draw(st.permutations(range(size)))
        paired = draw(st.integers(0, size // 2))
        for x, y in zip(perm[:paired], perm[paired:2 * paired]):
            image[s, x], image[s, y] = y, x
    return image, draw(st.sampled_from([1, 1j]))


@st.composite
def signed_involutions(draw):
    """``(image, odd)``: an :func:`involutions` image and a sign per
    position, equal on each pair, or, one draw in four, the scalar phase 1
    that W's reflection carries."""
    image, _ = draw(involutions())
    if draw(st.integers(0, 3)) == 0:
        return image, 1
    odd = np.where(draw(st.lists(st.booleans(), min_size=image.size, max_size=image.size)),
                   -1.0, 1.0).reshape(image.shape)
    return image, np.where(np.arange(image.shape[1]) < image,
                           np.take_along_axis(odd, image, axis=1), odd)


def commuting_stack(image, seed, odd=1.0):
    """A random complex stack that commutes with the signed permutation
    ``(P v)_x = odd_x v[image[x]]`` of each sector, ``B + P B P^T``, and
    random weights that it keeps."""
    rng = np.random.default_rng(seed)
    count, size = image.shape
    b = rng.normal(size=(count, size, size)) + 1j * rng.normal(size=(count, size, size))
    signs = np.broadcast_to(odd, image.shape)
    b += (signs[:, :, None] * signs[:, None, :]
          * b[np.arange(count)[:, None, None], image[:, :, None], image[:, None, :]])
    weights = rng.normal(size=(count, size))
    return b, weights + np.take_along_axis(weights, image, axis=1)


@settings(max_examples=60, deadline=None)
@given(pairs=involutions(), seed=st.integers(0, 2**32 - 1))
def test_pair_basis_is_unitary(pairs, seed):
    basis = channel._PairBasis.of(*pairs)
    count, size = pairs[0].shape
    t = pair_matrix(*pairs)
    assert np.abs(t @ t.conj().swapaxes(1, 2) - np.eye(size)).max() < 1e-14
    eye = np.tile(np.eye(size, dtype=complex), (count, 1, 1))
    assert np.abs(basis.dagger(eye) - t.conj().swapaxes(1, 2)).max() < 1e-15
    # on a stack of column sets, as the fixed point's embedding takes it
    v = np.random.default_rng(seed).normal(size=(2, count, size, 3)) + 0j
    assert np.abs(basis.dagger(v.copy()) - t.conj().swapaxes(1, 2) @ v).max() < 1e-14


@settings(max_examples=60, deadline=None)
@given(pairs=signed_involutions(), seed=st.integers(0, 2**32 - 1))
def test_pair_basis_splits_a_commuting_stack_by_parity(pairs, seed):
    image, odd = pairs
    basis = channel._PairBasis.of(image, odd)
    b, weights = commuting_stack(image, seed, odd)
    t = pair_matrix(image, odd)
    full = t @ b @ t.conj().swapaxes(1, 2)
    parity = (np.arange(image.shape[1]) < image) ^ (np.asarray(odd) < 0)  # the odd coordinates
    assert np.abs(full[parity[:, :, None] != parity[:, None, :]]).max(initial=0) < 1e-13
    split, split_weights = basis.split(b, weights)
    assert split.size == sum(w * w for w in basis.widths(image.shape))
    assert np.abs(basis.unsplit(split) - b).max() < 1e-13
    assert np.abs(basis.unsplit(np.stack([split, 2 * split]))[1] - 2 * b).max() < 1e-13
    # a diagonal stack splits to diagonal blocks of the split weights
    diagonal = np.zeros_like(b)
    diagonal[:, np.arange(len(b[0])), np.arange(len(b[0]))] = weights
    diagonal = basis.split(diagonal, weights)[0]
    for block, weight in zip(basis.parts(diagonal), basis.parts(split_weights, 1)):
        assert np.abs(block - weight[..., None] * np.eye(block.shape[-1])).max() < 1e-13


@settings(max_examples=60, deadline=None)
@given(pairs=signed_involutions(), seed=st.integers(0, 2**32 - 1))
def test_split_stack_and_unsplit_gather_match_the_padded_oracle(pairs, seed):
    # the split stack holds the padded stack's blocks without the padding,
    # and the two-term gather undoes it as scattering and T do
    image, odd = pairs
    basis = channel._PairBasis.of(image, odd)
    b, weights = commuting_stack(image, seed, odd)
    order, t = padded_order(image, odd), pair_matrix(image, odd)
    padded, padded_weights = padded_split(t, b, weights, order)
    split, split_weights = basis.split(b, weights)
    size, signs = image.shape[1], np.broadcast_to(odd, image.shape)
    for positions, blocks, block_weights in zip(basis.order, basis.parts(split),
                                                basis.parts(split_weights, 1)):
        for pos, block, weight in zip(positions, blocks, block_weights):
            s, x = divmod(int(pos[0]), size)
            p, w = 2 * s + int(((x < image[s, x]) ^ (signs[s, x] < 0))), len(pos)
            assert np.abs(block - padded[p, :w, :w]).max() < 1e-13
            assert np.array_equal(weight, padded_weights[p, :w])
    stacked = np.stack([split, 2 * split])
    oracle = scatter_unsplit(t, np.stack([padded, 2 * padded]), order)
    assert np.abs(basis.unsplit(stacked) - oracle).max() < 1e-13


@settings(max_examples=30, deadline=None)
@given(count=st.integers(1, 3), size=st.integers(1, 12), odd=st.sampled_from([1, 1j]),
       seed=st.integers(0, 2**32 - 1))
def test_identity_pair_basis_splits_to_a_bitwise_copy(count, size, odd, seed):
    image = np.tile(np.arange(size), (count, 1))
    basis = channel._PairBasis.of(image, odd)
    b, weights = commuting_stack(image, seed)
    assert basis.split_gather() is None
    split, split_weights = basis.split(b, weights)
    assert split.tobytes() == b.tobytes() and split_weights.tobytes() == weights.tobytes()
    assert basis.unsplit(b[np.newaxis]).tobytes() == b.tobytes()


# -------------------------------------------------------- chain reflection

@pytest.mark.parametrize("n, ancilla_map", [
    (3, (0, 1, 2)), (3, (2, 1, 0, 1)), (4, (0, 1, 2, 3)), (4, (3, 0, 2, 1)),
    (5, (0, 1, 2, 3, 4)), (5, (3, 0, 4, 1)),
])
def test_reflection_split_matches_dense_oracle(n, ancilla_map):
    # reordered and repeated principals still map onto the map reflected
    spec = build_tfim(n, 1.0, 0.7)
    cfg = config(spec, n_trotter=4, ancilla_map=ancilla_map)
    sectors, ab, _ = channel._trotter_parts(spec, cfg)
    assert len(sectors.widths[0]) == 2 * len(sectors.states)
    assert ab.size == sum(w * w for w in sectors.widths[0])
    # the step is unitary, and so is each even and odd block
    for part in sectors.reflection.parts(ab):
        assert np.abs(part @ part.conj().swapaxes(1, 2) - np.eye(part.shape[-1])).max() < 1e-12
    w = build_period_unitary(spec, cfg, 0.9)
    assert np.abs(w - dense_period_unitary(spec, cfg, 0.9)).max() < 1e-10


def parities(sectors):
    """How many parities the sectors' reflection splits each W sector into."""
    return 2 if sectors.reflection.order else 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_reflection_is_found_for_every_chain(n):
    spec = field_spec(n)
    sectors = pauli_sectors(spec, config(spec))
    image, order = sectors.reflection.image, sectors.reflection.order
    assert parities(sectors) == 2
    assert (np.take_along_axis(image, image, axis=1) == np.arange(image.shape[1])).all()
    # every state of a sector is one coordinate of one block: the odd ones
    # are one per pair, the even ones one per pair and one per fixed state
    count, size = image.shape
    positions = np.concatenate([pos.reshape(-1) for pos in order])
    assert np.array_equal(np.sort(positions), np.arange(count * size))
    blocks = [pos for group in order for pos in group]
    assert len(blocks) == 2 * count
    for s in range(count):
        even, odd = sorted((pos % size for pos in blocks if pos[0] // size == s),
                           key=lambda x: (image[s, x] > x).all())
        assert (image[s, odd] > odd).all() and (image[s, even] <= even).all()
        assert len(even) - len(odd) == (image[s] == np.arange(size)).sum()


def test_reflection_keeps_the_frame():
    # one sector of total parity, which any permutation keeps, but a frame
    # of X on qubit 0 only: reversing the qubits would change the frame
    assert parities(Sectors(2, 2, ("XZZZ",), (1, 0))) == 1
    assert parities(Sectors(2, 2, ("XXZZ",), (1, 0))) == 2


def _one_field_changed(n):
    terms = list(field_spec(n).terms)
    terms[-1] = PauliString(terms[-1].coefficient * 0.5, terms[-1].letters)
    return HamiltonianSpec(n, tuple(terms))


_NO_REFLECTION = {
    "field": (_one_field_changed(3), None),
    "map-2": (field_spec(2), (1,)),
    "map-3": (field_spec(3), (0, 1)),
    "graph": (build_graph_ising(generate_er_instance(3, 0.5, 1)), None),
    # its terms and ancillas mirror, but the mirror swaps the parities of
    # Z_0 Z_a0 and Z_2 Z_a2, so it moves states between sectors
    "mirror-graph": (build_graph_ising(GraphInstance(3, (0.5, -0.2, 0.5),
                                                     ((0, 1, 1.0), (1, 2, 1.0)))), None),
    "file": (HamiltonianSpec(2, (PauliString(0.7, "ZZ"), PauliString(-0.4, "XI"),
                                 PauliString(0.3, "IY"))), None),
    "one-spin": (field_spec(1), None),
}


@pytest.mark.parametrize("name", list(_NO_REFLECTION))
def test_reflection_is_not_found_without_the_symmetry(name):
    spec, ancilla_map = _NO_REFLECTION[name]
    cfg = config(spec) if ancilla_map is None else config(spec, ancilla_map=ancilla_map)
    sectors = pauli_sectors(spec, cfg)
    assert parities(sectors) == 1
    assert (sectors.reflection.image == np.arange(sectors.states.shape[1])).all()


@pytest.mark.parametrize("name", list(_NO_REFLECTION))
def test_period_unitary_without_a_reflection_powers_the_sector_blocks(name):
    spec, ancilla_map = _NO_REFLECTION[name]
    cfg = config(spec) if ancilla_map is None else config(spec, ancilla_map=ancilla_map)
    sectors, ab, weights = channel._trotter_parts(spec, cfg)
    assert ab.shape == sectors.states.shape + sectors.states.shape[1:]
    omegas = [0.0, 0.4, 1.7]
    angle = np.asarray(omegas) * (cfg.t_g / cfg.n_trotter) / 2.0
    phase = np.exp(1j * angle[:, np.newaxis, np.newaxis] * weights)
    w = np.linalg.matrix_power(ab * phase[:, :, np.newaxis, :], cfg.n_trotter)
    unsplit = w @ (1.5 * np.eye(w.shape[-1]) - 0.5 * (w.conj().swapaxes(-1, -2) @ w))
    assert np.array_equal(channel._period_unitary(sectors, ab, weights, cfg, omegas), unsplit)


@pytest.mark.parametrize("n, entries", [(2, 2 * 8 * 8), (4, 2 * 128 * 128), (5, 2 * 512 * 512)])
def test_w_bytes_count_the_larger_of_the_split_stack_and_the_sector_blocks(n, entries):
    # the split stack drops the entries between parities, so the sector
    # blocks are always the larger: 128 entries against 72 at n_s = 2
    spec = field_spec(n)
    assert channel._w_bytes(pauli_sectors(spec, config(spec))) == 16 * entries


@pytest.mark.parametrize("n, omega_m", [(1, 2.0), (3, 0.0), (3, 2.0), (4, 2.0)])
@pytest.mark.parametrize("n_cycle", [1, 2, 3, 7])
def test_walks_first_chunk_holds_as_many_values_as_its_prediction(n, omega_m, n_cycle,
                                                                  monkeypatch):
    # a 1-spin chain's values all fit one chunk, a 3-spin chain's go two to a
    # chunk, a 4-spin chain's one; at omega_m = 0 the comb has one value
    chunks = []
    period_unitary = channel._period_unitary

    def counted(sectors, ab, weights, cfg, omegas):
        chunks.append(len(omegas))
        return period_unitary(sectors, ab, weights, cfg, omegas)

    monkeypatch.setattr(channel, "_period_unitary", counted)
    spec = field_spec(n)
    cfg = config(spec, omega_m=omega_m, n_trotter=4, n_cycle=n_cycle)
    build_cycle_map(spec, cfg)
    w_bytes = channel._w_bytes(pauli_sectors(spec, cfg))
    assert 5 * chunks[0] * w_bytes == channel._walk_bytes(spec, cfg)
    assert max(chunks) == chunks[0]
    assert sum(chunks) == len({comb_value(cfg, k) for k in range(n_cycle)})


def test_cycle_map_peak_memory_is_within_the_prediction():
    # a fresh model, so that its sectors are built inside; every walk builds
    # its own gathers
    spec = field_spec(5)
    cfg = config(spec, n_cycle=4)
    tracemalloc.start()
    try:
        build_cycle_map(spec, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= channel.run_bytes(spec, cfg, False)


@pytest.mark.parametrize("n, model", [(4, "graph"), (5, "graph"), (4, "chain"), (5, "chain")],
                         ids=["4", "5", "chain-4", "chain-5"])
def test_trotter_parts_peak_within_a_few_w_blocks(n, model):
    # the step is gathered from 2^M system-size products, and the chain's
    # blocks then split by one gather; one matrix of 4^(n_s+M) entries alone
    # would take one w_bytes per sector, 16 and 32 here
    spec = (build_graph_ising(generate_er_instance(n, 0.5, 1)) if model == "graph"
            else build_tfim(n, 1.0, 0.7))
    cfg = config(spec)
    tracemalloc.start()
    try:
        sectors = channel._trotter_parts(spec, cfg)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * channel._w_bytes(sectors)


def condition_numbers(vecs):
    """The Wilkinson condition number ``1 / |y^H x|`` of each eigenvalue, for
    its unit right eigenvector ``x`` (a column of ``vecs``) and its unit left
    eigenvector ``y`` (a row of the inverse, normalized): infinite when the
    eigenvectors are numerically dependent."""
    try:
        left = np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        return np.full(vecs.shape[1], np.inf)
    return np.linalg.norm(left, axis=1) * np.linalg.norm(vecs, axis=0)


# a one-spin model whose cycle-map sector 1 is, at n_cycle 1, the nilpotent
# block [[-i/2, -i/2], [i/2, i/2]], and whose fixed point is exactly I/2
_Y_MODEL = (HamiltonianSpec(1, (PauliString(-0.5, "Y"),)),
            ProtocolConfig(g=0.5, beta=0.0, omega_m=1.0, n_trotter=4, n_cycle=1,
                           ancilla_map=(0,)))


@settings(max_examples=60, deadline=None)
@given(protocol=small_protocols(), omega=st.floats(0.0, 4.0))
@example(protocol=_Y_MODEL, omega=0.0)
@example(protocol=(_Y_MODEL[0], dataclasses.replace(_Y_MODEL[1], n_cycle=3)), omega=0.0)
def test_sector_path_matches_dense_oracle(protocol, omega):
    spec, cfg = protocol
    step = dense_step(spec, cfg, omega)
    for word in pauli_sectors(spec, cfg).generators:
        p = pauli_word_matrix(word)
        assert np.abs(p @ step - step @ p).max() < 1e-12
    w = build_period_unitary(spec, cfg, omega)
    assert np.abs(w - dense_period_unitary(spec, cfg, omega)).max() < 1e-10
    cm = build_cycle_map(spec, cfg)
    dense = dense_cycle_map(spec, cfg)
    assert np.abs(cm.superoperator.matrix - dense).max() < 1e-10
    lam, vecs = np.linalg.eig(dense)
    order = np.argsort(-np.abs(lam))
    lam, vecs = lam[order], vecs[:, order]
    # roundoff moves an eigenvalue by its condition number times 1e-16 or so
    # (a defective one by about sqrt(eps)), in either solver
    bound = 1e-10 * condition_numbers(vecs)
    w = cm.spectrum[0]
    # moduli in order; lambda_1 is one of the oracle's largest-modulus eigenvalues
    assert (np.abs(np.abs(w) - np.abs(lam)) < bound).all()
    assert (np.abs(lam - w[0]) < bound).any()
    gap, unique = spectral_gap(cm)
    assert abs(gap - max(1.0 - abs(lam[1]), 0.0)) < bound[1]
    if unique and gap > 1e-3:  # else the fixed point is too ill-conditioned to compare
        rho, _ = steady_state(cm)
        # the oracle's fixed point: the null vector of dense - I, from the SVD
        # (its eigenvector of lambda = 1 carries the eigensolver's roundoff)
        fixed = unvec(np.linalg.svd(dense - np.eye(len(dense)))[2][-1].conj())
        expected = fixed / np.trace(fixed)
        assert np.abs(rho - (expected + expected.conj().T) / 2).max() < 1e-10


# ------------------------------------------------- real cycle-map blocks

def period_kraus_sets(spec, cfg, omega, betas):
    """The run's sectors and the Kraus operators of one period at each of
    ``betas``, built from the frame W blocks as the comb walk builds them."""
    sectors, ab, weights = channel._trotter_parts(spec, cfg)
    w = sectors.reflection.unsplit(channel._period_unitary(sectors, ab, weights, cfg, [omega]))
    dense = channel._scatter(w[0], sectors.states)
    n_s, m = spec.qubit_count, cfg.m_count
    return sectors, [build_period_channel(dense, ancilla_preparation(omega, beta, m),
                                          n_s, m).operators for beta in betas]


@settings(max_examples=40, deadline=None)
@given(protocol=small_protocols(), omega=st.floats(0.0, 4.0))
def test_real_blocks_map_back_to_the_complex_superoperator_blocks(protocol, omega):
    spec, cfg = protocol
    sectors, (ops,) = period_kraus_sets(spec, cfg, omega, [cfg.beta])
    grams = channel._grams(channel._sector_entries(ops, sectors.pairs))
    real = channel._real_blocks(channel._real_gather(sectors), grams[np.newaxis])[0]
    assert real.dtype == np.float64 and real.size == sum(w * w for w in sectors.widths[1])
    gather = channel._gram_gather(sectors.pairs, sectors.pair_at)
    complex_blocks = channel._superoperator_blocks(ops, sectors.pairs, gather)
    assert np.abs(sectors.frame_blocks(real) - complex_blocks).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(protocol=small_protocols(), omega=st.floats(0.0, 4.0),
       betas=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3))
def test_real_blocks_of_a_beta_stack_equal_each_beta_alone(protocol, omega, betas):
    spec, cfg = protocol
    sectors, kraus = period_kraus_sets(spec, cfg, omega, betas)
    grams = np.stack([channel._grams(channel._sector_entries(ops, sectors.pairs))
                      for ops in kraus])
    gather = channel._real_gather(sectors)
    stacked = channel._real_blocks(gather, grams)
    for i in range(len(betas)):
        assert np.array_equal(stacked[i], channel._real_blocks(gather, grams[i:i + 1])[0])


def unsplit_real_blocks(spec, cfg, omega):
    """The run's sectors, one period's unsplit real blocks, by the two-term
    oracle gather, and its split stack, by the walk's gather."""
    sectors, (ops,) = period_kraus_sets(spec, cfg, omega, [cfg.beta])
    grams = channel._grams(channel._sector_entries(ops, sectors.pairs))[np.newaxis]
    return (sectors, channel._real_blocks(two_term_real_gather(sectors), grams)[0],
            channel._real_blocks(channel._real_gather(sectors), grams)[0])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_chain_cycle_map_splits_by_the_signed_reflection(n):
    # in each sector's Hermitian basis the reflection is a signed
    # permutation that commutes with the real blocks; the split stack holds
    # their even and odd blocks, whose spectra together are the sector's
    spec = field_spec(n, 0.7)
    cfg = config(spec, n_trotter=4, n_cycle=3)
    sectors, real, split = unsplit_real_blocks(spec, cfg, 0.9)
    basis = sectors.map_reflection
    assert basis is not sectors.reflection and len(sectors.widths[1]) == 2 * len(real)
    count, size = real.shape[:2]
    odd = np.broadcast_to(basis.odd, basis.image.shape)
    for s in range(count):
        p = np.zeros((size, size))
        p[np.arange(size), basis.image[s]] = odd[s]
        assert np.abs(p @ real[s] @ p.T - real[s]).max() < 1e-13
    assert np.abs(basis.unsplit(split) - real).max() < 1e-13
    mine = np.sort_complex(np.concatenate(
        [np.linalg.eigvals(part).reshape(-1) for part in basis.parts(split)]))
    assert np.abs(mine - np.sort_complex(np.linalg.eigvals(real).reshape(-1))).max() < 1e-10


def test_graph_tables_and_w_stack_are_the_one_parity_ones():
    # a graph has no reflection: no third pair basis, no unsplit gather, the
    # two-term real gather of the unsplit blocks, and W powered in them
    spec = build_graph_ising(generate_er_instance(3, 0.5, 1))
    cfg = config(spec, n_trotter=20)
    sectors, ab, weights = channel._trotter_parts(spec, cfg)
    assert sectors.map_reflection is sectors.reflection and not sectors.reflection.order
    assert sectors.reflection.unsplit_gather() is None
    for mine, oracle in zip(channel._real_gather(sectors), two_term_real_gather(sectors)):
        assert np.array_equal(mine, oracle)
    assert ab.shape == sectors.states.shape + sectors.states.shape[1:]
    w = channel._period_unitary(sectors, ab, weights, cfg, [0.4])
    assert np.array_equal(sectors.reflection.unsplit(w), w) and w.shape[1:] == ab.shape


@settings(max_examples=40, deadline=None)
@given(protocol=small_protocols())
def test_real_spectrum_matches_a_complex_eig_of_the_mapped_back_blocks(protocol):
    spec, cfg = protocol
    cm = build_cycle_map(spec, cfg)
    assert cm.blocks.dtype == np.float64
    w, block, _ = cm.spectrum
    # the cycle-map sector of each block of the split stack
    count, size = cm.sectors.pairs.shape
    sector = np.array([pos[0] // size for group in cm.sectors.map_reflection.order
                       for pos in group] or range(count))[block]
    for s, block in enumerate(cm.sectors.frame_blocks(cm.blocks)):
        lam, vecs = np.linalg.eig(block)
        mine = w[sector == s]
        assert len(mine) == len(lam)
        # every well-conditioned eigenvalue of the complex solve is one of the
        # real solve's, and so is its modulus
        for value in lam[condition_numbers(vecs) < 1e4]:
            assert np.abs(mine - value).min() < 1e-11


@pytest.mark.parametrize("spec, widths", [
    (build_graph_ising(generate_er_instance(3, 0.5, 1)), {8}),
    (build_tfim(2, 1.0, 1.0), {6, 2, 4}),
    (build_tfim(4, 1.0, 1.0), {72, 56, 64}),
], ids=["graph-3", "tfim-2", "tfim-4"])
def test_cycle_map_powers_only_sector_blocks(spec, widths, monkeypatch):
    # the graph splits its 2^(n_s + M) register into blocks of 8 states; the
    # chain's two sectors split again by its reflection, into even and odd
    # blocks at their own widths: 6/2 and 4/4 at n_s = 2, 72/56 and 64/64
    # at n_s = 4, one stacked call per width
    shapes = []
    real = np.linalg.matrix_power
    monkeypatch.setattr(np.linalg, "matrix_power",
                        lambda a, n: shapes.append(a.shape[-2:]) or real(a, n))
    build_cycle_map(spec, config(spec, n_cycle=4))
    assert shapes and set(shapes) == {(w, w) for w in widths}


# ------------------------------------------------------------ steady state

def dense_map(mat):
    """A one-sector CycleMap with this superoperator matrix."""
    n_s = (len(mat).bit_length() - 1) // 2
    return CycleMap(np.asarray(mat, dtype=complex)[np.newaxis], Sectors(n_s, 0), (0.0,))


def constant_channel_map(sigma):
    """Superoperator of rho -> sigma as a CycleMap for steady-state tests."""
    d = sigma.shape[0]
    return dense_map(np.outer(sigma.T.reshape(-1), np.eye(d).reshape(-1)))


def test_steady_state_of_reset_channel():
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    rho, lam = steady_state(constant_channel_map(ket0))
    assert abs(lam - 1.0) < 1e-12
    assert np.linalg.norm(rho - ket0) < 1e-10


def test_steady_state_infinite_temperature_is_maximally_mixed():
    for n in (1, 2):
        spec = field_spec(n)
        cfg = config(spec, beta=0.0, n_trotter=30, n_cycle=6)
        rho, lam = steady_state(build_cycle_map(spec, cfg))
        mixed = np.eye(2**n) / 2**n
        assert 0.5 * np.abs(np.linalg.eigvalsh(rho - mixed)).sum() < 1e-8
        assert abs(lam - 1.0) < 1e-6


def test_steady_state_matches_power_iteration_oracle():
    spec = build_tfim(2, 1.0, 1.0)
    cfg = ProtocolConfig(g=0.005, beta=10.0, omega_m=spectral_width(spec),
                         n_trotter=5000, n_cycle=500, ancilla_map=(0, 1))
    cm = build_cycle_map(spec, cfg)
    rho, _ = steady_state(cm)
    rng = np.random.default_rng(9)
    iterate = random_density(rng, 4)
    for _ in range(1000):
        iterate = cm.superoperator.apply(iterate)
    iterate = (iterate + iterate.conj().T) / 2
    assert 0.5 * np.abs(np.linalg.eigvalsh(rho - iterate)).sum() < 1e-6


@settings(max_examples=60, deadline=None)
@given(protocol=small_protocols())
def test_steady_state_is_the_null_vector_of_the_map_minus_identity(protocol):
    # one rule for the fixed point, the projection of I/d onto the unit
    # cluster, gives a simple unit eigenvalue's own fixed point on any model
    cm = build_cycle_map(*protocol)
    gap, unique = spectral_gap(cm)
    assume(unique and gap > 1e-3)
    rho, _ = steady_state(cm)
    dense = cm.superoperator.matrix
    fixed = unvec(np.linalg.svd(dense - np.eye(len(dense)))[2][-1].conj())
    expected = fixed / np.trace(fixed)
    expected = (expected + expected.conj().T) / 2
    assert 0.5 * np.abs(np.linalg.eigvalsh(rho - expected)).sum() < 1e-10


def test_steady_state_rejects_contraction():
    cm = dense_map(0.5 * np.eye(4))
    with pytest.raises(NoUnitEigenvalue):
        steady_state(cm)


def test_steady_state_rejects_negative_fixed_point():
    sigma = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(NegativeEigenvalue):
        steady_state(constant_channel_map(sigma))


def test_steady_state_degenerate_dephasing_returns_mixed():
    # complete dephasing fixes every diagonal state; the projection rule
    # picks the maximally mixed one
    cm = dense_map(np.diag([1.0, 0.0, 0.0, 1.0]))
    rho, lam = steady_state(cm)
    assert abs(lam - 1.0) < 1e-12
    assert np.linalg.norm(rho - np.eye(2) / 2) < 1e-10


def test_steady_state_needs_a_fixed_point_with_a_trace():
    # one qubit split by Z: the coherences (sector 1) are fixed, the
    # populations (sector 0, the one with a trace) decay
    sectors = Sectors(1, 0, ("Z",))
    assert sectors.pairs.tolist() == [[0, 3], [1, 2]]
    cm = CycleMap(np.stack([0.5 * np.eye(2), np.eye(2)]).astype(complex), sectors, (0.0,))
    with pytest.raises(NoUnitEigenvalue, match="vanishing trace"):
        steady_state(cm)


def test_steady_state_fully_degenerate_identity_rejected():
    cm = dense_map(np.eye(4))
    with pytest.raises(NoUnitEigenvalue):
        steady_state(cm)


# ------------------------------------------------------------ spectral gap

def test_spectral_gap_constant_channel():
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    gap, unique = spectral_gap(constant_channel_map(ket0))
    assert abs(gap - 1.0) < 1e-12
    assert unique


def test_spectral_gap_identity_channel():
    cm = dense_map(np.eye(4))
    gap, unique = spectral_gap(cm)
    assert gap == 0.0
    assert not unique


def test_spectral_gap_reference_point_positive_and_unique():
    spec = build_tfim(2, 1.0, 1.0)
    cfg = ProtocolConfig(g=0.005, beta=10.0, omega_m=spectral_width(spec),
                         n_trotter=5000, n_cycle=500, ancilla_map=(0, 1))
    cm = build_cycle_map(spec, cfg)
    gap, unique = spectral_gap(cm)
    assert unique
    assert gap > 0.0
    # cross-check against the raw dense spectrum of the 16x16 matrix
    mods = np.sort(np.abs(np.linalg.eigvals(cm.superoperator.matrix)))[::-1]
    assert abs(gap - (1.0 - mods[1])) < 1e-12


# ------------------------------------------------- shared eigendecomposition

# steady state, dominant eigenvalue and gap of the n_s = 2 chain at the
# reference point, as computed when steady_state and spectral_gap each
# diagonalized the cycle map themselves. lambda_1 and the gap were
# re-recorded from the sector path, whose W(Omega) is unitary to roundoff:
# the dense W^5000 had left lambda_1 - 1 = 6.95e-10 and moved the gap by
# 5.6e-10 (from 0.4351439293997412; diagonalizing each Trotter step instead
# of squaring it gives 0.43514392992)
REFERENCE_LAMBDA_1 = 1.0000000000000033 + 2.7755575615628914e-17j
REFERENCE_GAP = 0.4351439299561066
REFERENCE_RHO_DIAG = (0.36143450731012572, 0.13856549268986865,
                      0.13856549268986793, 0.36143450731013788)
REFERENCE_RHO_01 = -3.0710022415460279e-04 - 2.2293823402552534e-01j
REFERENCE_RHO_03 = -3.5879838655851071e-01 + 3.0721884557930262e-16j
REFERENCE_RHO_12 = 1.3746895990064681e-01 - 3.8895752937917487e-15j


def test_steady_state_and_gap_share_one_eig(monkeypatch):
    spec = build_tfim(2, 1.0, 1.0)
    cfg = ProtocolConfig(g=0.005, beta=10.0, omega_m=spectral_width(spec),
                         n_trotter=5000, n_cycle=500, ancilla_map=(0, 1))
    cm = build_cycle_map(spec, cfg)
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(np.linalg, "eig")
    counted(np.linalg, "eigvals")
    rho, lam1 = steady_state(cm)
    gap, unique = spectral_gap(cm)
    # one stacked eig per block width (6, 2 and 4), all in steady_state
    assert calls == ["eig"] * len(set(cm.sectors.widths[1])) == ["eig"] * 3
    assert abs(lam1 - REFERENCE_LAMBDA_1) < 1e-10
    assert abs(lam1 - 1.0) <= 1e-12  # the trace-preservation drift must not grow
    assert abs(gap - REFERENCE_GAP) < 1e-10
    assert unique
    assert np.abs(np.diag(rho) - REFERENCE_RHO_DIAG).max() < 1e-10
    assert abs(rho[0, 1] - REFERENCE_RHO_01) < 1e-10
    assert abs(rho[0, 3] - REFERENCE_RHO_03) < 1e-10
    assert abs(rho[1, 2] - REFERENCE_RHO_12) < 1e-10
