import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcmc.channel import (
    CycleMap,
    KrausSet,
    Superoperator,
    ancilla_preparation,
    build_cycle_map,
    build_period_channel,
    build_period_unitary,
    choi_matrix,
    spectral_gap,
    steady_state,
    superoperator_to_choi,
    to_superoperator,
)
from qmcmc.errors import (
    CompletenessViolation,
    InvalidSize,
    NegativeEigenvalue,
    NoUnitEigenvalue,
)
from qmcmc.hamiltonians import HamiltonianSpec, build_tfim, spectral_width, to_matrix
from qmcmc.linalg import kron, vec, unvec
from qmcmc.schedule import ProtocolConfig, comb_value, ground_probability

from oracles import (
    I2,
    X,
    Z,
    apply_channel,
    composite_cycle_oracle,
    composite_period_unitary,
    ptrace_last,
    random_density,
    random_unitary,
    series_expm,
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
    h_full = (kron(to_matrix(spec), I2) + kron(I2, -omega / 2.0 * Z)
              + g * kron(X, X))
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
        full = w @ kron(rho, rho_prep) @ w.conj().T
        expected = np.einsum("ikjk->ij", full.reshape(2, 2, 2, 2))
        assert np.linalg.norm(apply_channel(kraus, rho) - expected) < 1e-10


def test_period_channel_completeness_violation():
    with pytest.raises(CompletenessViolation) as err:
        build_period_channel(0.9 * np.eye(4), np.array([0.5, 0.5]), 1, 1)
    assert err.value.deviation > 1e-8


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
    out = unvec(s.matrix @ vec(ket0))
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
    j1 = choi_matrix(kraus)
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
    assert_choi_cptp(choi_matrix(kraus), 2**n_s)
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
    choi = sum(np.outer(vec(k), vec(k).conj()) for k in ops)
    assert np.abs(to_superoperator(kset).matrix - superop).max() < 1e-12
    assert np.abs(choi_matrix(kset) - choi).max() < 1e-12


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
    assert cm.config == cfg


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


def test_cycle_map_refuses_seven_spins_up_front(monkeypatch):
    # building the period parts first would already take 4 GiB at n_s = 7
    def built_too_early(*args):
        raise AssertionError("period parts built before the size check")

    monkeypatch.setattr("qmcmc.channel._trotter_parts", built_too_early)
    spec = field_spec(7)
    with pytest.raises(InvalidSize):
        build_cycle_map(spec, config(spec))


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


# ------------------------------------------------------------ steady state

def constant_channel_map(sigma):
    """Superoperator of rho -> sigma as a CycleMap for steady-state tests."""
    d = sigma.shape[0]
    mat = np.outer(vec(sigma), vec(np.eye(d)).conj())
    cfg = ProtocolConfig(g=1.0, beta=1.0, omega_m=0.0, n_trotter=1, n_cycle=1,
                         ancilla_map=(0,))
    return CycleMap(Superoperator(d * d, mat), cfg, (0.0,))


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


def test_steady_state_rejects_contraction():
    cfg = ProtocolConfig(g=1.0, beta=1.0, omega_m=0.0, n_trotter=1, n_cycle=1,
                         ancilla_map=(0,))
    cm = CycleMap(Superoperator(4, 0.5 * np.eye(4)), cfg, (0.0,))
    with pytest.raises(NoUnitEigenvalue):
        steady_state(cm)


def test_steady_state_rejects_negative_fixed_point():
    sigma = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(NegativeEigenvalue):
        steady_state(constant_channel_map(sigma))


def test_steady_state_degenerate_dephasing_returns_mixed():
    # complete dephasing fixes every diagonal state; the projection rule
    # picks the maximally mixed one
    cfg = ProtocolConfig(g=1.0, beta=1.0, omega_m=0.0, n_trotter=1, n_cycle=1,
                         ancilla_map=(0,))
    cm = CycleMap(Superoperator(4, np.diag([1.0, 0.0, 0.0, 1.0])), cfg, (0.0,))
    rho, lam = steady_state(cm)
    assert abs(lam - 1.0) < 1e-12
    assert np.linalg.norm(rho - np.eye(2) / 2) < 1e-10


def test_steady_state_fully_degenerate_identity_rejected():
    cfg = ProtocolConfig(g=1.0, beta=1.0, omega_m=0.0, n_trotter=1, n_cycle=1,
                         ancilla_map=(0,))
    cm = CycleMap(Superoperator(4, np.eye(4)), cfg, (0.0,))
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
    cfg = ProtocolConfig(g=1.0, beta=1.0, omega_m=0.0, n_trotter=1, n_cycle=1,
                         ancilla_map=(0,))
    cm = CycleMap(Superoperator(4, np.eye(4)), cfg, (0.0,))
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
# diagonalized the cycle map themselves
REFERENCE_LAMBDA_1 = 1.0000000006954006 + 5.551115123125783e-17j
REFERENCE_GAP = 0.4351439293997412
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
    assert calls == ["eig"]
    assert abs(lam1 - REFERENCE_LAMBDA_1) < 1e-10
    assert abs(gap - REFERENCE_GAP) < 1e-10
    assert unique
    assert np.abs(np.diag(rho) - REFERENCE_RHO_DIAG).max() < 1e-10
    assert abs(rho[0, 1] - REFERENCE_RHO_01) < 1e-10
    assert abs(rho[0, 3] - REFERENCE_RHO_03) < 1e-10
    assert abs(rho[1, 2] - REFERENCE_RHO_12) < 1e-10
