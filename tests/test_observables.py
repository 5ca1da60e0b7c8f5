import numpy as np
import pytest

from qmcmc.errors import DimensionMismatch, NotADistribution, NotAState
from qmcmc.hamiltonians import build_tfim, thermal_state, to_matrix
from qmcmc.observables import (
    fidelity,
    site_magnetizations,
    transverse_magnetization,
    tvd,
)

from oracles import I2, Y, kron_chain, random_density, random_unitary, series_expm


def test_fidelity_with_itself():
    rng = np.random.default_rng(0)
    for dim in (2, 4):
        rho = random_density(rng, dim)
        assert abs(fidelity(rho, rho) - 1.0) < 1e-9


def test_fidelity_orthogonal_pure_states():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert fidelity(a, b) < 1e-12


def test_fidelity_pure_vs_mixed_half():
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    assert abs(fidelity(ket0, np.eye(2) / 2) - 0.5) < 1e-12


def test_fidelity_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(5):
        rho, sigma = random_density(rng, 4), random_density(rng, 4)
        assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-9


def test_fidelity_unitarily_invariant():
    rng = np.random.default_rng(2)
    rho, sigma = random_density(rng, 4), random_density(rng, 4)
    u = random_unitary(rng, 4)
    f1 = fidelity(rho, sigma)
    f2 = fidelity(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
    assert abs(f1 - f2) < 1e-9


def test_fidelity_rejects_invalid_states():
    good = np.eye(2) / 2
    with pytest.raises(NotAState, match="trace"):
        fidelity(np.eye(2), good)
    with pytest.raises(NotAState, match="eigenvalue"):
        fidelity(np.diag([1.5, -0.5]), good)
    with pytest.raises(NotAState, match="Hermitian"):
        fidelity(np.array([[0.5, 0.5], [0.0, 0.5]]), good)
    with pytest.raises(DimensionMismatch):
        fidelity(good, np.eye(4) / 4)


def test_states_must_be_square():
    with pytest.raises(NotAState, match="square"):
        fidelity(np.full((2, 3), 0.5), np.eye(2) / 2)
    with pytest.raises(NotAState, match="square"):
        transverse_magnetization(np.full(4, 0.25), 2)


def test_tvd_identical():
    p = np.array([0.2, 0.3, 0.5])
    assert tvd(p, p) == 0.0


def test_tvd_disjoint_supports():
    assert abs(tvd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) - 1.0) < 1e-15


def test_tvd_half_case():
    assert abs(tvd(np.array([0.5, 0.5]), np.array([1.0, 0.0])) - 0.5) < 1e-15


def test_tvd_triangle_inequality():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p, q, r = (rng.dirichlet(np.ones(6)) for _ in range(3))
        assert tvd(p, r) <= tvd(p, q) + tvd(q, r) + 1e-12


def test_tvd_validation():
    with pytest.raises(DimensionMismatch):
        tvd(np.array([1.0]), np.array([0.5, 0.5]))
    with pytest.raises(NotADistribution):
        tvd(np.array([0.7, 0.7]), np.array([0.5, 0.5]))


def test_magnetization_maximally_mixed():
    assert abs(transverse_magnetization(np.eye(4) / 4, 2)) < 1e-12


def test_magnetization_y_eigenstate():
    plus_i = np.array([1.0, 1.0j]) / np.sqrt(2)
    psi = np.kron(plus_i, plus_i)
    rho = np.outer(psi, psi.conj())
    assert abs(transverse_magnetization(rho, 2) - 1.0) < 1e-12
    assert np.allclose(site_magnetizations(rho, 2), [1.0, 1.0])


def test_magnetization_thermal_vs_series_oracle():
    spec = build_tfim(2, 1.0, 1.0)
    beta = 1.0
    rho_lib = thermal_state(spec, beta)
    # fully independent evaluation: series exponential and explicit Y sum
    rho_oracle = series_expm(-beta * to_matrix(spec))
    rho_oracle /= np.trace(rho_oracle)
    y_avg = (kron_chain([Y, I2]) + kron_chain([I2, Y])) / 2.0
    expected = np.trace(rho_oracle @ y_avg).real
    assert abs(transverse_magnetization(rho_lib, 2) - expected) < 1e-10


def test_magnetization_bounded():
    rng = np.random.default_rng(4)
    for _ in range(10):
        rho = random_density(rng, 4)
        assert abs(transverse_magnetization(rho, 2)) <= 1.0 + 1e-12


def test_magnetization_rejects_wrong_size():
    with pytest.raises(NotAState):
        transverse_magnetization(np.eye(4) / 4, 3)

