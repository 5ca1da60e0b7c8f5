import numpy as np
import pytest

from qmcmc.errors import ConvergenceFailure, DimensionMismatch, NonHermitianInput
from qmcmc.linalg import (
    apply_gate,
    dominant_eigs,
    expm_hermitian,
    hermitian_eig,
    unvec,
)

from oracles import (
    I2,
    X,
    Y,
    Z,
    charpoly_eigenvalues,
    kron_chain,
    partial_trace,
    random_density,
    random_unitary,
)


def test_kron_identity():
    assert np.array_equal(kron_chain([I2, I2]), np.eye(4))


def test_kron_diagonal():
    assert np.allclose(kron_chain([Z, I2]), np.diag([1, 1, -1, -1]))


def test_kron_shape_law():
    a = np.ones((2, 2))
    b = np.ones((3, 3))
    assert kron_chain([a, b]).shape == (6, 6)


def test_kron_mixed_product_property():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                      for _ in range(4))
        lhs = kron_chain([a, b]) @ kron_chain([c, d])
        rhs = kron_chain([a @ c, b @ d])
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_hermitian_eig_pauli_spectra():
    for pauli in (Z, X):
        w, _ = hermitian_eig(pauli)
        assert np.allclose(w, [-1.0, 1.0])


def test_hermitian_eig_reconstruction_and_unitarity():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = a + a.conj().T
    w, v = hermitian_eig(h)
    assert np.all(np.diff(w) >= 0)
    assert np.linalg.norm((v * w) @ v.conj().T - h) < 1e-10 * np.linalg.norm(h)
    assert np.linalg.norm(v.conj().T @ v - np.eye(6)) < 1e-10


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NonHermitianInput):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_rejects_nonhermitian_whose_norm_overflows():
    # ||h||_F and ||h - h^dag||_F both overflow to inf for entries of 1e200
    with pytest.raises(NonHermitianInput):
        hermitian_eig(np.array([[0.0, 1e200], [0.0, 0.0]]))


def test_hermitian_eig_tfim_matrix_vs_charpoly_oracle():
    # two-site chain, J = h = 1: -Z Z - Y I - I Y
    h = -kron_chain([Z, Z]) - kron_chain([Y, I2]) - kron_chain([I2, Y])
    expected = np.sort(charpoly_eigenvalues(h).real)
    got, _ = hermitian_eig(h)
    assert np.allclose(got, expected, atol=1e-8)


def test_hermitian_eig_spectrum_invariant_under_conjugation():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = a + a.conj().T
    u = random_unitary(rng, 4)
    w1, _ = hermitian_eig(h)
    w2, _ = hermitian_eig(u @ h @ u.conj().T)
    assert np.allclose(np.sort(w1), np.sort(w2), atol=1e-10)


def test_expm_rotation_closed_form():
    got = expm_hermitian(hermitian_eig(X), -1j * np.pi / 2)
    assert np.linalg.norm(got - (-1j) * X) < 1e-12


def test_expm_zero_exponent_is_identity():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4))
    h = a + a.T
    assert np.linalg.norm(expm_hermitian(hermitian_eig(h), 0.0) - np.eye(4)) < 1e-12


def test_expm_diagonal():
    got = expm_hermitian(hermitian_eig(Z), -1.0)  # beta = 2 => exponent -beta/2 = -1
    assert np.allclose(got, np.diag([np.exp(-1.0), np.exp(1.0)]))


def test_expm_imaginary_exponent_is_unitary():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = a + a.conj().T
    u = expm_hermitian(hermitian_eig(h), -0.37j)
    assert np.linalg.norm(u @ u.conj().T - np.eye(8)) < 1e-10


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert np.linalg.norm(partial_trace(rho, 2, [0]) - np.eye(2) / 2) < 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(7)
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 2)
    got = partial_trace(kron_chain([rho_a, rho_b]), 2, [0])
    assert np.linalg.norm(got - rho_a) < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(8)
    rho = random_density(rng, 8)
    for keep in ([0], [1, 2], [0, 2]):
        reduced = partial_trace(rho, 3, keep)
        assert abs(np.trace(reduced) - np.trace(rho)) < 1e-12


def test_partial_trace_is_linear():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 4)
    sigma = random_density(rng, 4)
    alpha = 0.37
    lhs = partial_trace(alpha * rho + sigma, 2, [1])
    rhs = alpha * partial_trace(rho, 2, [1]) + partial_trace(sigma, 2, [1])
    assert np.linalg.norm(lhs - rhs) < 1e-14


def test_partial_trace_vs_einsum_oracle():
    rng = np.random.default_rng(10)
    rho = random_density(rng, 8)
    got = partial_trace(rho, 3, [0, 1])
    expected = np.einsum("abkcdk->abcd", rho.reshape(2, 2, 2, 2, 2, 2)).reshape(4, 4)
    assert np.linalg.norm(got - expected) < 1e-13


def test_partial_trace_rejects_bad_inputs():
    with pytest.raises(DimensionMismatch):
        partial_trace(np.eye(3), 2, [0])
    with pytest.raises(DimensionMismatch):
        partial_trace(np.eye(4), 2, [2])


def test_vec_unvec_roundtrip_and_convention():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(unvec(np.array([1, 3, 2, 4])), a)  # column stacking
    assert np.array_equal(unvec(a.T.reshape(-1)), a)


def test_apply_gate_matches_explicit_kron():
    rng = np.random.default_rng(12)
    op = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    gate = random_unitary(rng, 2)
    for q in range(3):
        full = kron_chain([gate if i == q else I2 for i in range(3)])
        assert np.linalg.norm(apply_gate(gate, [q], op, 3) - full @ op) < 1e-12
    two = random_unitary(rng, 4)
    full = kron_chain([two, I2])
    assert np.linalg.norm(apply_gate(two, [0, 1], op, 3) - full @ op) < 1e-12


@pytest.mark.parametrize("call", [
    lambda: unvec(np.arange(3)),
    lambda: hermitian_eig(np.eye(3)[:2]),
    lambda: apply_gate(np.eye(2), [0], np.eye(3), 2),
    lambda: apply_gate(np.eye(2), [2], np.eye(4), 2),
    lambda: apply_gate(np.eye(4), [0, 0], np.eye(4), 2),
], ids=["unvec-length", "eig-non-square", "gate-rows", "gate-qubit-range",
        "gate-qubit-repeated"])
def test_kernels_refuse_bad_shapes(call):
    with pytest.raises(DimensionMismatch):
        call()


def test_dominant_eigs_identity():
    w, v = dominant_eigs(np.eye(5))
    assert w.shape == (5,) and v.shape == (5, 5)
    assert np.abs(w - 1.0).max() < 1e-12
    assert np.abs(np.linalg.norm(v, axis=0) - 1.0).max() < 1e-12


def test_dominant_eigs_reset_channel_superoperator():
    # reset-to-|0> channel, Kraus |0><0| and |0><1|; superoperator written by
    # hand under column stacking: only S[0,0] = S[0,3] = 1
    s = np.zeros((4, 4), dtype=complex)
    s[0, 0] = 1.0
    s[0, 3] = 1.0
    w, v = dominant_eigs(s)
    assert abs(abs(w[0]) - 1.0) < 1e-12
    assert np.abs(w[1:]).max() < 1e-12
    assert np.linalg.norm(s @ v[:, 0] - w[0] * v[:, 0]) < 1e-12


def test_dominant_eigs_stochastic_matrix():
    s = np.array([[0.9, 0.2], [0.1, 0.8]])  # column-stochastic
    w, _ = dominant_eigs(s)
    assert abs(w[0] - 1.0) < 1e-12
    assert abs(w[1] - 0.7) < 1e-12


def test_dominant_eigs_stack_matches_each_block():
    rng = np.random.default_rng(12)
    stack = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    w, v = dominant_eigs(stack)
    assert w.shape == (3, 5) and v.shape == (3, 5, 5)
    for block, wk, vk in zip(stack, w, v):
        w1, v1 = dominant_eigs(block)
        assert np.abs(wk - w1).max() < 1e-12
        assert np.abs(vk - v1).max() < 1e-12


def test_dominant_eigs_names_the_block_that_fails(monkeypatch):
    real = np.linalg.eig

    def corrupted(a):
        w, v = real(a)
        w = w.copy()
        w[1, 0] += 0.5
        return w, v

    monkeypatch.setattr(np.linalg, "eig", corrupted)
    stack = np.stack([np.eye(3), np.diag([1.0, 2.0, 3.0]), 2.0 * np.eye(3)])
    with pytest.raises(ConvergenceFailure, match="block 1:"):
        dominant_eigs(stack)


def test_dominant_eigs_solves_a_real_stack_in_real_arithmetic(monkeypatch):
    seen = []
    real = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: seen.append(a.dtype) or real(a))
    c, s = np.cos(0.3), np.sin(0.3)
    stack = np.stack([np.diag([0.5, 1.0]), 0.9 * np.array([[c, -s], [s, c]])])
    w, v = dominant_eigs(stack)
    assert seen == [np.float64]
    assert np.abs(w[0] - [1.0, 0.5]).max() < 1e-15
    # a rotation's eigenvalues are a conjugate pair of equal modulus
    assert abs(w[1, 0] - w[1, 1].conj()) < 1e-15 and abs(abs(w[1, 0]) - 0.9) < 1e-15
    assert np.abs(stack @ v - v * w[:, np.newaxis, :]).max() < 1e-15


def test_dominant_eigs_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        dominant_eigs(np.eye(3)[:2])
