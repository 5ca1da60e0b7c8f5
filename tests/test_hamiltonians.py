import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcmc.errors import (
    DimensionMismatch,
    InvalidGraph,
    InvalidSize,
    NonDiagonalHamiltonian,
)
from qmcmc.hamiltonians import (
    PAULIS,
    GraphInstance,
    HamiltonianSpec,
    PauliString,
    build_graph_ising,
    build_tfim,
    dump_hamiltonian,
    gibbs_distribution,
    load_hamiltonian,
    spectral_norm,
    spectral_width,
    thermal_state,
    to_matrix,
)

from oracles import charpoly_eigenvalues, kron_chain, series_expm


def term_set(spec):
    return {(t.coefficient, t.letters) for t in spec.terms}


def test_build_tfim_two_sites():
    spec = build_tfim(2, 1.0, 1.0)
    assert term_set(spec) == {(-1.0, "ZZ"), (-1.0, "YI"), (-1.0, "IY")}


def test_build_tfim_single_site():
    spec = build_tfim(1, 1.0, 0.7)
    assert term_set(spec) == {(-0.7, "Y")}


def test_build_tfim_term_count():
    assert len(build_tfim(3, 1.0, 1.0).terms) == 5


def test_build_tfim_rejects_bad_size():
    with pytest.raises(InvalidSize):
        build_tfim(0, 1.0, 1.0)


@pytest.mark.parametrize("build, error", [
    (lambda: HamiltonianSpec(0, ()), InvalidSize),
    (lambda: GraphInstance(0, (), ()), InvalidGraph),
], ids=["spec-0-qubits", "graph-0-vertices"])
def test_empty_models_are_refused(build, error):
    with pytest.raises(error):
        build()


def test_graph_single_vertex():
    spec = build_graph_ising(GraphInstance(1, (1.0,), ()))
    assert np.allclose(to_matrix(spec), np.diag([1.0, -1.0]))


def test_graph_single_edge():
    spec = build_graph_ising(GraphInstance(2, (0.0, 0.0), ((0, 1, 1.0),)))
    assert np.allclose(to_matrix(spec), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_graph_published_fields_instance_is_diagonal():
    g = GraphInstance(4, (0.084, 0.026, 0.403, 0.379),
                      ((0, 1, 0.5), (2, 3, 0.25)))
    spec = build_graph_ising(g)
    assert spec.is_diagonal
    mat = to_matrix(spec)
    assert np.linalg.norm(mat - np.diag(np.diag(mat))) == 0.0


def test_graph_instance_validation():
    with pytest.raises(InvalidGraph):
        GraphInstance(2, (0.0, 0.0), ((0, 1, 1.0), (0, 1, 2.0)))
    with pytest.raises(InvalidGraph):
        GraphInstance(2, (0.0, 0.0), ((1, 0, 1.0),))
    with pytest.raises(InvalidGraph):
        GraphInstance(2, (0.0, 0.0), ((0, 2, 1.0),))
    with pytest.raises(InvalidGraph):
        GraphInstance(3, (0.0, 0.0), ())


def test_to_matrix_empty_terms():
    spec = HamiltonianSpec(2, ())
    assert np.array_equal(to_matrix(spec), np.zeros((4, 4)))


def test_to_matrix_single_term():
    spec = HamiltonianSpec(1, (PauliString(2.0, "X"),))
    assert np.allclose(to_matrix(spec), [[0, 2], [2, 0]])


def test_to_matrix_hermitian():
    mat = to_matrix(build_tfim(2, 1.0, 1.0))
    assert np.linalg.norm(mat - mat.conj().T) < 1e-12


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString(1.0, "ZQ")
    with pytest.raises(ValueError):
        PauliString(float("nan"), "Z")
    with pytest.raises(DimensionMismatch):
        HamiltonianSpec(2, (PauliString(1.0, "Z"),))


def test_spectral_width_single_z():
    assert spectral_width(HamiltonianSpec(1, (PauliString(1.0, "Z"),))) == 2.0


def test_spectral_width_scaling():
    spec1 = build_tfim(2, 1.0, 0.5)
    spec3 = build_tfim(2, 3.0, 1.5)
    assert abs(spectral_width(spec3) - 3.0 * spectral_width(spec1)) < 1e-10


def test_spectral_width_vs_charpoly_oracle():
    spec = build_tfim(2, 1.0, 1.0)
    roots = np.sort(charpoly_eigenvalues(to_matrix(spec)).real)
    assert abs(spectral_width(spec) - (roots[-1] - roots[0])) < 1e-8
    assert abs(spectral_norm(spec) - np.abs(roots).max()) < 1e-8


def test_spectrum_cache_is_invisible_and_read_only():
    spec = build_tfim(2, 1.0, 0.5)
    w, v = spec.spectrum
    assert spec.spectrum[0] is w
    assert spec == build_tfim(2, 1.0, 0.5)
    assert hash(spec) == hash(build_tfim(2, 1.0, 0.5))
    assert dataclasses.replace(spec, label="x")._spectrum is None
    assert not w.flags.writeable and not v.flags.writeable


def test_thermal_state_infinite_temperature():
    spec = build_tfim(2, 1.0, 1.0)
    assert np.linalg.norm(thermal_state(spec, 0.0) - np.eye(4) / 4) < 1e-12


def test_thermal_state_zero_temperature_limit():
    spec = build_tfim(2, 1.0, 1.0)
    mat = to_matrix(spec)
    w, v = np.linalg.eigh(mat)
    assert w[1] - w[0] > 1e-6  # nondegenerate ground state
    projector = np.outer(v[:, 0], v[:, 0].conj())
    assert np.linalg.norm(thermal_state(spec, 1e6) - projector) < 1e-9


def test_thermal_state_at_the_largest_finite_beta_is_the_ground_state():
    # -beta (E - E_0) overflows to -inf there, whose weight is 0; the suite
    # turns an overflow warning into an error
    spec = build_tfim(2, 1.0, 1.0)
    _, v = np.linalg.eigh(to_matrix(spec))
    projector = np.outer(v[:, 0], v[:, 0].conj())
    assert np.abs(thermal_state(spec, 1e308) - projector).max() < 1e-12
    graph = build_graph_ising(GraphInstance(3, (0.1, -0.3, 0.5), ((0, 1, 0.7), (1, 2, -0.2))))
    energies = np.diag(to_matrix(graph)).real
    assert np.sort(energies)[1] > energies.min()  # one ground state
    assert np.array_equal(gibbs_distribution(graph, 1e308),
                          np.eye(8)[np.argmin(energies)])


def test_thermal_state_vs_series_oracle():
    spec = build_tfim(2, 1.0, 1.0)
    mat = to_matrix(spec)
    expected = series_expm(-1.0 * mat)
    expected /= np.trace(expected)
    assert np.linalg.norm(thermal_state(spec, 1.0) - expected) < 1e-12


def test_thermal_state_properties():
    spec = build_tfim(2, 1.0, 1.0)
    rho = thermal_state(spec, 2.5)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-15


def test_thermal_state_rejects_negative_beta():
    for beta in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            thermal_state(build_tfim(1, 1.0, 1.0), beta)


def test_gibbs_distribution_rejects_negative_beta():
    for beta in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            gibbs_distribution(HamiltonianSpec(1, (PauliString(1.0, "Z"),)), beta)


def kron_sum(spec):
    """The dense matrix of ``spec`` as a sum of Kronecker products, term by
    term in order."""
    out = np.zeros((2**spec.qubit_count,) * 2, dtype=complex)
    for t in spec.terms:
        out += t.coefficient * kron_chain(PAULIS[c] for c in t.letters)
    return out


@st.composite
def pauli_sums(draw):
    n = draw(st.integers(1, 5))
    words = st.text("IXYZ", min_size=n, max_size=n)
    terms = draw(st.lists(st.tuples(st.floats(-3.0, 3.0), words), min_size=1, max_size=6))
    return HamiltonianSpec(n, tuple(PauliString(c, w) for c, w in terms))


@settings(max_examples=60, deadline=None)
@given(spec=st.one_of(
    pauli_sums(),
    st.builds(build_tfim, st.integers(1, 6), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))))
def test_to_matrix_is_bitwise_the_kron_sum(spec):
    assert to_matrix(spec).tobytes() == kron_sum(spec).tobytes()


def test_thermal_eigenvalues_are_boltzmann_weights():
    spec = build_tfim(2, 1.0, 0.7)
    beta = 1.3
    h_eigs = np.sort(np.linalg.eigvalsh(to_matrix(spec)))
    weights = np.exp(-beta * (h_eigs - h_eigs.min()))
    weights /= weights.sum()
    rho_eigs = np.sort(np.linalg.eigvalsh(thermal_state(spec, beta)))
    assert np.allclose(rho_eigs, np.sort(weights), atol=1e-10)


def test_tfim_spectrum_spin_flip_invariant():
    spec = build_tfim(3, 1.0, 0.8)
    mat = to_matrix(spec)
    flip = kron_chain([np.array([[0, 1], [1, 0]])] * 3)
    w1 = np.sort(np.linalg.eigvalsh(mat))
    w2 = np.sort(np.linalg.eigvalsh(flip @ mat @ flip))
    assert np.allclose(w1, w2, atol=1e-10)


def test_gibbs_uniform_at_beta_zero():
    spec = build_graph_ising(GraphInstance(2, (0.3, 0.9), ((0, 1, 0.5),)))
    assert np.allclose(gibbs_distribution(spec, 0.0), np.full(4, 0.25))


def test_gibbs_two_level():
    spec = build_graph_ising(GraphInstance(1, (1.0,), ()))
    z = math.exp(-1.0) + math.exp(1.0)
    expected = np.array([math.exp(-1.0) / z, math.exp(1.0) / z])
    assert np.allclose(gibbs_distribution(spec, 1.0), expected, atol=1e-15)


def test_gibbs_matches_boltzmann_weights_of_the_matrix_diagonal():
    # the energies are read off the dense matrix, not off spec.spectrum; the
    # field-free triangle with equal weights has degenerate energies
    graphs = (GraphInstance(4, (0.084, 0.026, 0.403, 0.379),
                            ((0, 1, 0.7), (1, 2, 0.2), (0, 3, 0.9))),
              GraphInstance(3, (0.0, 0.0, 0.0), ((0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5))))
    for g in graphs:
        spec = build_graph_ising(g)
        energies = np.diag(to_matrix(spec)).real
        assert np.array_equal(np.diag(energies), to_matrix(spec))
        for beta in (0.0, 0.1, 1.0, 10.0, 1e3):
            weights = np.exp(-beta * (energies - energies.min()))
            p = gibbs_distribution(spec, beta)
            assert np.abs(p - weights / weights.sum()).max() < 1e-14


def test_gibbs_rejects_nondiagonal():
    with pytest.raises(NonDiagonalHamiltonian):
        gibbs_distribution(build_tfim(2, 1.0, 1.0), 1.0)


def test_hamiltonian_file_roundtrip(tmp_path):
    spec = build_tfim(3, 1.0, 0.5)
    path = tmp_path / "chain.ham"
    dump_hamiltonian(spec, path)
    loaded = load_hamiltonian(path)
    assert loaded.qubit_count == 3
    assert term_set(loaded) == term_set(spec)


def test_hamiltonian_file_comments_and_blanks(tmp_path):
    path = tmp_path / "h.ham"
    path.write_text("# a comment\n\n-1.0 ZZI  # trailing\n0.25 IXZ\n")
    spec = load_hamiltonian(path)
    assert spec.qubit_count == 3
    assert term_set(spec) == {(-1.0, "ZZI"), (0.25, "IXZ")}


def test_hamiltonian_file_inconsistent_length(tmp_path):
    path = tmp_path / "h.ham"
    path.write_text("1.0 ZZ\n1.0 ZZZ\n")
    with pytest.raises(DimensionMismatch):
        load_hamiltonian(path)


def test_hamiltonian_file_bad_lines(tmp_path):
    path = tmp_path / "h.ham"
    path.write_text("1.0\n")
    with pytest.raises(ValueError):
        load_hamiltonian(path)
    path.write_text("x ZZ\n")
    with pytest.raises(ValueError):
        load_hamiltonian(path)
    path.write_text("# only comments\n")
    with pytest.raises(ValueError):
        load_hamiltonian(path)
