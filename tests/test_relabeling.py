"""Relabelings of a run that must not change its physics.

Each property runs the exact path on a model and on a relabeled copy of it
that takes another route through the symmetry bookkeeping (the GF(2)
generators, the frame letters, ``_mirror``'s ancilla move and the pair
bases), or the same run in another energy unit, and compares the
infidelity, the TVD, the spectral gap, the dominant eigenvalue and the
steady state within 1e-12. They reach sizes that the dense oracles do not:
graphs of up to five spins, each coupled to an ancilla, and chains and
Hamiltonian-file models of up to four.
"""

from dataclasses import replace
from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcmc.channel import _sectors, build_cycle_map, spectral_gap, steady_state
from qmcmc.experiments import generate_er_instance
from qmcmc.hamiltonians import (
    PAULIS,
    GraphInstance,
    HamiltonianSpec,
    PauliString,
    build_graph_ising,
    build_tfim,
    spectral_width,
    thermal_state,
)
from qmcmc.observables import fidelity, tvd
from qmcmc.schedule import ProtocolConfig
from qmcmc.trajectory import sample_gibbs

from oracles import kron_chain

TOL = 1e-12
SQRT_X = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2


def observed(spec, cfg, basis=None):
    """``(rho, gap, lambda_1, infidelity, tvd)`` of the run ``(spec, cfg)``:
    its steady state, the gap and dominant eigenvalue of its cycle map, and
    its distances to the thermal state, the TVD between the two states'
    populations in the basis of the columns of ``basis`` (by default the
    computational one)."""
    cm = build_cycle_map(spec, cfg)
    rho, lam1 = steady_state(cm)
    gap, _ = spectral_gap(cm)
    rho_th = thermal_state(spec, cfg.beta)
    u = np.eye(len(rho)) if basis is None else basis
    populations = [np.diag(u.conj().T @ r @ u).real for r in (rho, rho_th)]
    return rho, gap, lam1, 1.0 - fidelity(rho_th, rho), tvd(*populations)


def assert_same_physics(a, b, relabel=lambda rho: rho):
    """The :func:`observed` tuples ``a`` and ``b`` agree within ``TOL``,
    ``b``'s steady state with ``relabel`` of ``a``'s."""
    (rho_a, *scalars_a), (rho_b, *scalars_b) = a, b
    assert np.abs(relabel(rho_a) - rho_b).max() < TOL
    assert np.abs(np.subtract(scalars_a, scalars_b)).max() < TOL


def config(draw, spec, ancilla_map) -> ProtocolConfig:
    # beta at most 1: at lower temperatures the fidelity's square roots of
    # near-zero eigenvalues move the infidelity past the bound by roundoff
    # alone, while the steady states still agree within it
    return ProtocolConfig(
        g=draw(st.floats(0.05, 0.5)), beta=draw(st.floats(0.1, 1.0)),
        omega_m=spectral_width(spec), n_trotter=draw(st.integers(20, 60)),
        n_cycle=draw(st.integers(2, 5)), ancilla_map=tuple(ancilla_map))


def chain(draw, sizes):
    """A transverse-field chain and a config whose ancillas couple to its
    sites in a drawn order, so that ``_mirror`` finds its reflection."""
    n_s = draw(sizes)
    spec = build_tfim(n_s, 1.0, draw(st.floats(0.2, 2.0)))
    return spec, config(draw, spec, draw(st.permutations(range(n_s))))


def graph(draw, sizes):
    """A random graph and a config whose ancillas couple to its vertices in
    a drawn order."""
    n_s = draw(sizes)
    spec = build_graph_ising(generate_er_instance(n_s, draw(st.floats(0.3, 0.9)),
                                                 draw(st.integers(0, 99))))
    return spec, config(draw, spec, draw(st.permutations(range(n_s))))


def ham(draw, sizes):
    """A model as a Hamiltonian file gives it: one coupling on every bond of
    one letter pair and one field on every site of one letter, both letters
    drawn, so that its sectors take an X, a Y or no frame, and a config
    whose ancillas couple to its sites in a drawn order, so that ``_mirror``
    finds its reflection. Not X on both: every X_s then commutes with the
    X_s X_a couplings, so each X eigenstate is a fixed point. The two
    coefficients come from a seeded uniform draw, as a graph's weights do:
    at simple values such as j = h = 1 the commuting models' levels fall
    on exact resonances, where a period moves no population and the fixed
    point is not unique."""
    n_s = draw(sizes)
    bond, site = draw(st.sampled_from(["XY", "XZ", "YX", "YY", "YZ", "ZX", "ZY", "ZZ"]))
    j, h = np.random.default_rng(draw(st.integers(0, 999))).uniform(0.2, 2.0, 2)
    terms = [PauliString(-j, "I" * i + 2 * bond + "I" * (n_s - i - 2)) for i in range(n_s - 1)]
    terms += [PauliString(-h, "I" * i + site + "I" * (n_s - i - 1)) for i in range(n_s)]
    spec = HamiltonianSpec(n_s, tuple(terms))
    return spec, config(draw, spec, draw(st.permutations(range(n_s))))


def in_unit(spec, cfg, s):
    """The run ``(spec, cfg)`` with every energy scaled by ``s``: each
    coefficient and ``g``, with the comb amplitude the scaled width and
    ``beta`` scaled by ``1 / s``."""
    scaled = HamiltonianSpec(spec.qubit_count, tuple(
        PauliString(s * t.coefficient, t.letters) for t in spec.terms))
    return scaled, replace(cfg, g=s * cfg.g, beta=cfg.beta / s, omega_m=spectral_width(scaled))


MODELS = st.sampled_from([partial(chain, sizes=st.integers(2, 4)),
                          partial(graph, sizes=st.integers(2, 4)),
                          partial(ham, sizes=st.integers(2, 4))])


@settings(max_examples=20, deadline=None)
@given(data=st.data(), model=MODELS,
       s=st.one_of(st.sampled_from([0.25, 0.5, 2.0, 4.0]), st.floats(0.3, 3.0)))
def test_a_run_in_another_energy_unit_has_the_same_results(data, model, s):
    spec, cfg = model(data.draw)
    assert_same_physics(observed(spec, cfg), observed(*in_unit(spec, cfg, s)))


@settings(max_examples=8, deadline=None)
@given(data=st.data(), model=MODELS, seed=st.integers(0, 99))
def test_a_run_in_twice_the_energy_unit_samples_the_same_counts(data, model, seed):
    spec, cfg = model(data.draw)
    assert (sample_gibbs(spec, cfg, 1, 64, seed).counts
            == sample_gibbs(*in_unit(spec, cfg, 2.0), 1, 64, seed).counts)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_reordering_a_hamiltonian_files_terms(data):
    spec, cfg = ham(data.draw, st.integers(2, 4))
    order = data.draw(st.permutations(spec.terms))
    assert_same_physics(observed(spec, cfg), observed(HamiltonianSpec(spec.qubit_count,
                                                                      tuple(order)), cfg))


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_a_hamiltonian_file_term_written_as_two_halves(data):
    spec, cfg = ham(data.draw, st.integers(2, 4))
    i = data.draw(st.integers(0, len(spec.terms) - 1))
    half = PauliString(spec.terms[i].coefficient / 2, spec.terms[i].letters)
    split = HamiltonianSpec(spec.qubit_count, spec.terms[:i] + (half, half) + spec.terms[i + 1:])
    assert_same_physics(observed(spec, cfg), observed(split, cfg))


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_a_zero_coefficient_term_in_a_hamiltonian_file(data):
    spec, cfg = ham(data.draw, st.integers(2, 4))
    n_s = spec.qubit_count
    zero = PauliString(0.0, data.draw(st.text("IXYZ", min_size=n_s, max_size=n_s)))
    i = data.draw(st.integers(0, len(spec.terms)))
    padded = HamiltonianSpec(n_s, spec.terms[:i] + (zero,) + spec.terms[i:])
    assert_same_physics(observed(spec, cfg), observed(padded, cfg))


@settings(max_examples=10, deadline=None)
@given(data=st.data(), n_s=st.integers(2, 5))
def test_permuting_a_graphs_vertices_with_its_ancilla_map_permutes_the_populations(data, n_s):
    draw = data.draw
    graph = generate_er_instance(n_s, draw(st.floats(0.3, 0.9)), draw(st.integers(0, 99)))
    perm = draw(st.permutations(range(n_s)))  # vertex v becomes vertex perm[v]
    moved = GraphInstance(
        n_s, tuple(graph.local_fields[perm.index(v)] for v in range(n_s)),
        tuple((*sorted((perm[j], perm[k])), w) for j, k, w in graph.edges))
    spec = build_graph_ising(graph)
    cfg = config(draw, spec, draw(st.permutations(range(n_s))))
    moved_cfg = replace(cfg, ancilla_map=tuple(perm[a] for a in cfg.ancilla_map))
    states = np.arange(2**n_s)
    image = sum((states >> (n_s - 1 - v) & 1) << (n_s - 1 - perm[v]) for v in range(n_s))
    assert_same_physics(observed(spec, cfg), observed(build_graph_ising(moved), moved_cfg),
                        lambda rho: rho[np.ix_(np.argsort(image), np.argsort(image))])


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_a_chain_bond_written_as_two_halves_runs_without_the_reflection(data):
    spec, cfg = chain(data.draw, st.integers(3, 4))
    n_s = spec.qubit_count
    # a bond that the reflection moves, so that its halves have no mirror image
    bond = data.draw(st.sampled_from([i for i in range(n_s - 1) if 2 * i != n_s - 2]))
    term = spec.terms[bond]
    half = PauliString(term.coefficient / 2, term.letters)
    split = HamiltonianSpec(n_s, spec.terms[:bond] + (half, half) + spec.terms[bond + 1:])
    assert _sectors(spec, cfg).map_reflection.order and _sectors(split, cfg).mirror is None
    assert_same_physics(observed(spec, cfg), observed(split, cfg))


def five_spin_chain():
    """The 5-spin chain, with a config small enough for a fixed tier-1 case:
    a drawn chain at n_s = 5 takes over a second per example."""
    spec = build_tfim(5, 1.0, 0.7)
    return spec, ProtocolConfig(g=0.2, beta=0.6, omega_m=spectral_width(spec), n_trotter=40,
                                n_cycle=3, ancilla_map=(3, 0, 4, 1, 2))


def assert_reversed_ancillas_move_alone(spec, cfg):
    reverse = replace(cfg, ancilla_map=cfg.ancilla_map[::-1])
    assert all(_sectors(spec, c).mirror is not None for c in (cfg, reverse))
    assert_same_physics(observed(spec, cfg), observed(spec, reverse))


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_reversing_a_chains_ancilla_map_moves_its_ancillas_alone(data):
    assert_reversed_ancillas_move_alone(*chain(data.draw, st.integers(2, 4)))


def test_reversing_a_five_spin_chains_ancilla_map_moves_its_ancillas_alone():
    assert_reversed_ancillas_move_alone(*five_spin_chain())


def assert_sqrt_x_rotation_runs_in_no_frame(spec, cfg):
    n_s = spec.qubit_count
    # sqrt(X) P sqrt(X)^dag = sign * PAULIS[letter]: X stays, Z -> -Y, Y -> Z
    image = {}
    for c, p in PAULIS.items():
        q = SQRT_X @ p @ SQRT_X.conj().T
        image[c] = next((d, s) for d, r in PAULIS.items() for s in (1, -1) if np.allclose(q, s * r))
    terms = []
    for t in spec.terms:
        letters, signs = zip(*(image[c] for c in t.letters))
        terms.append(PauliString(t.coefficient * np.prod(signs), "".join(letters)))
    rotated = HamiltonianSpec(n_s, tuple(terms))
    u = kron_chain([SQRT_X] * n_s)
    assert _sectors(spec, cfg).frame and not _sectors(rotated, cfg).frame
    assert_same_physics(observed(spec, cfg), observed(rotated, cfg, basis=u),
                        lambda rho: u @ rho @ u.conj().T)


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_a_chain_rotated_by_sqrt_x_runs_in_no_frame_as_it_ran_in_the_y_frame(data):
    assert_sqrt_x_rotation_runs_in_no_frame(*chain(data.draw, st.integers(2, 4)))


def test_a_five_spin_chain_rotated_by_sqrt_x_runs_in_no_frame_as_it_ran_in_the_y_frame():
    assert_sqrt_x_rotation_runs_in_no_frame(*five_spin_chain())
