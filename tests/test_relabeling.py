"""Relabelings of a run that must not change its physics.

Each property runs the exact path on a model and on a relabeled copy of it
that takes another route through the symmetry bookkeeping (the GF(2)
generators, the frame letters, ``_mirror``'s ancilla move and the pair
bases), and compares the infidelity, the TVD, the spectral gap and the
steady state within 1e-12. They reach sizes that the dense oracles do not:
graphs of up to five spins, each coupled to an ancilla, and chains of up to
four.
"""

from dataclasses import replace

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
from qmcmc.linalg import kron_all
from qmcmc.observables import fidelity, tvd
from qmcmc.schedule import ProtocolConfig

TOL = 1e-12
SQRT_X = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2


def observed(spec, cfg, basis=None):
    """``(rho, gap, infidelity, tvd)`` of the run ``(spec, cfg)``: its steady
    state, the gap of its cycle map, and its distances to the thermal state,
    the TVD between the two states' populations in the basis of the columns
    of ``basis`` (by default the computational one)."""
    cm = build_cycle_map(spec, cfg)
    rho, _ = steady_state(cm)
    gap, _ = spectral_gap(cm)
    rho_th = thermal_state(spec, cfg.beta)
    u = np.eye(len(rho)) if basis is None else basis
    populations = [np.diag(u.conj().T @ r @ u).real for r in (rho, rho_th)]
    return rho, gap, 1.0 - fidelity(rho_th, rho), tvd(*populations)


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


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_reversing_a_chains_ancilla_map_moves_its_ancillas_alone(data):
    spec, cfg = chain(data.draw, st.integers(2, 4))
    reverse = replace(cfg, ancilla_map=cfg.ancilla_map[::-1])
    assert all(_sectors(spec, c).mirror is not None for c in (cfg, reverse))
    assert_same_physics(observed(spec, cfg), observed(spec, reverse))


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_a_chain_rotated_by_sqrt_x_runs_in_no_frame_as_it_ran_in_the_y_frame(data):
    spec, cfg = chain(data.draw, st.integers(2, 4))
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
    u = kron_all([SQRT_X] * n_s)
    assert _sectors(spec, cfg).frame and not _sectors(rotated, cfg).frame
    assert_same_physics(observed(spec, cfg), observed(rotated, cfg, basis=u),
                        lambda rho: u @ rho @ u.conj().T)
