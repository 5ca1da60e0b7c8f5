"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from qmcmc.experiments import generate_er_instance
from qmcmc.hamiltonians import (
    HamiltonianSpec,
    PauliString,
    build_graph_ising,
    build_tfim,
    spectral_width,
)
from qmcmc.schedule import ProtocolConfig


@st.composite
def small_protocols(draw):
    """``(spec, cfg)``: a random chain, graph or Hamiltonian-file model (one
    to three terms of any Pauli words) with n_s <= 2, and a protocol with
    M <= 2 ancillas, each coupled to any system qubit."""
    n_s = draw(st.integers(1, 2))
    m = draw(st.integers(1, 2))
    model = draw(st.sampled_from(["tfim", "graph", "file"]))
    if model == "tfim":
        spec = build_tfim(n_s, 1.0, draw(st.floats(0.1, 2.0)))
    elif model == "graph":
        spec = build_graph_ising(generate_er_instance(n_s, 0.5, draw(st.integers(0, 99))))
    else:
        words = st.text("IXYZ", min_size=n_s, max_size=n_s)
        terms = draw(st.lists(st.tuples(st.floats(-2.0, 2.0), words), min_size=1, max_size=3))
        spec = HamiltonianSpec(n_s, tuple(PauliString(c, w) for c, w in terms))
    cfg = ProtocolConfig(
        g=draw(st.floats(0.02, 0.5)), beta=draw(st.floats(0.0, 5.0)),
        omega_m=spectral_width(spec), n_trotter=draw(st.integers(1, 60)),
        n_cycle=draw(st.integers(1, 6)),
        ancilla_map=tuple(draw(st.integers(0, n_s - 1)) for _ in range(m)))
    return spec, cfg
