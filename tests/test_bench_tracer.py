"""The benchmark's tracer must be able to observe a cycle map.

``bench/tracer.py`` runs its result observers under a lock that is not
reentrant, and its cycle-map observer reads ``CycleMap.superoperator``. If
assembling that dense view called any public ``qmcmc`` function, the
wrapped call would wait on the same lock and a traced run would hang.
"""

import sys
from pathlib import Path

import pytest

from qmcmc.channel import build_cycle_map
from qmcmc.experiments import generate_er_instance
from qmcmc.hamiltonians import build_graph_ising, build_tfim, spectral_width
from qmcmc.schedule import ProtocolConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracer  # noqa: E402


@pytest.mark.parametrize("spec", [build_tfim(2, 1.0, 1.0),
                                  build_graph_ising(generate_er_instance(2, 1.0, seed=3))],
                         ids=["chain", "graph"])
def test_dense_view_of_a_cycle_map_makes_no_wrapped_call(spec):
    cfg = ProtocolConfig(g=0.05, beta=1.0, omega_m=spectral_width(spec), n_trotter=30,
                         n_cycle=8, ancilla_map=tuple(range(spec.qubit_count)))
    cycle = build_cycle_map(spec, cfg)
    with tracer.Tracer() as tr:
        view = cycle.superoperator
    assert tr.layers  # the package's public functions were wrapped
    assert dict(tr.calls) == {}
    assert view.matrix.shape == (16, 16)
