import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmcmc.channel as channel
import qmcmc.trajectory as trajectory
from qmcmc.channel import build_cycle_map, build_period_unitary
from qmcmc.errors import NormalizationLoss
from qmcmc.experiments import generate_er_instance
from qmcmc.hamiltonians import (
    GraphInstance,
    build_graph_ising,
    build_tfim,
    spectral_width,
    to_matrix,
)
from qmcmc.rng import Stream, derive_streams, next_uniform, splitmix64
from qmcmc.schedule import ProtocolConfig
from qmcmc.trajectory import run_trajectories, sample_gibbs

from oracles import (
    composite_period_unitary,
    ensemble_reduced_state,
    splitmix64_py,
    xorshift64star_py,
)
from strategies import small_protocols


def field_config(spec, **overrides):
    params = dict(g=0.05, beta=1.0, omega_m=spectral_width(spec), n_trotter=50,
                  n_cycle=10, ancilla_map=tuple(range(spec.qubit_count)))
    params.update(overrides)
    return ProtocolConfig(**params)


# ------------------------------------------------------------------- rng

def test_splitmix64_matches_pure_python():
    for x in (0, 1, 42, 2**63, (1 << 64) - 1):
        got = int(splitmix64(np.uint64(x)))
        assert got == splitmix64_py(x)


def test_stream_matches_pure_python_reference():
    seed = 12345
    state = splitmix64_py(seed)
    stream = Stream.from_seed(seed)
    for _ in range(100):
        u, state = xorshift64star_py(state)
        assert stream.uniform() == u
        assert 0.0 <= u < 1.0


def test_derive_streams_offset_consistency():
    whole = derive_streams(7, 10)
    tail = derive_streams(7, 4, start=6)
    assert np.array_equal(whole[6:], tail)


def test_batched_uniforms_match_scalar_streams():
    states = derive_streams(3, 5)
    scalars = [Stream.from_seed(3, i) for i in range(5)]
    for _ in range(10):
        u, states = next_uniform(states)
        assert np.array_equal(u, [s.uniform() for s in scalars])


# ------------------------------------------------------------ trajectories

def test_run_trajectories_deterministic_and_normalized():
    spec = build_tfim(1, 1.0, 1.0)
    cfg = field_config(spec, n_trotter=20, n_cycle=5)
    out1 = run_trajectories(spec, cfg, cycles=1, shots=1, seed=9, system_index=0)
    out2 = run_trajectories(spec, cfg, cycles=1, shots=1, seed=9, system_index=0)
    assert np.array_equal(out1, out2)
    assert abs(np.linalg.norm(out1[0]) - 1.0) < 1e-9


def test_run_trajectories_rejects_norm_drift(monkeypatch):
    # a period unitary that is not unitary makes each shot's norm drift; the
    # run must stop rather than renormalize it away
    spec = build_tfim(1, 1.0, 1.0)
    cfg = field_config(spec)
    exact = channel._period_unitary
    monkeypatch.setattr(channel, "_period_unitary",
                        lambda *args: 1.01 * exact(*args))
    with pytest.raises(NormalizationLoss, match="drifted"):
        run_trajectories(spec, cfg, cycles=1, shots=2, seed=1, system_index=0)


@pytest.mark.parametrize("run", [
    lambda spec, cfg: build_cycle_map(spec, cfg),
    lambda spec, cfg: sample_gibbs(spec, cfg, burn_in_cycles=2, shots=3, seed=0),
    lambda spec, cfg: run_trajectories(spec, cfg, cycles=2, shots=3, seed=0),
], ids=["cycle-map", "sampler", "trajectories"])
def test_each_comb_value_builds_one_period_unitary(run, monkeypatch):
    # the exact map and the sampler walk the cycle through one table, which
    # builds W once per distinct comb value: n_cycle // 2 + 1 for an even n_cycle
    calls = []
    exact = channel._period_unitary
    monkeypatch.setattr(channel, "_period_unitary",
                        lambda *args: calls.append(args[-1]) or exact(*args))
    spec = build_tfim(1, 1.0, 1.0)
    cfg = field_config(spec, n_trotter=20, n_cycle=8)
    run(spec, cfg)
    assert len(calls) == len(set(calls)) == cfg.n_cycle // 2 + 1


@pytest.mark.parametrize("system_index", [-1, 2])
def test_run_trajectories_rejects_system_index_outside_register(system_index):
    spec = build_tfim(1, 1.0, 1.0)
    with pytest.raises(ValueError, match="system_index"):
        run_trajectories(spec, field_config(spec), cycles=1, shots=1, seed=0,
                         system_index=system_index)


def test_forced_ground_branch_equals_period_unitary():
    # with p0 pinned to 1 and a basis-state start, one period reduces to the
    # deterministic unitary: no collapse, no flip
    spec = build_tfim(1, 1.0, 1.0)
    cfg = field_config(spec, n_trotter=40, n_cycle=4)
    omega = 1.7
    w = build_period_unitary(spec, cfg, omega)
    amps = np.zeros((1, 4), dtype=complex)
    amps[0, 0] = 1.0
    states = derive_streams(0, 1)
    out, _ = trajectory._period(amps, states, w, p0=1.0, m_count=1)
    expected = w @ np.eye(4)[:, 0]
    assert np.linalg.norm(out[0] - expected) < 1e-9


@pytest.mark.parametrize("omega", [0.0, 0.9, 2.6])
def test_forced_ground_period_equals_composite_oracle(omega):
    # n_s = 2, M = 2: with p0 = 1 a period is W(Omega) alone, checked against
    # the factor-by-factor composite-space product on a random batch
    spec = build_tfim(2, 1.0, 0.7)
    cfg = field_config(spec, n_trotter=30, ancilla_map=(1, 0))
    w_oracle = composite_period_unitary(to_matrix(spec), cfg.ancilla_map, cfg.g,
                                        omega, cfg.n_trotter)
    rng = np.random.default_rng(5)
    sys_part = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    sys_part /= np.linalg.norm(sys_part, axis=1, keepdims=True)
    amps = np.zeros((3, 16), dtype=complex)
    amps[:, ::4] = sys_part  # both ancillas in |0>, so the reset keeps every shot
    w = build_period_unitary(spec, cfg, omega)
    out, _ = trajectory._period(amps.copy(), derive_streams(0, 3), w, p0=1.0,
                                m_count=2)
    assert np.abs(out - amps @ w_oracle.T).max() < 1e-9


def test_single_shot_batch_matches_wider_batch_bitwise():
    # at 2^8 amplitudes a one-row product rounds differently from a wider one
    spec = build_tfim(4, 1.0, 0.8)
    cfg = field_config(spec, n_trotter=10, n_cycle=4)
    wide = run_trajectories(spec, cfg, cycles=1, shots=5, seed=0)
    single = run_trajectories(spec, cfg, cycles=1, shots=1, seed=0)
    assert np.array_equal(single[0], wide[0])


def test_ensemble_matches_dense_cycle_map():
    spec = build_tfim(1, 1.0, 1.0)
    cfg = field_config(spec, n_trotter=100, n_cycle=20)
    cycles = 3
    shots = 5000
    amps = run_trajectories(spec, cfg, cycles=cycles, shots=shots, seed=77,
                            system_index=0)
    rho_traj = ensemble_reduced_state(amps, 1, 1)
    cm = build_cycle_map(spec, cfg)
    rho_dense = np.zeros((2, 2), dtype=complex)
    rho_dense[0, 0] = 1.0
    for _ in range(cycles):
        rho_dense = cm.superoperator.apply(rho_dense)
    dist = 0.5 * np.abs(np.linalg.eigvalsh(rho_traj - rho_dense)).sum()
    assert dist < 0.05


def test_trajectory_chunking_invariant(monkeypatch):
    spec = build_tfim(1, 1.0, 1.0)
    cfg = field_config(spec, n_trotter=10, n_cycle=3)
    full = run_trajectories(spec, cfg, cycles=1, shots=16, seed=4)
    monkeypatch.setattr(trajectory, "_CHUNK_ELEMS", 16)  # 4 shots per chunk
    chunked = run_trajectories(spec, cfg, cycles=1, shots=16, seed=4)
    threaded = run_trajectories(spec, cfg, cycles=1, shots=16, seed=4, workers=3)
    assert np.array_equal(full, chunked)
    assert np.array_equal(full, threaded)


# ---------------------------------------------------------------- sampling

def test_sample_gibbs_validates_arguments():
    spec = build_tfim(1, 1.0, 1.0)
    cfg = field_config(spec)
    with pytest.raises(ValueError):
        sample_gibbs(spec, cfg, 1, 0, seed=0)
    with pytest.raises(ValueError):
        sample_gibbs(spec, cfg, -1, 10, seed=0)


def test_sample_gibbs_single_shot():
    spec = build_tfim(1, 1.0, 1.0)
    cfg = field_config(spec, n_trotter=10, n_cycle=3)
    samples = sample_gibbs(spec, cfg, burn_in_cycles=1, shots=1, seed=8)
    assert samples.shots == 1
    assert sum(samples.counts.values()) == 1


def test_sample_gibbs_counts_sum_to_shots():
    spec = build_tfim(2, 1.0, 1.0)
    cfg = field_config(spec, n_trotter=10, n_cycle=3)
    samples = sample_gibbs(spec, cfg, burn_in_cycles=1, shots=250, seed=3)
    assert sum(samples.counts.values()) == 250
    assert all(len(k) == 2 for k in samples.counts)


def test_sample_gibbs_deterministic():
    spec = build_tfim(1, 1.0, 1.0)
    cfg = field_config(spec, n_trotter=20, n_cycle=5)
    a = sample_gibbs(spec, cfg, burn_in_cycles=2, shots=400, seed=101)
    b = sample_gibbs(spec, cfg, burn_in_cycles=2, shots=400, seed=101)
    assert a == b


def test_sample_gibbs_uniform_at_infinite_temperature():
    spec = build_tfim(2, 1.0, 1.0)
    cfg = field_config(spec, beta=0.0, n_trotter=20, n_cycle=5)
    shots = 10_000
    samples = sample_gibbs(spec, cfg, burn_in_cycles=2, shots=shots, seed=13)
    p = 1.0 / 4.0
    bound = 4.0 * np.sqrt(p * (1 - p) / shots)
    for count in samples.counts.values():
        assert abs(count / shots - p) < bound


def test_sample_gibbs_two_level_boltzmann():
    spec = build_graph_ising(GraphInstance(1, (1.0,), ()))
    cfg = ProtocolConfig(g=0.02, beta=1.0, omega_m=spectral_width(spec),
                         n_trotter=200, n_cycle=50, ancilla_map=(0,))
    samples = sample_gibbs(spec, cfg, burn_in_cycles=3, shots=4000, seed=21)
    z = np.exp(-1.0) + np.exp(1.0)
    target = np.array([np.exp(-1.0) / z, np.exp(1.0) / z])
    emp = samples.probabilities()
    assert 0.5 * np.abs(emp - target).sum() < 0.05


# counts of the step-by-step period sampler at these seeds; applying W(Omega)
# as one product must reproduce them exactly
PINNED_COUNTS = [
    (lambda: build_tfim(1, 1.0, 1.0), {}, 2, 400, 101, {"0": 202, "1": 198}),
    (lambda: build_tfim(2, 1.0, 1.0), dict(n_trotter=10, n_cycle=4, ancilla_map=(1,)),
     2, 300, 5, {"00": 82, "01": 66, "10": 78, "11": 74}),
    (lambda: build_graph_ising(generate_er_instance(3, 0.5, 7)),
     dict(g=0.02, n_trotter=40, n_cycle=4), 1, 200, 11,
     {"000": 37, "001": 28, "010": 27, "011": 44,
      "100": 14, "101": 16, "110": 18, "111": 16}),
]


@pytest.mark.parametrize("make_spec, overrides, burn_in, shots, seed, expected",
                         PINNED_COUNTS)
def test_sample_gibbs_pinned_counts(make_spec, overrides, burn_in, shots, seed, expected):
    spec = make_spec()
    cfg = field_config(spec, **{"n_trotter": 20, "n_cycle": 5, **overrides})
    samples = sample_gibbs(spec, cfg, burn_in_cycles=burn_in, shots=shots, seed=seed)
    assert samples.counts == expected


@settings(max_examples=40, deadline=None)
@given(protocol=small_protocols(), burn_in=st.integers(0, 2), shots=st.integers(1, 40),
       seed=st.integers(0, 2**32), chunk_shots=st.integers(1, 8),
       workers=st.sampled_from([None, 1, 2, 3]))
def test_sample_gibbs_counts_do_not_depend_on_batching(protocol, burn_in, shots, seed,
                                                       chunk_shots, workers):
    spec, cfg = protocol
    whole = sample_gibbs(spec, cfg, burn_in, shots, seed)
    dim = 2**(spec.qubit_count + cfg.m_count)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trajectory, "_CHUNK_ELEMS", chunk_shots * dim)
        split = sample_gibbs(spec, cfg, burn_in, shots, seed, workers=workers)
    assert split == whole


def test_sample_set_probabilities():
    samples = trajectory.SampleSet(counts={"00": 3, "11": 1}, shots=4, seed=0)
    assert np.allclose(samples.probabilities(), [0.75, 0.0, 0.0, 0.25])
