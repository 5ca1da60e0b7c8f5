import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qmcmc.channel as channel
import qmcmc.trajectory as trajectory
from qmcmc.channel import build_cycle_map, build_cycle_maps, build_period_unitary
from qmcmc.errors import InvalidSize, NormalizationLoss
from qmcmc.experiments import generate_er_instance, make_points
from qmcmc.hamiltonians import (
    GraphInstance,
    HamiltonianSpec,
    PauliString,
    build_graph_ising,
    build_tfim,
    spectral_width,
    to_matrix,
)
from qmcmc.rng import Stream, derive_streams, next_uniform, next_uniforms, splitmix64
from qmcmc.schedule import ProtocolConfig, comb_value
from qmcmc.trajectory import run_trajectories, sample_gibbs

import oracles
from oracles import (
    collapse_period,
    composite_period_unitary,
    dense_period,
    ensemble_reduced_state,
    random_unitary,
    splitmix64_py,
    xorshift64star_py,
)
from strategies import small_protocols

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


def built_too_early(*args):
    raise AssertionError("period parts built before the size check")


def field_config(spec, **overrides):
    params = dict(g=0.05, beta=1.0, omega_m=spectral_width(spec), n_trotter=50,
                  n_cycle=10, ancilla_map=tuple(range(spec.qubit_count)))
    params.update(overrides)
    return ProtocolConfig(**params)


def sampler_period(spec, cfg, omega, amps, states, p0):
    """One period of the library's sampler at comb value ``omega`` from the
    computational-basis composite amplitudes ``amps`` (batch, 2^(n_s+M)):
    they are moved into the sectors' frame and layout, advanced by
    ``trajectory._period`` with the column table of W(omega), and brought
    back by ``trajectory._composite``. Returns the amplitudes and states in
    shot order."""
    sectors = channel._sectors(spec, cfg)
    layout = trajectory._Layout.of(sectors)
    _, ab, weights = channel._trotter_parts(spec, cfg)
    blocks = sectors.reflection.unsplit(
        channel._period_unitary(sectors, ab, weights, cfg, [omega]))[0]
    shots = to_shots(layout, amps, states)
    out = trajectory._period(shots, layout.columns(blocks), p0, layout)
    return trajectory._composite(out, layout)


def to_shots(layout, amps, states):
    """A batch of shots whose amplitudes are ``amps`` (batch, 2^(n_s+M)) in
    the computational basis, keyed by the excited index 0: each row times
    the inverse of the unitary that ``trajectory._composite`` applies."""
    count, dim = len(layout.start) // layout.k, amps.shape[1]
    basis = np.eye(dim, dtype=complex).reshape(dim, count, layout.k, -1).swapaxes(0, 1)
    zero = np.zeros(dim, dtype=int)
    to_composite, _ = trajectory._composite(
        trajectory._Shots(basis, None, zero, zero), layout)
    held = (amps @ to_composite.conj().T).reshape(len(amps), count, layout.k, -1)
    held = np.ascontiguousarray(held.swapaxes(0, 1))
    batch = len(amps)
    return trajectory._Shots(held, trajectory._probabilities(held), np.zeros(batch, dtype=int),
                             states)


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


def test_streams_advance_across_the_top_bit_without_a_warning():
    # states with the top bit set: the shifts, xors and the product wrap mod
    # 2**64, which numpy does silently for uint64 arrays
    start = [(1 << 64) - 1, 1 << 63, 0xFEDCBA9876543210]
    states, expected = np.array(start, dtype=np.uint64), list(start)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(50):
            u, states = next_uniform(states)
            steps = [xorshift64star_py(state) for state in expected]
            expected = [state for _, state in steps]
            assert u.tolist() == [v for v, _ in steps]
            assert states.tolist() == expected


@pytest.mark.parametrize("count", range(1, 13))
def test_steps_drawn_in_one_buffer_match_the_scalar_reference(count):
    # count steps of every stream at once, from states with and without the
    # top bit set, give the reference's uniforms row by row and its states
    start = [(1 << 64) - 1, 1 << 63, 0xFEDCBA9876543210, 1, 12345]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, states = next_uniforms(np.array(start, dtype=np.uint64), count)
    rows, expected = [], list(start)
    for _ in range(count):
        steps = [xorshift64star_py(state) for state in expected]
        rows.append([v for v, _ in steps])
        expected = [state for _, state in steps]
    assert u.tolist() == rows
    assert states.tolist() == expected


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
    lambda spec, cfg: sample_gibbs(spec, cfg, burn_in_cycles=1, shots=50, seed=0),
    lambda spec, cfg: run_trajectories(spec, cfg, cycles=1, shots=50, seed=0),
], ids=["sampler", "trajectories"])
def test_shot_driver_rejects_a_non_finite_period_unitary(run, monkeypatch):
    # NaN fails every comparison, so a guard written as "drift > bound"
    # would pass NaN amplitudes on and report their counts as a sample
    spec = build_tfim(2, 1.0, 1.0)
    exact = channel._period_unitary
    monkeypatch.setattr(channel, "_period_unitary", lambda *args: exact(*args) * np.nan)
    with pytest.raises(NormalizationLoss):
        run(spec, field_config(spec))


@pytest.mark.parametrize("run", [
    lambda spec, cfg: sample_gibbs(spec, cfg, burn_in_cycles=1, shots=50, seed=0),
    lambda spec, cfg: run_trajectories(spec, cfg, cycles=1, shots=50, seed=0),
    lambda spec, cfg: build_cycle_map(spec, cfg),
    lambda spec, cfg: build_cycle_maps(spec, cfg, [0.5, 1.0]),
], ids=["sampler", "trajectories", "cycle-map", "cycle-maps"])
def test_every_entry_refuses_an_overflowing_trotter_phase_up_front(run, monkeypatch):
    # omega_m dt / 2 overflows: the period unitaries would be NaN, which the
    # sampler reported as NormalizationLoss and the exact path as
    # CompletenessViolation, compute failures for what is bad input
    monkeypatch.setattr(channel, "_trotter_parts", built_too_early)
    spec = build_tfim(2, 1.0, 1.0)
    cfg = field_config(spec, omega_m=1e308, n_trotter=5)
    with pytest.raises(ValueError, match="overflow one Trotter step"):
        run(spec, cfg)


@pytest.mark.parametrize("run", [
    lambda spec, cfg: build_cycle_map(spec, cfg),
    lambda spec, cfg: sample_gibbs(spec, cfg, burn_in_cycles=2, shots=3, seed=0),
    lambda spec, cfg: run_trajectories(spec, cfg, cycles=2, shots=3, seed=0),
], ids=["cycle-map", "sampler", "trajectories"])
def test_each_comb_value_builds_one_period_unitary(run, monkeypatch):
    # the exact map and the sampler walk the cycle through one table, which
    # builds W once per distinct comb value: n_cycle // 2 + 1 for an even
    # n_cycle, counted over the values of every stacked call
    calls = []
    exact = channel._period_unitary
    monkeypatch.setattr(channel, "_period_unitary",
                        lambda *args: calls.extend(args[-1]) or exact(*args))
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


@pytest.mark.parametrize("cycles, shots", [(-3, 2), (1, 0)])
def test_run_trajectories_validates_arguments(cycles, shots):
    spec = build_tfim(1, 1.0, 1.0)
    with pytest.raises(ValueError):
        run_trajectories(spec, field_config(spec), cycles=cycles, shots=shots, seed=0)


def test_forced_ground_branch_equals_period_unitary():
    # with p0 pinned to 1 and a basis-state start, one period reduces to the
    # deterministic unitary: no collapse, no flip
    spec = build_tfim(1, 1.0, 1.0)
    cfg = field_config(spec, n_trotter=40, n_cycle=4)
    omega = 1.7
    w = build_period_unitary(spec, cfg, omega)
    amps = np.zeros((1, 4), dtype=complex)
    amps[0, 0] = 1.0
    out, _ = sampler_period(spec, cfg, omega, amps, derive_streams(0, 1), p0=1.0)
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
    out, _ = sampler_period(spec, cfg, omega, amps, derive_streams(0, 3), p0=1.0)
    assert np.abs(out - amps @ w_oracle.T).max() < 1e-9


def random_batch(rng, batch, dim):
    amps = rng.standard_normal((batch, dim)) + 1j * rng.standard_normal((batch, dim))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(n_s=st.integers(1, 2), m_count=st.integers(1, 3), batch=st.integers(1, 6),
       p0=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       seed=st.integers(0, 2**32))
def test_period_matches_collapse_oracle(n_s, m_count, batch, p0, seed):
    # the outcome-index period of the dense oracle makes the same 2M draws
    # per shot and the same branches as collapsing, renormalizing and
    # swapping ancilla by ancilla, for any unitary
    rng = np.random.default_rng(seed)
    dim = 2**(n_s + m_count)
    amps = random_batch(rng, batch, dim)
    w = random_unitary(rng, dim)
    states = derive_streams(seed, batch)
    want, want_states = collapse_period(amps.copy(), states, w, p0, m_count)
    got, got_states = dense_period(amps.copy(), states, w, p0, m_count)
    assert np.array_equal(got_states, want_states)
    assert np.abs(got - want).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(protocol=small_protocols(), period=st.integers(0, 5), batch=st.integers(1, 6),
       p0=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       seed=st.integers(0, 2**32))
@example(protocol=(build_tfim(3, 1.0, 0.8), field_config(build_tfim(3, 1.0, 0.8), n_trotter=20)),
         period=3, batch=5, p0=0.4, seed=1)
def test_period_matches_the_dense_oracle(protocol, period, batch, p0, seed):
    # the period on the excited index's columns of W, in the sectors' frame,
    # draws what the dense period draws and ends where it ends; the example
    # is the 3-spin chain, whose frame is Y on every spin
    spec, cfg = protocol
    omega = comb_value(cfg, period % cfg.n_cycle)
    rng = np.random.default_rng(seed)
    amps = random_batch(rng, batch, 2**(spec.qubit_count + cfg.m_count))
    states = derive_streams(seed, batch)
    want, want_states = dense_period(amps.copy(), states, build_period_unitary(spec, cfg, omega),
                                     p0, cfg.m_count)
    got, got_states = sampler_period(spec, cfg, omega, amps, states, p0)
    assert np.array_equal(got_states, want_states)
    assert np.abs(got - want).max() < 1e-12


def test_period_oracle_example_runs_in_the_y_frame():
    spec = build_tfim(3, 1.0, 0.8)
    cfg = field_config(spec, n_trotter=20)
    assert dict(channel._sectors(spec, cfg).frame) == {0: "Y", 1: "Y", 2: "Y"}


@pytest.mark.parametrize("p0, excited", [(1.0, 0b00), (0.0, 0b11)])
@pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
def test_period_branch_rule_at_certain_marginals(u, p0, excited, monkeypatch):
    # ancilla 0 reads |1> and ancilla 1 reads |0> with probability one; under
    # "outcome 1 when u < P(1)" the smallest and largest uniforms keep both
    # outcomes, and p0 of 1 or 0 never or always excites
    def fixed(states, count):
        return np.full((count, *states.shape), u), states + np.uint64(count)

    monkeypatch.setattr(trajectory, "next_uniforms", fixed)
    monkeypatch.setattr(oracles, "next_uniform", lambda states: (fixed(states, 1)[0][0],
                                                                 states + np.uint64(1)))
    spec = build_tfim(1, 1.0, 1.0)
    cfg = field_config(spec, ancilla_map=(0, 0))
    omega = 0.8
    w = build_period_unitary(spec, cfg, omega)
    sys_part = np.array([[0.6, 0.8j], [1.0, 0.0], [0.5 - 0.5j, 0.5 + 0.5j]])
    amps = np.zeros((3, 8), dtype=complex)
    amps[:, 0b10::4] = sys_part
    states = derive_streams(0, 3)
    got, got_states = sampler_period(spec, cfg, omega, amps, states, p0)
    want, want_states = collapse_period(amps.copy(), states, w, p0, 2)
    product = np.zeros_like(amps)
    product[:, excited::4] = sys_part
    assert np.array_equal(got_states, states + np.uint64(4))
    assert np.array_equal(got_states, want_states)
    assert np.abs(got - product @ w.T).max() < 1e-12
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_period_rejects_a_row_with_no_outcome_to_keep(bad):
    # a zero or NaN row leaves no reset outcome of positive probability
    spec = build_tfim(1, 1.0, 1.0)
    amps = np.full((2, 4), 0.5, dtype=complex)
    amps[1] = bad
    with pytest.raises(NormalizationLoss, match="zero-probability"):
        sampler_period(spec, field_config(spec), 0.5, amps, derive_streams(0, 2), 0.5)


def spread(shots, layout):
    """One-label shots held in the layout of all labels, as a framed model's
    are: each shot's amplitudes at its label's row, every other row zero."""
    amps = np.zeros((len(layout.start) // layout.k, *shots.amps.shape[1:]), dtype=complex)
    amps[shots.label[0], np.arange(len(shots.states))] = shots.amps[0]
    return trajectory._Shots(amps, shots.probs, shots.excited, shots.states)


def file_model(*terms):
    return HamiltonianSpec(len(terms[0][1]), tuple(PauliString(c, w) for c, w in terms))


# two unframed file models with k > 1 columns per sector: XX + YY hopping
# with Z fields (the generator ZZZZ, 2 sectors, k = 8) and a ZZ chain with
# one X field (8 sectors, k = 2)
HOPPING = file_model((0.7, "XXII"), (0.7, "YYII"), (0.5, "IXXI"), (0.5, "IYYI"),
                     (0.9, "IIXX"), (0.9, "IIYY"), (0.3, "ZIII"), (-0.4, "IZII"),
                     (0.2, "IIZI"), (0.6, "IIIZ"))
ZZ_X = file_model((1.0, "ZZII"), (0.8, "IZZI"), (1.1, "IIZZ"), (0.6, "IXII"))


@settings(max_examples=25, deadline=None)
@given(model=st.one_of(st.tuples(st.integers(2, 4), st.integers(0, 99)),
                       st.sampled_from([HOPPING, ZZ_X])),
       periods=st.integers(1, 6), batch=st.integers(1, 12), p0=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32))
def test_shots_of_one_label_match_shots_of_all_labels(model, periods, batch, p0, seed):
    # an unframed model's shots hold one label each; held with a row for
    # every label, the same shots end each period with the same composite
    # amplitudes and streams, and both follow the dense period
    spec = (build_graph_ising(generate_er_instance(model[0], 0.5, model[1]))
            if isinstance(model, tuple) else model)
    cfg = field_config(spec, n_trotter=10, n_cycle=4)
    layout = trajectory._Layout.of(channel._sectors(spec, cfg))
    half = list(channel._period_table(spec, cfg, lambda omega, sectors, w: layout.columns(w))[2])
    system = np.random.default_rng(seed).integers(0, 2**spec.qubit_count, batch)
    one = trajectory._start(layout, system, derive_streams(seed, batch))
    assert not layout.gates and one.amps.shape[0] == 1
    many = spread(one, layout)
    dense, dense_states = trajectory._composite(one, layout)
    for k in range(periods):
        period = k % cfg.n_cycle
        columns = half[min(period, cfg.n_cycle - period)]
        one = trajectory._period(one, columns, p0, layout)
        many = trajectory._period(many, columns, p0, layout)
        dense, dense_states = dense_period(
            dense, dense_states, build_period_unitary(spec, cfg, comb_value(cfg, period)), p0,
            cfg.m_count)
        got, got_states = trajectory._composite(one, layout)
        want, want_states = trajectory._composite(many, layout)
        assert np.array_equal(got_states, want_states)
        assert np.array_equal(got, want)
        assert np.array_equal(got_states, dense_states)
        assert np.abs(got - dense).max() < 1e-12


def test_single_shot_batch_matches_wider_batch_bitwise():
    # at 2^8 amplitudes a one-row product rounds differently from a wider one
    spec = build_tfim(4, 1.0, 0.8)
    cfg = field_config(spec, n_trotter=10, n_cycle=4)
    wide = run_trajectories(spec, cfg, cycles=1, shots=5, seed=0)
    single = run_trajectories(spec, cfg, cycles=1, shots=1, seed=0)
    assert np.array_equal(single[0], wide[0])


@pytest.mark.parametrize("model", ["graph", "chain"])
def test_shot_alone_in_its_excited_group_matches_the_shot_run_alone(model, monkeypatch):
    # shot j under seed s owns the stream of shot 0 under seed s + j, so each
    # shot of a batch can also run alone. In some period of the batch one
    # excited index holds exactly one shot, whose group then reads its slice
    # of the table alone; the 4-spin chain runs in the Y frame with k = 8
    # columns per sector
    spec = (build_graph_ising(generate_er_instance(4, 0.5, 3)) if model == "graph"
            else build_tfim(4, 1.0, 0.8))
    cfg = field_config(spec, n_trotter=10, n_cycle=4)
    groups = []
    period = trajectory._period

    def recorded(shots, *args):
        out = period(shots, *args)
        groups.append(np.bincount(out.excited))
        return out

    monkeypatch.setattr(trajectory, "_period", recorded)
    wide = run_trajectories(spec, cfg, cycles=1, shots=6, seed=2)
    assert any((count == 1).any() for count in groups)
    for j in range(6):
        alone = run_trajectories(spec, cfg, cycles=1, shots=1, seed=2 + j)
        assert np.array_equal(alone[0], wide[j])


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


@pytest.mark.parametrize("g, n_trotter, n_cycle, burn_in", [(0.02, 200, 10, 2), (0.1, 60, 20, 3)])
def test_graph_sample_is_within_shot_noise_of_its_exact_target(g, n_trotter, n_cycle, burn_in):
    # the benchmark's sample check on a 4-spin graph: the counts against
    # diag(Lambda^burnin(I/d)) of the exact cycle map, within the
    # Bretagnolle-Huber-Carol bound for 4096 shots (0.055). The first
    # target is only 0.049 from uniform, inside that bound; the second is
    # 0.33 from uniform and 0.17 from its own run at 3 beta
    spec = build_graph_ising(generate_er_instance(4, 0.5, 3))
    cfg = field_config(spec, g=g, n_trotter=n_trotter, n_cycle=n_cycle)
    shots = 4096
    samples = sample_gibbs(spec, cfg, burn_in, shots, seed=17)
    out = "outcome,count\n" + "".join(f"{k},{c}\n" for k, c in samples.counts.items())
    reference = workloads.sample_reference(spec, cfg, burn_in)
    assert workloads.check_sample(0, out, reference, shots) is None


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


# -------------------------------------------------------------- run size

@pytest.mark.parametrize("run", [
    lambda spec, cfg: sample_gibbs(spec, cfg, burn_in_cycles=1, shots=2, seed=0),
    lambda spec, cfg: run_trajectories(spec, cfg, cycles=1, shots=2, seed=0),
], ids=["sampler", "trajectories"])
@pytest.mark.parametrize("n", [6, 7])
def test_shot_driver_refuses_an_oversized_run_up_front(run, n, monkeypatch):
    # at n_cycle 500 the 6-spin chain's W table holds 251 dense W(Omega) of
    # 4^12 entries, 62.75 GiB; 7 spins exceed MAX_SPINS
    monkeypatch.setattr(channel, "_trotter_parts", built_too_early)
    spec = build_tfim(n, 1.0, 1.0)
    with pytest.raises(InvalidSize):
        run(spec, field_config(spec, n_cycle=500))


def admitted_threads(shots, workers, monkeypatch):
    """The threads that each of ``workers`` admits for a sample of the 5-spin
    chain at n_cycle 500, read at the walk before anything is built."""
    class Walked(Exception):
        pass

    threads = []

    def walk(spec, cfg, per_omega, workers=None):
        threads.append(workers)
        raise Walked

    monkeypatch.setattr(channel, "_trotter_parts", built_too_early)
    monkeypatch.setattr(trajectory, "_period_table", walk)
    spec = build_tfim(5, 1.0, 1.0)
    for count in workers:
        with pytest.raises(Walked):
            sample_gibbs(spec, field_config(spec, n_cycle=500), 1, shots, seed=0, workers=count)
    return threads


def test_shot_driver_runs_no_more_threads_than_the_budget_holds(monkeypatch):
    # the 5-spin chain's column tables at n_cycle 500 are 251 comb values of
    # its two W blocks of 512^2 entries, 251 * 8 MiB = 2008 MiB, shared by
    # the threads, which leaves 6184 MiB of the 8 GiB. Each thread holds a
    # walk chunk (40 MiB) and three buffers of its batch, 96 KiB for 2 shots:
    # 154 fit
    assert admitted_threads(2, (4, 2, None), monkeypatch) == [4, 2, 1]


def test_shot_driver_budget_cuts_the_threads_of_full_batches(monkeypatch):
    # as above, but three buffers of a full batch of 4096 shots take 192 MiB:
    # 6184 // (40 + 192) = 26 threads fit beside the tables
    assert admitted_threads(4096, (64, 16, 8), monkeypatch) == [26, 16, 8]
    assert admitted_threads(2, (256,), monkeypatch) == [154]


def test_a_sample_admitted_at_entry_is_admitted_by_its_run(monkeypatch):
    # the 5-spin chain with 4096 shots, whose column tables of 8 MiB per comb
    # value, a walk chunk of 40 MiB and three buffers of a full batch of 4096
    # shots (192 MiB) cross 8 GiB inside this n_cycle window; the entry check
    # counts a full batch too, so every value it admits reaches the walk
    class Walked(Exception):
        pass

    def walk(spec, cfg, per_omega, workers=None):
        raise Walked

    monkeypatch.setattr(channel, "_trotter_parts", built_too_early)
    monkeypatch.setattr(trajectory, "_period_table", walk)
    admitted = 0
    for n_cycle in range(1980, 2031):
        try:
            point, = make_points("sample", "tfim", 5, [1.0], g=0.005, n_trotter=5000,
                                 n_cycle=n_cycle)
        except InvalidSize:
            continue
        admitted += 1
        with pytest.raises(Walked):
            sample_gibbs(point.spec, point.config, 20, 4096, seed=0)
    assert 0 < admitted < 51


@pytest.mark.parametrize("omega_m", [0.0, 2.0])
@pytest.mark.parametrize("n_cycle", [1, 2, 3, 7])
def test_sampler_builds_as_many_w_as_its_prediction_counts(omega_m, n_cycle, monkeypatch):
    # the prediction is one column table per distinct comb value, each as
    # large as the value's W blocks (two sectors of 8^2 entries here, 2 KiB);
    # at omega_m = 0 every comb value is 0.0, so the table holds one
    built = []
    columns = trajectory._Layout.columns
    monkeypatch.setattr(trajectory._Layout, "columns",
                        lambda layout, w: built.append(w) or columns(layout, w))
    spec = build_tfim(2, 1.0, 1.0)
    cfg = field_config(spec, omega_m=omega_m, n_trotter=4, n_cycle=n_cycle)
    sample_gibbs(spec, cfg, burn_in_cycles=1, shots=2, seed=0)
    assert all(w.nbytes == 2 * 16 * 8**2 for w in built)
    assert len(built) * 2 * 16 * 8**2 == channel.run_bytes(spec, cfg, True)


@pytest.mark.parametrize("model", ["graph", "chain"])
def test_sampler_peak_memory_is_within_the_prediction(model):
    # a fresh model, so that its sectors are built inside. One thread holds
    # the column tables that run_bytes counts, a walk chunk and about three
    # buffers of its shot batch; at n_cycle 4, 3 column tables of 0.5 MiB
    # (graph) or 8 MiB (chain), a 2.5 MiB or 40 MiB walk chunk, and three
    # buffers of 0.75 MiB for 16 shots
    spec = (build_graph_ising(generate_er_instance(5, 0.5, 2)) if model == "graph"
            else build_tfim(5, 1.0, 1.0))
    cfg = field_config(spec, n_trotter=8, n_cycle=4)
    shots = 16
    tracemalloc.start()
    try:
        sample_gibbs(spec, cfg, 1, shots, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    predicted = (channel.run_bytes(spec, cfg, True) + channel._walk_bytes(spec, cfg)
                 + 3 * 16 * shots * 2**(spec.qubit_count + cfg.m_count))
    assert peak <= predicted


def test_sample_set_probabilities():
    samples = trajectory.SampleSet(counts={"00": 3, "11": 1}, shots=4, seed=0)
    assert np.allclose(samples.probabilities(), [0.75, 0.0, 0.0, 0.25])
