import math

import numpy as np
import pytest

from qmcmc.errors import IndexOutOfRange, InvalidTolerance
from qmcmc.hamiltonians import build_tfim, spectral_width, to_matrix
from qmcmc.schedule import (
    ProtocolConfig,
    comb_value,
    ground_probability,
    suggest_trotter_steps,
    validate_hierarchy,
)


def make_config(**overrides):
    params = dict(g=0.005, beta=10.0, omega_m=4.0, n_trotter=100, n_cycle=500,
                  ancilla_map=(0, 1))
    params.update(overrides)
    return ProtocolConfig(**params)


def test_config_derived_times():
    cfg = make_config()
    assert math.isclose(cfg.t_g, math.pi / 0.005)
    assert math.isclose(cfg.t_cycle, cfg.t_g * 500)
    assert cfg.m_count == 2


@pytest.mark.parametrize("bad", [
    dict(g=0.0), dict(g=-1.0), dict(beta=-0.1), dict(omega_m=-1.0),
    dict(n_trotter=0), dict(n_cycle=0), dict(ancilla_map=()),
    dict(ancilla_map=(-1,)),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        make_config(**bad)


@pytest.mark.parametrize("field, value", [
    ("n_trotter", 2.5), ("n_trotter", "3"), ("n_cycle", 4.5), ("n_cycle", np.float64(4.0)),
    ("ancilla_map", (1.9,)), ("ancilla_map", ("0", "1")), ("ancilla_map", (0, 1.0)),
])
def test_config_refuses_non_integer_counts_and_ancillas(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        make_config(**{field: value})


def test_config_keeps_integer_counts_and_ancillas():
    cfg = make_config(n_trotter=np.int64(7), n_cycle=np.int32(3), ancilla_map=np.array([2, 0]))
    assert (cfg.n_trotter, cfg.n_cycle, cfg.ancilla_map) == (7, 3, (2, 0))
    assert all(type(v) is int for v in (cfg.n_trotter, cfg.n_cycle, *cfg.ancilla_map))


@pytest.mark.parametrize("field, value", [
    ("g", math.nan), ("beta", math.nan), ("omega_m", math.nan),
    ("g", math.inf), ("g", -math.inf), ("omega_m", math.inf),
    ("omega_m", -math.inf), ("beta", math.inf),
])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        make_config(**{field: value})


def test_comb_value_endpoints():
    cfg = make_config(n_cycle=500, omega_m=3.0)
    assert comb_value(cfg, 0) == 0.0
    assert comb_value(cfg, 250) == 3.0
    assert abs(comb_value(cfg, 125) - 1.5) < 1e-14


def test_comb_value_range_check():
    cfg = make_config(n_cycle=10)
    with pytest.raises(IndexOutOfRange):
        comb_value(cfg, 10)
    with pytest.raises(IndexOutOfRange):
        comb_value(cfg, -1)


def test_comb_value_exactly_symmetric():
    cfg = make_config(n_cycle=500, omega_m=2.7)
    for k in range(1, 500):
        assert comb_value(cfg, k) == comb_value(cfg, 500 - k)


def test_ground_probability_degenerate():
    assert ground_probability(0.0, 5.0) == 0.5
    assert ground_probability(3.0, 0.0) == 0.5


def test_ground_probability_zero_temperature_limit():
    assert abs(ground_probability(1e6, 1.0) - 1.0) < 1e-12


def test_ground_probability_closed_form():
    # beta*Omega = 2: p0 = e^1 / (e^1 + e^-1)
    expected = math.exp(1.0) / (math.exp(1.0) + math.exp(-1.0))
    assert abs(ground_probability(2.0, 1.0) - expected) < 1e-12
    assert abs(ground_probability(1.0, 2.0) - expected) < 1e-12


def test_ground_probability_monotone():
    values = [ground_probability(om, 1.0) for om in np.linspace(-5, 5, 41)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_ground_probability_complement():
    for om in (0.3, 1.7, 12.0):
        total = ground_probability(om, 2.0) + ground_probability(-om, 2.0)
        assert abs(total - 1.0) < 1e-14


def test_ground_probability_large_negative_argument_is_zero():
    assert ground_probability(-1e6, 1.0) == 0.0


def test_ground_probability_is_plain_logistic_for_non_negative_argument():
    for x in np.linspace(0.0, 800.0, 16001):
        x = float(x)
        assert ground_probability(x, 1.0) == 1.0 / (1.0 + math.exp(-x))
    for omega in (0.0, 0.013, 0.7, 2.5, 31.0):
        for beta in (0.0, 0.1, 1.0, 10.0, 100.0):
            assert ground_probability(omega, beta) == 1.0 / (1.0 + math.exp(-(beta * omega)))


def test_ground_probability_rejects_negative_beta():
    for omega, beta in ((1.0, -1.0), (1.0, math.nan), (0.0, math.inf)):
        with pytest.raises(ValueError):
            ground_probability(omega, beta)


def test_hierarchy_passes_at_reference_parameters():
    spec = build_tfim(2, 1.0, 1.0)
    cfg = make_config(g=0.005, omega_m=spectral_width(spec), n_cycle=500)
    h_s_norm = float(np.abs(np.linalg.eigvalsh(to_matrix(spec))).max())
    report = validate_hierarchy(cfg, h_s_norm)
    assert report.max_comb_slope == pytest.approx(
        math.pi * cfg.omega_m / cfg.t_cycle)
    assert report.slope_ok and report.coupling_ok


def test_hierarchy_flags_strong_coupling():
    report = validate_hierarchy(make_config(g=2.0, omega_m=1.0), h_s_norm=2.0)
    assert not report.coupling_ok


def test_hierarchy_static_comb_passes_first_check():
    report = validate_hierarchy(make_config(omega_m=0.0), h_s_norm=2.0)
    assert report.max_comb_slope == 0.0
    assert report.slope_to_coupling == 0.0
    assert report.slope_ok


def test_hierarchy_summary_mentions_warnings():
    report = validate_hierarchy(make_config(g=2.0, omega_m=1.0), h_s_norm=2.0)
    assert "WARNING" in report.summary()


def test_suggest_trotter_steps_exact_cases():
    assert suggest_trotter_steps(1.0, 1.0, 9.0) == 1
    assert suggest_trotter_steps(1.0, 1.0, 1.0) == 9


def test_suggest_trotter_steps_quadratic_scaling():
    one = suggest_trotter_steps(2.0, 1.5, 0.01)
    four = suggest_trotter_steps(2.0, 3.0, 0.01)
    assert four == 4 * one


def test_suggest_trotter_steps_rejects_bad_tolerance():
    with pytest.raises(InvalidTolerance):
        suggest_trotter_steps(1.0, 1.0, 0.0)
    with pytest.raises(InvalidTolerance):
        suggest_trotter_steps(1.0, 1.0, -1.0)


@pytest.mark.parametrize("t_g, lambda_max, epsilon", [
    (628.0, 4e307, 0.1),   # 3 t_g Lambda is already inf
    (628.0, 4e150, 0.1),   # its square overflows
    (628.0, 4.0, 1e-305),  # the quotient overflows
], ids=["product", "square", "quotient"])
def test_suggest_trotter_steps_overflow_is_value_error(t_g, lambda_max, epsilon):
    with pytest.raises(ValueError, match="overflows"):
        suggest_trotter_steps(t_g, lambda_max, epsilon)
