import argparse
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcmc import channel, cli, hamiltonians
from qmcmc.cli import emit_results, emit_samples, main, parse_args
from qmcmc.errors import EmptyResult, UnknownKey, UsageError
from qmcmc.experiments import RESULT_FIELDS, ResultRow
from qmcmc.trajectory import SampleSet


def make_row(**overrides):
    params = dict(
        kind="tfim", n_s=2, j=1.0, h=1.0, beta=10.0, p_e=None,
        instance_seed=None, g=0.005, n_trotter=5000, n_cycle=500, mode=None,
        infidelity=0.0035, spectral_gap=0.435,
        lambda_dev=7.0e-10, wall_time=0.21,
    )
    params.update(overrides)
    return ResultRow(**params)


# ---------------------------------------------------------------- parsing

def test_parse_reference_thermalize_line():
    cfg = parse_args(
        "thermalize --model tfim --n 2 --hj 1.0 --beta 10 --g 0.005 "
        "--nt 5000 --ncycle 500".split())
    assert cfg.command == "thermalize"
    o = cfg.options
    assert o["model"] == "tfim"
    assert o["n"] == (2,)
    assert o["hj"] == (1.0,)
    assert o["beta"] == (10.0,)
    assert o["g"] == 0.005
    assert o["nt"] == 5000
    assert o["ncycle"] == 500


def test_parse_graph_experiment_sweep():
    cfg = parse_args("experiment graph --pe 0.4 --beta 10,1,0.1 --seed 7".split())
    assert cfg.command == "experiment"
    assert cfg.experiment_kind == "graph"
    assert cfg.options["beta"] == (10.0, 1.0, 0.1)
    assert cfg.options["pe"] == (0.4,)
    assert cfg.options["seed"] == 7
    assert cfg.options["ncycle"] == 100  # graph-era default


def test_parse_missing_beta_names_flag():
    with pytest.raises(UsageError, match="--beta"):
        parse_args("thermalize --model tfim --n 2".split())


def test_parse_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        parse_args("thermalize --bogus 1".split())
    assert err.value.code == 2


def test_parse_requires_command():
    with pytest.raises(SystemExit) as err:
        parse_args([])
    assert err.value.code == 2


def test_parse_verbosity_flag():
    assert parse_args("validate --n 1 -q".split()).verbosity == 0
    assert parse_args("validate --n 1".split()).verbosity == 1


def test_successive_parses_are_independent():
    first = parse_args("thermalize -q --n 2 --beta 1".split())
    second = parse_args("thermalize --n 2 --beta 2,3".split())
    assert (first.verbosity, first.options["beta"]) == (0, (1.0,))
    assert (second.verbosity, second.options["beta"]) == (1, (2.0, 3.0))
    assert first.options is not second.options


def test_config_file_supplies_values(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "# reference parameters\n"
        "beta = 10\n"
        "g = 0.005   # coupling\n"
        "nt = 5000\n"
        "ncycle = 500\n")
    cfg = parse_args(["thermalize", "--config", str(conf), "--n", "2"])
    assert cfg.options["beta"] == (10.0,)
    assert cfg.options["g"] == 0.005
    assert cfg.options["nt"] == 5000


def test_flags_override_config_file(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("beta = 10\ng = 0.005\n")
    cfg = parse_args(["thermalize", "--config", str(conf), "--g", "0.02"])
    assert cfg.options["g"] == 0.02
    assert cfg.options["beta"] == (10.0,)


def test_config_file_unknown_key(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("bogus = 1\n")
    with pytest.raises(UnknownKey):
        parse_args(["thermalize", "--config", str(conf), "--beta", "1"])
    assert main(["thermalize", "--config", str(conf), "--beta", "1"]) == 2


def test_config_file_malformed_line(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("beta 10\n")
    with pytest.raises(UsageError):
        parse_args(["thermalize", "--config", str(conf)])


def test_workers_env_default(monkeypatch):
    monkeypatch.setenv("QMCMC_WORKERS", "3")
    cfg = parse_args("validate --n 1".split())
    assert cfg.options["workers"] == 3
    monkeypatch.delenv("QMCMC_WORKERS")
    cfg = parse_args("validate --n 1".split())
    assert cfg.options["workers"] is None


# --------------------------------------------------------------- emission

def test_emit_csv_one_row(tmp_path):
    path = tmp_path / "out.csv"
    emit_results([make_row()], "csv", path)
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    assert lines[-1] == ""
    assert len(lines) == 3  # header + row + trailing newline
    assert lines[0] == ",".join(RESULT_FIELDS)
    assert "\r" not in text


def test_emit_csv_17_digit_floats(tmp_path):
    path = tmp_path / "out.csv"
    emit_results([make_row(infidelity=1 / 3)], "csv", path)
    with open(path, newline="") as fh:
        record = list(csv.DictReader(fh))[0]
    assert record["infidelity"] == "0.33333333333333331"
    assert float(record["infidelity"]) == 1 / 3
    assert record["p_e"] == ""


def test_emit_json_roundtrip(tmp_path):
    rows = [make_row(), make_row(beta=1.0, infidelity=0.125)]
    path = tmp_path / "out.json"
    emit_results(rows, "json", path)
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert len(loaded) == 2
    for row, parsed in zip(rows, loaded):
        assert list(parsed.keys()) == list(RESULT_FIELDS)
        for key, value in parsed.items():
            assert value == getattr(row, key)


def test_emit_empty_rows_rejected(tmp_path):
    with pytest.raises(EmptyResult):
        emit_results([], "csv", tmp_path / "x.csv")


def test_emit_deterministic_bytes(tmp_path):
    rows = [make_row()]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_results(rows, "csv", a)
    emit_results(rows, "csv", b)
    assert a.read_bytes() == b.read_bytes()


def test_emit_samples_csv(tmp_path):
    samples = SampleSet(counts={"10": 3, "01": 5}, shots=8, seed=1)
    path = tmp_path / "s.csv"
    emit_samples(samples, "csv", path)
    assert path.read_text() == "outcome,count\n01,5\n10,3\n"


def test_emit_samples_json(tmp_path):
    samples = SampleSet(counts={"1": 7, "0": 3}, shots=10, seed=5)
    path = tmp_path / "s.json"
    emit_samples(samples, "json", path)
    payload = json.loads(path.read_text())
    assert payload == {"shots": 10, "seed": 5, "counts": {"0": 3, "1": 7}}


# ------------------------------------------------------------ end to end

def test_main_thermalize_writes_csv(tmp_path, capsys):
    out = tmp_path / "row.csv"
    code = main([
        "thermalize", "--model", "tfim", "--n", "1", "--hj", "1.0",
        "--beta", "1", "--g", "0.05", "--nt", "100", "--ncycle", "20",
        "--out", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "rate hierarchy" in captured.err
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["infidelity"]) < 0.05
    assert float(rows[0]["lambda_dev"]) < 1e-6


def test_main_quiet_suppresses_report(tmp_path, capsys):
    out = tmp_path / "row.csv"
    code = main([
        "thermalize", "-q", "--model", "tfim", "--n", "1", "--beta", "1",
        "--g", "0.05", "--nt", "50", "--ncycle", "10", "--out", str(out),
    ])
    assert code == 0
    assert "rate hierarchy" not in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["thermalize"],
    ["sample", "--shots", "20", "--burnin", "1"],
    ["experiment", "tfim"],
], ids=["thermalize", "sample", "experiment"])
def test_main_hierarchy_report_is_stderr_only(command, capsys):
    argv = command + ["--n", "1", "--beta", "1", "--g", "0.05", "--nt", "30", "--ncycle", "8"]
    runs = []
    for quiet in ([], ["-q"]):
        assert main(argv + quiet) == 0
        captured = capsys.readouterr()
        rows = list(csv.reader(captured.out.splitlines()))
        if "wall_time" in rows[0]:
            column = rows[0].index("wall_time")
            for row in rows[1:]:
                row[column] = ""
        runs.append((rows, captured.err))
    (verbose_rows, verbose_err), (quiet_rows, quiet_err) = runs
    assert verbose_err.startswith("rate hierarchy") and quiet_err == ""
    assert verbose_rows == quiet_rows


def test_main_thermalize_graph_model_reports_tvd(tmp_path):
    out = tmp_path / "row.csv"
    code = main([
        "thermalize", "-q", "--model", "graph", "--n", "2", "--pe", "0.5",
        "--beta", "1", "--g", "0.05", "--nt", "50", "--ncycle", "10",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    with open(out, newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    assert row["tvd"] != ""
    assert 0.0 <= float(row["tvd"]) <= 1.0


def test_main_thermalize_from_hamiltonian_file(tmp_path):
    ham = tmp_path / "model.ham"
    ham.write_text("-1.0 Y\n")
    out = tmp_path / "row.csv"
    code = main([
        "thermalize", "-q", "--model", str(ham), "--beta", "1",
        "--g", "0.05", "--nt", "50", "--ncycle", "10", "--out", str(out),
    ])
    assert code == 0
    with open(out, newline="") as fh:
        assert list(csv.DictReader(fh))[0]["n_s"] == "1"


def test_main_sample_deterministic_output(tmp_path):
    args = [
        "sample", "-q", "--model", "tfim", "--n", "1", "--beta", "1",
        "--g", "0.05", "--nt", "50", "--ncycle", "10",
        "--shots", "200", "--burnin", "2", "--seed", "9",
    ]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    with open(out_a, newline="") as fh:
        counts = {row["outcome"]: int(row["count"]) for row in csv.DictReader(fh)}
    assert sum(counts.values()) == 200


def test_main_experiment_tfim_json(tmp_path):
    out = tmp_path / "sweep.json"
    code = main([
        "experiment", "tfim", "-q", "--n", "1", "--hj", "0.5,1.0",
        "--beta", "1", "--g", "0.05", "--nt", "50", "--ncycle", "10",
        "--format", "json", "--out", str(out),
    ])
    assert code == 0
    loaded = json.loads(out.read_text())
    assert len(loaded) == 2
    assert {row["h"] for row in loaded} == {0.5, 1.0}


def test_main_experiment_failed_point_exits_1(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    # g = 1e308 is a valid protocol setting, but its period is so short that
    # the cycle map is the identity and has no unique fixed point
    code = main([
        "experiment", "graph", "-q", "--n", "2", "--pe", "0.5", "--beta", "1",
        "--g", "1e308", "--nt", "30", "--ncycle", "8", "--out", str(out),
    ])
    assert code == 1
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["error"].startswith("NoUnitEigenvalue")
    assert "1 of 1 sweep points failed" in capsys.readouterr().err


@pytest.mark.parametrize("quiet", [["-q"], []])
def test_main_experiment_non_finite_beta_exits_2(quiet, capsys):
    code = main(["experiment", "tfim", *quiet, "--n", "1", "--beta", "nan",
                 "--nt", "30", "--ncycle", "8"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "beta must be finite" in captured.err


def test_main_experiment_qubit_cap(tmp_path):
    code = main([
        "experiment", "tfim", "-q", "--n", "7", "--beta", "1",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2


def test_main_validate_prints_suggestion(capsys):
    code = main([
        "validate", "--model", "tfim", "--n", "2", "--beta", "10",
        "--g", "0.005", "--nt", "5000", "--ncycle", "500",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "rate hierarchy" in out
    assert "suggested Trotter steps" in out


@pytest.mark.parametrize("model, line", [
    (["--model", "tfim", "--n", "2"], "W(Omega) blocks of 6, 2, 4, 4, cycle map blocks of "
                                      "6, 2, 4, 4 (generators YYZZ)"),
    (["--model", "graph", "--n", "3"], "W(Omega) 8 blocks of 8, cycle map 8 blocks of 8 "
                                       "(generators ZIIZII, IZIIZI, IIZIIZ)"),
    (["--model", "tfim", "--n", "4"], "W(Omega) blocks of 72, 56, 64, 64, cycle map blocks "
                                      "of 72, 56, 64, 64 (generators YYYYZZZZ)"),
], ids=["tfim-2", "graph-3", "tfim-4"])
def test_main_validate_prints_the_sector_split(model, line, capsys):
    assert main(["validate", "-q", *model]) == 0
    assert f"symmetry sectors: {line}" in capsys.readouterr().out.splitlines()


def test_main_validate_quiet_drops_the_report(capsys):
    argv = ["validate", "--n", "2", "--beta", "10", "--g", "0.005", "--nt", "5000"]
    outs = []
    for quiet in ([], ["-q"]):
        assert main(argv + quiet) == 0
        outs.append(capsys.readouterr().out.splitlines())
    assert outs[1] == outs[0][4:]


@pytest.mark.parametrize("argv, points", [
    (["thermalize"], 1),
    (["sample", "-q"], 1),
    (["validate"], 1),
    (["experiment", "tfim", "-q", "--hj", "0.5,1,2"], 3),
    (["experiment", "tfim", "-q", "--beta", "0.5,1,2"], 1),
])
def test_main_diagonalizes_each_model_once(argv, points, monkeypatch, capsys):
    calls = []
    real = hamiltonians.hermitian_eig
    monkeypatch.setattr(hamiltonians, "hermitian_eig", lambda h: calls.append(h) or real(h))
    # the case's own flags come last, so that they override the common ones
    head = 2 if argv[0] == "experiment" else 1
    argv = (argv[:head] + ["--n", "2", "--beta", "1", "--g", "0.05", "--nt", "30",
                           "--ncycle", "8"] + argv[head:])
    assert main(argv) == 0
    assert len(calls) == points


@pytest.mark.parametrize("argv, models", [
    ("thermalize -q --model graph --n 3 --pe 0.5 --beta 1", 1),
    ("sample -q --model graph --n 3 --pe 0.5 --beta 1 --shots 4 --burnin 1", 1),
    ("experiment graph -q --n 3 --pe 0.5 --beta 0.5,1,2", 1),
    ("experiment graph -q --n 2,3 --pe 0.5,0.9 --beta 0.5,1,2", 4),
    ("validate -q --n 3 --beta 1", 1),
])
def test_main_finds_the_sectors_once_per_model(argv, models, monkeypatch, capsys):
    calls = []
    real = channel.pauli_sectors
    # every module that holds the function by name, so that no derivation goes uncounted
    for module in (channel, cli):
        if hasattr(module, "pauli_sectors"):
            monkeypatch.setattr(module, "pauli_sectors",
                                lambda spec, cfg: calls.append(spec) or real(spec, cfg))
    assert main(argv.split() + ["--g", "0.05", "--nt", "30", "--ncycle", "8"]) == 0
    assert len(calls) == models


def test_main_bad_output_path_is_runtime_error(tmp_path):
    code = main([
        "thermalize", "-q", "--model", "tfim", "--n", "1", "--beta", "1",
        "--g", "0.05", "--nt", "50", "--ncycle", "10",
        "--out", str(tmp_path / "missing_dir" / "row.csv"),
    ])
    assert code == 1


def test_main_missing_beta_exit_code():
    assert main(["thermalize", "--model", "tfim", "--n", "1"]) == 2


# ------------------------------------------------------------ entry errors

@pytest.mark.parametrize("argv, env, config", [
    (["thermalize", "--n", "abc", "--beta", "1"], None, None),
    (["thermalize", "--n", "1", "--beta", "x"], None, None),
    (["thermalize", "--n", ",", "--beta", "1"], None, None),
    (["thermalize", "--n", "1", "--beta", ","], None, None),
    (["validate", "--n", "1"], "abc", None),
    (["thermalize", "--n", "1", "--beta", "1"], None, "format = xml\n"),
    (["thermalize", "--beta", "1"], None, "n = abc\n"),
    (["thermalize", "--n", "0", "--beta", "1"], None, None),
    (["validate", "--n", "1", "--epsilon", "0"], None, None),
    (["sample", "--n", "1", "--beta", "1", "--burnin", "-1"], None, None),
    (["sample", "--n", "1", "--beta", "1", "--shots", "0"], None, None),
    (["experiment", "graph", "-q", "--n", "2", "--pe", "0.5,1.5", "--beta", "1",
      "--nt", "30", "--ncycle", "8"], None, None),
    (["experiment", "graph", "-q", "--n", "2", "--pe", "0.5", "--beta", "1,-1",
      "--nt", "30", "--ncycle", "8"], None, None),
    (["thermalize", "-q", "--n", "1", "--beta", "1", "--nt", "30", "--ncycle", "8",
      "--workers", "0"], None, None),
    (["thermalize", "-q", "--n", "1", "--beta", "1", "--nt", "30", "--ncycle", "8",
      "--workers", "-3"], None, None),
    (["thermalize", "-q", "--n", "1", "--beta", "1", "--nt", "30", "--ncycle", "8"],
     "0", None),
    (["thermalize", "-q", "--n", "1,2", "--hj", "0.5,1", "--beta", "1,2", "--nt", "30",
      "--ncycle", "8"], None, None),
    (["thermalize", "-q", "--n", "1", "--beta", "1,2", "--nt", "30", "--ncycle", "8"],
     None, None),
    (["thermalize", "-q", "--beta", "1", "--nt", "30", "--ncycle", "8"], None, "n = 1,2\n"),
    (["sample", "-q", "--model", "graph", "--n", "2", "--pe", "0.3,0.5", "--beta", "1",
      "--nt", "30", "--ncycle", "8"], None, None),
    (["validate", "--n", "1", "--hj", "0.5,1"], None, None),
    (["experiment", "tfim", "-q", "--n", "1", "--beta", "1", "--nt", "30", "--ncycle", "8",
      "--mode", "evolve", "--sweeps", "3"], None, None),
    (["experiment", "graph", "-q", "--n", "2", "--beta", "1", "--nt", "30", "--ncycle", "8",
      "--mode", "evolve"], None, None),
    (["experiment", "tfim", "-q", "--n", "1", "--beta", "1", "--nt", "30", "--ncycle", "8",
      "--sweeps", "3"], None, None),
    (["experiment", "magnetization", "-q", "--n", "1", "--beta", "1", "--nt", "30",
      "--ncycle", "8", "--sweeps", "3"], None, None),
    # the chain is built at J = 1, so --jj, like --qubit-cap, is no flag or key
    (["thermalize", "-q", "--n", "1", "--jj", "0", "--beta", "1", "--nt", "30",
      "--ncycle", "8"], None, None),
    (["thermalize", "-q", "--n", "1", "--jj", "-1", "--beta", "1", "--nt", "30",
      "--ncycle", "8"], None, None),
    (["experiment", "tfim", "-q", "--n", "1", "--jj", "0", "--beta", "1", "--nt", "30",
      "--ncycle", "8"], None, None),
    (["experiment", "tfim", "-q", "--n", "1", "--beta", "1", "--nt", "30", "--ncycle", "8"],
     None, "jj = nan\n"),
    (["experiment", "magnetization", "-q", "--n", "1", "--beta", "1", "--nt", "30",
      "--ncycle", "8", "--mode", "evolve", "--sweeps", "-3"], None, None),
    (["experiment", "magnetization", "-q", "--n", "1", "--beta", "1", "--nt", "30",
      "--ncycle", "8", "--mode", "evolve"], None, "sweeps = 0\n"),
    (["thermalize", "-q", "--model", "graph", "--n", "2", "--hj", "5", "--beta", "1",
      "--nt", "30", "--ncycle", "8"], None, None),
    (["thermalize", "-q", "--model", "graph", "--n", "2", "--jj", "3", "--beta", "1",
      "--nt", "30", "--ncycle", "8"], None, None),
    (["experiment", "tfim", "-q", "--n", "1", "--beta", "1", "--nt", "30", "--ncycle", "8",
      "--pe", "0.9"], None, None),
    (["experiment", "graph", "-q", "--n", "2", "--hj", "2", "--beta", "1", "--nt", "30",
      "--ncycle", "8"], None, None),
    (["sample", "-q", "--n", "1", "--beta", "1", "--nt", "30", "--ncycle", "8"],
     None, "pe = 0.9\n"),
    (["validate", "--model", "missing.ham", "--n", "2"], None, None),
    (["validate", "--n", "1", "--config", "missing.conf"], None, None),
    (["thermalize", "-q", "--n", "1", "--beta", "1", "--nt", "30", "--ncycle", "8"],
     None, "qubit-cap = 14\n"),
    (["experiment", "tfim", "-q", "--n", "1", "--beta", "1", "--nt", "30", "--ncycle", "8"],
     None, "model = graph\n"),
    (["thermalize", "-q", "--n", "1", "--beta", "1", "--nt", "30", "--ncycle", "8"],
     None, "mode = evolve\n"),
    (["thermalize", "-q", "--n", "1", "--beta", "1", "--nt", "30", "--ncycle", "8"],
     None, "shots = 5\n"),
    (["thermalize", "-q", "--n", "1", "--beta", "1", "--nt", "30", "--ncycle", "8",
      "--hierarchy-threshold", "5"], None, None),
    (["thermalize", "-q", "--n", "1", "--beta", "1", "--nt", "30", "--ncycle", "8"],
     None, "hierarchy-threshold = 5\n"),
    (["validate", "--n", "2", "--hj", "1e307"], None, None),
    (["validate", "--n", "2", "--hj", "1e150"], None, None),
    (["validate", "-q", "--n", "2", "--beta", "1", "--epsilon", "1e-305"], None, None),
    (["thermalize", "-q", "--n", "2", "--hj", "1e307", "--beta", "1", "--nt", "30",
      "--ncycle", "8"], None, None),
    (["experiment", "tfim", "-q", "--n", "2", "--hj", "1,1e307", "--beta", "1", "--nt", "30",
      "--ncycle", "8"], None, None),
], ids=["n-abc", "beta-x", "n-empty", "beta-empty", "env-workers", "config-format",
        "config-n", "n-0", "epsilon-0", "burnin-negative", "shots-0", "pe-second-1.5",
        "beta-second-negative", "workers-0", "workers-negative", "env-workers-0",
        "thermalize-lists", "thermalize-beta-list", "config-n-list", "sample-pe-list",
        "validate-hj-list", "tfim-evolve", "graph-evolve", "tfim-sweeps",
        "magnetization-steady-sweeps", "thermalize-jj-0", "thermalize-jj-negative",
        "experiment-jj-0", "config-jj-nan", "sweeps-negative", "config-sweeps-0",
        "graph-hj", "graph-jj", "tfim-pe", "experiment-graph-hj", "config-pe-tfim",
        "file-model-n", "config-unreadable", "config-qubit-cap", "config-model-experiment",
        "config-mode-thermalize", "config-shots-thermalize", "hierarchy-threshold",
        "config-hierarchy-threshold", "validate-steps-overflow-product",
        "validate-steps-overflow-square", "validate-steps-overflow-epsilon",
        "thermalize-trotter-step-overflow", "experiment-trotter-step-overflow"])
def test_main_bad_input_exits_2(argv, env, config, tmp_path, monkeypatch, capsys):
    if env is None:
        monkeypatch.delenv("QMCMC_WORKERS", raising=False)
    else:
        monkeypatch.setenv("QMCMC_WORKERS", env)
    if config is not None:
        (tmp_path / "run.conf").write_text(config)
        argv = argv + ["--config", str(tmp_path / "run.conf")]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refused the flag
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, flag, bad, good", [
    ("experiment tfim", "--beta", "-1", "1"),
    ("experiment graph", "--pe", "1.5", "0.5"),
    ("experiment tfim", "--hj", "1e308", "1"),  # its spectral width overflows
    ("experiment tfim", "--hj", "1e307", "1"),  # its Trotter step overflows
    ("experiment tfim", "--n", "7", "1"),
])
@pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
def test_main_refuses_bad_grid_value_in_any_position(argv, flag, bad, good, last, capsys):
    point = {"--n": "2" if "graph" in argv else "1", "--beta": "1",
             flag: f"{good},{bad}" if last else f"{bad},{good}"}
    code = main(argv.split() + ["-q", "--nt", "30", "--ncycle", "8"]
                + [f"{key}={value}" for key, value in point.items()])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_main_refuses_an_over_budget_sample_up_front(monkeypatch, capsys):
    # at the default n_cycle of 500 the sampler's column tables hold the W
    # blocks of 251 comb values, 4^12 entries over the chain's two sectors
    # for each: 31 GiB
    def built_too_early(*args):
        raise AssertionError("period parts built before the byte check")

    monkeypatch.setattr("qmcmc.channel._trotter_parts", built_too_early)
    assert main(["sample", "-q", "--model", "tfim", "--n", "6", "--beta", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert f"{251 * 16 * 4**12 // 2} bytes" in captured.err


def test_main_refuses_at_entry_a_sample_whose_full_batch_would_not_fit(monkeypatch, capsys):
    # the 5-spin chain's column tables at n_cycle 2000 are 1001 comb values of
    # 8 MiB; with a thread's walk chunk (40 MiB) they fit 8 GiB, but not with
    # three buffers of its batch of 4096 shots (192 MiB) as well
    def built_too_early(*args):
        raise AssertionError("period parts built before the byte check")

    monkeypatch.setattr("qmcmc.channel._trotter_parts", built_too_early)
    assert main(["sample", "-q", "--model", "tfim", "--n", "5", "--beta", "1",
                 "--ncycle", "2000", "--shots", "4096"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert f"{1001 * 8 << 20} bytes" in captured.err


# the sampler's column tables: 251 comb values of 16 * 4^(2 n) / 2 bytes, the
# chain's W blocks over its two sectors (0.5, 8 and 128 MiB per value)
@pytest.mark.parametrize("model, line", [
    (["--model", "tfim", "--n", "4"], "exact path 8.4 MiB, sampler 125.5 MiB"),
    (["--model", "tfim", "--n", "5"], "exact path 134.1 MiB, sampler 2008.0 MiB"),
    (["--model", "tfim", "--n", "6"], "exact path 2144.2 MiB, sampler 32128.0 MiB"),
], ids=["tfim-4", "tfim-5", "tfim-6"])
def test_main_validate_prints_the_predicted_memory(model, line, capsys):
    assert main(["validate", "-q", *model, "--ncycle", "500"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"predicted peak memory: {line} (limit 8 GiB)" in lines


# omega_m dt / pi: the chain at the reference point, whose spectral width
# grows with n_s, and the 2-spin file model -YY -YI -IY (levels -3, 1, 1, 1)
# at g 0.05 and n_trotter 20, which steps by dt = pi across a width of 4
_REFERENCE = "--model tfim --n {} --hj 1 --beta 10 --g 0.005 --nt 5000 --ncycle 500"


@pytest.mark.parametrize("model, ratio", [
    *((_REFERENCE.format(n), ratio) for n, ratio in
      [(2, "0.179"), (3, "0.280"), (4, "0.381"), (5, "0.482"), (6, "0.584")]),
    ("--model {ham} --beta 1 --g 0.05 --nt 20 --ncycle 2", "4.000"),
])
def test_main_validate_prints_the_aliasing_ratio(model, ratio, tmp_path, capsys):
    ham = tmp_path / "model.ham"
    ham.write_text("-1 YY\n-1 YI\n-1 IY\n")
    assert main(["validate", "-q", *model.format(ham=ham).split()]) == 0
    assert (f"Trotter aliasing omega_m dt / pi = {ratio} (from 1 on, two energy differences "
            "can share a step's phase)") in capsys.readouterr().out.splitlines()


_NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now fails
from qmcmc.cli import main
point = ["-q", "--n", "1", "--beta", "1", "--nt", "30", "--ncycle", "8"]
commands = (["thermalize"], ["sample"], ["experiment", "tfim"], ["validate"])
print("exit codes:", [main(command + point) for command in commands])
"""


def test_commands_run_without_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    env.pop("QMCMC_WORKERS", None)
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "exit codes: [0, 0, 0, 0]", proc.stderr


def test_main_linalg_failure_is_runtime_error(monkeypatch, capsys):
    def failing(cm):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr("qmcmc.experiments.steady_state", failing)
    code = main(["thermalize", "-q", "--n", "1", "--beta", "1", "--g", "0.05",
                 "--nt", "50", "--ncycle", "10"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "LinAlgError" in captured.err


# ------------------------------------------------------- pinned output

_PINNED_ARGV = {
    "thermalize-tfim": "thermalize -q --model tfim --n 2 --hj 0.8 --beta 1.5 --g 0.05 --nt 40 --ncycle 8",
    "thermalize-graph": "thermalize -q --model graph --n 2 --pe 0.5 --beta 1 --g 0.05 --nt 40 --ncycle 8 --seed 3",
    "thermalize-file": "thermalize -q --model {ham} --beta 0.7 --g 0.05 --nt 40 --ncycle 8",
    "experiment-tfim": "experiment tfim -q --n 1,2 --hj 0.5,1 --beta 0.5,2 --g 0.05 --nt 30 --ncycle 8",
    "experiment-magnetization": "experiment magnetization -q --n 1,2 --beta 0.3,1 --g 0.05 --nt 30 --ncycle 8",
    "experiment-magnetization-evolve": "experiment magnetization -q --n 1,2 --beta 0.3,1 --g 0.05 --nt 30 --ncycle 8 --mode evolve --sweeps 5 --seed 4",
    "experiment-graph": "experiment graph -q --n 2,3 --pe 0.3,0.9 --beta 0.5,2 --g 0.05 --nt 30 --ncycle 8 --seed 5",
    "experiment-error-row": "experiment graph -q --n 2 --pe 0.5 --beta 1 --g 1e308 --nt 30 --ncycle 8",
}

# (exit code, CSV rows with wall_time blanked), recorded from the sweep and
# thermalize code as it stood before the sweeps shared one runner
_PINNED_ROWS = {
    "thermalize-tfim": (0, [
        'thermalize,2,1,0.80000000000000004,1.5,,,0.050000000000000003,40,8,,0.53208428333409241,,0.65963994986389485,-0.060397012683653099,0.7200369625475479,0.25708165290689666,5.1758618915316967e-13,,',
    ]),
    "thermalize-graph": (0, [
        'thermalize,2,1,,1,0.5,3,0.050000000000000003,40,8,,0.1611567269774915,0.36720124425590261,0,-5.0389808517765318e-18,5.0389808517765318e-18,0.19456077951210582,3.3306690752293941e-14,,',
    ]),
    "thermalize-file": (0, [
        'thermalize,2,1,,0.69999999999999996,,,0.050000000000000003,40,8,,0.010463502864539453,,-0.096273138398785221,-0.06832842349961761,0.027944714899167611,0.65712649707928272,9.8365759981788869e-14,,',
    ]),
    "experiment-tfim": (0, [
        'tfim,1,1,0.5,0.5,,,0.050000000000000003,30,8,,0.0024123780101125147,,,,,0.17968250152143195,8.071321389024888e-14,,',
        'tfim,1,1,0.5,2,,,0.050000000000000003,30,8,,0.030686083618065574,,,,,0.17968250152143084,7.9825054772059373e-14,,',
        'tfim,1,1,1,0.5,,,0.050000000000000003,30,8,,0.035237446832701025,,,,,0.016321502353279671,1.6275869629534214e-13,,',
        'tfim,1,1,1,2,,,0.050000000000000003,30,8,,0.26534137006241898,,,,,0.01632150235327956,1.6464607656536594e-13,,',
        'tfim,2,1,0.5,0.5,,,0.050000000000000003,30,8,,0.019654537397397309,,,,,0.95617465480236052,9.0816243743180759e-14,,',
        'tfim,2,1,0.5,2,,,0.050000000000000003,30,8,,0.14585139408242431,,,,,0.95617465480235897,6.9277917081515647e-14,,',
        'tfim,2,1,1,0.5,,,0.050000000000000003,30,8,,0.17553297373407573,,,,,0.15307766605095663,5.7509559729214384e-14,,',
        'tfim,2,1,1,2,,,0.050000000000000003,30,8,,0.56995162001060562,,,,,0.15307766605094986,6.3505078314331765e-14,,',
    ]),
    "experiment-magnetization": (0, [
        'magnetization,1,1,1,0.29999999999999999,,,0.050000000000000003,30,8,steady_state,,,0.29131261245159085,0.064088977324596591,0.22722363512699426,0.016321502353279782,1.6353585182841272e-13,,',
        'magnetization,1,1,1,1,,,0.050000000000000003,30,8,steady_state,,,0.76159415595576452,0.17303454666035156,0.58855960929541296,0.016321502353279449,1.6409096471496126e-13,,',
        'magnetization,2,1,1,0.29999999999999999,,,0.050000000000000003,30,8,steady_state,,,0.28347992282242257,0.070453309595088803,0.21302661322733377,0.15307766605095463,5.6177398628784583e-14,,',
        'magnetization,2,1,1,1,,,0.050000000000000003,30,8,steady_state,,,0.65923585511728255,0.089053883727431171,0.57018197138985138,0.15307766605095285,6.0618337111331044e-14,,',
    ]),
    "experiment-magnetization-evolve": (0, [
        'magnetization,1,1,1,0.29999999999999999,,,0.050000000000000003,30,8,evolve,,,0.29131261245159085,0.0097245116994142157,0.28158810075217661,0.016321502353279782,1.6353585182841272e-13,,',
        'magnetization,1,1,1,1,,,0.050000000000000003,30,8,evolve,,,0.76159415595576452,0.026255317897787882,0.73533883805797662,0.016321502353279449,1.6409096471496126e-13,,',
        'magnetization,2,1,1,0.29999999999999999,,,0.050000000000000003,30,8,evolve,,,0.28347992282242257,0.075447810029066559,0.20803211279335601,0.15307766605095463,5.6177398628784583e-14,,',
        'magnetization,2,1,1,1,,,0.050000000000000003,30,8,evolve,,,0.65923585511728255,-0.018059116662008712,0.67729497177929132,0.15307766605095285,6.0618337111331044e-14,,',
    ]),
    "experiment-graph": (0, [
        'graph,2,1,,0.5,0.29999999999999999,5,0.050000000000000003,30,8,,0.0022269482440799848,0.037648649172932827,,,,0.25397301128243421,6.0285110240475384e-14,,',
        'graph,2,1,,2,0.29999999999999999,5,0.050000000000000003,30,8,,0.033686746713126436,0.14936582044676838,,,,0.17937896655929075,5.9063869903094433e-14,,',
        'graph,2,1,,0.5,0.90000000000000002,6,0.050000000000000003,30,8,,0.021911649561306312,0.10701685500062177,,,,0.32931199906089847,5.8064664187925336e-14,,',
        'graph,2,1,,2,0.90000000000000002,6,0.050000000000000003,30,8,,0.16326581572145948,0.22873641150521429,,,,0.36531429119330172,5.7509575161567454e-14,,',
        'graph,3,1,,0.5,0.29999999999999999,7,0.050000000000000003,30,8,,0.0022094315087515248,0.038089724207000818,,,,0.027680364269476176,6.7503129079649911e-14,,',
        'graph,3,1,,2,0.29999999999999999,7,0.050000000000000003,30,8,,0.047868684086715629,0.1912955007151988,,,,0.027680364269469515,5.7287570455051873e-14,,',
        'graph,3,1,,0.5,0.90000000000000002,8,0.050000000000000003,30,8,,0.077563593957594712,0.21112370354256066,,,,0.49245835806626759,8.681944054459625e-14,,',
        'graph,3,1,,2,0.90000000000000002,8,0.050000000000000003,30,8,,0.2843466353536076,0.39841622454407932,,,,0.46606808705080693,7.9714013806413981e-14,,',
    ]),
    "experiment-error-row": (1, [
        'graph,2,1,,1,0.5,0,1e+308,30,8,,,,,,,,,,NoUnitEigenvalue: at least 16 eigenvalues lie within 1e-6 of 1; the fixed point is not meaningfully defined',
    ]),
}

_FLOAT_FIELDS = {"j", "h", "beta", "p_e", "g", "infidelity", "tvd", "magnetization_exact",
                 "magnetization_algorithm", "magnetization_error", "spectral_gap",
                 "lambda_dev"}


@pytest.mark.parametrize("name", list(_PINNED_ARGV))
def test_main_output_is_pinned(name, tmp_path):
    ham = tmp_path / "model.ham"
    ham.write_text("0.7 ZZ\n-0.4 XI\n0.3 IY\n")
    out = tmp_path / "rows.csv"
    argv = _PINNED_ARGV[name].format(ham=ham).split()
    expected_code, expected_lines = _PINNED_ROWS[name]
    assert main(argv + ["--out", str(out)]) == expected_code
    with open(out, newline="") as fh:
        got = list(csv.DictReader(fh))
    expected = [dict(zip(RESULT_FIELDS, row)) for row in csv.reader(expected_lines)]
    assert len(got) == len(expected)
    for got_row, want_row in zip(got, expected):
        for field in RESULT_FIELDS:
            if field == "wall_time":
                continue
            if field in _FLOAT_FIELDS and want_row[field]:
                # the abs floor admits rounding noise in values near zero
                # (lambda_dev, a vanishing magnetization)
                assert float(got_row[field]) == pytest.approx(
                    float(want_row[field]), rel=1e-10, abs=1e-12), field
            else:
                assert got_row[field] == want_row[field], field


# the stdout of the benchmark's sample argv at three seeds, and of a 5-spin
# graph, recorded before a graph shot held one sector label: outcome,count
# pairs, one per line
_SAMPLE_ARGV = ("sample -q --model graph --n {n} --pe 0.5 --beta 1 --g 0.02 --nt 200 "
                "--ncycle 5 --shots 256 --burnin 1 --seed {seed}")
_PINNED_SAMPLES = {
    (3, 0): "000,33 001,25 010,34 011,42 100,35 101,34 110,24 111,29",
    (3, 7): "000,27 001,30 010,40 011,43 100,27 101,18 110,27 111,44",
    (3, 11): "000,33 001,35 010,29 011,39 100,20 101,39 110,12 111,49",
    (5, 3): ("00000,3 00001,8 00010,8 00011,7 00100,7 00101,9 00110,10 "
             "00111,12 01000,13 01001,4 01010,17 01011,7 01100,12 01101,4 "
             "01110,16 01111,5 10000,10 10001,12 10010,8 10011,12 10100,4 "
             "10101,2 10110,4 10111,8 11000,8 11001,3 11010,2 11011,11 "
             "11100,9 11101,9 11110,8 11111,4"),
}


@pytest.mark.parametrize("n, seed", list(_PINNED_SAMPLES))
def test_main_sample_output_is_pinned(n, seed, capsys):
    assert main(_SAMPLE_ARGV.format(n=n, seed=seed).split()) == 0
    rows = _PINNED_SAMPLES[n, seed].split()
    assert capsys.readouterr().out == "".join(f"{row}\n" for row in ["outcome,count", *rows])


# the stdout of framed models' samples, with no burn-in (the measurement
# reads each shot at its start) and with two cycles, recorded before every
# shot named its labels: outcome,count pairs, one per line
_FRAMED_ARGV = ("sample -q --model {model} --beta 1 --g 0.05 --nt 40 --ncycle 4 "
                "--shots 256 --burnin {burnin} --seed 5")
_FRAMED_SAMPLES = {
    ("tfim --n 3 --hj 1", 0): "000,36 001,31 010,32 011,40 100,35 101,27 110,24 111,31",
    ("tfim --n 3 --hj 1", 2): "000,57 001,27 010,5 011,29 100,25 101,13 110,32 111,68",
    ("{ham}", 0): "00,67 01,72 10,62 11,55",
}


@pytest.mark.parametrize("model, burnin", list(_FRAMED_SAMPLES))
def test_main_framed_sample_output_is_pinned(model, burnin, tmp_path, capsys):
    ham = tmp_path / "model.ham"
    ham.write_text("0.7 ZZ\n-0.4 XI\n0.3 IY\n")
    argv = _FRAMED_ARGV.format(model=model.format(ham=ham), burnin=burnin).split()
    assert main(argv) == 0
    rows = _FRAMED_SAMPLES[model, burnin].split()
    assert capsys.readouterr().out == "".join(f"{row}\n" for row in ["outcome,count", *rows])


# ------------------------------------------------------- the option table

def _subcommand_flags() -> dict:
    sub = next(a for a in cli._parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {cmd: {s for a in p._actions for s in a.option_strings}
            for cmd, p in sub.choices.items()}


def test_subcommand_flag_sets_are_pinned():
    common = {"-h", "--help", "--config", "-q", "--quiet", "--beta", "--g",
              "--nt", "--ncycle",
              "--n", "--hj", "--pe", "--seed"}
    io = {"--format", "--out", "--workers"}
    assert _subcommand_flags() == {
        "thermalize": common | io | {"--model"},
        "sample": common | io | {"--model", "--shots", "--burnin"},
        "experiment": common | io | {"--mode", "--sweeps"},
        "validate": common | {"--model", "--epsilon"},
    }


def test_readme_flag_list_is_the_parsers():
    # each option of a subcommand, by any of its names, and nothing else
    sub = next(a for a in cli._parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {tuple(a.option_strings) for p in sub.choices.values() for a in p._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction)}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("\nFlags: ", 1)[1].split("\n\n", 1)[0]
    listed = set(re.findall(r"`(--?[a-z]+)", paragraph))
    assert listed <= {name for names in options for name in names}
    assert [names for names in options if listed.isdisjoint(names)] == []


_TEXT = st.text(alphabet="abcxyz0123456789._-/", min_size=1, max_size=8)
_NUMBER = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_CANDIDATE = st.one_of(_NUMBER, st.lists(_NUMBER, min_size=1, max_size=4).map(",".join), _TEXT)


@st.composite
def _valid_options(draw):
    """A subcommand, plus values its converters accept for some of its flags."""
    command = draw(st.sampled_from(["thermalize", "sample", "experiment", "validate"]))
    flags = sorted(f[2:] for f in _subcommand_flags()[command]
                   if f[2:] in cli._OPTIONS)
    values = {}
    for key in draw(st.lists(st.sampled_from(flags), unique=True, max_size=6)):
        opt = cli._OPTIONS[key]
        if opt.choices:
            values[key] = draw(st.sampled_from(opt.choices))
            continue
        values[key] = draw(_CANDIDATE.filter(lambda t, c=opt.convert: _accepts(c, t)))
    return command, values


def _accepts(convert, text) -> bool:
    try:
        convert(text)
    except ValueError:
        return False
    return True


@settings(max_examples=80, deadline=None)
@given(_valid_options())
def test_flag_and_config_file_give_same_options(tmp_path_factory, drawn):
    command, values = drawn
    base = [command] + (["tfim"] if command == "experiment" else [])
    if "beta" not in values:
        base += ["--beta", "1"]
    from_flags = parse_args(base + [f"--{k}={v}" for k, v in values.items()])
    conf = tmp_path_factory.mktemp("conf") / "run.conf"
    conf.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    from_file = parse_args(base + ["--config", str(conf)])
    assert from_flags.options == from_file.options
