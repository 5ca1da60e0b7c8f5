import csv
import json

import pytest

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
    # h/J = 1e308 passes the plan's finiteness check but overflows the
    # spectral width to inf, so that point fails while it runs
    code = main([
        "experiment", "tfim", "-q", "--n", "1", "--hj", "1,1e308", "--beta", "0.5",
        "--nt", "30", "--ncycle", "8", "--out", str(out),
    ])
    assert code == 1
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert [bool(row["error"]) for row in rows] == [False, True]
    assert "1 of 2 sweep points failed" in capsys.readouterr().err


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


def test_main_bad_output_path_is_runtime_error(tmp_path):
    code = main([
        "thermalize", "-q", "--model", "tfim", "--n", "1", "--beta", "1",
        "--g", "0.05", "--nt", "50", "--ncycle", "10",
        "--out", str(tmp_path / "missing_dir" / "row.csv"),
    ])
    assert code == 1


def test_main_missing_beta_exit_code():
    assert main(["thermalize", "--model", "tfim", "--n", "1"]) == 2
