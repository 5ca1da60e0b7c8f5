"""Self-tests of the benchmark: output checks, tracer hygiene, declarations.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from qmcmc import cli  # noqa: E402
from qmcmc.experiments import RESULT_FIELDS  # noqa: E402

GOOD_ROW = {"kind": "thermalize", "n_s": "4", "lambda_dev": "1.8e-10",
            "infidelity": repr(workloads.CHAIN4_INFIDELITY), "tvd": "0.1", "error": ""}
EXTRA = {"channel.build_period_unitary.s": 1e-3, "trace.wall_s": 1.0,
         "trace.untraced_wall_s": 1.0, "trace.overhead_s": 0.0}


def result_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, RESULT_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({f: row.get(f, "") for f in RESULT_FIELDS})
    return buf.getvalue()


def samples_csv(counts: dict[str, int]) -> str:
    return "outcome,count\n" + "".join(f"{k},{v}\n" for k, v in sorted(counts.items()))


def test_thermalize_check_accepts_the_reference_row():
    assert workloads.check_thermalize(0, result_csv([GOOD_ROW])) is None


@pytest.mark.parametrize("code, rows", [
    (0, [{**GOOD_ROW, "error": "NoUnitEigenvalue: degenerate"}]),
    (0, [{**GOOD_ROW, "infidelity": "0.0068434"}]),
    (0, [{**GOOD_ROW, "lambda_dev": "2e-6"}]),
    (0, [GOOD_ROW, GOOD_ROW]),
    (1, [GOOD_ROW]),
])
def test_thermalize_check_rejects_corrupted_output(code, rows):
    assert workloads.check_thermalize(code, result_csv(rows)) is not None


def test_sweep_check_counts_any_failed_point():
    rows = [dict(GOOD_ROW) for _ in range(workloads.SWEEP_POINTS)]
    assert workloads.check_sweep(0, result_csv(rows)) is None
    rows[5]["error"] = "CompletenessViolation: sum K^dag K deviates"
    assert "1 of 12 points failed" in workloads.check_sweep(0, result_csv(rows))
    assert workloads.check_sweep(0, result_csv(rows[:-1])) is not None


REFERENCE = np.array([0.1, 0.15, 0.05, 0.2, 0.05, 0.15, 0.1, 0.2])


def test_sample_check_accepts_ideal_samplers():
    rng = np.random.default_rng(0)
    for _ in range(200):
        draws = rng.multinomial(256, REFERENCE)
        counts = {format(i, "03b"): int(c) for i, c in enumerate(draws) if c}
        assert workloads.check_sample(0, samples_csv(counts), REFERENCE, 256) is None


@pytest.mark.parametrize("counts", [
    {"000": 26, "001": 38, "010": 13, "011": 51, "100": 13, "101": 38, "110": 26, "111": 50},
    {"000": 256},
    {"000": 26, "001": 38, "010": 13, "011": 51, "100": 13, "101": 38, "110": 26, "1111": 51},
])
def test_sample_check_rejects_corrupted_counts(counts):
    assert workloads.check_sample(0, samples_csv(counts), REFERENCE, 256) is not None


def qmcmc_attributes() -> dict:
    return {(name, attr): obj for name, mod in sys.modules.items()
            if name == "qmcmc" or name.startswith("qmcmc.")
            for attr, obj in vars(mod).items()}


def test_traced_run_leaves_module_attributes_identical():
    before = qmcmc_attributes()
    argv = ["thermalize", "-q", "--model", "tfim", "--n", "2", "--beta", "1",
            "--g", "0.05", "--nt", "50", "--ncycle", "10"]
    with tracer.Tracer() as tr, contextlib.redirect_stdout(io.StringIO()):
        assert sys.modules["qmcmc.cli"].build_cycle_map is not before[("qmcmc.cli", "build_cycle_map")]
        assert cli.main(argv) == 0
    after = qmcmc_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tr.calls["cli.main"] == 1 and tr.calls["channel.build_cycle_map"] == 1
    assert sum(tr.self_s.values()) == pytest.approx(tr.total_s["cli.main"], rel=1e-9)
    values, absent = tracer.layer_metrics(tr, EXTRA)
    assert absent == []
    assert values["channel.distinct_omega_ratio"] == pytest.approx(6 / 10)


def test_self_time_stacks_are_per_thread(monkeypatch):
    channel = sys.modules["qmcmc.channel"]
    barrier = threading.Barrier(2, timeout=10)

    def inner():
        barrier.wait()  # both threads are inside wrapped calls at once
        time.sleep(0.01)

    def outer():
        channel.to_superoperator()

    def other():
        barrier.wait()

    for fn, name in ((inner, "to_superoperator"), (outer, "build_cycle_map"),
                     (other, "spectral_gap")):
        fn.__module__, fn.__qualname__ = "qmcmc.channel", name
        monkeypatch.setattr(channel, name, fn)
    with tracer.Tracer() as tr:
        threads = [threading.Thread(target=channel.build_cycle_map),
                   threading.Thread(target=channel.spectral_gap)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    # each thread's top-level call accounts for its own time, and only for it
    top_level = tr.total_s["channel.build_cycle_map"] + tr.total_s["channel.spectral_gap"]
    assert sum(tr.self_s.values()) == pytest.approx(top_level, rel=1e-9)
    assert tr.self_s["channel.to_superoperator"] == tr.total_s["channel.to_superoperator"]


def test_missing_function_is_reported_absent(monkeypatch):
    for name in ("qmcmc", "qmcmc.channel", "qmcmc.cli", "qmcmc.experiments"):
        monkeypatch.delattr(sys.modules[name], "spectral_gap")
    with tracer.Tracer() as tr:
        pass
    values, absent = tracer.layer_metrics(tr, EXTRA)
    assert absent == ["channel.spectral_gap.s"]
    assert values["channel.spectral_gap.s"] == 0.0


def test_observer_mismatch_is_recorded_not_raised(monkeypatch):
    def fake(spec, cfg, workers=None):
        return types.SimpleNamespace()  # lacks the fields the observer reads

    fake.__module__, fake.__qualname__ = "qmcmc.channel", "build_cycle_map"
    monkeypatch.setattr(sys.modules["qmcmc.channel"], "build_cycle_map", fake)
    with tracer.Tracer() as tr:
        sys.modules["qmcmc.channel"].build_cycle_map(None, None)
    assert any(note.startswith("channel.build_cycle_map") for note in tr.unobserved)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    values, _ = tracer.layer_metrics(tracer.Tracer(), EXTRA)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(values)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_graph", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
