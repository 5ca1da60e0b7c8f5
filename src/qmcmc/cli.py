"""Command-line front end.

Commands: ``thermalize`` (steady state and metrics for one model),
``sample`` (shot-based sampler), ``experiment tfim|magnetization|graph``
(sweeps), and ``validate`` (pre-flight parameter checks only).

A config file (``--config``) holds one ``key = value`` per line with ``#``
comments, keys mirroring flag names; explicit flags override file values.
Energies are quoted in units of the chain coupling J and times in 1/J; graph
models carry absolute weights, so there g and beta are absolute.

Exit codes: 0 success, 1 runtime or I/O failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
import time

import numpy as np

from .channel import build_cycle_map, spectral_gap, steady_state
from .errors import EmptyResult, QmcmcError, UnknownKey, UsageError
from .experiments import (
    ExperimentKind,
    ExperimentPlan,
    ResultRow,
    RESULT_FIELDS,
    generate_er_instance,
    protocol_config,
    row_to_dict,
    run_plan,
)
from .hamiltonians import (
    HamiltonianSpec,
    build_graph_ising,
    build_tfim,
    gibbs_distribution,
    load_hamiltonian,
    thermal_state,
    to_matrix,
)
from .linalg import hermitian_eig
from .observables import fidelity, transverse_magnetization, tvd
from .schedule import ProtocolConfig, suggest_trotter_steps, validate_hierarchy
from .trajectory import SampleSet, sample_gibbs


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


# key -> (converter, default); config-file keys mirror these flag names
_KEYS = {
    "model": (str, "tfim"),
    "n": (_int_list, (2,)),
    "hj": (_float_list, (1.0,)),
    "jj": (float, 1.0),
    "beta": (_float_list, None),
    "g": (float, 0.005),
    "nt": (int, None),
    "ncycle": (int, None),
    "pe": (_float_list, (0.4,)),
    "seed": (int, 0),
    "shots": (int, 1000),
    "burnin": (int, 20),
    "format": (str, "csv"),
    "out": (str, None),
    "workers": (int, None),
    "qubit-cap": (int, 12),
    "hierarchy-threshold": (float, 10.0),
    "mode": (str, "steady_state"),
    "sweeps": (int, 20),
    "epsilon": (float, 0.1),
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Parsed and merged invocation: one command plus its option values."""

    command: str
    experiment_kind: str | None
    options: dict
    config_path: str | None
    output_format: str
    out: str | None
    verbosity: int


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    spec = {
        "model": dict(help="tfim, graph, or a Hamiltonian file path"),
        "n": dict(type=str, help="system size(s), comma separated"),
        "hj": dict(type=str, help="transverse field(s) h/J, comma separated"),
        "jj": dict(type=float, help="chain coupling J (energy unit)"),
        "beta": dict(type=str, help="inverse temperature(s) beta*J, comma separated"),
        "g": dict(type=float, help="system-ancilla coupling g/J"),
        "nt": dict(type=int, help="Trotter steps per period"),
        "ncycle": dict(type=int, help="periods per comb cycle"),
        "pe": dict(type=str, help="edge probability(ies), comma separated"),
        "seed": dict(type=int, help="master seed"),
        "shots": dict(type=int, help="number of measurement shots"),
        "burnin": dict(type=int, help="comb cycles before measuring"),
        "format": dict(choices=["csv", "json"], help="output format"),
        "out": dict(help="output file (default: stdout)"),
        "workers": dict(type=int, help="worker threads (env QMCMC_WORKERS)"),
        "qubit-cap": dict(type=int, help="max system+ancilla qubits"),
        "hierarchy-threshold": dict(type=float, help="factor counted as 'much less'"),
        "mode": dict(choices=["steady_state", "evolve"], help="algorithm column source"),
        "sweeps": dict(type=int, help="cycle-map applications in evolve mode"),
        "epsilon": dict(type=float, help="target Trotter error for the suggestion"),
    }
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress the hierarchy report")
    for name in names:
        parser.add_argument(f"--{name}", default=None, **spec[name])


_MODEL_FLAGS = ("model", "n", "hj", "jj", "pe", "seed")
_PROTO_FLAGS = ("beta", "g", "nt", "ncycle", "qubit-cap", "hierarchy-threshold")
_IO_FLAGS = ("format", "out", "workers")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parsing leaves no state on it, while
    building it anew per call would keep each copy's argparse state alive."""
    parser = argparse.ArgumentParser(
        prog="qmcmc",
        description="Spectral-combing thermalization: exact cycle maps and Gibbs sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thermalize", help="steady state and metrics for one model")
    _add_common(p, *_MODEL_FLAGS, *_PROTO_FLAGS, *_IO_FLAGS)

    p = sub.add_parser("sample", help="run the shot sampler")
    _add_common(p, *_MODEL_FLAGS, *_PROTO_FLAGS, "shots", "burnin", *_IO_FLAGS)

    p = sub.add_parser("experiment", help="run a sweep")
    p.add_argument("experiment_kind", choices=["tfim", "magnetization", "graph"])
    _add_common(p, "n", "hj", "jj", "pe", "seed", *_PROTO_FLAGS,
                "mode", "sweeps", *_IO_FLAGS)

    p = sub.add_parser("validate", help="hierarchy check and Trotter suggestion only")
    _add_common(p, *_MODEL_FLAGS, *_PROTO_FLAGS, "epsilon")

    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _KEYS:
                raise UnknownKey(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value.strip()
    return values


def parse_args(argv=None) -> RunConfig:
    """Parse flags, merge the optional config file, apply defaults.

    Precedence: explicit flag > config-file value > built-in default.
    Raises SystemExit(2) for malformed flags (argparse) and UsageError /
    UnknownKey for config problems.
    """
    ns = _parser().parse_args(argv)
    file_values = _read_config_file(ns.config) if ns.config else {}

    options = {}
    for key, (convert, default) in _KEYS.items():
        attr = key.replace("-", "_")
        flag_val = getattr(ns, attr, None)
        if flag_val is not None:
            options[key] = convert(flag_val) if isinstance(flag_val, str) else flag_val
        elif key in file_values:
            try:
                options[key] = convert(file_values[key])
            except ValueError as exc:
                raise UsageError(f"config key {key!r}: {exc}") from exc
        else:
            options[key] = default
    if options["workers"] is None and os.environ.get("QMCMC_WORKERS"):
        options["workers"] = int(os.environ["QMCMC_WORKERS"])

    command = ns.command
    kind = getattr(ns, "experiment_kind", None)
    if command in ("thermalize", "sample", "experiment") and options["beta"] is None:
        raise UsageError("missing required flag --beta")
    if command == "validate" and options["beta"] is None:
        options["beta"] = (1.0,)
    if options["nt"] is None:
        options["nt"] = 5000
    if options["ncycle"] is None:
        options["ncycle"] = 100 if kind == "graph" else 500
    if options["format"] not in ("csv", "json"):
        raise UsageError(f"unknown output format {options['format']!r}")

    return RunConfig(
        command=command,
        experiment_kind=kind,
        options=options,
        config_path=ns.config,
        output_format=options["format"],
        out=options["out"],
        verbosity=0 if ns.quiet else 1,
    )


def _fmt_float(value: float) -> str:
    return format(value, ".17g")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return _fmt_float(value)
    return str(value)


def emit_results(rows: list[ResultRow], output_format: str, sink) -> None:
    """Write rows as CSV (fixed header, LF endings, 17-significant-digit
    floats) or as a JSON array with identical keys per object."""
    if not rows:
        raise EmptyResult("no result rows to emit")
    own = isinstance(sink, (str, os.PathLike))
    fh = open(sink, "w", encoding="utf-8", newline="") if own else sink
    try:
        if output_format == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RESULT_FIELDS)
            for row in rows:
                writer.writerow([_cell(v) for v in row_to_dict(row).values()])
        else:
            fh.write(json.dumps([row_to_dict(r) for r in rows], indent=2))
            fh.write("\n")
    finally:
        if own:
            fh.close()


def emit_samples(samples: SampleSet, output_format: str, sink) -> None:
    """Write a sample set; CSV rows are (outcome, count) sorted by outcome."""
    own = isinstance(sink, (str, os.PathLike))
    fh = open(sink, "w", encoding="utf-8", newline="") if own else sink
    try:
        if output_format == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["outcome", "count"])
            for key in sorted(samples.counts):
                writer.writerow([key, samples.counts[key]])
        else:
            payload = {
                "shots": samples.shots,
                "seed": samples.seed,
                "counts": {k: samples.counts[k] for k in sorted(samples.counts)},
            }
            fh.write(json.dumps(payload, indent=2))
            fh.write("\n")
    finally:
        if own:
            fh.close()


def _resolve_model(options) -> tuple[HamiltonianSpec, float]:
    """Build the Hamiltonian named by --model; returns (spec, energy unit J)."""
    model = options["model"]
    n = options["n"][0]
    if model == "tfim":
        j = options["jj"]
        return build_tfim(n, j, options["hj"][0] * j), j
    if model == "graph":
        instance = generate_er_instance(n, options["pe"][0], options["seed"])
        return build_graph_ising(instance), 1.0
    return load_hamiltonian(model), 1.0


def _protocol_for(spec: HamiltonianSpec, options, j: float) -> ProtocolConfig:
    n = spec.qubit_count
    if 2 * n > options["qubit-cap"]:
        raise UsageError(
            f"{n} system + {n} ancilla qubits exceed --qubit-cap {options['qubit-cap']}"
        )
    return protocol_config(spec, options["g"] * j, options["beta"][0] / j,
                           options["nt"], options["ncycle"])


def _report_hierarchy(spec: HamiltonianSpec, cfg: ProtocolConfig,
                      threshold: float, verbosity: int, stream=None) -> None:
    if verbosity < 1:
        return
    stream = stream if stream is not None else sys.stderr
    h_s_norm = float(np.abs(hermitian_eig(to_matrix(spec)).eigenvalues).max())
    report = validate_hierarchy(cfg, h_s_norm, threshold)
    print(report.summary(), file=stream)


def _emit_rows(rows, run_cfg: RunConfig) -> None:
    if run_cfg.out:
        emit_results(rows, run_cfg.output_format, run_cfg.out)
    else:
        emit_results(rows, run_cfg.output_format, sys.stdout)


def _cmd_thermalize(run_cfg: RunConfig) -> int:
    o = run_cfg.options
    spec, j = _resolve_model(o)
    beta_j = o["beta"][0]
    cfg = _protocol_for(spec, o, j)
    _report_hierarchy(spec, cfg, o["hierarchy-threshold"], run_cfg.verbosity)
    t0 = time.perf_counter()
    cm = build_cycle_map(spec, cfg, workers=o["workers"])
    rho, lam1 = steady_state(cm)
    gap, _ = spectral_gap(cm)
    rho_th = thermal_state(spec, cfg.beta)
    row = ResultRow(
        kind="thermalize", n_s=spec.qubit_count, j=j,
        h=o["hj"][0] * j if o["model"] == "tfim" else None,
        beta=beta_j, p_e=o["pe"][0] if o["model"] == "graph" else None,
        instance_seed=o["seed"] if o["model"] == "graph" else None,
        g=o["g"], n_trotter=cfg.n_trotter, n_cycle=cfg.n_cycle, mode=None,
        infidelity=1.0 - fidelity(rho_th, rho),
        magnetization_exact=transverse_magnetization(rho_th, spec.qubit_count),
        magnetization_algorithm=transverse_magnetization(rho, spec.qubit_count),
        spectral_gap=gap,
        lambda_dev=abs(lam1 - 1.0),
        wall_time=time.perf_counter() - t0,
    )
    row.magnetization_error = abs(row.magnetization_exact - row.magnetization_algorithm)
    if spec.is_diagonal:
        row.tvd = tvd(np.diag(rho).real, gibbs_distribution(spec, cfg.beta))
    _emit_rows([row], run_cfg)
    return 0


def _cmd_sample(run_cfg: RunConfig) -> int:
    o = run_cfg.options
    spec, j = _resolve_model(o)
    cfg = _protocol_for(spec, o, j)
    _report_hierarchy(spec, cfg, o["hierarchy-threshold"], run_cfg.verbosity)
    samples = sample_gibbs(spec, cfg, o["burnin"], o["shots"], o["seed"],
                           workers=o["workers"])
    if run_cfg.out:
        emit_samples(samples, run_cfg.output_format, run_cfg.out)
    else:
        emit_samples(samples, run_cfg.output_format, sys.stdout)
    return 0


def _cmd_experiment(run_cfg: RunConfig) -> int:
    o = run_cfg.options
    kind = {
        "tfim": ExperimentKind.TFIM_INFIDELITY,
        "magnetization": ExperimentKind.MAGNETIZATION_SWEEP,
        "graph": ExperimentKind.GRAPH_SAMPLING,
    }[run_cfg.experiment_kind]
    try:
        plan = ExperimentPlan(
            kind=kind, n_list=o["n"], beta=o["beta"], h_over_j=o["hj"],
            p_e=o["pe"], j=o["jj"], g=o["g"], n_trotter=o["nt"],
            n_cycle=o["ncycle"], seed=o["seed"], qubit_cap=o["qubit-cap"],
            mode=o["mode"], n_sweeps=o["sweeps"], workers=o["workers"],
            output_path=o["out"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if run_cfg.verbosity >= 1:
        n0 = plan.n_list[0]
        if kind is ExperimentKind.GRAPH_SAMPLING:
            spec = build_graph_ising(generate_er_instance(n0, plan.p_e[0], plan.seed))
            j = 1.0  # graph weights are absolute
        else:
            spec = build_tfim(n0, plan.j, plan.h_over_j[0] * plan.j)
            j = plan.j
        cfg = protocol_config(spec, plan.g * j, plan.beta[0] / j,
                              plan.n_trotter, plan.n_cycle)
        _report_hierarchy(spec, cfg, o["hierarchy-threshold"], run_cfg.verbosity)
    rows = run_plan(plan)
    _emit_rows(rows, run_cfg)
    failed = sum(1 for row in rows if row.error)
    if failed:
        print(f"error: {failed} of {len(rows)} sweep points failed", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(run_cfg: RunConfig) -> int:
    o = run_cfg.options
    spec, j = _resolve_model(o)
    cfg = _protocol_for(spec, o, j)
    _report_hierarchy(spec, cfg, o["hierarchy-threshold"], 1, stream=sys.stdout)
    h_s = to_matrix(spec)
    h_s_norm = float(np.abs(hermitian_eig(h_s).eigenvalues).max())
    m = cfg.m_count
    lam = max(m * cfg.g, h_s_norm, m * cfg.omega_m / 2.0)
    steps = suggest_trotter_steps(cfg.t_g, lam, o["epsilon"])
    print(f"Lambda = max(||H_i||, ||H_s||, ||H_b||) = {lam:.6g}")
    print(f"suggested Trotter steps for error {o['epsilon']:g}: {steps}")
    print(f"configured n_trotter: {cfg.n_trotter}")
    return 0


def main(argv=None) -> int:
    try:
        run_cfg = parse_args(argv)
    except (UsageError, UnknownKey) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dispatch = {
        "thermalize": _cmd_thermalize,
        "sample": _cmd_sample,
        "experiment": _cmd_experiment,
        "validate": _cmd_validate,
    }
    try:
        return dispatch[run_cfg.command](run_cfg)
    except (UsageError, UnknownKey) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QmcmcError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
