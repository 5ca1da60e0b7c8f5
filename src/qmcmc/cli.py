"""Command-line front end.

Commands: ``thermalize`` (steady state and metrics for one model),
``sample`` (shot-based sampler), ``experiment tfim|magnetization|graph``
(sweeps), and ``validate`` (pre-flight parameter checks only).

A config file (``--config``) holds one ``key = value`` per line with ``#``
comments, keys mirroring flag names; explicit flags override file values.
Energies are quoted in units of the chain coupling J and times in 1/J; graph
models carry absolute weights, so there g and beta are absolute.

Exit codes: 0 success; 2 for a bad value from a flag, a config file or
``QMCMC_WORKERS``, or a model or protocol that refuses its parameters; 1 for
a failure during computation or I/O.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import os
import sys
import time
from typing import Callable, NamedTuple

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
    run_plan,
    score_steady_state,
)
from .hamiltonians import (
    HamiltonianSpec,
    build_graph_ising,
    build_tfim,
    load_hamiltonian,
    to_matrix,
)
from .linalg import hermitian_eig
from .schedule import ProtocolConfig, suggest_trotter_steps, validate_hierarchy
from .trajectory import SampleSet, sample_gibbs


def _list_of(convert: Callable) -> Callable:
    """Converter for a comma-separated list of ``convert`` values; an empty
    list is refused."""
    def parse(text: str) -> tuple:
        values = tuple(convert(tok) for tok in text.split(",") if tok.strip())
        if not values:
            raise ValueError(f"empty list {text!r}")
        return values

    parse.__name__ = f"{convert.__name__} list"  # argparse names it in errors
    return parse


def _checked(convert: Callable, name: str, ok: Callable) -> Callable:
    """``convert``, refusing values for which ``ok`` is false."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise ValueError(f"{value!r} is not a {name}")
        return value

    parse.__name__ = name
    return parse


class _Option(NamedTuple):
    convert: Callable
    default: object
    help: str
    choices: tuple | None = None


# The one definition of every option. Flags, config-file keys and the
# QMCMC_WORKERS fallback all convert through it; config keys are these names.
_OPTIONS = {
    "model": _Option(str, "tfim", "tfim, graph, or a Hamiltonian file path"),
    "n": _Option(_list_of(int), (2,), "system size(s), comma separated"),
    "hj": _Option(_list_of(float), (1.0,), "transverse field(s) h/J, comma separated"),
    "jj": _Option(float, 1.0, "chain coupling J (energy unit)"),
    "beta": _Option(_list_of(float), None, "inverse temperature(s) beta*J, comma separated"),
    "g": _Option(float, 0.005, "system-ancilla coupling g/J"),
    "nt": _Option(int, 5000, "Trotter steps per period"),
    "ncycle": _Option(int, None, "periods per comb cycle"),
    "pe": _Option(_list_of(float), (0.4,), "edge probability(ies), comma separated"),
    "seed": _Option(int, 0, "master seed"),
    "shots": _Option(_checked(int, "positive int", lambda v: v > 0), 1000,
                     "number of measurement shots"),
    "burnin": _Option(_checked(int, "non-negative int", lambda v: v >= 0), 20,
                      "comb cycles before measuring"),
    "format": _Option(str, "csv", "output format", ("csv", "json")),
    "out": _Option(str, None, "output file (default: stdout)"),
    "workers": _Option(_checked(int, "positive int", lambda v: v > 0), None,
                       "worker threads (env QMCMC_WORKERS)"),
    "qubit-cap": _Option(int, 12, "max system+ancilla qubits"),
    "hierarchy-threshold": _Option(float, 10.0, "factor counted as 'much less'"),
    "mode": _Option(str, "steady_state", "algorithm column source",
                    ("steady_state", "evolve")),
    "sweeps": _Option(int, None, "cycle-map applications in evolve mode (default 20)"),
    "epsilon": _Option(_checked(float, "positive float", lambda v: v > 0), 0.1,
                       "target Trotter error for the suggestion"),
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Parsed and merged invocation: one command plus its option values."""

    command: str
    experiment_kind: str | None
    options: dict
    verbosity: int


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress the hierarchy report")
    for name in names:
        opt = _OPTIONS[name]
        parser.add_argument(f"--{name}", type=opt.convert, default=None,
                            choices=opt.choices, help=opt.help)


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


def _convert(key: str, text: str, where: str):
    """Convert a config-file or environment value exactly as its flag is."""
    opt = _OPTIONS[key]
    try:
        value = opt.convert(text)
    except ValueError:
        raise UsageError(f"{where}: invalid {opt.convert.__name__} value: {text!r}") from None
    if opt.choices and value not in opt.choices:
        raise UsageError(f"{where}: invalid choice: {value!r} "
                         f"(choose from {', '.join(opt.choices)})")
    return value


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
            if key not in _OPTIONS:
                raise UnknownKey(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _convert(key, value.strip(), f"{path}:{lineno}: config key {key!r}")
    return values


def parse_args(argv=None) -> RunConfig:
    """Parse flags, merge the optional config file, apply defaults.

    Precedence: explicit flag > config-file value > built-in default.
    Raises SystemExit(2) for malformed flags (argparse) and UsageError /
    UnknownKey for config-file or QMCMC_WORKERS problems.
    """
    ns = _parser().parse_args(argv)
    file_values = _read_config_file(ns.config) if ns.config else {}

    options = {}
    for key, opt in _OPTIONS.items():
        flag_val = getattr(ns, key.replace("-", "_"), None)
        options[key] = flag_val if flag_val is not None else file_values.get(key, opt.default)
    if options["workers"] is None and os.environ.get("QMCMC_WORKERS"):
        options["workers"] = _convert("workers", os.environ["QMCMC_WORKERS"], "QMCMC_WORKERS")

    command = ns.command
    kind = getattr(ns, "experiment_kind", None)
    if command in ("thermalize", "sample", "experiment") and options["beta"] is None:
        raise UsageError("missing required flag --beta")
    if command == "validate" and options["beta"] is None:
        options["beta"] = (1.0,)
    if options["ncycle"] is None:
        options["ncycle"] = 100 if kind == "graph" else 500

    return RunConfig(
        command=command,
        experiment_kind=kind,
        options=options,
        verbosity=0 if ns.quiet else 1,
    )


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


@contextlib.contextmanager
def _opened(sink):
    """A path is opened for writing (and closed); a stream is used as is."""
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield sink


def emit_results(rows: list[ResultRow], output_format: str, sink) -> None:
    """Write rows as CSV (fixed header, LF endings, 17-significant-digit
    floats) or as a JSON array with identical keys per object."""
    if not rows:
        raise EmptyResult("no result rows to emit")
    with _opened(sink) as fh:
        if output_format == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RESULT_FIELDS)
            for row in rows:
                writer.writerow([_cell(v) for v in dataclasses.asdict(row).values()])
        else:
            fh.write(json.dumps([dataclasses.asdict(r) for r in rows], indent=2))
            fh.write("\n")


def emit_samples(samples: SampleSet, output_format: str, sink) -> None:
    """Write a sample set; CSV rows are (outcome, count) sorted by outcome."""
    with _opened(sink) as fh:
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


def _resolve_model(model: str, options) -> tuple[HamiltonianSpec, float]:
    """Build the Hamiltonian named by ``model``; returns (spec, energy unit J)."""
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


# List options of which the single-point commands take exactly one value.
_POINT_LISTS = ("n", "hj", "beta", "pe")


def _prepare(run_cfg: RunConfig):
    """The entry step of every command: (spec, J, protocol config, plan).

    The plan is built for ``experiment`` only, whose spec and config are
    those of the sweep's first point; the other commands run one point and
    refuse a list option with more than one value. A ValueError or package
    error raised here is a usage error; an OSError (say, an unreadable model
    file) is not.
    """
    o = run_cfg.options
    kind = run_cfg.experiment_kind
    try:
        plan = None
        model = o["model"]
        if run_cfg.command == "experiment":
            plan = ExperimentPlan(
                kind=ExperimentKind(kind), n_list=o["n"], beta=o["beta"],
                h_over_j=o["hj"], p_e=o["pe"], j=o["jj"], g=o["g"],
                n_trotter=o["nt"], n_cycle=o["ncycle"], seed=o["seed"],
                qubit_cap=o["qubit-cap"], mode=o["mode"], n_sweeps=o["sweeps"],
                workers=o["workers"],
            )
            model = "graph" if kind == "graph" else "tfim"
        else:
            for key in _POINT_LISTS:
                if len(o[key]) > 1:
                    raise UsageError(f"--{key} takes one value for {run_cfg.command}, "
                                     f"got {len(o[key])}")
        spec, j = _resolve_model(model, o)
        return spec, j, _protocol_for(spec, o, j), plan
    except (ValueError, QmcmcError) as exc:
        raise UsageError(str(exc)) from exc


def _report_hierarchy(spec: HamiltonianSpec, cfg: ProtocolConfig,
                      threshold: float, stream) -> float:
    """Print the rate-hierarchy report; returns ||H_s||, its largest
    |eigenvalue|."""
    h_s_norm = float(np.abs(hermitian_eig(to_matrix(spec))[0]).max())
    report = validate_hierarchy(cfg, h_s_norm, threshold)
    print(report.summary(), file=stream)
    return h_s_norm


def _cmd_thermalize(run_cfg: RunConfig, spec, j, cfg, plan) -> int:
    o = run_cfg.options
    if run_cfg.verbosity:
        _report_hierarchy(spec, cfg, o["hierarchy-threshold"], sys.stderr)
    t0 = time.perf_counter()
    cm = build_cycle_map(spec, cfg, workers=o["workers"])
    rho, lam1 = steady_state(cm)
    gap, _ = spectral_gap(cm)
    row = ResultRow(
        kind="thermalize", n_s=spec.qubit_count, j=j,
        h=o["hj"][0] * j if o["model"] == "tfim" else None,
        beta=o["beta"][0], p_e=o["pe"][0] if o["model"] == "graph" else None,
        instance_seed=o["seed"] if o["model"] == "graph" else None,
        g=o["g"], n_trotter=cfg.n_trotter, n_cycle=cfg.n_cycle, mode=None,
        spectral_gap=gap, lambda_dev=abs(lam1 - 1.0),
    )
    metrics = ("infidelity", "magnetization") + (("tvd",) if spec.is_diagonal else ())
    score_steady_state(row, spec, cfg.beta, rho, metrics)
    row.wall_time = time.perf_counter() - t0
    emit_results([row], o["format"], o["out"] or sys.stdout)
    return 0


def _cmd_sample(run_cfg: RunConfig, spec, j, cfg, plan) -> int:
    o = run_cfg.options
    if run_cfg.verbosity:
        _report_hierarchy(spec, cfg, o["hierarchy-threshold"], sys.stderr)
    samples = sample_gibbs(spec, cfg, o["burnin"], o["shots"], o["seed"],
                           workers=o["workers"])
    emit_samples(samples, o["format"], o["out"] or sys.stdout)
    return 0


def _cmd_experiment(run_cfg: RunConfig, spec, j, cfg, plan) -> int:
    o = run_cfg.options
    if run_cfg.verbosity:
        _report_hierarchy(spec, cfg, o["hierarchy-threshold"], sys.stderr)
    rows = run_plan(plan)
    emit_results(rows, o["format"], o["out"] or sys.stdout)
    failed = sum(1 for row in rows if row.error)
    if failed:
        print(f"error: {failed} of {len(rows)} sweep points failed", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(run_cfg: RunConfig, spec, j, cfg, plan) -> int:
    o = run_cfg.options
    h_s_norm = _report_hierarchy(spec, cfg, o["hierarchy-threshold"], sys.stdout)
    m = cfg.m_count
    lam = max(m * cfg.g, h_s_norm, m * cfg.omega_m / 2.0)
    steps = suggest_trotter_steps(cfg.t_g, lam, o["epsilon"])
    print(f"Lambda = max(||H_i||, ||H_s||, ||H_b||) = {lam:.6g}")
    print(f"suggested Trotter steps for error {o['epsilon']:g}: {steps}")
    print(f"configured n_trotter: {cfg.n_trotter}")
    return 0


def main(argv=None) -> int:
    dispatch = {
        "thermalize": _cmd_thermalize,
        "sample": _cmd_sample,
        "experiment": _cmd_experiment,
        "validate": _cmd_validate,
    }
    try:
        run_cfg = parse_args(argv)
        return dispatch[run_cfg.command](run_cfg, *_prepare(run_cfg))
    except (UsageError, UnknownKey) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QmcmcError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
