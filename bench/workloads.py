"""Workloads of the qmcmc benchmark and the checks on each operation's output.

One operation is one ``qmcmc.cli.main(argv)`` call with ``-q``; its standard
output is checked, and a check that fails counts the operation as failed
(``error_rate``). Set-up (``make``) imports the package and builds
everything an operation needs, including the exact reference distribution
of ``sample_graph3``, so none of that is timed as part of an operation.

The workload seed reaches the program only through the CLI ``--seed`` flag.
``thermalize_chain4`` has no random input, so its inputs are the same for
every seed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qmcmc import (
    ProtocolConfig,
    build_cycle_map,
    build_graph_ising,
    build_tfim,
    comb_value,
    generate_er_instance,
    spectral_width,
)

# Operations are kept short (half a second to a second) by cutting the comb
# to fewer periods (--ncycle), so that a run holds dozens of them and its
# median does not hang on a few operations; sizes and every other flag are
# those of the reference points.
CHAIN4_NCYCLE = 20
SWEEP_NCYCLE = 50

# Infidelity of the n_s = 4 chain at CHAIN4_NCYCLE at the commit that defined
# this benchmark; exact-path changes must keep it to this tolerance.
CHAIN4_INFIDELITY = 0.13792274634093526
INFIDELITY_RTOL = 1e-6
LAMBDA_DEV_MAX = 1e-6
# Chance that an ideal sampler's TVD exceeds the shot-noise bound below.
SHOT_NOISE_DELTA = 1e-6

SWEEP_N = (2, 3)
SWEEP_PE = (0.4, 0.8)
SWEEP_BETA = (10.0, 1.0, 0.1)
SWEEP_POINTS = len(SWEEP_N) * len(SWEEP_PE) * len(SWEEP_BETA)

SAMPLE_N, SAMPLE_PE, SAMPLE_BETA, SAMPLE_G = 3, 0.5, 1.0, 0.02
SAMPLE_NT, SAMPLE_NCYCLE, SAMPLE_SHOTS, SAMPLE_BURNIN = 200, 5, 256, 1


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload.

    ``check(exit_code, stdout)`` returns None for a correct operation and a
    reason otherwise. ``probe()`` returns ``(spec, cfg)`` of the model the
    workload runs; the traced run times the public W(Omega) on it.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable[[int, str], str | None]
    probe: Callable[[], tuple]


def _csv_rows(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


def _protocol(spec, g: float, beta: float, nt: int, ncycle: int) -> ProtocolConfig:
    """The config the CLI builds for a model with energy unit J = 1."""
    return ProtocolConfig(g=g, beta=beta, omega_m=spectral_width(spec),
                          n_trotter=nt, n_cycle=ncycle,
                          ancilla_map=tuple(range(spec.qubit_count)))


def check_thermalize(code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    rows = _csv_rows(out)
    if len(rows) != 1:
        return f"{len(rows)} rows, expected 1"
    row = rows[0]
    if row["error"]:
        return f"row error: {row['error']}"
    lam_dev = float(row["lambda_dev"])
    if not lam_dev < LAMBDA_DEV_MAX:
        return f"lambda_dev {lam_dev:.3e} >= {LAMBDA_DEV_MAX:g}"
    infid = float(row["infidelity"])
    if not math.isclose(infid, CHAIN4_INFIDELITY, rel_tol=INFIDELITY_RTOL):
        return f"infidelity {infid!r}, expected {CHAIN4_INFIDELITY!r}"
    return None


def check_sweep(code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    rows = _csv_rows(out)
    if len(rows) != SWEEP_POINTS:
        return f"{len(rows)} rows, expected {SWEEP_POINTS}"
    failed = [row for row in rows if row["error"]]
    if failed:
        return f"{len(failed)} of {len(rows)} points failed: {failed[0]['error']}"
    for row in rows:
        if not float(row["lambda_dev"]) < LAMBDA_DEV_MAX:
            return f"lambda_dev {row['lambda_dev']} >= {LAMBDA_DEV_MAX:g}"
        if not 0.0 <= float(row["tvd"]) <= 1.0:
            return f"tvd {row['tvd']} outside [0, 1]"
    return None


def shot_noise_bound(shots: int, outcomes: int, delta: float = SHOT_NOISE_DELTA) -> float:
    """TVD that an ideal sampler exceeds with probability at most ``delta``.

    Bretagnolle-Huber-Carol: ``P(||p_hat - p||_1 >= 2t) <= (2^k - 2)
    exp(-2 N t^2)`` for ``k`` outcomes and ``N`` shots, solved for ``t``.
    """
    return math.sqrt(math.log((2.0**outcomes - 2.0) / delta) / (2.0 * shots))


def check_sample(code: int, out: str, reference: np.ndarray, shots: int) -> str | None:
    if code != 0:
        return f"exit code {code}"
    n = int(round(math.log2(len(reference))))
    observed = np.zeros(len(reference))
    for row in _csv_rows(out):
        outcome = row["outcome"]
        if len(outcome) != n or set(outcome) - {"0", "1"}:
            return f"outcome {outcome!r} is not a {n}-bit string"
        observed[int(outcome, 2)] += int(row["count"])
    total = int(observed.sum())
    if total != shots:
        return f"counts sum to {total}, expected {shots}"
    dist = 0.5 * float(np.abs(observed / shots - reference).sum())
    bound = shot_noise_bound(shots, len(reference))
    if dist > bound:
        return f"TVD {dist:.4f} to the exact distribution exceeds shot-noise bound {bound:.4f}"
    return None


def sample_reference(spec, cfg: ProtocolConfig, burnin: int) -> np.ndarray:
    """Outcome distribution diag(Lambda^burnin(I/d)) from the exact cycle
    map: shots start in uniformly random basis states, i.e. from I/d."""
    d = 2**spec.qubit_count
    superop = build_cycle_map(spec, cfg).superoperator
    rho = np.eye(d, dtype=complex) / d
    for _ in range(burnin):
        rho = superop.apply(rho)
    return np.clip(np.diag(rho).real, 0.0, None)


def _thermalize_chain4(seed: int) -> Workload:
    argv = ("thermalize", "-q", "--model", "tfim", "--n", "4", "--hj", "1",
            "--beta", "10", "--g", "0.005", "--nt", "5000", "--ncycle", str(CHAIN4_NCYCLE))

    def probe():
        spec = build_tfim(4, 1.0, 1.0)
        return spec, _protocol(spec, 0.005, 10.0, 5000, CHAIN4_NCYCLE)

    return Workload("thermalize_chain4", argv, check_thermalize, probe)


def _sweep_graph(seed: int) -> Workload:
    def joined(values):
        return ",".join(f"{v:g}" for v in values)

    argv = ("experiment", "graph", "-q", "--n", joined(SWEEP_N),
            "--pe", joined(SWEEP_PE), "--beta", joined(SWEEP_BETA),
            "--seed", str(seed), "--g", "0.005", "--nt", "5000",
            "--ncycle", str(SWEEP_NCYCLE))

    def probe():
        # the sweep's largest point: last (n, p_e) pair, instance seed + 3
        n, p_e = SWEEP_N[-1], SWEEP_PE[-1]
        pair_index = len(SWEEP_N) * len(SWEEP_PE) - 1
        spec = build_graph_ising(generate_er_instance(n, p_e, seed + pair_index))
        return spec, _protocol(spec, 0.005, SWEEP_BETA[0], 5000, SWEEP_NCYCLE)

    return Workload("sweep_graph", argv, check_sweep, probe)


def _sample_graph3(seed: int) -> Workload:
    argv = ("sample", "-q", "--model", "graph", "--n", str(SAMPLE_N),
            "--pe", f"{SAMPLE_PE:g}", "--beta", f"{SAMPLE_BETA:g}",
            "--g", f"{SAMPLE_G:g}", "--nt", str(SAMPLE_NT),
            "--ncycle", str(SAMPLE_NCYCLE), "--shots", str(SAMPLE_SHOTS),
            "--burnin", str(SAMPLE_BURNIN), "--seed", str(seed))
    spec = build_graph_ising(generate_er_instance(SAMPLE_N, SAMPLE_PE, seed))
    cfg = _protocol(spec, SAMPLE_G, SAMPLE_BETA, SAMPLE_NT, SAMPLE_NCYCLE)
    reference = sample_reference(spec, cfg, SAMPLE_BURNIN)

    def check(code: int, out: str) -> str | None:
        return check_sample(code, out, reference, SAMPLE_SHOTS)

    return Workload("sample_graph3", argv, check, lambda: (spec, cfg))


WORKLOADS = {
    "thermalize_chain4": _thermalize_chain4,
    "sweep_graph": _sweep_graph,
    "sample_graph3": _sample_graph3,
}


def make(name: str, seed: int) -> Workload:
    """Set up workload ``name`` for ``seed``."""
    return WORKLOADS[name](seed)


def probe_omegas(cfg: ProtocolConfig) -> list[float]:
    """Three of the workload's own comb values, spread over the sweep."""
    return [comb_value(cfg, k) for k in
            (cfg.n_cycle // 6, cfg.n_cycle // 3, cfg.n_cycle // 2)]
