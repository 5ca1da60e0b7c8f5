"""qmcmc benchmark: the three CLI paths users run, timed end to end.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads, metrics and bounds are declared in ``BENCHMARK.json`` at the
repository root; ``bench/workloads.py`` defines each workload's command line
and the check applied to every operation's output.

``--trace 0`` measures the end-to-end metrics with no tracing installed:

* ``wall_s``: median seconds per operation (one ``qmcmc.cli.main(argv)``
  call) over the operations that fit in ``--seconds``, at least one;
* ``setup_s``: median over seven fresh interpreters of the time from process
  start to the first operation being ready (imports and inputs);
* ``peak_rss_mb``: peak resident set of the process that ran the operations;
* ``success_rate``: operations whose output passed its check, over those
  attempted. Its complement, ``error_rate``, is printed beside it.

``--trace 1`` runs a warm-up, one untraced and one traced operation in one
process and prints the per-layer metrics of ``bench/tracer.py``, the top
self-time layers, and the tracing overhead (traced minus untraced wall time).

Every process runs with OpenBLAS/OpenMP/MKL pinned to one thread. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Exit code 2 means no qmcmc sources were found
beside the benchmark; 1 means a benchmark process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
# a single invocation must end within 180 s; keep a margin for start-up
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A benchmark process failed or reported something unexpected."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("QMCMC_WORKERS", None)  # the CLI's default (no thread pool) is measured
    return env


def spawn(request: dict, deadline: float) -> dict:
    """Run one worker process and return its report, with ``setup_s``."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(request)],
            cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - t_spawn),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{request['mode']} worker ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{request['mode']} worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - t_spawn
    return report


def _failures(ops: list[dict]) -> int:
    for i, op in enumerate(ops):
        if op["error"] is not None:
            print(f"  operation {i} FAILED: {op['error']}")
    return sum(op["error"] is not None for op in ops)


def timed(workload: str, seed: int, seconds: float, deadline: float):
    request = {"workload": workload, "seed": seed, "seconds": seconds}
    setups = [spawn({**request, "mode": "setup"}, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    report = spawn({**request, "mode": "timed"}, deadline)
    setups.append(report["setup_s"])
    ops = report["ops"]
    print(f"env {json.dumps(report['env'])}")
    failed = _failures(ops)
    times = [op["s"] for op in ops]
    values = {
        "wall_s": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        "success_rate": (len(ops) - failed) / len(ops),
    }
    print(f"{workload} seed {seed}: {len(ops)} operations, {failed} failed; "
          f"wall_s over {len(ops)} operations (min {min(times):.4f}, "
          f"max {max(times):.4f}), setup_s over {len(setups)} processes")
    return len(ops), failed, values


def traced(workload: str, seed: int, deadline: float):
    report = spawn({"workload": workload, "seed": seed, "seconds": 0, "mode": "traced"},
                   deadline)
    print(f"env {json.dumps(report['env'])}")
    ops = report["ops"]
    failed = _failures(ops)
    values = report["layers"]
    own = sorted(report["self_s"].items(), key=lambda kv: -kv[1])
    wall = values["trace.wall_s"]
    print(f"{workload} seed {seed}: traced {wall:.4f} s, untraced "
          f"{values['trace.untraced_wall_s']:.4f} s, overhead {values['trace.overhead_s']:.4f} s")
    print("  top self time by layer:")
    for layer, s in own[:8]:
        print(f"    {layer:40s} {s:10.4f} s {100 * s / wall:6.1f}%")
    print(f"    {'(all layers)':40s} {values['trace.attributed_s']:10.4f} s + "
          f"unattributed {values['trace.unattributed_s']:.4f} s = {wall:.4f} s")
    if report["absent"]:
        print(f"  absent (no such function): {', '.join(report['absent'])}")
    for note in report["unobserved"]:
        print(f"  result not observed: {note}")
    return len(ops), failed, values


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qmcmc" / "__init__.py").is_file():
        print(f"error: no qmcmc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    attempted = failed = 0
    metrics = {}
    for workload in (names if args.workload == "all" else [args.workload]):
        deadline = time.monotonic() + DEADLINE_S
        try:
            if args.trace:
                n, bad, values = traced(workload, args.seed, deadline)
            else:
                n, bad, values = timed(workload, args.seed, args.seconds, deadline)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        if set(values) != set(units):
            print(f"error: measured {sorted(set(values) ^ set(units))} do not match "
                  "BENCHMARK.json", file=sys.stderr)
            return 1
        for name in units:
            print(f"  {name:40s} {values[name]!r} {units[name]}")
        if not args.trace:
            print(f"  {'error_rate':40s} {bad / n!r} ratio")
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: {"value": values[name], "unit": units[name]}
                        for name in units})
        attempted += n
        failed += bad
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
