"""One benchmark process: set up a workload, run its operations, report JSON.

Run by ``run.py`` in a fresh interpreter with one argument, a JSON object
with ``workload``, ``seed``, ``seconds`` and ``mode``:

* ``setup``: set up and report when the first operation was ready;
* ``timed``: then run operations until the next one would end after
  ``seconds`` (at least one), with no tracing installed;
* ``traced``: then run a warm-up, one untraced and one traced operation, and
  time the public W(Omega) on three of the workload's own comb values.

The last line of standard output is the JSON report.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import qmcmc  # noqa: E402
from qmcmc import channel, cli  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def run_op(wl: workloads.Workload) -> dict:
    """One timed ``main(argv)`` call and the verdict of its output check."""
    out, err = io.StringIO(), io.StringIO()
    reason = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(wl.argv))  # looked up now: the tracer may wrap it
    except (Exception, SystemExit) as exc:  # a crash is a failed operation
        code, reason = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if reason is None:
        try:
            reason = wl.check(code, out.getvalue())
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
    if reason is not None and err.getvalue().strip():
        reason += f" (stderr: {err.getvalue().strip()[-300:]})"
    return {"s": seconds, "error": reason}


def period_unitary_s(wl: workloads.Workload) -> float | None:
    """Median seconds of the public W(Omega) on the workload's own model,
    or None when the function no longer exists."""
    build = getattr(channel, "build_period_unitary", None)
    if build is None:
        return None
    spec, cfg = wl.probe()
    times = []
    for omega in workloads.probe_omegas(cfg):
        t0 = time.perf_counter()
        build(spec, cfg, omega)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(request: dict) -> dict:
    if not Path(qmcmc.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"qmcmc imported from {qmcmc.__file__}, not {SRC}")
    wl = workloads.make(request["workload"], request["seed"])
    report = {"ready": time.monotonic()}
    mode = request["mode"]
    if mode == "setup":
        return report
    ops = []
    if mode == "timed":
        start = time.perf_counter()
        while True:
            ops.append(run_op(wl))
            elapsed = time.perf_counter() - start
            if elapsed + ops[-1]["s"] > request["seconds"]:
                break
    else:
        ops.append(run_op(wl))  # warm-up: first-call costs stay out of the overhead
        untraced = run_op(wl)
        with tracer.Tracer() as tr:
            traced = run_op(wl)
        ops += [untraced, traced]
        w_s = period_unitary_s(wl)
        extra = {
            "channel.build_period_unitary.s": 0.0 if w_s is None else w_s,
            "trace.wall_s": traced["s"],
            "trace.untraced_wall_s": untraced["s"],
            "trace.overhead_s": traced["s"] - untraced["s"],
        }
        values, absent = tracer.layer_metrics(tr, extra)
        if w_s is None:
            absent.append("channel.build_period_unitary.s")
        report.update(layers=values, absent=absent, unobserved=sorted(tr.unobserved),
                      self_s=dict(tr.self_s))
    report.update(ops=ops, env=environment(),
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
