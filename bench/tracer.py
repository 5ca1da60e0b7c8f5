"""Outside-in layer timing for the traced benchmark run.

``Tracer`` replaces every public function of the ``qmcmc`` package, at each
module attribute through which code looks it up (``qmcmc.cli.build_cycle_map``
as well as ``qmcmc.channel.build_cycle_map``), with a wrapper that counts
calls and times them. A layer is named ``<module>.<function>`` after the
module that defines the function. Self time is a call's duration minus the
time spent in wrapped calls it made; the stack that tracks this is
thread-local, so worker threads of the program do not mix their calls.
Private helpers are not wrapped, so their time is their caller's self time.

Four results are observed as well: kept Kraus operators per period channel,
periods and distinct comb values per cycle map, shot-periods per sampler
call, and the rows of a sweep. ``uninstall`` puts every original attribute
back; the timed runs never see a wrapper.

``layer_metrics`` turns the record into the benchmark's per-layer metrics.
A metric whose function no longer exists is reported as absent (value 0)
instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "qmcmc"


def layer_name(fn) -> str:
    module = fn.__module__.split(".", 1)[-1]
    return f"{module}.{fn.__qualname__}"


class Tracer:
    """Call counts, total and self time per layer, plus observed counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.layers: set[str] = set()
        self.unobserved: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        wrappers = {}
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(PACKAGE)):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn):
        layer = layer_name(fn)
        self.layers.add(layer)
        observer = _OBSERVERS.get(layer)
        signature = inspect.signature(fn) if observer else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.calls[layer] += 1
                    self.total_s[layer] += elapsed
                    self.self_s[layer] += elapsed - children
            if observer is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    with self._lock:
                        observer(self.counters, bound.arguments, result)
                except (AttributeError, KeyError, TypeError) as exc:
                    self.unobserved.add(f"{layer}: {type(exc).__name__}: {exc}")
            return result

        return timed


def _observe_period_channel(c, args, kset) -> None:
    c["kraus_kept"] += len(kset.operators)
    c["kraus_candidates"] += 4 ** args["m_count"]


def _observe_cycle_map(c, args, cycle) -> None:
    d = cycle.superoperator.system_dim
    distinct = len(set(cycle.omegas))
    c["periods"] += len(cycle.omegas)
    # the period superoperators build_cycle_map holds at once, computed
    c["superop_bytes_held"] = max(c["superop_bytes_held"], distinct * d**4 * 16)


def _observe_sample_gibbs(c, args, samples) -> None:
    c["shot_periods"] += args["shots"] * args["burn_in_cycles"] * args["cfg"].n_cycle


def _observe_run_plan(c, args, rows) -> None:
    c["point_wall_s"] += sum(row.wall_time for row in rows)
    c["points_failed"] += sum(1 for row in rows if row.error)


_OBSERVERS = {
    "channel.build_period_channel": _observe_period_channel,
    "channel.build_cycle_map": _observe_cycle_map,
    "trajectory.sample_gibbs": _observe_sample_gibbs,
    "experiments.run_plan": _observe_run_plan,
}

# metrics read off one layer: <layer>.s (total), <layer>.self_s, <layer>.calls
LAYER_METRICS = (
    "channel.build_cycle_map.self_s", "channel.to_superoperator.s",
    "channel.to_superoperator.calls", "channel.build_period_channel.s",
    "channel.build_period_channel.calls", "channel.ancilla_preparation.s",
    "channel.steady_state.self_s", "linalg.dominant_eigs.s", "channel.spectral_gap.s",
    "linalg.apply_gate.s", "linalg.apply_gate.calls", "trajectory.sample_gibbs.self_s",
    "rng.next_uniform.s", "rng.next_uniform.calls", "linalg.expm_hermitian.s",
    "cli.main.self_s",
)
# the sweep drivers run_plan dispatches to; their self time is the driver's
SWEEP_DRIVERS = ("experiments.run_plan", "experiments.run_tfim_infidelity",
                 "experiments.run_magnetization_sweep", "experiments.run_graph_sampling")


def layer_metrics(tr: Tracer, extra: dict[str, float]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values and the names reported as absent.

    ``extra`` holds the values measured outside the wrappers:
    ``channel.build_period_unitary.s`` and the ``trace.*`` wall times.
    A metric is absent when a layer it reads was not found at install; a
    needed name ending in ``.`` stands for any function of that module.
    """
    c, own, calls = tr.counters, tr.self_s, tr.calls
    by_kind = {"s": tr.total_s, "self_s": own, "calls": calls}
    table = {}  # name: (layers it needs, value)
    for name in LAYER_METRICS:
        layer, kind = name.rsplit(".", 1)
        table[name] = ((layer,), by_kind[kind][layer])

    def ratio(num, den):
        return num / den if den else 0.0

    cycle, channel = "channel.build_cycle_map", "channel.build_period_channel"
    table.update({
        "channel.kraus_kept_ratio": ((channel,), ratio(c["kraus_kept"], c["kraus_candidates"])),
        "channel.distinct_omega_ratio": ((channel, cycle), ratio(calls[channel], c["periods"])),
        "channel.superop_bytes_held": ((cycle,), c["superop_bytes_held"]),
        "trajectory.shot_periods": (("trajectory.sample_gibbs",), c["shot_periods"]),
        "experiments.run_plan.self_s":
            (("experiments.run_plan",), sum(own[k] for k in SWEEP_DRIVERS)),
        "experiments.point_wall_s": (("experiments.run_plan",), c["point_wall_s"]),
        "experiments.points_failed": (("experiments.run_plan",), c["points_failed"]),
    })
    for module in ("observables", "hamiltonians"):
        table[f"{module}.s"] = ((module + ".",), sum(
            v for k, v in own.items() if k.startswith(module + ".")))

    def found(layer):
        if layer.endswith("."):
            return any(k.startswith(layer) for k in tr.layers)
        return layer in tr.layers

    absent = sorted(name for name, (needs, _) in table.items()
                    if not all(found(layer) for layer in needs))
    values = {name: float(value) for name, (_, value) in table.items()}
    values.update(extra)
    values["trace.attributed_s"] = sum(own.values())
    values["trace.unattributed_s"] = values["trace.wall_s"] - values["trace.attributed_s"]
    return values, absent
