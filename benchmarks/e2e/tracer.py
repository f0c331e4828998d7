"""Outside-in span tracer for the end-to-end benchmark.

The tracer never edits the program.  :meth:`Tracer.install` wraps the
public functions each layer exposes (the :data:`HOOKS` table) and
rebinds every module-level reference to them, so a name imported with
``from .replay import replay`` is traced exactly like the function
itself.  :meth:`Tracer.uninstall` puts every original back.

A span is ``(id, name, start, end, parent, thread, counts)``: stacks are
thread-local because the service's batch workers run ``evaluate_batch``
on their own threads.  A call whose span name equals the innermost open
span (a subclass override calling ``super()``, ``trace_cost`` calling
``max_work_nominal_us``) folds into that span instead of opening a new
one, so a layer is never its own child.  Spans stay in memory and are
written once, by :meth:`Tracer.dump`, when the traced process is done.

:func:`layer_metrics` turns dumped spans into the benchmark's per-layer
metrics: a layer's self time is its spans' duration minus the time
their child spans cover.

Only the benchmark's own child processes import this module, and only
for a traced pass.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable

#: machines whose communication pricers get their own per-layer metrics.
MACHINES = ("maspar", "gcel", "cm5", "t800", "modern")


@dataclass(frozen=True)
class Hook:
    """One wrapped public function.

    ``target`` is ``"module:attr"`` or ``"module:Class.method"``.
    ``span`` names the layer, or computes the name from the call's
    positional arguments.  ``count(args, result, before)`` returns
    counter increments for the call; ``before(args)`` runs ahead of the
    call and its value is handed to ``count``.  With ``subclasses`` every
    subclass override of the method is wrapped too.
    """

    target: str
    span: str | Callable[[tuple], str]
    count: Callable[[tuple, Any, Any], dict] | None = None
    before: Callable[[tuple], Any] | None = None
    subclasses: bool = False


def _ir_get_before(args):
    store, key = args[0], args[1]
    return key in store.memory, store.quarantined


def _ir_get_count(args, result, before):
    in_memory, quarantined = before
    out = {"ir_store.gets": 1,
           "ir_store.quarantined": args[0].quarantined - quarantined}
    if result is not None:
        out["ir_store.memory_hits" if in_memory else "ir_store.disk_hits"] = 1
    return out


def _cache_get_count(args, result, before):
    return {"result_cache.hits" if result is not None
            else "result_cache.misses": 1}


def _step_name(args) -> str:
    return f"comm_pricing.{args[0].machine.name}.step"


def _machine_step_name(args) -> str:
    return f"comm_pricing.{args[0].name}.step"


def _prep_name(args) -> str:
    return f"comm_pricing.{args[0].name}.prep"


#: the layer boundaries, outermost first.  Span names are the layer
#: names of :data:`LAYER_METRICS`.
HOOKS = (
    Hook("repro.simulator.lower:run_lowered", "engine.ir"),
    Hook("repro.simulator.vector:run_spmd_vector", "engine.vector"),
    Hook("repro.simulator.engine:run_spmd", "engine.generator"),
    Hook("repro.simulator.vector:collect_steps", "record.exec"),
    Hook("repro.simulator.ir:build_program", "record.intern"),
    Hook("repro.simulator.ir:IRStore.get", "ir_store.get",
         count=_ir_get_count, before=_ir_get_before),
    Hook("repro.simulator.ir:IRStore.put", "ir_store.put",
         count=lambda a, r, b: {"ir_store.records": 1}),
    Hook("repro.runner.cache:ResultCache.get_doc", "result_cache.get",
         count=_cache_get_count),
    Hook("repro.runner.cache:ResultCache.put_doc", "result_cache.put"),
    Hook("repro.simulator.replay:replay", "replay",
         count=lambda a, r, b: {"replay.supersteps": a[1].n_steps}),
    Hook("repro.simulator.batch:price_batches", "work_pricing"),
    Hook("repro.simulator.batch:charge_batches", "work_pricing"),
    Hook("repro.machines.base:Machine.comm_time_batch", _prep_name,
         count=lambda a, r, b: {f"comm_pricing.{a[0].name}.phases":
                                len(a[1])},
         subclasses=True),
    Hook("repro.machines.base:Machine.comm_time", _machine_step_name,
         subclasses=True),
    Hook("repro.machines.base:CommPricer.comm_time", _step_name,
         subclasses=True),
    Hook("repro.machines.base:CommPricer.sequence_costs", _step_name,
         count=lambda a, r, b: {"replay.fused_calls": int(r is not None)},
         subclasses=True),
    Hook("repro.core.trace:Superstep.max_work_nominal_us",
         "model_pricing.work"),
    Hook("repro.core.base:CostModel.trace_cost", "model_pricing.work",
         count=lambda a, r, b: {"model_pricing.traces": 1}),
    Hook("repro.core.base:CostModel.comm_cost_batch", "model_pricing.comm"),
    Hook("repro.core.base:CostModel.comm_cost", "model_pricing.comm",
         subclasses=True),
    Hook("repro.calibration.table1:calibrate", "calibration"),
    Hook("repro.service.oracle:evaluate_batch", "service.evaluate"),
)

#: per-layer metric -> unit, in the order ``BENCHMARK.json`` lists them.
LAYER_METRICS = {
    "engine.ir.calls": "count",
    "engine.ir.self_s": "s",
    "engine.vector.calls": "count",
    "engine.vector.self_s": "s",
    "engine.generator.calls": "count",
    "engine.generator.self_s": "s",
    "record.exec.calls": "count",
    "record.exec.self_s": "s",
    "record.intern.self_s": "s",
    "ir_store.get.self_s": "s",
    "ir_store.put.self_s": "s",
    "ir_store.records": "count",
    "ir_store.memory_hits": "count",
    "ir_store.disk_hits": "count",
    "ir_store.quarantined": "count",
    "ir_store.hit_ratio": "ratio",
    "result_cache.get.self_s": "s",
    "result_cache.put.self_s": "s",
    "result_cache.hits": "count",
    "result_cache.misses": "count",
    "replay.calls": "count",
    "replay.self_s": "s",
    "replay.supersteps": "count",
    "replay.us_per_superstep": "us",
    "replay.fused_calls": "count",
    "work_pricing.calls": "count",
    "work_pricing.self_s": "s",
    **{f"comm_pricing.{m}.{field}": unit
       for m in MACHINES
       for field, unit in (("prep_s", "s"), ("step_s", "s"),
                           ("phases", "count"))},
    "model_pricing.work.self_s": "s",
    "model_pricing.comm.self_s": "s",
    "model_pricing.traces": "count",
    "calibration.fits": "count",
    "calibration.self_s": "s",
    "service.evaluate.self_s": "s",
    "service.batches": "count",
    "service.mean_batch": "count",
    "service.lru_hit_ratio": "ratio",
    "service.server_p50_ms": "ms",
    "service.hit_p99_ms": "ms",
    "service.miss_p50_ms": "ms",
    "experiment.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _resolve(target: str):
    """``(owner, attr)`` of a hook target; imports the module."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _import_all(package: str = "repro") -> None:
    """Import every module of ``package`` so no later import can capture
    a wrapped function the uninstall would miss.  ``__main__`` modules
    run the CLI on import and are skipped."""
    pkg = importlib.import_module(package)
    for info in pkgutil.walk_packages(pkg.__path__, package + "."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            importlib.import_module(info.name)


class Tracer:
    """Records spans around the :data:`HOOKS` functions while installed."""

    def __init__(self, hooks=HOOKS, clock=time.perf_counter):
        self.hooks = hooks
        self.clock = clock
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # (owner, attr, original) per rebinding, undone in reverse order
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, hook: Hook):
        """``fn`` recording one span per call, as ``hook`` describes."""
        clock, spans, ids = self.clock, self.spans, self._ids
        span, count, before = hook.span, hook.count, hook.before
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span if isinstance(span, str) else span(args)
            stack = stack_of()
            pre = before(args) if before is not None else None
            if stack and stack[-1][1] == name:
                result = fn(*args, **kwargs)
                if count is not None:
                    _merge(stack[-1][3], count(args, result, pre))
                return result
            parent = stack[-1][0] if stack else 0
            entry = [next(ids), name, clock(), {}]
            stack.append(entry)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    _merge(entry[3], count(args, result, pre))
                return result
            finally:
                stack.pop()
                spans.append((entry[0], name, entry[2], clock(), parent,
                               threading.get_ident(), entry[3] or None))

        return traced

    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every hook and rebind every ``repro`` module reference."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        _import_all()
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == "repro" or name.startswith("repro."))]
        for hook in self.hooks:
            owner, attr = _resolve(hook.target)
            if isinstance(owner, type):
                owners = _subclasses(owner) if hook.subclasses else [owner]
                for cls in owners:
                    fn = cls.__dict__.get(attr)
                    if fn is not None:
                        self._rebind(cls, attr, fn, self.wrap(fn, hook))
                continue
            fn = getattr(owner, attr)
            wrapped = self.wrap(fn, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, name, fn, wrapped)
        return self

    def _rebind(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every reference :meth:`install` rebound."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the recorded spans as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh, separators=(",", ":"))


def _merge(into: dict, counts: dict) -> None:
    for key, n in counts.items():
        into[key] = into.get(key, 0) + n


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _innermost(spans) -> list[tuple[float, int, str | None]]:
    """``(time, thread, layer)`` whenever a thread's innermost open span
    changes (``None``: no span open)."""
    by_thread: dict[int, list] = defaultdict(list)
    for sid, name, start, end, parent, thread, counts in spans:
        # ends sort before starts at equal times; nesting is per thread
        by_thread[thread] += [(start, 1, name), (end, 0, name)]
    changes = []
    for thread, events in by_thread.items():
        stack: list[str] = []
        for t, opens, name in sorted(events, key=lambda e: (e[0], e[1])):
            if opens:
                stack.append(name)
            else:
                stack.pop()
            changes.append((t, thread, stack[-1] if stack else None))
    changes.sort(key=lambda c: c[0])
    return changes


def _shared_self(spans, windows) -> Counter:
    """Wall time inside ``windows`` that each layer was some thread's
    innermost open span.  While ``k`` threads are inside spans at once
    each is charged ``1/k`` of the time, so the layers never sum past
    the wall clock: the service's batch threads take turns on one
    interpreter lock."""
    out: Counter = Counter()
    current: dict[int, str | None] = {}
    changes = _innermost(spans)
    for i, (t0, thread, layer) in enumerate(changes[:-1]):
        current[thread] = layer
        t1 = changes[i + 1][0]
        active = [name for name in current.values() if name is not None]
        if not active or t1 <= t0:
            continue
        dt = sum(max(0.0, min(t1, hi) - max(t0, lo)) for lo, hi in windows)
        for name in active:
            out[name] += dt / len(active)
    return out


def self_times(sessions) -> tuple[Counter, Counter, Counter, Counter]:
    """Per-layer totals over the timed windows.

    ``sessions`` holds one ``(spans, windows)`` pair per traced process.
    Returns ``(self_s, calls, inclusive_s, counters)`` keyed by span
    name (counters by counter name).  Self time is the time a layer's
    span was open with no child span open inside it (shared between
    concurrent threads, see :func:`_shared_self`); calls, inclusive
    time and counters come from the spans that start inside a window.
    """
    self_s, inclusive, calls, counters = Counter(), Counter(), Counter(), \
        Counter()
    for spans, windows in sessions:
        self_s.update(_shared_self(spans, windows))
        for sid, name, start, end, parent, thread, counts in spans:
            if not any(lo <= start <= hi for lo, hi in windows):
                continue
            inclusive[name] += end - start
            calls[name] += 1
            if counts:
                counters.update(counts)
    return self_s, calls, inclusive, counters


def layer_metrics(sessions, *, untraced_rep_s: float,
                  service: dict | None = None) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value, per repetition of the workload.

    ``sessions`` holds one ``(spans, windows)`` pair per traced process,
    ``windows`` being the ``(start, end)`` times of its timed
    repetitions; ``untraced_rep_s`` is the untraced pass's mean
    repetition time.  ``service`` carries the ``service.*`` numbers
    scraped or timed outside the server; other workloads report 0 there.
    """
    windows = [w for _, ws in sessions for w in ws]
    reps = len(windows)
    wall_s = sum(hi - lo for lo, hi in windows)
    self_s, calls, inclusive, counters = self_times(sessions)

    def per_rep(x: float) -> float:
        return x / reps

    out: dict[str, float] = {}
    for layer in ("engine.ir", "engine.vector", "engine.generator"):
        out[f"{layer}.calls"] = per_rep(calls.get(layer, 0))
        out[f"{layer}.self_s"] = per_rep(self_s.get(layer, 0.0))
    out["record.exec.calls"] = per_rep(calls.get("record.exec", 0))
    out["record.exec.self_s"] = per_rep(self_s.get("record.exec", 0.0))
    out["record.intern.self_s"] = per_rep(self_s.get("record.intern", 0.0))
    for layer in ("ir_store.get", "ir_store.put", "result_cache.get",
                  "result_cache.put"):
        out[f"{layer}.self_s"] = per_rep(self_s.get(layer, 0.0))
    for name in ("ir_store.records", "ir_store.memory_hits",
                 "ir_store.disk_hits", "ir_store.quarantined",
                 "result_cache.hits", "result_cache.misses",
                 "replay.supersteps", "replay.fused_calls",
                 "model_pricing.traces"):
        out[name] = per_rep(counters.get(name, 0))
    gets = counters.get("ir_store.gets", 0)
    hits = counters.get("ir_store.memory_hits", 0) \
        + counters.get("ir_store.disk_hits", 0)
    out["ir_store.hit_ratio"] = hits / gets if gets else 0.0
    out["replay.calls"] = per_rep(calls.get("replay", 0))
    out["replay.self_s"] = per_rep(self_s.get("replay", 0.0))
    steps = counters.get("replay.supersteps", 0)
    out["replay.us_per_superstep"] = \
        inclusive.get("replay", 0.0) * 1e6 / steps if steps else 0.0
    out["work_pricing.calls"] = per_rep(calls.get("work_pricing", 0))
    out["work_pricing.self_s"] = per_rep(self_s.get("work_pricing", 0.0))
    for m in MACHINES:
        out[f"comm_pricing.{m}.prep_s"] = per_rep(
            self_s.get(f"comm_pricing.{m}.prep", 0.0))
        out[f"comm_pricing.{m}.step_s"] = per_rep(
            self_s.get(f"comm_pricing.{m}.step", 0.0))
        out[f"comm_pricing.{m}.phases"] = per_rep(
            counters.get(f"comm_pricing.{m}.phases", 0))
    out["model_pricing.work.self_s"] = per_rep(
        self_s.get("model_pricing.work", 0.0))
    out["model_pricing.comm.self_s"] = per_rep(
        self_s.get("model_pricing.comm", 0.0))
    out["calibration.fits"] = per_rep(calls.get("calibration", 0))
    out["calibration.self_s"] = per_rep(self_s.get("calibration", 0.0))
    out["service.evaluate.self_s"] = per_rep(
        self_s.get("service.evaluate", 0.0))
    for name in ("service.batches", "service.mean_batch",
                 "service.lru_hit_ratio", "service.server_p50_ms",
                 "service.hit_p99_ms", "service.miss_p50_ms"):
        out[name] = (service or {}).get(name, 0.0)
    traced = per_rep(sum(self_s.values()))
    wall = per_rep(wall_s)
    out["experiment.self_s"] = max(0.0, wall - traced)
    out["trace.wall_s"] = wall
    out["trace.overhead_ratio"] = wall / untraced_rep_s
    return {name: out[name] for name in LAYER_METRICS}
