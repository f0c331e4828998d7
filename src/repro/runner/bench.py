"""Perf-regression harness: cold wall-times for the experiment sweep.

``repro bench`` runs experiments *without* the result cache, measures the
host wall-clock of each, and appends one record to a trajectory file
(``BENCH_sweep.json`` by default).  The file accumulates one entry per
bench run, so regressions show up as a step in the trajectory — the same
methodology the paper applies to its machines, pointed at the simulator
itself.

Budgets (``--budget fig5=60``) turn the harness into a CI gate: the run
fails if any budgeted experiment exceeds its allotted seconds.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ..core.errors import ExperimentError

__all__ = ["BenchRecord", "run_bench", "render_bench", "parse_budgets",
           "compare_last_runs", "compare_last_service_runs", "QUICK_IDS"]

#: the ``--quick`` subset: one experiment per subsystem (calibration,
#: matmul, sorting, scatter analysis) — small enough for a CI smoke job,
#: still exercising every machine model and the engine hot path.
QUICK_IDS = ["table1", "fig1", "fig4", "fig5", "fig14"]


@dataclass
class BenchRecord:
    """One bench run: per-experiment cold wall times, in seconds."""

    label: str
    scale: float
    seed: int
    times_s: dict[str, float] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return float(sum(self.times_s.values()))

    def slowest(self, n: int = 5) -> list[tuple[str, float]]:
        ranked = sorted(self.times_s.items(), key=lambda kv: -kv[1])
        return ranked[:n]

    def to_dict(self) -> dict:
        doc = {
            "label": self.label,
            "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "python": platform.python_version(),
            # environment stamp: trajectory entries are only comparable
            # within one numpy/host/CPU configuration
            "numpy": np.__version__,
            "host": platform.node(),
            "cpus": os.cpu_count(),
            "scale": self.scale,
            "seed": self.seed,
            "total_s": round(self.total_s, 3),
            "experiments": {k: round(v, 4) for k, v in self.times_s.items()},
        }
        if self.errors:
            doc["errors"] = dict(self.errors)
        return doc


def parse_budgets(specs: list[str]) -> dict[str, float]:
    """Parse ``["fig5=60", ...]`` into ``{"fig5": 60.0}``."""
    budgets: dict[str, float] = {}
    for spec in specs:
        exp_id, sep, limit = spec.partition("=")
        try:
            budgets[exp_id] = float(limit) if sep else float("nan")
        except ValueError:
            sep = ""
        if not sep or budgets.get(exp_id) != budgets.get(exp_id) \
                or budgets[exp_id] <= 0:
            raise ExperimentError(
                f"bad budget {spec!r}; expected e.g. fig5=60 (seconds)")
    return budgets


def run_bench(ids: list[str], *, scale: float = 1.0, seed: int = 0,
              label: str = "", profile_dir: str | Path | None = None,
              progress=None) -> BenchRecord:
    """Cold-run ``ids`` one at a time, timing each with the host clock.

    "Cold" is about *results*: no result cache is consulted or written —
    the point is the cost of computing, not of loading.  The step-program
    IR store is the ambient one and stays on: structures are a persistent
    artifact of the source tree (content-addressed by algorithm
    fingerprint), so a sweep records each structure at most once, ever,
    and re-prices it on every later run — the record-once/price-many
    contract the bench is meant to measure.  First-ever sweeps on a host
    therefore pay recording inside the timings; label them accordingly.
    ``profile_dir`` additionally collects one cProfile ``pstats`` dump
    per experiment (see ``repro run --profile``).
    """
    from ..experiments import get
    from .pool import resolve_ids

    ids = resolve_ids(ids)
    record = BenchRecord(label=label, scale=scale, seed=seed)
    for exp_id in ids:
        if progress is not None:
            progress(f"bench {exp_id} ...")
        t0 = time.perf_counter()
        try:
            if profile_dir is not None:
                from .profile import profiled_run

                profiled_run(exp_id, scale=scale, seed=seed,
                             profile_dir=profile_dir)
            else:
                get(exp_id).run(scale=scale, seed=seed)
        except Exception as exc:  # record, keep sweeping
            record.errors[exp_id] = f"{type(exc).__name__}: {exc}"
        record.times_s[exp_id] = time.perf_counter() - t0
        if progress is not None:
            progress(f"bench {exp_id}: {record.times_s[exp_id]:.2f}s")
    return record


def append_trajectory(record: BenchRecord, out: str | Path) -> Path:
    """Append ``record`` to the trajectory file ``out`` (created if new)."""
    path = Path(out)
    doc = {"runs": []}
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError:
            doc = {"runs": []}
        if not isinstance(doc, dict) or not isinstance(doc.get("runs"), list):
            doc = {"runs": []}
    doc["runs"].append(record.to_dict())
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def render_bench(record: BenchRecord, *, top: int = 5) -> str:
    """The slowest-experiments table plus totals."""
    lines = [f"bench: {len(record.times_s)} experiment(s), "
             f"scale={record.scale}, seed={record.seed}, "
             f"total {record.total_s:.1f}s"]
    if record.times_s:
        lines.append(f"{'slowest':<16} {'seconds':>9}   share")
        total = record.total_s or 1.0
        for exp_id, secs in record.slowest(top):
            lines.append(f"{exp_id:<16} {secs:>9.2f}   {secs / total:>5.1%}")
    for exp_id, err in record.errors.items():
        lines.append(f"ERROR {exp_id}: {err}")
    return "\n".join(lines)


def compare_last_runs(path: str | Path, *,
                      tolerance: float = 0.25) -> tuple[str, list[str]]:
    """Diff the last two runs of a trajectory file.

    Returns ``(table, regressions)``: a per-experiment speedup table
    (markdown-friendly, pipe-separated) comparing the latest run against
    the one before it, and one message per experiment that got slower by
    more than ``tolerance`` (fractional; 0.25 = 25% slower).  Tiny
    absolute times are exempt from flagging — below 0.2s the host timer
    noise swamps any real change.
    """
    if tolerance < 0:
        raise ExperimentError(f"tolerance must be >= 0, got {tolerance}")
    p = Path(path)
    if not p.exists():
        raise ExperimentError(f"no trajectory file {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ExperimentError(f"unreadable trajectory file {p}: {exc}")
    runs = doc.get("runs", []) if isinstance(doc, dict) else []
    # the loadtest harness appends `kind: "service"` records to the same
    # trajectory; those have no per-experiment times, so the cold-sweep
    # diff looks straight past them
    runs = [r for r in runs if isinstance(r, dict)
            and r.get("kind") != "service"]
    if len(runs) < 2:
        raise ExperimentError(
            f"{p} holds {len(runs)} comparable run(s); --compare needs two")
    prev, last = runs[-2], runs[-1]
    prev_t = prev.get("experiments", {})
    last_t = last.get("experiments", {})

    def _tag(run: dict) -> str:
        return run.get("label") or run.get("utc", "?")

    lines = [f"| experiment | {_tag(prev)} (s) | {_tag(last)} (s) "
             "| speedup |",
             "|---|---:|---:|---:|"]
    regressions: list[str] = []
    ids = list(prev_t) + [k for k in last_t if k not in prev_t]
    for exp_id in ids:
        a, b = prev_t.get(exp_id), last_t.get(exp_id)
        if a is None or b is None:
            lines.append(f"| {exp_id} | {'-' if a is None else f'{a:.2f}'} "
                         f"| {'-' if b is None else f'{b:.2f}'} | - |")
            continue
        ratio = a / b if b > 0 else float("inf")
        mark = ""
        if b > a * (1.0 + tolerance) and b >= 0.2:
            mark = " ⚠"
            regressions.append(
                f"regression: {exp_id} {a:.2f}s -> {b:.2f}s "
                f"({b / a - 1.0:+.0%} > +{tolerance:.0%} tolerance)")
        lines.append(f"| {exp_id} | {a:.2f} | {b:.2f} | {ratio:.2f}x{mark} |")
    total_a = prev.get("total_s", sum(prev_t.values()))
    total_b = last.get("total_s", sum(last_t.values()))
    ratio = total_a / total_b if total_b else float("inf")
    lines.append(f"| **total** | {total_a:.2f} | {total_b:.2f} "
                 f"| {ratio:.2f}x |")
    return "\n".join(lines), regressions


def compare_last_service_runs(path: str | Path, *,
                              tolerance: float = 0.25
                              ) -> tuple[str, list[str]]:
    """Diff the two most recent *matching* ``kind="service"`` records.

    Service loadtest records are only comparable at the same process
    topology and load shape: the latest record is diffed against the
    most recent earlier one with the same ``(processes, concurrency,
    mix)`` — a 1-process and an N-process run never get compared
    (apples-to-oranges by construction).  Regressions are throughput
    drops past ``tolerance`` or p95 latency increases past
    ``tolerance`` (with a 1 ms noise floor).
    """
    if tolerance < 0:
        raise ExperimentError(f"tolerance must be >= 0, got {tolerance}")
    p = Path(path)
    if not p.exists():
        raise ExperimentError(f"no trajectory file {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ExperimentError(f"unreadable trajectory file {p}: {exc}")
    runs = doc.get("runs", []) if isinstance(doc, dict) else []
    runs = [r for r in runs if isinstance(r, dict)
            and r.get("kind") == "service"]
    if not runs:
        raise ExperimentError(f"{p} holds no service records")

    def topology(run: dict) -> tuple:
        # records before topology stamping carry no "processes" key;
        # treat them as single-process so old baselines stay diffable
        return (run.get("processes", 1) or 1, run.get("concurrency"),
                run.get("mix"))

    last = runs[-1]
    prev = next((r for r in reversed(runs[:-1])
                 if topology(r) == topology(last)), None)
    if prev is None:
        proc, conc, mix = topology(last)
        raise ExperimentError(
            f"{p} holds no earlier service record matching the latest "
            f"topology (processes={proc} concurrency={conc} mix={mix})")

    def _tag(run: dict) -> str:
        return run.get("label") or run.get("utc", "?")

    proc, conc, mix = topology(last)
    lines = [f"service compare at processes={proc} concurrency={conc} "
             f"mix={mix}:",
             "",
             f"| metric | {_tag(prev)} | {_tag(last)} | change |",
             "|---|---:|---:|---:|"]
    regressions: list[str] = []

    def row(name: str, key: str, *, fmt: str = "{:.1f}",
            better: str = "higher", floor: float = 0.0,
            gate: bool = False) -> None:
        a, b = prev.get(key), last.get(key)
        if a is None or b is None:
            lines.append(f"| {name} | {'-' if a is None else fmt.format(a)} "
                         f"| {'-' if b is None else fmt.format(b)} | - |")
            return
        change = (b - a) / a if a else 0.0
        worse = -change if better == "higher" else change
        mark = ""
        if worse > tolerance and abs(b - a) > floor:
            mark = " ⚠"
            if gate:
                regressions.append(
                    f"regression: {name} {fmt.format(a)} -> "
                    f"{fmt.format(b)} ({change:+.0%} vs "
                    f"{tolerance:.0%} tolerance)")
        lines.append(f"| {name} | {fmt.format(a)} | {fmt.format(b)} "
                     f"| {change:+.1%}{mark} |")

    # only throughput and p95 gate (exit 3); the other rows are context
    row("throughput (req/s)", "rps", better="higher", gate=True)
    row("p50 (ms)", "p50_ms", fmt="{:.2f}", better="lower", floor=1.0)
    row("p95 (ms)", "p95_ms", fmt="{:.2f}", better="lower", floor=1.0,
        gate=True)
    row("p99 (ms)", "p99_ms", fmt="{:.2f}", better="lower", floor=1.0)
    row("errors", "errors", fmt="{:.0f}", better="lower", floor=10.0)
    row("mean batch", "mean_batch", fmt="{:.2f}", better="higher")
    row("LRU hit ratio", "lru_hit_ratio", fmt="{:.3f}", better="higher")
    return "\n".join(lines), regressions


def check_budgets(record: BenchRecord,
                  budgets: dict[str, float]) -> list[str]:
    """Return one violation message per budget exceeded (or missing)."""
    problems = []
    for exp_id, limit in budgets.items():
        got = record.times_s.get(exp_id)
        if got is None:
            problems.append(f"budget {exp_id}={limit:g}s: experiment not run")
        elif exp_id in record.errors:
            problems.append(f"budget {exp_id}: {record.errors[exp_id]}")
        elif got > limit:
            problems.append(
                f"budget exceeded: {exp_id} took {got:.2f}s > {limit:g}s")
    return problems
