#!/usr/bin/env python3
"""Compare a parent and a change results file of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py parent.json change.json

Each file holds one or more runs (``run.py --out FILE`` appends one).
For every workload and metric the table shows each side's median and
quartiles over its runs.  End-to-end metrics get one verdict, judged
against the bound ``BENCHMARK.json`` fixes for them:

* ``unresolved`` — either side's run-to-run spread (interquartile range
  over median) is wider than the bound, unless every change run beats
  every parent run (then ``better``);
* ``worse`` — the change's median is worse by more than the bound;
* ``better`` — the median improved by more than the parent's spread and
  the change won at least nine in ten pairs (with fewer than ten pairs:
  every change run beats every parent run, by more than the bound);
* ``within bound`` — anything else.

Runs are paired in file order when both files hold the same number of
runs, ten or more; record them alternating which side runs first.
Per-layer metrics are listed without a verdict.  Exits 1 when any
end-to-end metric is worse, 2 on unusable input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from stats import quartiles, rel_spread

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def pair_wins(parent, change, better: str) -> tuple[int, int]:
    """``(change wins, pairs)``; no pairs below ten or on unequal runs.
    Ties count for neither side."""
    if len(parent) != len(change) or len(parent) < 10:
        return 0, 0
    wins = sum(_beats(c, p, better) for p, c in zip(parent, change))
    return wins, len(parent)


def verdict(parent, change, *, bound: float, better: str) -> str:
    """``better``, ``worse``, ``within bound`` or ``unresolved`` for one
    metric's parent and change runs (see the module docstring)."""
    pm, cm = quartiles(parent)[1], quartiles(change)[1]
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    all_better = all(_beats(c, p, better) for c in change for p in parent)
    if max(rel_spread(parent), rel_spread(change)) > bound:
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    gain = -worse_by
    wins, pairs = pair_wins(parent, change, better)
    clear = wins >= 0.9 * pairs if pairs else all_better and gain > bound
    if gain > rel_spread(parent) and clear:
        return "better"
    return "within bound"


def load_runs(path: str) -> list[dict]:
    doc = json.loads(Path(path).read_text())
    runs = doc.get("runs") if isinstance(doc, dict) else None
    if not runs:
        raise ValueError(f"{path} holds no benchmark runs")
    return runs


def values(runs, workload: str, section: str, metric: str) -> list[float]:
    out = []
    for run in runs:
        entry = run["workloads"].get(workload, {})
        m = entry.get(section, {}).get(metric)
        if m is not None:
            out.append(m["value"])
    return out


def _fmt(vals) -> str:
    q1, med, q3 = quartiles(vals)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(parent_runs, change_runs, spec: dict) -> tuple[list[str], bool]:
    """The comparison table's lines, and whether any metric is worse."""
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    lines = [f"{'workload':<8} {'metric':<28} {'parent median [q1, q3]':>30} "
             f"{'change median [q1, q3]':>30} {'change':>8}  verdict"]
    any_worse = False
    for workload in workloads:
        for section, table in (("metrics", e2e), ("layers", layers)):
            for name, m in table.items():
                p = values(parent_runs, workload, section, name)
                c = values(change_runs, workload, section, name)
                if not p or not c:
                    continue
                pm, cm = quartiles(p)[1], quartiles(c)[1]
                delta = f"{(cm - pm) / abs(pm):+.1%}" if pm else "-"
                if section == "metrics":
                    v = verdict(p, c, bound=m["bound"], better=m["better"])
                    wins, pairs = pair_wins(p, c, m["better"])
                    if pairs:
                        v += f" ({wins}/{pairs} pairs won)"
                    any_worse |= v.startswith("worse")
                else:
                    v = ""
                lines.append(f"{workload:<8} {name:<28} {_fmt(p):>30} "
                             f"{_fmt(c):>30} {delta:>8}  {v}")
    return lines, any_worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        parent, change = load_runs(argv[0]), load_runs(argv[1])
        spec = json.loads(BENCHMARK.read_text())
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines, any_worse = compare(parent, change, spec)
    print(f"parent: {argv[0]} ({len(parent)} run(s)); "
          f"change: {argv[1]} ({len(change)} run(s))")
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
