"""Importance ranking: what each modelled phenomenon buys in accuracy.

For every component the report compares the scoreboard's prediction
error with the phenomenon modelled (baseline) against the error with it
switched off, pooled over every (cell, model) pair the component can
touch::

    importance = mean|error| ablated  -  mean|error| baseline

Positive importance means removing the component *hurts* accuracy — the
phenomenon carries real predictive weight.  Negative importance means
the scoreboard predicts *better* without it; such components are
flagged ``harmful``.  Components are ranked by ``|importance|``
(name-tiebroken), so both strongly helpful and strongly harmful
phenomena surface at the top.

Everything here is pure arithmetic over the JSON cell documents that
:func:`repro.ablation.ablate` collects from the job runner, in a
deterministic order, so the report
— and its rendered table — is byte-identical across runs, job counts
and cache states.
"""

from __future__ import annotations

from .components import Component
from .runs import BASELINE, CellRun

__all__ = ["SCHEMA", "build_report", "render_report"]

SCHEMA = "repro-ablation-report/1"


def _cell_stats(doc: dict) -> dict:
    """Per-cell summary of one cell document."""
    errors = {row["model"]: row["error"] for row in doc["models"]}
    vals = [row["error"] for row in doc["models"]]
    return {
        "measured_us": doc["models"][0]["measured_us"] if vals else 0.0,
        "errors": errors,
        "mean_error": sum(vals) / len(vals) if vals else 0.0,
        "mean_abs_error": sum(abs(v) for v in vals) / len(vals)
        if vals else 0.0,
    }


def _pooled_abs(docs: list[dict]) -> float:
    """Mean |error| over every (cell, model) pair of ``docs``."""
    vals = [abs(row["error"]) for doc in docs for row in doc["models"]]
    return sum(vals) / len(vals) if vals else 0.0


def build_report(runs: list[CellRun], docs: dict[str, dict], *,
                 components: list[Component], cells: list[str],
                 scale: float, seed: int) -> dict:
    """Assemble the ablation report from evaluated cell documents."""
    by_config: dict[str, dict[str, dict]] = {}
    for run in runs:
        by_config.setdefault(run.config, {})[run.cell] = docs[run.run_id]

    base = by_config.get(BASELINE, {})
    baseline = {
        "mean_abs_error": _pooled_abs([base[c] for c in cells]),
        "per_cell": {c: _cell_stats(base[c]) for c in cells},
    }

    entries = []
    skipped = []
    for comp in components:
        touched = [c for c in cells if c in by_config.get(comp.name, {})]
        if not touched:
            skipped.append({
                "component": comp.name, "machine": comp.machine,
                "reason": f"no selected cell runs on {comp.machine!r}"})
            continue
        base_abs = _pooled_abs([base[c] for c in touched])
        abl_abs = _pooled_abs([by_config[comp.name][c] for c in touched])
        per_cell = {}
        for c in touched:
            stats = _cell_stats(by_config[comp.name][c])
            stats["baseline_mean_abs_error"] = \
                baseline["per_cell"][c]["mean_abs_error"]
            stats["delta_abs_error"] = (stats["mean_abs_error"]
                                        - stats["baseline_mean_abs_error"])
            per_cell[c] = stats
        importance = abl_abs - base_abs
        entries.append({
            "component": comp.name,
            "machine": comp.machine,
            "paper": comp.paper,
            "summary": comp.summary,
            "cells": touched,
            "baseline_mean_abs_error": base_abs,
            "ablated_mean_abs_error": abl_abs,
            "importance": importance,
            "harmful": importance < 0,
            "per_cell": per_cell,
        })
    entries.sort(key=lambda e: (-abs(e["importance"]), e["component"]))

    return {
        "schema": SCHEMA,
        "scale": scale,
        "seed": seed,
        "cells": list(cells),
        "components": [c.name for c in components],
        "baseline": baseline,
        "ranking": entries,
        "skipped": skipped,
    }


def render_report(report: dict) -> str:
    """Text table of the ranking (largest |importance| first)."""
    head = (f"{'#':<3}{'component':<24}{'machine':<9}"
            f"{'baseline':>10}{'ablated':>10}{'importance':>12}  note")
    lines = [
        "Component importance: mean |prediction error| over the cells the",
        "component touches, with the phenomenon modelled (baseline) vs",
        "switched off (ablated).  Positive importance = removal hurts.",
        "",
        head,
        "-" * len(head),
    ]
    for i, e in enumerate(report["ranking"], 1):
        note = "HARMFUL: removal improves accuracy" if e["harmful"] else ""
        lines.append(
            f"{i:<3}{e['component']:<24}{e['machine']:<9}"
            f"{e['baseline_mean_abs_error']:>9.1%}"
            f"{e['ablated_mean_abs_error']:>10.1%}"
            f"{e['importance']:>+11.1%}  {note}".rstrip())
    for s in report["skipped"]:
        lines.append(f"-  {s['component']:<24}{s['machine']:<9}"
                     f"   skipped: {s['reason']}")
    lines.append("")
    lines.append(
        f"cells: {', '.join(report['cells'])}  "
        f"(scale={report['scale']}, seed={report['seed']}; "
        f"baseline mean |error| "
        f"{report['baseline']['mean_abs_error']:.1%})")
    return "\n".join(lines)
