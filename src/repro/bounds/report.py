"""The optimality report: ranked attained-vs-optimal ratios.

``build_report`` is deterministic given its inputs — entries are sorted
by descending ratio (name-tiebroken) and every number derives from the
cell docs and the pure analytic bounds — so the report JSON is stable
across cache states and process boundaries.
"""

from __future__ import annotations

from .analytic import cell_bound
from .cells import BoundCell

__all__ = ["SCHEMA", "build_report", "render_report"]

SCHEMA = "repro-bounds/1"


def build_report(cells: tuple[BoundCell, ...], docs: dict[str, dict], *,
                 scale: float, seed: int, threshold: float) -> dict:
    """Assemble the report from per-cell measurement docs.

    ``docs`` maps cell name to the :func:`~repro.bounds.measure
    .measure_cell` doc.  Cells whose doc is missing (a skipped pool
    worker) are listed under ``"skipped"`` rather than silently dropped.
    """
    entries = []
    skipped = []
    for cell in cells:
        doc = docs.get(cell.name)
        if doc is None:
            skipped.append(cell.name)
            continue
        vol = doc["volume"]
        n = doc["n"]
        bound = cell_bound(cell, n, vol["P"])
        measured = vol["max_traffic_words"]
        ratio = measured / bound["bound_words"]
        entries.append({
            "cell": cell.name,
            "algorithm": cell.algorithm,
            "variant": cell.variant,
            "machine": cell.machine,
            "family": bound["family"],
            "P": vol["P"],
            "n": n,
            "word_bytes": vol["word_bytes"],
            "bound_words": bound["bound_words"],
            "measured_words": measured,
            "measured_total_words": vol["total_words"],
            "messages": vol["messages"],
            "supersteps": vol["supersteps"],
            "ratio": ratio,
            "headroom": ratio > threshold,
            "detail": bound["detail"],
        })
    entries.sort(key=lambda e: (-e["ratio"], e["cell"]))
    flagged = [e["cell"] for e in entries if e["headroom"]]
    return {
        "schema": SCHEMA,
        "scale": scale,
        "seed": seed,
        "threshold": threshold,
        "cells": [c.name for c in cells],
        "ranking": entries,
        "skipped": skipped,
        "summary": {
            "flagged": flagged,
            "max_ratio": entries[0]["ratio"] if entries else 0.0,
            "min_ratio": entries[-1]["ratio"] if entries else 0.0,
        },
    }


def render_report(report: dict) -> str:
    """The ranked headroom table the CLI prints."""
    lines = [
        "Attained vs optimal: max per-processor communication volume "
        "(words)",
        f"against the analytic lower bound; ratio > "
        f"{report['threshold']:g}x flags HEADROOM.",
        "",
    ]
    header = (f"{'#':>2}  {'cell':<18} {'family':<14} {'P':>5} {'n':>6} "
              f"{'bound':>10} {'measured':>10} {'ratio':>9}  note")
    lines.append(header)
    lines.append("-" * len(header))
    for i, e in enumerate(report["ranking"], start=1):
        note = "HEADROOM" if e["headroom"] else ""
        lines.append(
            f"{i:>2}  {e['cell']:<18} {e['family']:<14} {e['P']:>5} "
            f"{e['n']:>6} {e['bound_words']:>10.1f} "
            f"{e['measured_words']:>10.1f} {e['ratio']:>8.2f}x  {note}")
    for name in report["skipped"]:
        lines.append(f" -  {name:<18} (skipped: no measurement)")
    flagged = report["summary"]["flagged"]
    lines.append("")
    lines.append(
        f"cells: {', '.join(report['cells'])} "
        f"(scale={report['scale']:g}, seed={report['seed']}; "
        f"{len(flagged)} of {len(report['ranking'])} flagged)")
    return "\n".join(lines)
