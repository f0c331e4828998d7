"""Per-superstep model-error attribution.

The paper's evaluation doesn't stop at "the prediction is 21% off" — it
identifies *which communication behaviour* carries the error (processor
contention in the matmul replicate phase, the cheap cube pattern in
bitonic's exchanges, the scatter superstep of APSP).  This module
mechanises that diagnosis: price a trace superstep by superstep, compare
against the machine's measured time, and rank the labels by their
contribution to the total error.

The same machinery doubles as a profiler (:func:`time_by_label`): the
hpc-parallel guides' first rule is "no optimisation without measuring",
and that applies to virtual time too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.base import CostModel
from ..core.errors import TraceError
from ..core.trace import Trace

__all__ = ["time_by_label", "LabelError", "attribute_error",
           "render_attribution"]


def _family(label: str) -> str:
    """Collapse per-iteration labels: ``col-scatter-17`` -> ``col-scatter``,
    ``r3-allgather`` -> ``r-allgather``, ``merge-2.1`` -> ``merge``."""
    if not label:
        return "(unlabelled)"
    parts = []
    for part in label.split("-"):
        stripped = part.rstrip("0123456789.")
        if stripped:
            parts.append(stripped)
    return "-".join(parts) if parts else "(numeric)"


def time_by_label(trace: Trace) -> dict[str, float]:
    """Measured virtual time aggregated by superstep label family."""
    out: dict[str, float] = {}
    for step in trace:
        if np.isnan(step.measured_us):
            raise TraceError("trace contains unsimulated supersteps")
        key = _family(step.label)
        out[key] = out.get(key, 0.0) + step.measured_us
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


@dataclass
class LabelError:
    """Measured vs predicted time for one superstep family."""

    label: str
    measured_us: float
    predicted_us: float

    @property
    def gap_us(self) -> float:
        """Signed prediction gap (positive = model overestimates)."""
        return self.predicted_us - self.measured_us

    @property
    def error(self) -> float:
        if self.measured_us == 0:
            return 0.0 if self.predicted_us == 0 else float("inf")
        return self.gap_us / self.measured_us


def attribute_error(trace: Trace, model: CostModel) -> list[LabelError]:
    """Rank superstep families by their contribution to the model error.

    Returns one :class:`LabelError` per label family, sorted by absolute
    gap — the first entry answers "where is the model wrong?".
    """
    if any(np.isnan(step.measured_us) for step in trace):
        raise TraceError("trace contains unsimulated supersteps")
    comp = trace.work_terms(model.params)
    comm = model.comm_cost_batch([step.phase for step in trace])
    measured: dict[str, float] = {}
    predicted: dict[str, float] = {}
    for step, w, c in zip(trace, comp, comm):
        key = _family(step.label)
        measured[key] = measured.get(key, 0.0) + step.measured_us
        predicted[key] = predicted.get(key, 0.0) + (w + c)
    rows = [LabelError(label=k, measured_us=measured[k],
                       predicted_us=predicted[k]) for k in measured]
    rows.sort(key=lambda r: -abs(r.gap_us))
    return rows


def render_attribution(rows: list[LabelError], *, top: int = 10) -> str:
    """Text table of the largest error contributors."""
    head = (f"{'superstep family':<26}{'measured':>12}{'predicted':>12}"
            f"{'gap':>12}{'err':>8}")
    lines = ["Model-error attribution (largest gaps first)", head,
             "-" * len(head)]
    for r in rows[:top]:
        err = f"{r.error:+.0%}" if np.isfinite(r.error) else "inf"
        lines.append(f"{r.label:<26}{r.measured_us:>12,.0f}"
                     f"{r.predicted_us:>12,.0f}{r.gap_us:>+12,.0f}"
                     f"{err:>8}")
    total_m = sum(r.measured_us for r in rows)
    total_p = sum(r.predicted_us for r in rows)
    lines.append("-" * len(head))
    lines.append(f"{'total':<26}{total_m:>12,.0f}{total_p:>12,.0f}"
                 f"{total_p - total_m:>+12,.0f}"
                 f"{(total_p - total_m) / total_m:>+8.0%}")
    return "\n".join(lines)
