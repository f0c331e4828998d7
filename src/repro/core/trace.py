"""Execution traces: the interface between algorithms, machines and models.

Running an algorithm on the SPMD simulator produces a :class:`Trace` — a
sequence of :class:`Superstep` records, each holding the local work done by
every processor and the communication pattern that followed it.  The same
trace is then priced twice:

* a *machine* prices it during simulation — that is the "measured" time;
* a *cost model* prices it afterwards — that is the "predicted" time.

This mirrors the paper's methodology: the implementation is fixed, and the
question is how well each model's cost function anticipates what the
machine actually does with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TraceError
from .params import ModelParams
from .relations import CommPhase
from .work import NO_WORK, StepWork, Work

__all__ = ["Superstep", "Trace"]


@dataclass
class Superstep:
    """One superstep: per-processor local work, then one communication phase."""

    phase: CommPhase
    #: the local work, an immutable columnar record (see :class:`StepWork`).
    work: StepWork = NO_WORK
    label: str = ""
    #: duration charged by the machine model during simulation (max across
    #: processors), filled in by the engine; ``nan`` if never simulated.
    measured_us: float = float("nan")

    @property
    def P(self) -> int:
        return self.phase.P

    def add_work(self, proc: int, item: Work) -> None:
        """Charge ``item`` last on ``proc``.  This superstep gets a new
        record; a record other supersteps share is never edited."""
        if not 0 <= proc < self.P:
            raise TraceError(f"processor {proc} out of range for P={self.P}")
        self.work = self.work.plus(proc, item)

    def work_nominal_us(self, params: ModelParams) -> np.ndarray:
        """Per-processor nominal local-computation time, shape ``(P,)``."""
        return self.work.nominal_us(params, self.P)

    def max_work_nominal_us(self, params: ModelParams) -> float:
        """The model's ``c`` term: maximum local computation of any processor."""
        if not self.work:
            return 0.0
        return float(self.work_nominal_us(params).max())


@dataclass
class Trace:
    """A complete run: an ordered list of supersteps."""

    P: int
    supersteps: list[Superstep] = field(default_factory=list)
    label: str = ""

    def append(self, step: Superstep) -> None:
        if step.P != self.P:
            raise TraceError(
                f"superstep has P={step.P}, trace has P={self.P}")
        self.supersteps.append(step)

    def __len__(self) -> int:
        return len(self.supersteps)

    def __iter__(self):
        return iter(self.supersteps)

    def __getitem__(self, idx: int) -> Superstep:
        return self.supersteps[idx]

    def work_terms(self, params: ModelParams) -> list[float]:
        """Every superstep's ``c`` term, in trace order.

        Equal to ``[s.max_work_nominal_us(params) for s in trace]``, but
        each distinct work record *object* is priced once per call: IR
        replay hands every superstep of one batch list the same record,
        just as the vector engine interns phases for
        :meth:`CostModel.comm_cost_batch`.  Records are immutable, and
        :meth:`Superstep.add_work` swaps in a new one.
        """
        return self._per_record(
            lambda s: s.max_work_nominal_us(params))

    def work_totals(self, params: ModelParams) -> list[float]:
        """Every superstep's aggregate work (summed over processors), in
        trace order, deduplicated by record like :meth:`work_terms`."""
        return self._per_record(
            lambda s: float(s.work_nominal_us(params).sum()))

    def _per_record(self, price) -> list[float]:
        """``[price(s) for s in self]``, calling ``price`` once per
        distinct non-empty work record; empty work prices as ``0.0``."""
        seen: dict[int, float] = {}
        out: list[float] = []
        for s in self.supersteps:
            work = s.work
            if not work:
                out.append(0.0)
                continue
            cost = seen.get(id(work))
            if cost is None:
                cost = seen[id(work)] = price(s)
            out.append(cost)
        return out

    @property
    def measured_us(self) -> float:
        """Total machine-charged time (sum over supersteps)."""
        total = 0.0
        for step in self.supersteps:
            if np.isnan(step.measured_us):
                raise TraceError(
                    "trace contains supersteps that were never simulated")
            total += step.measured_us
        return total

    @property
    def total_messages(self) -> int:
        return sum(s.phase.total_messages for s in self.supersteps)

    @property
    def total_bytes(self) -> int:
        return sum(s.phase.total_bytes for s in self.supersteps)

    def summary(self) -> str:
        """A short human-readable description of the trace."""
        lines = [f"Trace({self.label or 'unnamed'}): P={self.P}, "
                 f"{len(self)} supersteps, {self.total_messages} messages, "
                 f"{self.total_bytes} bytes"]
        for i, s in enumerate(self.supersteps):
            rel = s.phase.relation()
            lines.append(
                f"  [{i:3d}] {s.label or '-':<28} "
                f"M={rel.M:<8d} h1={rel.h1:<6d} h2={rel.h2:<6d} "
                f"active={rel.active}")
        return "\n".join(lines)
