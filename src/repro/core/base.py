"""Abstract base class for cost models.

A cost model prices a :class:`~repro.core.trace.Trace` superstep by
superstep.  Concrete models implement :meth:`comm_cost`; the local
computation term ``c`` (the maximum nominal work of any processor) is
shared by all models, as in the paper where all predictions use the same
``alpha``/``beta``/``gamma`` coefficients for local work.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from .params import ModelParams
from .relations import CommPhase, unique_phases
from .trace import Trace

__all__ = ["CostModel"]


class CostModel(ABC):
    """Prices traces in microseconds under one parallel computation model."""

    #: short identifier, e.g. ``"bsp"``; set by subclasses.
    name: str = "abstract"

    def __init__(self, params: ModelParams):
        self.params = params

    # ------------------------------------------------------------------
    @abstractmethod
    def comm_cost(self, phase: CommPhase) -> float:
        """Predicted time of one communication phase, in microseconds.

        An empty phase costs nothing: models charge their latency term
        only when communication (and hence a synchronisation) happens, so
        that computation-only supersteps can be merged with neighbours —
        this is how the paper's closed forms count e.g. ``2 L`` for the
        four-superstep matrix multiplication.
        """

    def comm_cost_batch(self, phases: "list[CommPhase]") -> "list[float]":
        """Predicted times of many phases at once.

        A model has one communication law, :meth:`comm_cost`.  Cost
        models are deterministic, so repeated phase *objects* (the
        vector engine interns recurring communication patterns) are
        priced once: this deduplicates by identity, prices each distinct
        phase with :meth:`comm_cost`, and maps the costs back to
        ``phases``.  The phases may have different processor counts.
        """
        uniq, index = unique_phases(phases)
        costs = [self.comm_cost(ph) for ph in uniq]
        return [costs[j] for j in index]

    def trace_cost(self, trace: Trace) -> float:
        """Predicted total running time of a trace."""
        comm = self.comm_cost_batch([s.phase for s in trace])
        return sum(w + c for w, c in zip(trace.work_terms(self.params), comm))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(machine={self.params.machine!r})"
