"""The Bulk-Synchronous Parallel cost model (Valiant 1990, paper §2.1).

The cost of a superstep ``S`` is ``c + g * max(h_s, h_r) + L`` where ``c``
is the maximum local computation, ``h_s``/``h_r`` the maximum number of
messages sent/received by any processor.  This follows the cost definition
the paper adopts from Bisseling & McColl (their footnote 1) rather than
Valiant's original ``max{c, g*h_s, g*h_r, L}``.

Messages larger than the machine word ``w`` count as multiple messages —
BSP gives no special treatment to long messages (paper §1).
"""

from __future__ import annotations

import numpy as np

from .base import CostModel
from .relations import CommPhase, PhaseStack

__all__ = ["BSP"]


class BSP(CostModel):
    """The plain BSP model with parameters ``(P, g, L)`` and word size ``w``."""

    name = "bsp"

    def words_per_proc(self, phase: CommPhase) -> tuple[int, int]:
        """Max words sent / received by any processor.

        A message of ``b`` bytes counts as ``ceil(b / w)`` BSP messages.
        """
        w = self.params.w
        words = -(-phase.msg_bytes // w) * phase.count  # ceil division
        sent = np.bincount(phase.src, weights=words, minlength=phase.P)
        recv = np.bincount(phase.dst, weights=words, minlength=phase.P)
        return int(sent.max(initial=0)), int(recv.max(initial=0))

    def comm_cost(self, phase: CommPhase) -> float:
        if phase.is_empty:
            return 0.0
        h_s, h_r = self.words_per_proc(phase)
        return self.params.g * max(h_s, h_r) + self.params.L

    def _comm_costs(self, phases: list[CommPhase]) -> list[float]:
        """Columnar ``g h + L`` over many phases at once (bit-identical).

        Word totals are integers, so the per-phase bincount sums are
        exact; subclasses that override :meth:`comm_cost` automatically
        fall back to the scalar loop.
        """
        if type(self).comm_cost is not BSP.comm_cost:
            return super()._comm_costs(phases)
        stack = PhaseStack(phases)
        words = -(-stack.msg_bytes // self.params.w) * stack.count
        h = np.maximum(stack.per_proc(stack.src, words).max(axis=1),
                       stack.per_proc(stack.dst, words).max(axis=1))
        cost = self.params.g * h + self.params.L
        return np.where(stack.live, cost, 0.0).tolist()
