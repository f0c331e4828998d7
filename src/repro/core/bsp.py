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
from .relations import CommPhase

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
