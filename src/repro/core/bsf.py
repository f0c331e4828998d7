"""The BSF (Bulk Synchronous Farm) master-worker cost model (extension).

After "Verification of BSF Parallel Computational Model" (PAPERS.md): a
BSF computer is a master and ``P`` workers on a star — *all* data moves
through the master, which relays every transfer serially.  Pricing a
superstep's communication phase therefore ignores the pattern entirely:
a phase with ``N`` messages totalling ``W`` words costs

    ``T_comm = 2 (g W + o_master N) + L``

(worker -> master -> worker: every word crosses the star twice, every
message pays the master's per-message handling twice, plus one global
latency).  ``o_master`` defaults to ``g`` — one word's worth of handling
per message, the natural choice when Table 1 gives no separate master
constant.

The model's signature contribution is its *scalability bound*.  With
``t_comp`` the aggregate (sequential-equivalent) work of a trace and
``t_interact`` the per-worker share of the serialised master traffic,
BSF predicts

    ``T(P') = t_comp / P' + t_interact * P'``

whose minimum over the farm size ``P'`` sits at

    ``P_max = sqrt(t_comp / t_interact)``

— beyond ``P_max`` workers, adding hardware makes the farm *slower*,
because the master's serial relay grows linearly while the per-worker
compute share shrinks.  :meth:`BSF.p_max` exposes the bound as a
first-class prediction; the hypothesis suite validates it against
simulated speedup curves.
"""

from __future__ import annotations

import math

import numpy as np

from .base import CostModel
from .params import ModelParams
from .relations import CommPhase
from .trace import Trace

__all__ = ["BSF"]


class BSF(CostModel):
    """Master-worker (Bulk Synchronous Farm) cost model."""

    name = "bsf"

    def __init__(self, params: ModelParams, o_master: float | None = None):
        super().__init__(params)
        self.o_master = float(params.g if o_master is None else o_master)

    def comm_cost(self, phase: CommPhase) -> float:
        if phase.is_empty:
            return 0.0
        w = self.params.w
        words = -(-phase.msg_bytes // w) * phase.count
        total_words = float(words.sum())
        total_msgs = float(phase.count.sum())
        return (2.0 * (self.params.g * total_words
                       + self.o_master * total_msgs) + self.params.L)

    def _comm_costs(self, phases: list[CommPhase]) -> list[float]:
        """Columnar totals (bit-identical: integer word/message sums are
        exact, and the closing arithmetic is elementwise)."""
        if type(self).comm_cost is not BSF.comm_cost:
            return super()._comm_costs(phases)
        n = len(phases)
        out = [0.0] * n
        w = self.params.w
        words_l, msgs_l, pids = [], [], []
        for i, ph in enumerate(phases):
            if not ph.is_empty:
                words_l.append(-(-ph.msg_bytes // w) * ph.count)
                msgs_l.append(ph.count)
                pids.append(np.full(ph.src.size, i, dtype=np.int64))
        if not words_l:
            return out
        words = np.concatenate(words_l)
        msgs = np.concatenate(msgs_l)
        pid = np.concatenate(pids)
        total_words = np.bincount(pid, weights=words, minlength=n)
        total_msgs = np.bincount(pid, weights=msgs, minlength=n)
        cost = (2.0 * (self.params.g * total_words
                       + self.o_master * total_msgs) + self.params.L)
        for i in np.unique(pid).tolist():
            out[i] = float(cost[i])
        return out

    # ------------------------------------------------------------------
    # The scalability bound
    # ------------------------------------------------------------------
    def t_comp(self, trace: Trace) -> float:
        """Aggregate sequential-equivalent work of the trace, in us."""
        return float(sum(trace.work_totals(self.params)))

    def t_interact(self, trace: Trace) -> float:
        """Per-worker share of the serialised master interaction, in us.

        The total master-relay time grows linearly in the farm size when
        every worker contributes a fixed traffic share, so dividing the
        traced total by the traced farm size gives the size-independent
        interaction constant of the BSF scaling law.
        """
        comm = self.comm_cost_batch([s.phase for s in trace])
        return float(sum(comm)) / trace.P

    def predicted_time(self, trace: Trace, P: int | None = None) -> float:
        """``T(P') = t_comp / P' + t_interact * P'`` for a farm of ``P'``."""
        p = float(trace.P if P is None else P)
        if p <= 0:
            raise ValueError(f"farm size must be positive, got {p}")
        return self.t_comp(trace) / p + self.t_interact(trace) * p

    def p_max(self, trace: Trace) -> float:
        """The BSF scalability bound ``sqrt(t_comp / t_interact)``.

        The farm size past which adding workers slows the computation
        down; ``inf`` for interaction-free traces.
        """
        tc = self.t_comp(trace)
        ti = self.t_interact(trace)
        if ti <= 0.0:
            return float("inf")
        return math.sqrt(tc / ti)
