"""The E-BSP model — BSP extended with unbalanced communication (§2.3, §4.4.1).

E-BSP views every communication pattern as an ``(M, h1, h2)``-relation and,
crucially, charges *less* for patterns in which only part of the machine is
active.  The paper instantiates it twice:

* **MasPar variant** (:class:`EBSP`): the cost of a communication step with
  ``P'`` active processors is ``T_unb(P') = a P' + b sqrt(P') + c``, the
  law fitted from Fig. 2.  A phase is priced as a sequence of such steps
  (plus a ``g`` tail for steps that are 1-h relations with ``h > 1``).
* **GCel variant** (:class:`ScatterAwareBSP`): the paper observes that a
  multinode scatter — ``sqrt(P)`` senders spreading ``h`` messages over the
  machine — costs ``g_mscat * h + L`` with ``g_mscat ~= g / 9.1`` (§5.3,
  Fig. 14), and repairs the APSP prediction by using ``g_mscat`` for
  scatter-like supersteps.
"""

from __future__ import annotations

import math

import numpy as np

from .base import CostModel
from .bsp import BSP
from .errors import ModelError
from .params import ModelParams, UnbalancedCost
from .relations import CommPhase

__all__ = ["EBSP", "ScatterAwareBSP", "LocalityAwareBSP"]


class EBSP(CostModel):
    """E-BSP with an explicit partial-permutation cost law (MasPar §4.4.1)."""

    name = "e-bsp"

    def __init__(self, params: ModelParams, unb: UnbalancedCost):
        super().__init__(params)
        self.unb = unb

    def step_cost(self, substep: CommPhase) -> float:
        """Cost of one scheduled step, decomposed into single-port sub-steps.

        A processor sending ``s`` words in the step performs ``s``
        sequential word-level communication steps; in each, the active
        message count is the number of sending processors (the paper's
        ``P'``, Fig. 2).  A sub-step whose hottest destination receives
        ``h > 1`` words serialises there, adding the ``g`` tail.
        """
        if substep.is_empty:
            return 0.0
        w = self.params.w
        words = -(-substep.msg_bytes // w) * substep.count
        sent = np.bincount(substep.src, weights=words, minlength=substep.P)
        recv = np.bincount(substep.dst, weights=words, minlength=substep.P)
        s = float(sent.max(initial=0))
        if s == 0:
            return 0.0
        per_step = self.unb(substep.senders)
        h_r_step = float(np.ceil(recv.max(initial=0) / s))
        if h_r_step > 1:
            per_step += self.params.g * (h_r_step - 1)
        return s * per_step

    def comm_cost(self, phase: CommPhase) -> float:
        if phase.is_empty:
            return 0.0
        if phase.n_steps > 1:
            return sum(self.step_cost(sub) for sub in phase.split_steps())
        return self.step_cost(phase)


class ScatterAwareBSP(BSP):
    """BSP with a cheaper bandwidth factor for scatter-like phases.

    A phase counts as *scatter-like* when at most ``sqrt(P)`` processors
    send while the receives are spread over (essentially) the whole
    machine — the ``(N, N/sqrt(P), N/P)``-relation of the paper's APSP
    broadcast.  Such phases are priced ``g_scatter * h + L``; everything
    else falls back to plain BSP.
    """

    name = "bsp+mscat"

    def __init__(self, params: ModelParams, g_scatter: float):
        super().__init__(params)
        if g_scatter <= 0:
            raise ModelError("g_scatter must be positive")
        self.g_scatter = g_scatter

    def is_scatter_like(self, phase: CommPhase) -> bool:
        if phase.is_empty:
            return False
        few_senders = phase.senders <= math.isqrt(phase.P) + 1
        spread = phase.receivers >= phase.P // 2
        return few_senders and spread

    def comm_cost(self, phase: CommPhase) -> float:
        if phase.is_empty:
            return 0.0
        if not self.is_scatter_like(phase):
            return super().comm_cost(phase)
        w = self.params.w
        words = -(-phase.msg_bytes // w) * phase.count
        sent = np.bincount(phase.src, weights=words, minlength=phase.P)
        h = float(sent.max(initial=0))
        return self.g_scatter * h + self.params.L


class LocalityAwareBSP(BSP):
    """BSP with a distance-dependent bandwidth factor (E-BSP's "general
    locality" ingredient — extension).

    On a store-and-forward grid, a word travelling ``d`` hops costs
    roughly ``g0 + g_hop * d``; the flat BSP ``g`` is this quantity
    averaged over a *random* pattern.  This model prices each message by
    its actual distance on a ``side x side`` grid, so neighbour patterns
    (halo exchanges) come out cheaper and machine-spanning patterns
    dearer — the effect the E-BSP technical report models and our T800
    machine exhibits.

    ``g0`` is the distance-independent per-word cost and ``g_hop`` the
    per-word-per-hop cost; a calibration can obtain them by fitting
    timings of fixed-distance permutations (see the ext-t800 experiment).
    """

    name = "bsp+locality"

    def __init__(self, params: ModelParams, side: int, g0: float,
                 g_hop: float):
        super().__init__(params)
        if side * side != params.P:
            raise ModelError(f"grid side {side} does not match P={params.P}")
        if g0 < 0 or g_hop < 0:
            raise ModelError("g0 and g_hop must be non-negative")
        self.side = side
        self.g0 = g0
        self.g_hop = g_hop

    def comm_cost(self, phase: CommPhase) -> float:
        if phase.is_empty:
            return 0.0
        w = self.params.w
        words = -(-phase.msg_bytes // w) * phase.count
        sr, sc = np.divmod(phase.src, self.side)
        dr, dc = np.divmod(phase.dst, self.side)
        hops = np.abs(sr - dr) + np.abs(sc - dc)
        cost = words * (self.g0 + self.g_hop * hops)
        per_send = np.bincount(phase.src, weights=cost, minlength=phase.P)
        per_recv = np.bincount(phase.dst, weights=cost, minlength=phase.P)
        return float(np.maximum(per_send, per_recv).max()) + self.params.L
