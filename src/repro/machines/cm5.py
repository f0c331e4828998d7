"""Performance model of the 64-node CM-5 (paper §3.3).

32 MHz Sparc nodes (64 KB direct-mapped cache) on a fat-tree data network
plus a fast control network for barriers, programmed in Split-C without
the vector units.  Salient behaviours:

* fine-grain active-message traffic costs a few microseconds per message
  (``g ~= 9.1`` us per 8-byte message, ``L ~= 45`` us — Table 1); the fat
  tree has enough bisection bandwidth that partial patterns cost about the
  same per message as full h-relations (§5.3);
* **endpoint contention**: a node services one incoming message at a
  time, so an *unstaggered* schedule in which many nodes target the same
  destination stalls the senders — the +21% error of the initial
  matrix-multiplication implementation (§5.1, Fig. 4);
* block transfers: ``sigma ~= 0.27`` us/byte, ``ell ~= 75`` us;
* the local matrix multiply is cache-sensitive: 6.5-7.5 Mflops while the
  working set fits, dropping toward 5.2 Mflops for large blocks and
  suffering call overhead for tiny ones (§4.1.1) — the model-error source
  at small and large ``N`` in Figs. 4 and 9.
"""

from __future__ import annotations

import numpy as np

from ..core.params import ModelParams, paper_params
from ..core.relations import PhaseStack
from ..core.work import MatmulBlock
from .base import Machine

__all__ = ["CM5"]


class CM5(Machine):
    """Simulated 64-node CM-5 (Split-C, no vector units)."""

    name = "cm5"
    simd = False
    #: ablatable phenomena (see :mod:`repro.ablation.components`):
    #: endpoint contention of unstaggered schedules (§5.1), the machine's
    #: sensitivity to schedule staggering, and the cache-dependent local
    #: matmul rate (§4.1.1).
    PHENOMENA = ("endpoint-contention", "comm-staggering", "cache-effects")

    def __init__(self, *, P: int = 64, seed: int = 0,
                 params: ModelParams | None = None,
                 disable: tuple[str, ...] = ()):
        nominal = params or paper_params("cm5").with_updates(P=P)
        if nominal.P != P:
            nominal = nominal.with_updates(P=P)
        super().__init__(nominal, seed=seed, disable=disable)
        #: per fine-grain message software overheads (active messages).
        #: Injection dominates (network-interface gap); the receive
        #: handler is cheap and largely overlapped — this is why a
        #: scatter costs almost as much per message as a full h-relation
        #: on this machine (§5.3: "only a minor difference").
        self.o_send = 8.0
        self.o_recv = 1.1
        #: per-message fat-tree transit at full machine load.
        self.net_msg = 0.3
        #: block-transfer overheads (send/recv split of Table 1).
        self.ell_send = 25.0
        self.ell_recv = 50.0
        self.sigma_send = 0.09
        self.sigma_recv = 0.18
        #: below this, messages go through the active-message path whose
        #: per-byte streaming cost makes the fine/block transition smooth.
        self.block_threshold = 256
        #: endpoint-contention penalty coefficient for unstaggered phases.
        #: A zero coefficient makes the penalty factor exactly 1.0, so
        #: ablating the phenomenon is an FP-exact no-op on every phase.
        self.hotspot_coef = (
            0.45 if self.models_phenomenon("endpoint-contention") else 0.0)
        #: when ablated the machine stops rewarding staggered schedules:
        #: the hot-spot penalty applies regardless of ``phase.stagger``.
        self.stagger_sensitive = self.models_phenomenon("comm-staggering")
        #: when ablated the local matmul runs at the nominal flat rate.
        self.cache_sensitive = self.models_phenomenon("cache-effects")
        #: barrier on the control network.
        self.barrier_us = 38.0
        self.noise = 0.005
        #: local matmul rate (Mflops) by working-set size (bytes); the
        #: nominal alpha corresponds to 2/alpha ~= 6.9 Mflops.
        self.cache_bytes = 64 * 1024
        self.compute_noise = 0.01

    # ------------------------------------------------------------------
    # Local computation with cache effects (§4.1.1)
    # ------------------------------------------------------------------
    def compute_time_batch(self, kind: type, params: dict,
                           ranks) -> np.ndarray:
        if kind is MatmulBlock and self.cache_sensitive:
            m = np.asarray(params["m"], dtype=np.int64)
            k = np.asarray(params["k"], dtype=np.int64)
            n = np.asarray(params["n"], dtype=np.int64)
            flops = m * k * n
            ws = 8 * (m * k + k * n + m * n)  # 8-byte elements, 3 operands
            # Sustained Mflops of the assembly kernel by block size, then
            # by working set against the cache; first match wins.  Tiny
            # blocks pay call/loop overhead, small ones short inner loops.
            rate = np.select(
                [flops == 0, flops < 2048, flops < 8192, flops < 32768,
                 ws <= self.cache_bytes, ws <= 3 * self.cache_bytes,
                 ws <= 12 * self.cache_bytes],
                [7.4, 3.8, 4.0, 5.8, 7.4, 6.9, 6.2], default=5.2)
            # time per compound op = 2 flops / rate
            return (2.0 / rate) * flops
        return super().compute_time_batch(kind, params, ranks)

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def barrier_time(self) -> float:
        return self.barrier_us

    def phase_cost_batch(self, stack: PhaseStack) -> np.ndarray:
        """Deterministic routing time of every phase of ``stack``.

        Send and receive handlers serialise on the node's processor, so
        a phase takes its busiest node's handler time, plus fat-tree
        transit scaled by how loaded the machine is, times the hot-spot
        factor of an unstaggered schedule.  The handler and transit
        analysis runs over the stacked groups; the hot-spot factor needs
        ``max_fan_in`` only for unstaggered phases, which stay on the
        per-phase (cached) property.
        """
        count, mb = stack.count, stack.msg_bytes
        blocky = mb >= self.block_threshold
        # per-message overhead plus streaming of any bytes beyond one
        # word — grouping a few words into one active message pays the
        # overhead once (the 16-byte-message observation of §8)
        extra = np.maximum(0, mb - self.nominal.w)
        send_cost = np.where(blocky,
                             count * (self.ell_send + self.sigma_send * mb),
                             count * (self.o_send + self.sigma_send * extra))
        recv_cost = np.where(blocky,
                             count * (self.ell_recv + self.sigma_recv * mb),
                             count * (self.o_recv + self.sigma_recv * extra))
        t = (stack.per_proc(stack.src, send_cost)
             + stack.per_proc(stack.dst, recv_cost)).max(axis=1)

        sends = stack.per_proc(stack.src, count)
        recvs = stack.per_proc(stack.dst, count)
        active = ((sends > 0) | (recvs > 0)).sum(axis=1)
        t = t + self.net_msg * (active / self.P) * recvs.max(axis=1)

        for i, ph in enumerate(stack.phases):
            if ph.n_groups and (not ph.stagger or not self.stagger_sensitive):
                # Unstaggered schedules create transient many-to-one hot
                # spots: senders stall on the destination's service rate
                # (§5.1).
                f = ph.max_fan_in
                if f > 1:
                    t[i] *= 1.0 + self.hotspot_coef * (1.0 - 1.0 / f)
        return t
