"""Performance model of a 2020s fat-tree cluster (scenario extension).

The paper's question — which cost-model ingredients matter — is asked of
1996 hardware.  This profile re-asks it under modern parameters: a
256-node cluster on a full-bisection fat tree with kernel-bypass NICs
and wide-SIMD nodes.  The *ratios* are what changed, not the physics:

* per-message software overhead fell from hundreds of microseconds
  (GCel/PVM) to well under a microsecond, but per-*word* cost fell even
  further — so fine-grain traffic is still overhead-bound and the
  paper's bulk-transfer advice survives, now at a finer message-size
  knee;
* local compute (wide SIMD + caches) is two to three orders of magnitude
  cheaper per key than a T805, pushing every workload toward the
  communication-bound regime — imbalances the 1996 machines hid behind
  slow arithmetic become first-order;
* the interesting *pattern* effects are no longer per-hop transit
  (adaptive routing on a non-blocking fat tree hides distance) but
  **incast** — many senders converging on one receiver collapse its
  ingress link — and the *discount* adaptive routing gives balanced
  permutation traffic.

Constants are representative of ~100 Gbit/s links (an 8-byte word
serialises in ~0.6 ns; we charge 0.0005 us/word end to end), ~0.4 us
kernel-bypass send overhead, and a ~5 us hardware-offloaded barrier.
"""

from __future__ import annotations

import numpy as np

from ..core.params import ModelParams
from ..core.relations import PhaseStack
from .base import Machine

__all__ = ["ModernCluster"]


class ModernCluster(Machine):
    """Simulated 256-node fat-tree cluster with wide-SIMD nodes."""

    name = "modern"
    simd = False
    PHENOMENA = ("incast-collapse", "adaptive-routing")

    def __init__(self, *, P: int = 256, seed: int = 0,
                 params: ModelParams | None = None,
                 disable: tuple[str, ...] = ()):
        nominal = params or ModelParams(
            machine="modern", P=P,
            # flat-model reference values (what a BSP calibration of this
            # machine roughly lands on; re-fitted by experiments anyway)
            g=1.2, L=6.0, sigma=0.0001, ell=1.2, w=8,
            alpha=0.0002,       # ~5 Gflop/s scalar-equivalent per node
            beta_copy=0.0001,
            sort_beta=0.002, sort_gamma=0.001, merge_alpha=0.0008)
        if nominal.P != P:
            nominal = nominal.with_updates(P=P)
        super().__init__(nominal, seed=seed, disable=disable)
        #: per-message software overhead (kernel-bypass send / recv).
        self.o_send = 0.4
        self.o_recv = 0.7
        #: end-to-end serialisation per 8-byte word (~100 Gbit/s links).
        self.word_us = 0.0005
        #: extra per-word cost on a receiver drawing more than its share
        #: (ingress-link collapse under incast).
        self.incast_word = 0.004
        #: factor adaptive routing shaves off balanced permutation
        #: traffic (no link is oversubscribed on a full-bisection tree).
        self.adaptive_gain = 0.7
        self.barrier_us = 5.0
        self.compute_noise = 0.002
        self.noise = 0.004

    def barrier_time(self) -> float:
        return self.barrier_us

    def phase_cost_batch(self, stack: PhaseStack) -> np.ndarray:
        """Deterministic routing time of every phase of ``stack``.

        A phase takes its busiest endpoint's send and receive time, plus
        the incast surcharge on a receiver drawing more than the mean
        word load; adaptive routing discounts a permutation (at most one
        message out of and into every node).  All three come from
        per-phase bincounts over the stacked groups.
        """
        count = stack.count
        words = -(-stack.msg_bytes // self.nominal.w)
        send_cost = count * self.o_send + count * words * self.word_us
        recv_cost = count * self.o_recv + count * words * self.word_us
        per_proc = stack.per_proc(stack.src, send_cost)
        per_proc += stack.per_proc(stack.dst, recv_cost)
        t = per_proc.max(axis=1)
        if self.models_phenomenon("incast-collapse"):
            recv_words = stack.per_proc(stack.dst, count * words)
            hot = recv_words.max(axis=1)
            phase_p = np.array([ph.P for ph in stack.phases], dtype=np.float64)
            mean = recv_words.sum(axis=1) / phase_p
            t = np.where(hot > mean, t + self.incast_word * (hot - mean), t)
        if self.models_phenomenon("adaptive-routing"):
            sends = stack.per_proc(stack.src, count)
            recvs = stack.per_proc(stack.dst, count)
            perm = (sends.max(axis=1) <= 1) & (recvs.max(axis=1) <= 1)
            t = np.where(perm, t * self.adaptive_gain, t)
        return t
