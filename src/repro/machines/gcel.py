"""Performance model of the 64-node Parsytec GCel under HPVM (paper §3.2).

An 8 x 8 mesh of 30 MHz T805 transputers with store-and-forward routing,
programmed through "homogeneous PVM".  The dominant communication costs
are *software*: per fine-grain message the sender spends ``c_send ~= 450``
us and the receiver ``c_recv ~= 4030`` us, so

* a random full h-relation costs ``(c_send + c_recv) h ~= 4480 h`` plus a
  barrier of ~5100 us — Table 1's ``g = 4480, L = 5100``;
* a multinode scatter (``sqrt(P)`` senders, everyone receiving ``<= h /
  sqrt(P)``) is receive-bound at ``c_recv h / 8 ~= 500 h`` — the paper's
  ``g_mscat ~= 492``, a factor 9.1 cheaper than a full h-relation
  (Fig. 14), which plain BSP cannot express;
* block transfers amortise the software cost: ``sigma ~= 9.3`` us/byte
  with ``ell ~= 6900`` us startup, a bulk gain ``g/(w sigma) ~= 120``.

Without barriers the processors *drift out of sync* (§5.1, Fig. 7): h-h
permutations are linear in ``h`` until roughly ``h = 300``, after which
PVM's buffering collapses and times become noisy and super-linear.
Inserting a barrier every 256 messages restores linearity — the paper's
"synchronized" bitonic variant.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import SimulationError
from ..core.params import ModelParams, paper_params
from ..core.relations import PhaseStack
from .base import CommPricer, Machine

__all__ = ["GCel"]


class GCel(Machine):
    """Simulated 64-node Parsytec GCel (8 x 8 transputer mesh) under HPVM."""

    name = "gcel"
    simd = False
    #: ablatable phenomena (see :mod:`repro.ablation.components`): the
    #: PVM buffering collapse of long unsynchronised message sequences
    #: (§5.1, Fig. 7).
    PHENOMENA = ("sync-loss",)

    def __init__(self, *, P: int = 64, seed: int = 0,
                 params: ModelParams | None = None,
                 disable: tuple[str, ...] = ()):
        nominal = params or paper_params("gcel").with_updates(P=P)
        if nominal.P != P:
            nominal = nominal.with_updates(P=P)
        super().__init__(nominal, seed=seed, disable=disable)
        #: drift collapse switch: when ablated, ``_drift_extra`` adds
        #: nothing and draws no noise.
        self.sync_loss = self.models_phenomenon("sync-loss")
        side = int(round(P ** 0.5))
        self.side = side if side * side == P else 0  # 0 = not a square mesh
        #: per-message software overheads of fine-grain HPVM traffic.
        self.c_send = 450.0
        self.c_recv = 4030.0
        #: extra per-byte cost of fine messages beyond one word.
        self.fine_byte = 12.0
        #: block-transfer overheads (send + recv split of Table 1's ell/sigma).
        self.ell_send = 700.0
        self.ell_recv = 6200.0
        self.sigma_send = 2.3
        self.sigma_recv = 7.0
        #: messages at least this large go through the block path (below
        #: it, the per-byte fine-grain cost is cheaper anyway — the
        #: crossover of the two software paths).
        self.block_threshold = 160
        #: store-and-forward transit cost per word crossing the bisection.
        self.hop_word = 0.2
        #: barrier synchronisation (global exchange over the mesh).
        self.barrier_us = 5100.0
        #: drift: PVM buffering degrades beyond this many back-to-back
        #: messages per node without a barrier.
        self.drift_window = 300
        self.drift_rate = 1400.0
        self.compute_noise = 0.01

    # Local computation: MIMD, nominal coefficients with small per-item
    # timing jitter — the base class applies ``compute_noise``.

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def _drift_extra(self, steps: int, participants: np.ndarray) -> np.ndarray:
        """Super-linear, noisy penalty once PVM buffering saturates."""
        if not self.sync_loss:
            return np.zeros(participants.size)
        window = self.drift_window * self.jitter(0.1)
        excess = steps - window
        if excess <= 0:
            return np.zeros(participants.size)
        noise = self.rng.lognormal(mean=0.0, sigma=0.7, size=participants.size)
        extra = np.zeros(participants.size)
        extra[participants] = excess * self.drift_rate * noise[participants]
        return extra

    def barrier_time(self) -> float:
        return self.barrier_us

    def comm_time_batch(self, stack: PhaseStack, idx=None) -> CommPricer:
        return _GCelCommPricer(self, stack, idx)


class _GCelCommPricer(CommPricer):
    """GCel pricer: per-node times, advanced with drift.

    Each node's software + transit time in a phase is deterministic, so
    the times of every distinct phase form one ``(n, P)`` table built
    from the stacked groups (per-group costs elementwise, per-node sums
    through per-phase bincounts, bisection words through exact integer
    sums).  The advance step draws its jitter and drift noise per phase,
    in call order.
    """

    #: no fused costs: a barrier-free advance lands each node on its own
    #: time, with per-node noise and drift, so a phase's price is not one
    #: cost added to the clocks' running maximum.
    sequence_costs = None

    _COLUMNS = ("_times",)

    def _prep(self, stack: PhaseStack) -> None:
        m: GCel = self.machine
        # fine messages pay HPVM's per-message overhead plus a per-byte
        # cost beyond one word; block messages pay ell + sigma * bytes
        count, mb = stack.count, stack.msg_bytes
        blocky = mb >= m.block_threshold
        extra = np.maximum(0, mb - m.nominal.w)
        send_cost = np.where(blocky,
                             count * (m.ell_send + m.sigma_send * mb),
                             count * (m.c_send + m.fine_byte * extra))
        recv_cost = np.where(blocky,
                             count * (m.ell_recv + m.sigma_recv * mb),
                             count * (m.c_recv + m.fine_byte * extra))
        times = stack.per_proc(stack.src, send_cost)
        times += stack.per_proc(stack.dst, recv_cost)
        # Mesh transit: words crossing the vertical bisection share its
        # ``side`` links.
        if m.side:
            crossing = ((stack.src % m.side < m.side // 2)
                        != (stack.dst % m.side < m.side // 2))
            words = count * -(-mb // m.nominal.w)
            cross_words = stack.per_phase(words * crossing)
            times += (m.hop_word * cross_words / m.side)[:, None]
        self._times = times

    def comm_time(self, i: int, clocks: np.ndarray, *,
                  barrier: bool = True) -> np.ndarray:
        m: GCel = self.machine
        u = self._idx[i]
        phase = self.phases[u]
        if clocks.shape != (phase.P,):
            raise SimulationError("clock array does not match phase P")
        if phase.is_empty:
            if barrier:
                return np.full(phase.P, float(clocks.max()) + m.barrier_us)
            return clocks.copy()
        # rows are as wide as the widest phase; this phase uses its own P
        times = self._times[u, :phase.P]
        if barrier:
            total = float(clocks.max()) + float(times.max()) + m.barrier_us
            return np.full(phase.P, total)
        # No barrier: receivers wait for their senders, then proceed;
        # small per-node jitter makes the clocks spread, and long
        # unsynchronised message sequences trigger the drift collapse.
        wait = clocks.copy()
        np.maximum.at(wait, phase.dst, clocks[phase.src])
        new = wait + times * (1.0 + m.rng.normal(0.0, 0.01, size=phase.P))
        participants = (phase.sends_per_proc > 0) | (phase.recvs_per_proc > 0)
        steps = int(phase.sends_per_proc.max(initial=0))
        new += m._drift_extra(steps, participants)
        return np.maximum(new, clocks)
