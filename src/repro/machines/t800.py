"""Performance model of a T800 transputer grid under Parix (extension).

Paper §3: "In an earlier paper, we did a limited study for a T800
platform [15]."  We add that platform as a fourth machine because it
exposes the one E-BSP ingredient the paper's three testbeds do not
isolate: **general locality**.  Unlike the GCel (whose HPVM software
costs swamp everything), native Parix channel communication on a T800
grid is cheap enough that *store-and-forward transit per hop* is a
first-order cost:

* a message to a grid neighbour costs little more than the software
  overhead;
* a message across the machine pays per hop and per word — so a random
  permutation costs several times a neighbour permutation, and a cost
  model with one flat ``g`` (BSP, MP-BPRAM) cannot price both;
* the E-BSP companion report ("Incorporating Unbalanced Communication
  and *General Locality* into the BSP Model") is exactly about this —
  see :class:`repro.core.ebsp.LocalityAwareBSP`.

Constants are representative of a 20 MHz T800 with 4 x 20 Mbit/s links
and Parix's lightweight channel layer (~tens of microseconds per
message, ~1 us per word per store-and-forward hop).
"""

from __future__ import annotations

import numpy as np

from ..core.errors import SimulationError
from ..core.params import ModelParams
from ..core.relations import PhaseStack
from .base import Machine

__all__ = ["T800Grid"]


class T800Grid(Machine):
    """Simulated T800 transputer grid (native Parix channels)."""

    name = "t800"
    simd = False

    def __init__(self, *, P: int = 64, seed: int = 0,
                 params: ModelParams | None = None,
                 disable: tuple[str, ...] = ()):
        side = int(round(P ** 0.5))
        if side * side != P:
            raise SimulationError(f"T800 grid needs a square P, got {P}")
        nominal = params or ModelParams(
            machine="t800", P=P,
            # flat-model reference values (what a BSP calibration of this
            # machine roughly lands on; re-fitted by experiments anyway)
            g=115.0, L=400.0, sigma=16.0, ell=500.0, w=4,
            alpha=1.4,        # 20 MHz T800 FPU, ~1.4 us per compound op
            beta_copy=0.25,
            sort_beta=1.4, sort_gamma=1.1, merge_alpha=1.0)
        if nominal.P != P:
            nominal = nominal.with_updates(P=P)
        super().__init__(nominal, seed=seed, disable=disable)
        self.side = side
        #: per-message software overhead (Parix channel setup, send+recv).
        self.o_send = 14.0
        self.o_recv = 16.0
        #: store-and-forward cost per word per hop.
        self.hop_word = 12.0
        #: serialisation per word on the most loaded grid link.
        self.link_word = 2.0
        self.barrier_us = 380.0
        self.compute_noise = 0.01
        self.noise = 0.006

    # ------------------------------------------------------------------
    def coords(self, rank: int) -> tuple[int, int]:
        return divmod(rank, self.side)

    def hops(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Manhattan distance between endpoints, elementwise."""
        sr, sc = np.divmod(src, self.side)
        dr, dc = np.divmod(dst, self.side)
        return np.abs(sr - dr) + np.abs(sc - dc)

    # local computation: nominal coefficients; the base class multiplies
    # in one ``compute_noise`` jitter factor per work item.

    def barrier_time(self) -> float:
        return self.barrier_us

    def phase_cost_batch(self, stack: PhaseStack) -> np.ndarray:
        """Deterministic routing time of every phase of ``stack``.

        A phase takes its busiest node's time — per-message software
        overhead plus store-and-forward transit per word per hop — plus
        serialisation on the busiest mesh link.  Hops, transit and
        per-node software costs are elementwise over the stacked groups.
        Link loads approximate dimension-ordered routing by the words
        crossing each of the ``2 (side - 1)`` row and column cuts; the
        loop over cuts takes one integer sum per phase over every phase
        at once (exact in any order).
        """
        side = self.side
        count = stack.count
        words = -(-stack.msg_bytes // self.nominal.w)
        sr, sc = np.divmod(stack.src, side)
        dr, dc = np.divmod(stack.dst, side)
        hops = np.abs(sr - dr) + np.abs(sc - dc)
        send_cost = count * (self.o_send + 0.0 * words)
        recv_cost = count * self.o_recv
        transit = count * words * hops * self.hop_word
        per_proc = stack.per_proc(stack.src, send_cost + transit)
        per_proc += stack.per_proc(stack.dst, recv_cost)
        t = per_proc.max(axis=1)

        cwords = count * words
        loads = np.zeros((2 * side, stack.n))
        for cut in range(side - 1):
            crossing = (sc <= cut) != (dc <= cut)
            loads[cut] = stack.per_phase(cwords * crossing) / side
        for cut in range(side - 1):
            crossing = (sr <= cut) != (dr <= cut)
            loads[side + cut] = stack.per_phase(cwords * crossing) / side
        return t + self.link_word * loads.max(axis=0)
