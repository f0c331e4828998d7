"""Performance model of the MasPar MP-1 (paper §3.1).

A massively parallel SIMD machine: up to 1024 processor elements (PEs)
driven in lockstep by an array control unit, communicating through a
circuit-switched expanded-delta *global router* with **one router channel
per cluster of 16 PEs**.

The model reproduces the phenomena the paper measures:

* a communication step in which ``P'`` PEs send one word each takes
  ``T_unb(P') = 0.84 P' + 11.8 sqrt(P') + 73.3`` microseconds (Fig. 2) —
  a full permutation costs about 1300 us, a 32-PE partial permutation
  about 13% of that;
* a 1-h relation adds a serialisation tail of ~31 us per extra message at
  the hottest destination, so fitting a line to 1-h relation times yields
  ``g ~= 32, L ~= 1400`` (Fig. 1 / Table 1) while an actual 1-relation
  costs only ~1300 us — the model-error source the paper identifies in
  §5.1;
* destinations that pile into the same 16-PE cluster serialise on the
  cluster channel — the error bars of Fig. 1;
* single-bit-XOR ("cube") permutations, the pattern of a bitonic merge
  step, route conflict-free in roughly 45% of the time of a random
  permutation (~590 us, §5.1);
* circuit-switched *block* transfers stream at ``sigma ~= 107`` us/byte
  with startup ``ell ~= 630`` us (Table 1) independent of how many PEs
  participate — circuits, once opened, do not contend the way word-level
  router cycles do.

Local computation is exactly the nominal model: the PEs are simple
lockstep ALUs with no caches, which is why the paper's MasPar compute
predictions are clean.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import SimulationError
from ..core.params import ModelParams, UnbalancedCost, paper_params
from ..core.relations import PhaseStack
from ..core.segsum import segment_sums
from .base import CommPricer, Machine

__all__ = ["MasParMP1"]


class MasParMP1(Machine):
    """Simulated 1024-PE (or smaller partition) MasPar MP-1."""

    name = "maspar"
    simd = True
    #: ablatable phenomena (see :mod:`repro.ablation.components`): the
    #: conflict-free routing of cube permutations (§5.1), the
    #: partial-permutation law of Fig. 2, the serialisation tail at hot
    #: destinations (§5.1), and the per-cluster router channels (Fig. 1).
    PHENOMENA = ("cube-discount", "partial-permutation",
                 "receiver-serialisation", "cluster-channels")

    #: PEs per router cluster (one router channel each).
    CLUSTER = 16

    def __init__(self, *, P: int = 1024, seed: int = 0,
                 params: ModelParams | None = None,
                 disable: tuple[str, ...] = ()):
        if P < self.CLUSTER or P & (P - 1):
            raise SimulationError(
                f"MasPar partitions must be powers of two >= 16, got {P}")
        nominal = params or paper_params("maspar").with_updates(P=P)
        if nominal.P != P:
            nominal = nominal.with_updates(P=P)
        super().__init__(nominal, seed=seed, disable=disable)
        #: cube permutations priced like random ones when ablated.  The
        #: discount is a *skip* flag, not a factor of 1.0: re-deriving
        #: ``base`` from ``factor*(base-c)+c`` would not be FP-exact.
        self.cube_aware = self.models_phenomenon("cube-discount")
        #: with the partial-permutation law ablated, every word-router
        #: step is priced as a full permutation (``active = P``).
        self.partial_law = self.models_phenomenon("partial-permutation")
        #: hot destinations serialise incoming messages (word and block).
        self.recv_serialises = self.models_phenomenon("receiver-serialisation")
        #: destinations sharing a 16-PE cluster contend for its channel.
        self.cluster_aware = self.models_phenomenon("cluster-channels")
        # Partial-permutation law (Fig. 2 of the paper).
        self.unb = UnbalancedCost(a=0.84, b=11.8, c=73.3)
        #: serialisation cost per extra message at the hottest destination.
        self.serial_recv = 29.5
        #: cube (single-bit-XOR) permutations route conflict-free.
        self.cube_factor = 0.42
        #: block transfers also benefit from conflict-free cube patterns,
        #: though less — the circuit stays open either way (§5.2: the
        #: router is "somewhat less sensitive to the actual communication
        #: pattern when long messages are being sent").
        self.block_cube_factor = 0.62
        #: penalty per excess message on the busiest cluster channel.
        self.cluster_coef = 2.2
        #: circuit-switched block-transfer parameters (full machine).
        self.sigma_block = 105.0
        self.ell_block = 620.0
        #: messages larger than this use the block-transfer circuit;
        #: smaller multi-word messages stream through the word router.
        self.block_threshold = 8 * nominal.w
        #: relative measurement noise of one router operation.
        self.noise = 0.008

    def barrier_time(self) -> float:
        # The ACU keeps PEs in lockstep; synchronisation is free.
        return 0.0

    def comm_time_batch(self, stack: PhaseStack, idx=None) -> CommPricer:
        return _MasParCommPricer(self, stack, idx)


def _ranges(lo: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``arange(lo[k], lo[k] + lens[k])`` for every ``k``, concatenated."""
    ends = np.cumsum(lens)
    return (np.repeat(lo - (ends - lens), lens)
            + np.arange(ends[-1] if ends.size else 0))


class _MasParCommPricer(CommPricer):
    """MasPar pricer: every sub-step priced as its single-port segments.

    A PE has one outstanding message at a time, so within a sub-step
    (one ``step`` tag) its groups route back to back, in phase order,
    and the sub-step falls into *segments*: the intervals between
    consecutive distinct group start and end steps.  Each segment
    repeats one router step over the groups active in it.  A sub-step
    in which every PE sends one group of a common count is one segment.
    :meth:`_prep` finds the segments of every distinct phase and the
    deterministic router time of each from per-segment reductions
    (active senders, largest message, cube test, receive fan-in,
    busiest cluster channel), which do not depend on group order.
    :meth:`_costs` draws the noise, so ``comm_time`` and the fused
    :meth:`sequence_costs` share one routine.
    """

    _COLUMNS = ("_n_sub", "_sub_lo", "_n_seg", "_seg_lo", "_reps", "_det",
                "_sigma")

    def _prep(self, stack: PhaseStack) -> None:
        m: MasParMP1 = self.machine
        P = stack.P
        ss = stack.substeps
        # sub-steps of distinct phase u: [_sub_lo[u], _sub_lo[u] + _n_sub[u])
        self._n_sub = np.bincount(ss.pid, minlength=stack.n)
        self._sub_lo = np.cumsum(self._n_sub) - self._n_sub
        if not stack.size:
            self._n_seg = self._seg_lo = np.zeros(0, dtype=np.int64)
            self._reps = self._det = self._sigma = np.zeros(0)
            return
        order, sub, sub_starts = ss.order, ss.sub, ss.starts
        count = stack.count[order]

        # A sub-step in which every sending PE has one group, and all
        # groups share one count, is one segment of `count` steps.
        key = sub * P + stack.src[order]
        ks = np.sort(key)
        single = (np.minimum.reduceat(count, sub_starts)
                  == np.maximum.reduceat(count, sub_starts))
        single[ks[1:][ks[1:] == ks[:-1]] // P] = False
        one = np.flatnonzero(single)

        # Any other sub-step is split.  A PE's groups route back to back
        # in phase order, so a group occupies steps [start, start +
        # count) after the PE's earlier groups.  The segments are the
        # intervals between the sub-step's distinct starts and ends, and
        # a group is active in those between its own start and end.
        # Every segment has an active group, because each PE's groups
        # cover [0, its total) without gaps.
        g = np.flatnonzero(~single[sub])
        gkey, gcount = key[g], count[g]
        o2 = np.argsort(gkey, kind="stable")
        c2 = gcount[o2]
        before = np.cumsum(c2) - c2
        k2 = gkey[o2]
        first = np.concatenate(([True], k2[1:] != k2[:-1]))
        start = np.empty_like(gcount)
        start[o2] = before - np.maximum.accumulate(np.where(first, before, 0))
        W = int((start + gcount).max(initial=0)) + 1
        lo = sub[g] * W + start
        hi = lo + gcount
        bp = np.unique(np.concatenate((lo, hi)))
        inner = bp[1:] // W == bp[:-1] // W
        first_bp = np.searchsorted(bp, lo)
        n_span = np.searchsorted(bp, hi) - first_bp
        gseg = (np.cumsum(inner) - 1)[_ranges(first_bp, n_span)]
        o3 = np.argsort(gseg, kind="stable")

        # Segments, the single sub-steps first; a segment's rows (the
        # groups active in it) are contiguous.
        seg_sub = np.concatenate((one, (bp[:-1] // W)[inner]))
        seg_step = np.concatenate((np.zeros_like(one), (bp[:-1] % W)[inner]))
        reps = np.concatenate((count[sub_starts[one]], np.diff(bp)[inner]))
        seg_sizes = np.concatenate((np.diff(sub_starts, append=sub.size)[one],
                                    np.bincount(gseg, minlength=inner.sum())))
        rows = order[np.concatenate((np.flatnonzero(single[sub]),
                                     np.repeat(g, n_span)[o3]))]
        nseg = seg_sizes.size
        seg = np.repeat(np.arange(nseg), seg_sizes)
        starts = np.cumsum(seg_sizes) - seg_sizes
        s = stack.src[rows]
        d = stack.dst[rows]
        mb = stack.msg_bytes[rows]

        # Per-segment reductions -------------------------------------
        m_max = np.maximum.reduceat(mb, starts)
        x = s ^ d
        xfirst = np.minimum.reduceat(x, starts)
        cube = ((xfirst == np.maximum.reduceat(x, starts))
                & (xfirst > 0) & ((xfirst & (xfirst - 1)) == 0))
        if not m.cube_aware:
            cube = np.zeros_like(cube)

        # Receive fan-in h_r: the max multiplicity of any destination
        # among a segment's groups (counted per group, not per message).
        k3 = np.sort(seg * P + d)
        run_starts = np.flatnonzero(np.concatenate(([True], np.diff(k3) != 0)))
        run_len = np.diff(np.concatenate((run_starts, [k3.size])))
        run_seg = k3[run_starts] // P
        seg_run_starts = np.flatnonzero(
            np.concatenate(([True], np.diff(run_seg) != 0)))
        h_r = np.maximum.reduceat(run_len, seg_run_starts)

        # Busiest cluster channel load, one unit per group.
        n_clusters = m.P // m.CLUSTER
        loads = np.bincount(seg * n_clusters + d // m.CLUSTER,
                            minlength=nseg * n_clusters)
        loads = loads.reshape(nseg, n_clusters).max(axis=1)

        # Deterministic router times.  Word steps follow the partial-
        # permutation law T_unb(active) (cube patterns discounted), plus
        # the serialisation tail at the hottest destination, extra words
        # streamed at the block rate and the busiest cluster channel's
        # excess over its fair share.  Block steps stream at sigma/ell.
        active = (seg_sizes.astype(np.float64) if m.partial_law
                  else np.full(nseg, float(m.P)))
        w = m.nominal.w
        base = m.unb.a * active + m.unb.b * np.sqrt(active) + m.unb.c
        t_word = np.where(cube, m.cube_factor * (base - m.unb.c) + m.unb.c, base)
        if m.recv_serialises:
            t_word = t_word + m.serial_recv * (h_r - 1)
        t_word = t_word + np.where(m_max > w, m.sigma_block * (m_max - w), 0.0)
        if m.cluster_aware:
            fair = -(-seg_sizes // n_clusters)
            excess = loads.astype(np.float64) - fair.astype(np.float64)
            t_word = t_word + m.cluster_coef * np.maximum(0.0, excess)

        t_blk = m.sigma_block * m_max + m.ell_block
        t_blk = np.where(cube, t_blk * m.block_cube_factor, t_blk)
        if m.recv_serialises:
            t_blk = t_blk + (h_r - 1) * (m.sigma_block * m_max + 0.25 * m.ell_block)

        block = m_max > m.block_threshold
        # schedule order: by sub-step, then by first step
        sched = np.lexsort((seg_step, seg_sub))
        self._det = np.where(block, t_blk, t_word)[sched]
        # circuit-switched streaming on a lockstep machine is nearly
        # deterministic; the word router's conflicts cause the noise
        self._sigma = np.where(block, m.noise / 4, m.noise)[sched]
        self._reps = reps[sched].astype(np.float64)
        # segments of sub-step k: [_seg_lo[k], _seg_lo[k] + _n_seg[k])
        self._n_seg = np.bincount(seg_sub, minlength=sub_starts.size)
        self._seg_lo = np.cumsum(self._n_seg) - self._n_seg

    def _costs(self, u: np.ndarray) -> np.ndarray:
        """Noise-jittered costs of the distinct phases ``u``, in order.

        Each segment's router time carries one jitter draw, taken
        walking phases, then sub-steps by tag, then segments by step;
        all the ``z`` come from one ``rng.normal(0, sigma_vector)`` call
        in that order, so any run of phases consumes the RNG stream as
        pricing them one at a time would.  Two :func:`segment_sums`
        passes keep the left-to-right sums over a sub-step's segments
        and over a phase's sub-steps.
        """
        n_sub = self._n_sub[u]
        subs = _ranges(self._sub_lo[u], n_sub)
        n_seg = self._n_seg[subs]
        segs = _ranges(self._seg_lo[subs], n_seg)
        z = self.machine.rng.normal(0.0, self._sigma[segs])
        terms = self._reps[segs] * (self._det[segs] * (1.0 + z))
        sub_costs = segment_sums(terms, np.cumsum(n_seg) - n_seg, n_seg)
        return segment_sums(sub_costs, np.cumsum(n_sub) - n_sub, n_sub)

    def _cost(self, i: int) -> float:
        return float(self._costs(self._idx[i:i + 1])[0])

    def sequence_costs(self) -> np.ndarray:
        """All per-phase costs in one fused draw.

        Entry ``i`` is the (noise-jittered) cost ``comm_time(i, ...)``
        would add to the clocks' running maximum.  Computing them
        consumes the machine RNG stream, so the caller advances the
        clocks itself (the IR replay engine's fused scan, a calibration
        sweep) instead of calling :meth:`comm_time`.
        """
        return self._costs(self._idx)
