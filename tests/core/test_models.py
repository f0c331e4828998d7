"""Tests for the BSP / MP-BSP / MP-BPRAM / E-BSP trace pricers."""

import math

import numpy as np
import pytest

from repro.core.bpram import MPBPRAM
from repro.core.bsp import BSP
from repro.core.ebsp import EBSP, ScatterAwareBSP
from repro.core.errors import ModelError
from repro.core.mp_bsp import MPBSP
from repro.core.params import PAPER_UNBALANCED, paper_params
from repro.core.relations import CommPhase
from repro.core.trace import Superstep, Trace
from repro.core.work import Flops, StepWork, WorkBatch

CM5 = paper_params("cm5")
MASPAR = paper_params("maspar")
GCEL = paper_params("gcel")


def full_h_relation(P, h, msg_bytes):
    perm = np.roll(np.arange(P), 1)
    return CommPhase(P=P, src=np.arange(P), dst=perm,
                     count=np.full(P, h, dtype=np.int64),
                     msg_bytes=np.full(P, msg_bytes, dtype=np.int64))


def one_step_trace(phase, items, ranks):
    """A one-superstep trace: ``items`` charged on ``ranks``, then
    ``phase``."""
    tr = Trace(P=phase.P)
    tr.append(Superstep(phase=phase, work=StepWork.of_batches(
        [WorkBatch.of_items(items, ranks)])))
    return tr


class TestBSP:
    def test_full_h_relation_cost(self):
        model = BSP(CM5)
        ph = full_h_relation(64, 10, msg_bytes=8)
        assert model.comm_cost(ph) == pytest.approx(10 * CM5.g + CM5.L)

    def test_empty_phase_is_free(self):
        assert BSP(CM5).comm_cost(CommPhase.empty(64)) == 0.0

    def test_long_messages_count_as_words(self):
        # BSP gives no special treatment to long messages (§1): a 80-byte
        # message on the CM-5 (w=8) counts as 10 messages.
        model = BSP(CM5)
        ph = CommPhase(P=64, src=[0], dst=[1], count=[1], msg_bytes=[80])
        assert model.comm_cost(ph) == pytest.approx(10 * CM5.g + CM5.L)

    def test_superstep_adds_compute(self):
        model = BSP(CM5)
        tr = one_step_trace(full_h_relation(64, 1, 8), [Flops(1000)], [0])
        expected = 1000 * CM5.alpha + CM5.g + CM5.L
        assert model.trace_cost(tr) == pytest.approx(expected)

    def test_max_over_procs_not_sum(self):
        model = BSP(CM5)
        tr = one_step_trace(full_h_relation(64, 1, 8),
                            [Flops(1000), Flops(400)], [0, 1])
        assert model.trace_cost(tr) == pytest.approx(
            1000 * CM5.alpha + CM5.g + CM5.L)

    def test_trace_cost_sums(self):
        model = BSP(CM5)
        tr = Trace(P=64)
        for _ in range(3):
            tr.append(Superstep(phase=full_h_relation(64, 2, 8)))
        assert model.trace_cost(tr) == pytest.approx(3 * (2 * CM5.g + CM5.L))

    def test_unbalanced_charged_as_full(self):
        # BSP charges two-processor traffic as if it were a full h-relation —
        # the pessimism E-BSP fixes (§2.3).
        model = BSP(CM5)
        ph = CommPhase(P=64, src=[0], dst=[1], count=[50], msg_bytes=[8])
        assert model.comm_cost(ph) == pytest.approx(50 * CM5.g + CM5.L)

    def test_gather_charges_the_receive_side(self):
        # 63 processors send one word each to processor 0: h_s = 1 but
        # h_r = 63, and BSP charges max(h_s, h_r) (§2.1).
        model = BSP(CM5)
        ph = CommPhase(P=64, src=np.arange(1, 64),
                       dst=np.zeros(63, dtype=np.int64),
                       count=np.ones(63, dtype=np.int64),
                       msg_bytes=np.full(63, CM5.w, dtype=np.int64))
        assert (ph.h_s, ph.h_r) == (1, 63)
        assert model.comm_cost(ph) == pytest.approx(63 * CM5.g + CM5.L)


class TestMPBSP:
    def test_repeated_permutation(self):
        # h permutation steps cost h * (g + L) under MP-BSP (§4.2).
        model = MPBSP(MASPAR)
        ph = full_h_relation(1024, 16, msg_bytes=4)
        assert model.comm_cost(ph) == pytest.approx(16 * (MASPAR.g + MASPAR.L))

    def test_one_h_relation_step(self):
        # A single step where a destination receives h messages costs
        # L + g*h (§3.1).
        model = MPBSP(MASPAR)
        src = np.arange(1, 9)
        ph = CommPhase(P=1024, src=src, dst=np.zeros(8, dtype=np.int64),
                       count=np.ones(8, dtype=np.int64),
                       msg_bytes=np.full(8, 4, dtype=np.int64),
                       step=np.zeros(8, dtype=np.int64))
        assert model.comm_cost(ph) == pytest.approx(MASPAR.L + 8 * MASPAR.g)

    def test_explicit_steps_summed(self):
        model = MPBSP(MASPAR)
        ph = CommPhase(P=16, src=[0, 0], dst=[1, 2], count=[1, 1],
                       msg_bytes=[4, 4], step=[0, 1])
        assert model.comm_cost(ph) == pytest.approx(2 * (MASPAR.g + MASPAR.L))

    def test_multi_send_step_decomposes(self):
        # A processor sending two words in one scheduled step needs two
        # sequential single-port steps.
        model = MPBSP(MASPAR)
        ph = CommPhase(P=16, src=[0, 0], dst=[1, 2], count=[1, 1],
                       msg_bytes=[4, 4], step=[0, 0])
        assert model.comm_cost(ph) == pytest.approx(2 * (MASPAR.g + MASPAR.L))

    def test_long_message_counts_as_words(self):
        model = MPBSP(MASPAR)
        ph = CommPhase(P=16, src=[0], dst=[1], count=[1], msg_bytes=[16])
        assert model.comm_cost(ph) == pytest.approx(4 * (MASPAR.g + MASPAR.L))

    def test_empty_free(self):
        assert MPBSP(MASPAR).comm_cost(CommPhase.empty(4)) == 0.0


class TestMPBPRAM:
    def test_block_permutation(self):
        model = MPBPRAM(GCEL)
        ph = CommPhase.permutation(np.roll(np.arange(64), 1), 4096)
        assert model.comm_cost(ph) == pytest.approx(GCEL.sigma * 4096 + GCEL.ell)

    def test_sequence_of_blocks(self):
        model = MPBPRAM(GCEL)
        P = 64
        ph = CommPhase(P=P, src=np.arange(P), dst=np.roll(np.arange(P), 1),
                       count=np.full(P, 3, dtype=np.int64),
                       msg_bytes=np.full(P, 1000, dtype=np.int64))
        assert model.comm_cost(ph) == pytest.approx(3 * (GCEL.sigma * 1000 + GCEL.ell))

    def test_everyone_waits_for_longest(self):
        # "every processor awaits the completion of the longest block
        # transfer" (§2.2)
        model = MPBPRAM(GCEL)
        ph = CommPhase(P=64, src=[0, 2], dst=[1, 3], count=[1, 1],
                       msg_bytes=[100, 5000], step=[0, 0])
        assert model.comm_cost(ph) == pytest.approx(GCEL.sigma * 5000 + GCEL.ell)

    def test_single_port_convergence_serialises(self):
        # Two blocks converging on one processor need two steps: the
        # single-port restriction the paper stresses for sample sort.
        model = MPBPRAM(GCEL)
        ph = CommPhase(P=64, src=[0, 2], dst=[1, 1], count=[1, 1],
                       msg_bytes=[100, 100], step=[0, 0])
        assert model.comm_cost(ph) == pytest.approx(
            2 * GCEL.ell + GCEL.sigma * 200)

    def test_direct_bucket_routing_explodes(self):
        # Routing M keys straight to one bucket pays M startups — why the
        # paper's MP-BPRAM sample sort needs the multi-phase scheme.
        model = MPBPRAM(GCEL)
        ph = CommPhase(P=64, src=np.arange(1, 64), dst=np.zeros(63, dtype=np.int64),
                       count=np.ones(63, dtype=np.int64),
                       msg_bytes=np.full(63, 400, dtype=np.int64))
        assert model.comm_cost(ph) >= 63 * GCEL.ell

    def test_empty_free(self):
        assert MPBPRAM(GCEL).comm_cost(CommPhase.empty(4)) == 0.0


class TestEBSP:
    def test_full_permutation_costs_t_unb_full(self):
        unb = PAPER_UNBALANCED["maspar"]
        model = EBSP(MASPAR, unb)
        ph = CommPhase.permutation(np.roll(np.arange(1024), 1), 4)
        assert model.comm_cost(ph) == pytest.approx(unb(1024))

    def test_partial_permutation_discounted(self):
        # The whole point of E-BSP: 32 active PEs cost ~13% of full (§3.1).
        unb = PAPER_UNBALANCED["maspar"]
        model = EBSP(MASPAR, unb)
        perm = np.full(1024, -1)
        perm[:32] = np.arange(32) + 100
        partial = model.comm_cost(CommPhase.permutation(perm, 4))
        full = model.comm_cost(
            CommPhase.permutation(np.roll(np.arange(1024), 1), 4))
        assert partial / full == pytest.approx(0.13, abs=0.03)

    def test_repeated_permutation_scales_linearly(self):
        unb = PAPER_UNBALANCED["maspar"]
        model = EBSP(MASPAR, unb)
        ph = full_h_relation(1024, 5, msg_bytes=4)
        assert model.comm_cost(ph) == pytest.approx(5 * unb(1024))

    def test_multi_send_step_decomposes(self):
        unb = PAPER_UNBALANCED["maspar"]
        model = EBSP(MASPAR, unb)
        ph = CommPhase(P=16, src=[0, 0], dst=[1, 2], count=[1, 1],
                       msg_bytes=[4, 4], step=[0, 0])
        assert model.comm_cost(ph) == pytest.approx(2 * unb(1))

    def test_one_h_relation_adds_g_tail(self):
        unb = PAPER_UNBALANCED["maspar"]
        model = EBSP(MASPAR, unb)
        src = np.arange(1, 9)
        ph = CommPhase(P=1024, src=src, dst=np.zeros(8, dtype=np.int64),
                       count=np.ones(8, dtype=np.int64),
                       msg_bytes=np.full(8, 4, dtype=np.int64),
                       step=np.zeros(8, dtype=np.int64))
        assert model.comm_cost(ph) == pytest.approx(unb(8) + 7 * MASPAR.g)


class TestScatterAwareBSP:
    def test_scatter_uses_g_mscat(self):
        # GCel multinode scatter: factor ~9.1 cheaper than BSP (§5.3).
        model = ScatterAwareBSP(GCEL, g_scatter=492.0)
        P = 64
        src, dst = [], []
        senders = list(range(8))
        for s in senders:
            for d in range(P):
                if d not in senders:
                    src.append(s)
                    dst.append(d)
        n = len(src)
        ph = CommPhase(P=P, src=np.array(src), dst=np.array(dst),
                       count=np.ones(n, dtype=np.int64),
                       msg_bytes=np.full(n, 4, dtype=np.int64))
        h = ph.h_s
        assert model.comm_cost(ph) == pytest.approx(492.0 * h + GCEL.L)
        assert model.comm_cost(ph) < BSP(GCEL).comm_cost(ph) / 5

    @pytest.mark.parametrize("extra, scatter_like", [(1, True), (2, False)])
    def test_few_senders_bound(self, extra, scatter_like):
        """Up to ``isqrt(P) + 1`` senders spreading over the rest of the
        machine is a scatter; one more sender makes it plain BSP."""
        model = ScatterAwareBSP(GCEL, g_scatter=492.0)
        P = 64
        k = math.isqrt(P) + extra
        src = np.repeat(np.arange(k), P - k)
        dst = np.tile(np.arange(k, P), k)
        ph = CommPhase(P=P, src=src, dst=dst,
                       count=np.ones(src.size, dtype=np.int64),
                       msg_bytes=np.full(src.size, GCEL.w, dtype=np.int64))
        assert (ph.h_s, ph.h_r) == (P - k, k)
        assert model.is_scatter_like(ph) is scatter_like
        g = 492.0 if scatter_like else GCEL.g
        assert model.comm_cost(ph) == pytest.approx(g * (P - k) + GCEL.L)

    def test_full_relation_falls_back_to_bsp(self):
        model = ScatterAwareBSP(GCEL, g_scatter=492.0)
        ph = full_h_relation(64, 4, msg_bytes=4)
        assert model.comm_cost(ph) == pytest.approx(BSP(GCEL).comm_cost(ph))

    def test_bad_g_scatter(self):
        with pytest.raises(ModelError):
            ScatterAwareBSP(GCEL, g_scatter=0.0)


class TestModelDisagreement:
    def test_bulk_transfer_ranking_on_gcel(self):
        """On the GCel, MP-BPRAM prices a big pairwise exchange far below
        BSP — the factor-120 observation of §3.2/§6."""
        ph = CommPhase.permutation(np.roll(np.arange(64), 1), 4096)
        bsp = BSP(GCEL).comm_cost(ph)
        bpram = MPBPRAM(GCEL).comm_cost(ph)
        assert bsp / bpram > 50

    def test_bulk_transfer_modest_on_cm5(self):
        ph = CommPhase.permutation(np.roll(np.arange(64), 1), 4096)
        bsp = BSP(CM5).comm_cost(ph)
        bpram = MPBPRAM(CM5).comm_cost(ph)
        assert 2 < bsp / bpram < 6
