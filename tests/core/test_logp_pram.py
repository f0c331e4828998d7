"""Tests for the extension cost models: LogP, LogGP and PRAM."""

import numpy as np
import pytest

from repro.core.errors import ModelError
from repro.core.logp import LogGP, LogP, LogPParams, logp_from_table1
from repro.core.params import paper_params
from repro.core.pram import PRAM
from repro.core.relations import CommPhase
from repro.core.trace import Superstep
from repro.core.work import Flops
from tests.core.test_models import one_step_trace

GCEL = paper_params("gcel")
CM5 = paper_params("cm5")


def perm_phase(P, count, msg_bytes):
    return CommPhase(P=P, src=np.arange(P), dst=np.roll(np.arange(P), 1),
                     count=np.full(P, count, dtype=np.int64),
                     msg_bytes=np.full(P, msg_bytes, dtype=np.int64))


class TestLogPParams:
    def test_validation(self):
        with pytest.raises(ModelError):
            LogPParams(P=0, L=1, o=1, g=1)
        with pytest.raises(ModelError):
            LogPParams(P=4, L=-1, o=1, g=1)

    def test_capacity(self):
        assert LogPParams(P=4, L=10, o=1, g=4).capacity == 3
        assert LogPParams(P=4, L=10, o=1, g=0).capacity == 1

    def test_mapping_from_table1(self):
        lp = logp_from_table1(GCEL)
        assert lp.o == pytest.approx(GCEL.g / 2)
        assert lp.g == GCEL.g
        assert lp.G == GCEL.sigma
        assert lp.w == GCEL.w


class TestLogP:
    def test_single_permutation(self):
        lp = LogPParams(P=8, L=10, o=3, g=5, w=4)
        model = LogP(GCEL.with_updates(P=8), lp)
        # each proc sends 1 + receives 1: busy 2o, no stalls, + L
        assert model.comm_cost(perm_phase(8, 1, 4)) == pytest.approx(
            2 * 3 + 10)

    def test_gap_limits_injection(self):
        lp = LogPParams(P=8, L=10, o=1, g=5, w=4)
        model = LogP(GCEL.with_updates(P=8), lp)
        # k = 10 messages each way: busy 20*o + 9 stalls of (g - o)
        assert model.comm_cost(perm_phase(8, 10, 4)) == pytest.approx(
            20 * 1 + 9 * 4 + 10)

    def test_long_messages_count_as_words(self):
        lp = LogPParams(P=8, L=0, o=1, g=1, w=4)
        model = LogP(GCEL.with_updates(P=8), lp)
        one_big = CommPhase(P=8, src=[0], dst=[1], count=[1], msg_bytes=[40])
        ten_small = CommPhase(P=8, src=[0] * 10, dst=[1] * 10,
                              count=np.ones(10, dtype=np.int64),
                              msg_bytes=np.full(10, 4, dtype=np.int64))
        assert model.comm_cost(one_big) == pytest.approx(
            model.comm_cost(ten_small))

    def test_empty_free(self):
        lp = logp_from_table1(GCEL)
        assert LogP(GCEL, lp).comm_cost(CommPhase.empty(8)) == 0.0


class TestLogGP:
    def test_long_message_formula(self):
        # o + (m - w) G + L + o, sender-side streaming
        lp = LogPParams(P=8, L=10, o=3, g=3, G=0.5, w=4)
        model = LogGP(GCEL.with_updates(P=8), lp)
        ph = perm_phase(8, 1, 104)
        assert model.comm_cost(ph) == pytest.approx(2 * 3 + 100 * 0.5 + 10)

    def test_bulk_much_cheaper_than_logp(self):
        lp = logp_from_table1(GCEL)
        big = perm_phase(64, 1, 4096)
        assert (LogGP(GCEL, lp).comm_cost(big)
                < LogP(GCEL, lp).comm_cost(big) / 20)

    def test_tracks_mp_bpram_on_block_permutation(self):
        from repro.core.bpram import MPBPRAM
        lp = logp_from_table1(GCEL)
        ph = perm_phase(64, 1, 8192)
        loggp = LogGP(GCEL, lp).comm_cost(ph)
        bpram = MPBPRAM(GCEL).comm_cost(ph)
        assert loggp == pytest.approx(bpram, rel=0.25)


class TestPRAM:
    def test_communication_is_free(self):
        model = PRAM(GCEL)
        assert model.comm_cost(perm_phase(64, 1000, 4)) == 0.0

    def test_computation_still_charged(self):
        tr = one_step_trace(perm_phase(64, 10, 8), [Flops(1000)], [0])
        assert PRAM(CM5).trace_cost(tr) == pytest.approx(1000 * CM5.alpha)

    def test_trace_cost_is_compute_only(self):
        tr = one_step_trace(perm_phase(64, 5, 8), [Flops(100)], [3])
        tr.append(Superstep(phase=perm_phase(64, 5, 8)))
        assert PRAM(CM5).trace_cost(tr) == pytest.approx(100 * CM5.alpha)
