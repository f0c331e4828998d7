"""Property-based algebra of the cost models (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BSP, MPBPRAM, MPBSP, paper_params
from repro.core.logp import LogGP, logp_from_table1
from repro.core.pram import PRAM
from repro.core.relations import CommPhase

GCEL = paper_params("gcel")
CM5 = paper_params("cm5")


def phases(draw, P=16, max_groups=12):
    n = draw(st.integers(1, max_groups))
    src = draw(st.lists(st.integers(0, P - 1), min_size=n, max_size=n))
    dst = draw(st.lists(st.integers(0, P - 1), min_size=n, max_size=n))
    count = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    size = draw(st.lists(st.sampled_from([4, 8, 64, 1024]),
                         min_size=n, max_size=n))
    return CommPhase(P=P, src=np.array(src), dst=np.array(dst),
                     count=np.array(count), msg_bytes=np.array(size))


def all_models(params):
    return [BSP(params), MPBSP(params), MPBPRAM(params), PRAM(params),
            LogGP(params, logp_from_table1(params))]


class TestUniversalProperties:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_nonnegative_and_finite(self, data):
        ph = phases(data.draw)
        for model in all_models(GCEL):
            cost = model.comm_cost(ph)
            assert np.isfinite(cost) and cost >= 0

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, data):
        ph = phases(data.draw)
        for model in all_models(CM5):
            assert model.comm_cost(ph) == model.comm_cost(ph)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_added_traffic(self, data):
        """Adding a message group never reduces a model's charge.

        MP-BSP is excluded by design: it prices the *best* single-port
        schedule, and an extra send can allow spreading the hot
        receiver's messages over more steps (see the dedicated test
        below) — every other model is strictly monotone.
        """
        ph = phases(data.draw)
        extra = CommPhase(P=ph.P, src=np.append(ph.src, 0),
                          dst=np.append(ph.dst, 1),
                          count=np.append(ph.count, 3),
                          msg_bytes=np.append(ph.msg_bytes, 1024))
        for model in all_models(GCEL):
            if model.name == "mp-bsp":
                continue
            assert model.comm_cost(extra) >= model.comm_cost(ph) - 1e-9

    def test_mp_bsp_schedule_spreading_artifact(self):
        """An extra send can *reduce* the MP-BSP charge: 7 sends against
        an 8-receive hot spot need 7 steps of 1-2 relations (7L + 14g),
        while 8 sends spread it into 8 clean permutation steps (8L + 8g)
        — cheaper whenever 6g > L.  The model prices the best schedule,
        so this is intended (if surprising) behaviour."""
        P = 16
        model = MPBSP(GCEL)
        # proc 0 sends 7 messages; proc 1 receives 8 (one extra from
        # proc 2): best schedule has s = 7 steps, hot receiver 2/step.
        before = CommPhase(P=P, src=[0] * 7 + [2], dst=[1] * 8,
                           count=np.ones(8, dtype=np.int64),
                           msg_bytes=np.full(8, 4, dtype=np.int64))
        cost7 = model.comm_cost(before)
        assert cost7 == pytest.approx(7 * (GCEL.L + 2 * GCEL.g))
        # give proc 0 one more message to an *idle* destination: now the
        # schedule has 8 steps and the hot receiver fits 1/step.
        after = CommPhase(P=P, src=[0] * 8 + [2], dst=[1] * 7 + [4, 1],
                          count=np.ones(9, dtype=np.int64),
                          msg_bytes=np.full(9, 4, dtype=np.int64))
        cost8 = model.comm_cost(after)
        assert cost8 == pytest.approx(8 * (GCEL.L + GCEL.g))
        assert cost8 < cost7  # more traffic, lower best-schedule price

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_merging_supersteps_saves_latency(self, data):
        """cost(a ++ b) <= cost(a) + cost(b): one superstep never beats
        two by more than the combined charge (subadditive composition)."""
        a = phases(data.draw)
        b = phases(data.draw)
        # a ++ b: one phase, b's messages in the schedule step after a's
        merged = CommPhase(
            P=a.P, src=np.concatenate([a.src, b.src]),
            dst=np.concatenate([a.dst, b.dst]),
            count=np.concatenate([a.count, b.count]),
            msg_bytes=np.concatenate([a.msg_bytes, b.msg_bytes]),
            step=np.repeat([0, 1], [a.src.size, b.src.size]))
        for model in (BSP(GCEL), MPBPRAM(GCEL), PRAM(GCEL)):
            assert (model.comm_cost(merged)
                    <= model.comm_cost(a) + model.comm_cost(b) + 1e-6)

    @given(st.integers(1, 12), st.sampled_from([4, 64, 4096]))
    @settings(max_examples=30, deadline=None)
    def test_count_scaling_linear_minus_latency(self, k, size):
        """Scaling a permutation's count scales the bandwidth term."""
        perm = np.roll(np.arange(16), 1)
        one = CommPhase(P=16, src=np.arange(16), dst=perm,
                        count=np.ones(16, dtype=np.int64),
                        msg_bytes=np.full(16, size, dtype=np.int64))
        many = CommPhase(P=16, src=np.arange(16), dst=perm,
                         count=np.full(16, k, dtype=np.int64),
                         msg_bytes=np.full(16, size, dtype=np.int64))
        model = BSP(GCEL)
        base = model.comm_cost(one) - GCEL.L
        assert model.comm_cost(many) == pytest.approx(k * base + GCEL.L,
                                                      rel=1e-9)


class TestRankingInvariants:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_pram_is_a_lower_bound(self, data):
        ph = phases(data.draw)
        pram = PRAM(GCEL).comm_cost(ph)
        for model in (BSP(GCEL), MPBSP(GCEL), MPBPRAM(GCEL)):
            assert pram <= model.comm_cost(ph)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_mp_bsp_dominates_bsp(self, data):
        """Single-port sequential steps can never beat one bulk
        superstep under the same (g, L): MP-BSP >= BSP."""
        ph = phases(data.draw)
        assert MPBSP(GCEL).comm_cost(ph) >= BSP(GCEL).comm_cost(ph) - 1e-6

    @given(st.sampled_from([256, 1024, 8192]))
    @settings(max_examples=10, deadline=None)
    def test_bpram_beats_bsp_on_blocks_gcel(self, size):
        perm = np.roll(np.arange(64), 1)
        ph = CommPhase.permutation(perm, size)
        assert MPBPRAM(GCEL).comm_cost(ph) < BSP(GCEL).comm_cost(ph)
