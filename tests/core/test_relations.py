"""Tests for communication-pattern analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import TraceError
from repro.core.relations import CommPhase, Relation


def phase_from_messages(P, msgs, msg_bytes=4):
    """Helper: msgs = list of (src, dst) single messages."""
    if not msgs:
        return CommPhase.empty(P)
    src, dst = np.array(msgs).T
    return CommPhase(P=P, src=src, dst=dst,
                     count=np.ones(len(msgs), dtype=np.int64),
                     msg_bytes=np.full(len(msgs), msg_bytes, dtype=np.int64))


class TestBasics:
    def test_empty_phase(self):
        ph = CommPhase.empty(8)
        assert ph.is_empty
        assert ph.h == 0
        assert ph.total_messages == 0
        assert ph.active_procs == 0

    def test_counts_and_bytes(self):
        ph = CommPhase(P=4, src=[0, 0, 1], dst=[1, 2, 3],
                       count=[5, 1, 2], msg_bytes=[4, 8, 4])
        assert ph.total_messages == 8
        assert ph.total_bytes == 5 * 4 + 8 + 2 * 4
        assert ph.h_s == 6  # proc 0 sends 5 + 1
        assert ph.h_r == 5  # proc 1 receives 5
        assert ph.sends_per_proc.tolist() == [6, 2, 0, 0]
        assert ph.recvs_per_proc.tolist() == [0, 5, 1, 2]

    def test_out_of_range_endpoints_rejected(self):
        with pytest.raises(TraceError):
            phase_from_messages(4, [(0, 4)])
        with pytest.raises(TraceError):
            phase_from_messages(4, [(-1, 0)])

    def test_zero_count_rejected(self):
        with pytest.raises(TraceError):
            CommPhase(P=4, src=[0], dst=[1], count=[0], msg_bytes=[4])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(TraceError):
            CommPhase(P=4, src=[0, 1], dst=[1], count=[1], msg_bytes=[4])


class TestRelation:
    def test_full_h_relation_detection(self):
        P = 8
        msgs = [(i, (i + 1) % P) for i in range(P)] * 3
        rel = phase_from_messages(P, msgs).relation()
        assert rel == Relation(M=24, h1=3, h2=3, active=8)
        assert rel.is_full_h_relation(P)
        assert rel.h == 3

    def test_unbalanced_relation(self):
        # Two processors exchange h messages: the paper's motivating
        # example for E-BSP (§2.3).
        rel = phase_from_messages(16, [(0, 1)] * 10).relation()
        assert rel.M == 10 and rel.h1 == 10 and rel.h2 == 10
        assert not rel.is_full_h_relation(16)
        assert rel.active == 2

    def test_scatter_relation(self):
        # One sender spreads messages: h1 large, h2 = 1.
        rel = phase_from_messages(8, [(0, d) for d in range(1, 8)]).relation()
        assert rel.h1 == 7 and rel.h2 == 1 and rel.M == 7


class TestPermutationDetection:
    def test_permutation_true(self):
        ph = CommPhase.permutation(np.array([1, 0, 3, 2]), 4)
        assert ph.is_partial_permutation

    def test_self_messages_skipped(self):
        ph = CommPhase.permutation(np.array([0, 1, 2, 3]), 4)
        assert ph.is_empty

    def test_inactive_entries(self):
        ph = CommPhase.permutation(np.array([-1, 2, 1, -1]), 4)
        assert ph.active_procs == 2
        assert ph.is_partial_permutation

    def test_non_permutation(self):
        ph = phase_from_messages(4, [(0, 1), (2, 1)])
        assert not ph.is_partial_permutation


class TestCubeDetection:
    @pytest.mark.parametrize("bit", [0, 1, 2, 4])
    def test_cube_bit_found(self, bit):
        P = 32
        perm = np.arange(P) ^ (1 << bit)
        assert CommPhase.permutation(perm, 4).cube_bit == bit

    def test_random_permutation_not_cube(self):
        rng = np.random.default_rng(3)
        perm = rng.permutation(64)
        while np.any(perm == np.arange(64)):
            perm = rng.permutation(64)
        ph = CommPhase.permutation(perm, 4)
        x = perm ^ np.arange(64)
        expected = -1
        first = int(x[0])
        if first > 0 and (first & (first - 1)) == 0 and np.all(x == first):
            expected = int(first).bit_length() - 1
        assert ph.cube_bit == expected == -1

    def test_mixed_bits_not_cube(self):
        # half the procs flip bit 0, the other half bit 1
        src = np.arange(8)
        dst = src.copy()
        dst[:4] ^= 1
        dst[4:] ^= 2
        ph = phase_from_messages(8, list(zip(src, dst)))
        assert ph.cube_bit == -1

    def test_non_permutation_not_cube(self):
        ph = phase_from_messages(8, [(0, 1), (2, 1)])
        assert ph.cube_bit == -1


class TestMaxFanIn:
    def test_distinct_senders(self):
        ph = phase_from_messages(8, [(0, 3), (1, 3), (2, 3), (0, 4)])
        assert ph.max_fan_in == 3

    def test_multiple_messages_one_sender_count_once(self):
        ph = CommPhase(P=8, src=[0], dst=[3], count=[10], msg_bytes=[4])
        assert ph.max_fan_in == 1


class TestSteps:
    def test_split_steps_roundtrip(self):
        ph = CommPhase(P=4, src=[0, 1, 2], dst=[1, 2, 3],
                       count=[1, 1, 1], msg_bytes=[4, 4, 4],
                       step=[0, 0, 1])
        subs = ph.split_steps()
        assert len(subs) == 2
        assert subs[0].total_messages == 2
        assert subs[1].total_messages == 1

    def test_untagged_is_single_step(self):
        ph = phase_from_messages(4, [(0, 1), (1, 2)])
        assert ph.n_steps == 1
        assert ph.split_steps() == [ph]


class TestPropertyBased:
    @given(st.integers(2, 64), st.data())
    @settings(max_examples=50, deadline=None)
    def test_summaries_consistent(self, P, data):
        n = data.draw(st.integers(0, 40))
        src = data.draw(st.lists(st.integers(0, P - 1), min_size=n, max_size=n))
        dst = data.draw(st.lists(st.integers(0, P - 1), min_size=n, max_size=n))
        count = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
        ph = CommPhase(P=P, src=np.array(src, dtype=np.int64),
                       dst=np.array(dst, dtype=np.int64),
                       count=np.array(count, dtype=np.int64),
                       msg_bytes=np.full(n, 4, dtype=np.int64))
        rel = ph.relation()
        # invariants
        assert rel.M == sum(count)
        assert ph.sends_per_proc.sum() == rel.M
        assert ph.recvs_per_proc.sum() == rel.M
        assert rel.h1 == ph.h_s >= (rel.M + P - 1) // P or rel.M == 0
        assert rel.h2 == ph.h_r
        assert 0 <= rel.active <= P
        assert rel.h == max(rel.h1, rel.h2)

    @given(st.integers(2, 6))
    def test_full_permutation_relation(self, logP):
        P = 2 ** logP
        perm = np.roll(np.arange(P), 1)
        rel = CommPhase.permutation(perm, 4).relation()
        assert rel.is_full_h_relation(P) and rel.h == 1 and rel.active == P
