"""Property-based tests (hypothesis) for communication-pattern analysis.

The invariants the cost models lean on, checked over random send sets:

* the BSP summary decomposes as ``h = max(h_s, h_r)``;
* per-destination/per-source loads sum to the total message count;
* cube-permutation detection fires exactly on single-bit-XOR patterns.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relations import CommPhase

#: (P, groups) — each group is (src, dst, count, msg_bytes)
send_sets = st.integers(min_value=1, max_value=64).flatmap(
    lambda P: st.tuples(
        st.just(P),
        st.lists(
            st.tuples(st.integers(0, P - 1), st.integers(0, P - 1),
                      st.integers(1, 8), st.integers(0, 64)),
            max_size=40)))


def _phase(P, groups) -> CommPhase:
    if not groups:
        return CommPhase.empty(P)
    src, dst, count, nbytes = (np.array(col, dtype=np.int64)
                               for col in zip(*groups))
    return CommPhase(P=P, src=src, dst=dst, count=count, msg_bytes=nbytes)


class TestHDecomposition:
    @given(send_sets)
    def test_h_is_max_of_hs_hr(self, case):
        phase = _phase(*case)
        assert phase.h == max(phase.h_s, phase.h_r)
        assert phase.h_s == int(phase.sends_per_proc.max(initial=0))
        assert phase.h_r == int(phase.recvs_per_proc.max(initial=0))

    @given(send_sets)
    def test_relation_agrees_with_phase(self, case):
        phase = _phase(*case)
        rel = phase.relation()
        assert rel.h == phase.h
        assert (rel.M, rel.h1, rel.h2) == (phase.total_messages,
                                           phase.h_s, phase.h_r)
        assert rel.active == phase.active_procs <= case[0]

    @given(send_sets)
    def test_partial_permutation_iff_h_at_most_1(self, case):
        phase = _phase(*case)
        assert phase.is_partial_permutation == (phase.h <= 1)


class TestLoadConservation:
    @given(send_sets)
    def test_sends_and_recvs_sum_to_total(self, case):
        phase = _phase(*case)
        assert int(phase.sends_per_proc.sum()) == phase.total_messages
        assert int(phase.recvs_per_proc.sum()) == phase.total_messages

    @given(send_sets)
    def test_bytes_conserved(self, case):
        phase = _phase(*case)
        assert int(phase.bytes_sent_per_proc.sum()) == phase.total_bytes
        assert int(phase.bytes_recv_per_proc.sum()) == phase.total_bytes

    @given(send_sets)
    def test_split_steps_partition_messages(self, case):
        phase = _phase(*case)
        pieces = phase.split_steps()
        assert sum(p.total_messages for p in pieces) == phase.total_messages


class TestCubeDetection:
    @given(st.integers(1, 6), st.integers(0, 5), st.integers(1, 8),
           st.data())
    def test_true_cube_pattern_detected(self, log_p, bit, count, data):
        P = 2 ** log_p
        bit = bit % log_p
        # any non-empty subset of sources, all exchanging along one axis
        srcs = data.draw(st.lists(st.integers(0, P - 1), min_size=1,
                                  unique=True))
        src = np.array(srcs, dtype=np.int64)
        dst = src ^ (1 << bit)
        phase = CommPhase(P=P, src=src, dst=dst,
                          count=np.full(src.size, count, dtype=np.int64),
                          msg_bytes=np.full(src.size, 4, dtype=np.int64))
        assert phase.cube_bit == bit

    @given(send_sets)
    @settings(max_examples=200)
    def test_cube_bit_only_on_single_bit_xor(self, case):
        """The detector fires iff every src^dst is one fixed power of two."""
        phase = _phase(*case)
        k = phase.cube_bit
        if phase.is_empty:
            assert k == -1
            return
        xors = set(int(x) for x in (phase.src ^ phase.dst))
        is_cube = (len(xors) == 1
                   and (x := next(iter(xors))) > 0 and x & (x - 1) == 0)
        if is_cube:
            assert k == next(iter(xors)).bit_length() - 1
        else:
            assert k == -1

    def test_mixed_bits_rejected(self):
        # src^dst is a power of two per message but not one fixed bit
        phase = CommPhase(P=8, src=[0, 1], dst=[1, 3], count=[1, 1],
                          msg_bytes=[4, 4])
        assert phase.cube_bit == -1

    def test_non_power_of_two_xor_rejected(self):
        phase = CommPhase(P=8, src=[0, 5], dst=[3, 6], count=[1, 1],
                          msg_bytes=[4, 4])
        assert phase.cube_bit == -1

    def test_self_message_rejected(self):
        # src == dst gives xor 0, which is not a cube exchange
        phase = CommPhase(P=8, src=[2], dst=[2], count=[1], msg_bytes=[4])
        assert phase.cube_bit == -1
