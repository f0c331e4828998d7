"""Tests for bitonic sort (paper §4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.algorithms import bitonic
from repro.algorithms.bitonic import _merge_keep_rows, _radix_sort_rows
from repro.core import MPBPRAM, MPBSP, paper_params
from repro.core.errors import ExperimentError, SimulationError
from repro.core.predictions import bpram_bitonic, bsp_bitonic, mp_bsp_bitonic
from repro.core.work import Merge, RadixSort
from repro.machines import CM5, GCel, MasParMP1
from repro.simulator.ir import build_program
from repro.simulator.vector import VectorContext, collect_steps, stand_in


def globally_sorted_and_permuted(res) -> bool:
    flat = np.concatenate([np.asarray(r) for r in res.returns])
    return (bool(np.all(flat[:-1] <= flat[1:]))
            and np.array_equal(np.sort(flat), np.sort(res.inputs.ravel())))


@pytest.mark.parametrize("variant", bitonic.VARIANTS)
class TestCorrectness:
    def test_sorts_on_cm5(self, cm5, variant):
        res = bitonic.run(cm5, 32, variant=variant, seed=5)
        assert globally_sorted_and_permuted(res)

    def test_sorts_on_gcel(self, gcel, variant):
        res = bitonic.run(gcel, 16, variant=variant, seed=6)
        assert globally_sorted_and_permuted(res)


class TestStructure:
    def test_merge_step_count(self, cm5):
        # log P = 6 stages, sum_d d = 21 exchange supersteps (+0 for sort)
        res = bitonic.run(cm5, 8, variant="bsp", seed=0)
        comm_steps = [s for s in res.trace if not s.phase.is_empty]
        assert len(comm_steps) == 21

    def test_every_exchange_is_cube_permutation(self, cm5):
        res = bitonic.run(cm5, 8, variant="bsp", seed=0)
        bits = [s.phase.cube_bit for s in res.trace if not s.phase.is_empty]
        assert all(b >= 0 for b in bits)
        # last stage descends through bits log P-1 .. 0
        assert bits[-6:] == [5, 4, 3, 2, 1, 0]

    def test_equal_keys_balanced(self, cm5):
        res = bitonic.run(cm5, 16, variant="bsp", seed=0)
        assert all(np.asarray(r).size == 16 for r in res.returns)

    def test_single_key_per_proc(self, cm5):
        res = bitonic.run(cm5, 1, variant="bsp", seed=2)
        assert globally_sorted_and_permuted(res)

    def test_bad_variant(self, cm5):
        with pytest.raises(ExperimentError):
            bitonic.run(cm5, 8, variant="quantum")

    def test_non_power_of_two_P(self, cm5):
        with pytest.raises(ExperimentError):
            bitonic.run(cm5, 8, variant="bsp", P=48)


class TestMergeScheduleInterning:
    """The network routes ``log P`` distinct single-bit XOR permutations
    over its ``log P (log P + 1) / 2`` merge steps, and the recording
    holds each pattern once: every merge step on one bit (and, for
    ``"bsp-sync"``, one chunk size) shares one phase."""

    @staticmethod
    def record(P, variant, M, sync_every=256):
        ctx = VectorContext(P, 4, structure_only=True)
        steps, _ = collect_steps(ctx, bitonic.bitonic_vector_program(
            ctx, stand_in((P, M), np.uint64), variant,
            sync_every=sync_every))
        return steps, build_program(P=P, word_bytes=4, simd=False,
                                    steps=steps)

    @pytest.mark.parametrize("P", [2, 16, 1024])
    @pytest.mark.parametrize("variant, M, sizes, chunks", [
        ("bsp", 8, 1, 1), ("bpram", 8, 1, 1), ("bsp-nosync", 8, 1, 1),
        # 600 keys in chunks of 256: 256, 256, 88
        ("bsp-sync", 600, 2, 3)])
    def test_one_phase_per_bit_and_chunk_size(self, P, variant, M, sizes,
                                              chunks):
        log_p = P.bit_length() - 1
        steps, prog = self.record(P, variant, M)
        # one phase per bit and chunk size, plus the empty trailing phase
        # that carries the last merge's work
        assert len(prog.phases) == sizes * log_p + 1
        bits = [j for d in range(1, log_p + 1) for j in range(d - 1, -1, -1)
                for _ in range(chunks)]
        comm = [phase for phase, *_ in steps if not phase.is_empty]
        assert len(comm) == len(bits)
        ranks = np.arange(P)
        for phase, j in zip(comm, bits):
            assert phase.src.tolist() == ranks.tolist()
            assert phase.dst.tolist() == (ranks ^ (1 << j)).tolist()

class TestPredictionAgreement:
    def test_bpram_trace_vs_closed_form(self, gcel, gcel_params):
        res = bitonic.run(gcel, 128, variant="bpram", seed=0)
        trace_cost = MPBPRAM(gcel_params).trace_cost(res.trace)
        closed = bpram_bitonic(128, gcel_params)
        assert trace_cost == pytest.approx(closed, rel=0.05)

    def test_mp_bsp_trace_vs_closed_form(self, maspar_params):
        m = MasParMP1(P=64, seed=1)
        params = maspar_params.with_updates(P=64)
        res = bitonic.run(m, 32, variant="bsp", seed=0)
        trace_cost = MPBSP(params).trace_cost(res.trace)
        closed = mp_bsp_bitonic(32, params, P=64)
        assert trace_cost == pytest.approx(closed, rel=0.05)


class TestPaperPhenomena:
    def test_maspar_models_overestimate_by_factor_2(self):
        # §5.1 / Fig. 5: the MP-BSP model overestimates by almost 2x
        # because the cube pattern is especially cheap on the router.
        m = MasParMP1(seed=3)
        params = paper_params("maspar")
        res = bitonic.run(m, 32, variant="bsp", seed=0)
        ratio = mp_bsp_bitonic(32, params) / res.time_us
        assert 1.7 < ratio < 2.7

    def test_maspar_bpram_prediction_also_high_but_closer(self):
        # Fig. 10: MP-BPRAM also overestimates, but is slightly tighter.
        m = MasParMP1(seed=3)
        params = paper_params("maspar")
        res_b = bitonic.run(m, 32, variant="bpram", seed=0)
        ratio_b = bpram_bitonic(32, params) / res_b.time_us
        res_w = bitonic.run(m, 32, variant="bsp", seed=0)
        ratio_w = mp_bsp_bitonic(32, params) / res_w.time_us
        assert 1.0 < ratio_b < ratio_w

    def test_maspar_bulk_gain_about_2(self):
        # Fig. 17: the block version wins by ~2.1x (max 3.3).
        m = MasParMP1(seed=3)
        t_word = bitonic.run(m, 64, variant="bsp", seed=0).time_us
        t_blk = bitonic.run(m, 64, variant="bpram", seed=0).time_us
        assert t_word / t_blk == pytest.approx(2.1, abs=0.4)

    def test_gcel_bpram_prediction_accurate(self):
        # Fig. 11: "the estimated times ... almost coincide".
        g = GCel(seed=3)
        params = paper_params("gcel")
        res = bitonic.run(g, 1024, variant="bpram", seed=0)
        assert bpram_bitonic(1024, params) == pytest.approx(res.time_us, rel=0.08)

    def test_gcel_two_orders_of_magnitude(self):
        # §6: BSP (fine-grain, synchronized) vs MP-BPRAM on the GCel —
        # "almost two orders of magnitude" with 4K keys per processor.
        g = GCel(seed=3)
        t_sync = bitonic.run(g, 2048, variant="bsp-sync", seed=0).time_us
        t_blk = bitonic.run(g, 2048, variant="bpram", seed=0).time_us
        assert t_sync / t_blk > 30

    def test_gcel_drift_hurts_and_sync_fixes(self):
        # Figs. 6/7: the unsynchronized version drifts beyond ~300
        # messages; barriers every 256 messages repair it.
        g1 = GCel(seed=4)
        t_plain = bitonic.run(g1, 1024, variant="bsp-nosync", seed=0).time_us
        g2 = GCel(seed=4)
        t_sync = bitonic.run(g2, 1024, variant="bsp-sync", seed=0).time_us
        assert t_plain > 1.1 * t_sync

    def test_gcel_synchronized_matches_prediction(self):
        g = GCel(seed=4)
        params = paper_params("gcel")
        res = bitonic.run(g, 1024, variant="bsp-sync", seed=0)
        assert bsp_bitonic(1024, params) == pytest.approx(res.time_us, rel=0.10)

    def test_cm5_prediction_reasonable(self, cm5_params):
        c = CM5(seed=4)
        res = bitonic.run(c, 256, variant="bsp", seed=0)
        assert bsp_bitonic(256, cm5_params) == pytest.approx(res.time_us, rel=0.25)


class TestPropertyBased:
    @given(st.integers(0, 5), st.sampled_from([4, 8, 16]))
    @settings(max_examples=10, deadline=None)
    def test_sorts_any_seed_and_P(self, seed, P):
        c = CM5(seed=1)
        res = bitonic.run(c, 8, variant="bsp", P=P, seed=seed)
        assert globally_sorted_and_permuted(res)

    @given(st.sampled_from([1, 2, 4, 16]))
    @settings(max_examples=8, deadline=None)
    def test_bpram_sorts_various_M(self, M):
        c = CM5(seed=1)
        res = bitonic.run(c, M, variant="bpram", P=16, seed=3)
        assert globally_sorted_and_permuted(res)


@st.composite
def key_stacks(draw):
    """``(keys, bits)``: a ``(P, M)`` uint64 stack drawn either from a tiny
    range (many ties) or from all of ``[0, 2**bits)``."""
    P = draw(st.sampled_from([1, 2, 4, 8, 16]))
    M = draw(st.integers(1, 64))
    bits = draw(st.sampled_from([16, 32]))
    top = draw(st.sampled_from([3, (1 << bits) - 1]))
    keys = draw(hnp.arrays(np.uint64, (P, M), elements=st.integers(0, top)))
    return keys, bits


def charged_items(ctx: VectorContext):
    """The vector context's charges as ``(rank, work item)`` pairs."""
    return [(int(r), b.kind(**{f: int(v[i]) for f, v in b.params.items()}))
            for b in ctx._batches for i, r in enumerate(b.ranks)]


class TestVectorKernels:
    """The all-ranks kernels reach numpy's values by their own means (one
    row sort; the half-cleaner) and charge one item per rank: a radix
    sort of the row, a merge of the output run length."""

    @given(key_stacks())
    @settings(max_examples=60, deadline=None)
    def test_radix_sort_rows_matches_per_rank_sort(self, case):
        keys, bits = case
        P, M = keys.shape
        ctx = VectorContext(P, 4)
        out = _radix_sort_rows(ctx, keys, bits=bits)
        assert out.dtype == keys.dtype
        for p in range(P):
            assert np.array_equal(out[p], np.sort(keys[p]))
        assert len(ctx._batches) == 1
        assert charged_items(ctx) == [(p, RadixSort(M, bits=bits,
                                                    radix_bits=8))
                                      for p in range(P)]

    @given(key_stacks())
    @settings(max_examples=60, deadline=None)
    def test_merge_keep_rows_matches_every_network_step(self, case):
        keys, _ = case
        mine = np.sort(keys, axis=1)
        P, M = mine.shape
        ranks = np.arange(P, dtype=np.int64)
        log_p = P.bit_length() - 1
        for d in range(1, log_p + 1):
            for j in range(d - 1, -1, -1):
                partner = ranks ^ (1 << j)
                ascending = ((ranks >> d) & 1 == 0 if d < log_p
                             else np.ones(P, dtype=bool))
                keep_min = (ranks < partner) == ascending
                ctx = VectorContext(P, 4)
                out = _merge_keep_rows(ctx, mine, mine[partner], keep_min)
                for p in range(P):
                    # the lower or upper half of the sorted pair of runs
                    both = np.sort(np.concatenate([mine[p],
                                                   mine[partner[p]]]))
                    want = both[:M] if keep_min[p] else both[M:]
                    assert np.array_equal(out[p], want)
                assert len(ctx._batches) == 1
                assert charged_items(ctx) == [(p, Merge(M))
                                              for p in range(P)]

    @pytest.mark.parametrize("bits", [16, 32])
    def test_radix_sort_rows_rejects_keys_past_bits(self, bits):
        keys = np.array([[1, 1 << bits]], dtype=np.uint64)
        with pytest.raises(SimulationError, match="radix sort"):
            _radix_sort_rows(VectorContext(1, 4), keys, bits=bits)

    def test_radix_sort_rows_rejects_negative_keys(self):
        keys = np.array([[3, -1], [0, 2]], dtype=np.int64)
        with pytest.raises(SimulationError, match="radix sort"):
            _radix_sort_rows(VectorContext(2, 4), keys)
