"""Tests for the communication primitives (grid all-to-all, multi-scan)."""

import numpy as np
import pytest

from repro.algorithms.primitives import (alltoall_words_vector, grid_side,
                                         multiscan_vector)
from repro.core import MPBPRAM
from repro.core.errors import ExperimentError
from repro.machines import CM5
from repro.simulator import run_spmd_vector


class TestGridSide:
    def test_square(self):
        assert grid_side(64) == 8
        assert grid_side(16) == 4

    def test_non_square_rejected(self):
        with pytest.raises(ExperimentError):
            grid_side(48)


def alltoall(machine, words, mode, P):
    """The all-to-all of the ``(P, P)`` word stack ``words``; rank ``p``
    returns its row of the result."""
    def prog(ctx):
        out = yield from alltoall_words_vector(ctx, words, "t", mode)
        return list(out)

    return run_spmd_vector(machine, prog, P=P)


def scan(machine, counts, mode):
    """The multi-scan of ``counts``; rank ``p`` returns its offsets and
    its bucket's total."""
    def prog(ctx):
        offsets, totals = yield from multiscan_vector(ctx, counts, "scan",
                                                      mode)
        return list(zip(offsets, totals))

    return run_spmd_vector(machine, prog, P=counts.shape[0])


@pytest.mark.parametrize("mode", ["bsp", "bpram"])
class TestAlltoall:
    def test_each_proc_learns_all_words(self, cm5, mode):
        P = 16
        # words[p, j] is rank p's word for rank j
        words = np.arange(P, dtype=np.int64) * 1000 \
            + np.arange(P, dtype=np.int64)[:, None]
        res = alltoall(cm5, words, mode, P)
        for rank, out in enumerate(res.returns):
            # out[src] = word src had for `rank` = rank*1000 + src
            assert out.tolist() == [rank * 1000 + src for src in range(16)]

    def test_wrong_shape_rejected(self, cm5, mode):
        with pytest.raises(ExperimentError):
            alltoall(cm5, np.zeros((16, 3), dtype=np.int64), mode, 16)


class TestAlltoallCosts:
    def test_bpram_cost_is_transpose_formula(self, cm5_params):
        # 2 sqrt(P) (sigma w sqrt(P) + ell) — the splitter broadcast cost.
        res = alltoall(CM5(seed=1), np.zeros((64, 64), dtype=np.int64),
                       "bpram", 64)
        priced = MPBPRAM(cm5_params).trace_cost(res.trace)
        p = cm5_params
        expected = 2 * 8 * (p.sigma * p.w * 8 + p.ell)
        assert priced == pytest.approx(expected, rel=0.02)

    def test_bsp_single_superstep_per_round(self, cm5):
        res = alltoall(cm5, np.zeros((16, 16), dtype=np.int64), "bsp", 16)
        assert len([s for s in res.trace if not s.phase.is_empty]) == 1


@pytest.mark.parametrize("mode", ["bsp", "bpram"])
class TestMultiscan:
    def test_offsets_are_exclusive_prefix_sums(self, cm5, mode):
        P = 16
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 10, size=(P, P))
        res = scan(cm5, counts.astype(np.int64), mode)
        for rank, (offsets, total) in enumerate(res.returns):
            for j in range(P):
                assert offsets[j] == counts[:rank, j].sum()
            assert total == counts[:, rank].sum()

    def test_disjoint_write_ranges(self, cm5, mode):
        """Offsets partition each bucket: [off, off+count) never overlap."""
        P = 16
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 5, size=(P, P))
        res = scan(cm5, counts.astype(np.int64), mode)
        for j in range(P):  # every bucket
            intervals = sorted(
                (res.returns[p][0][j], res.returns[p][0][j] + counts[p, j])
                for p in range(P))
            for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
                assert b1 <= a2
            assert intervals[-1][1] == counts[:, j].sum()
