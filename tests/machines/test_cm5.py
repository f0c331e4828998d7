"""Tests for the CM-5 machine model — the phenomena of §3.3/§5.1."""

import numpy as np
import pytest

from repro.calibration.microbench import time_phase
from repro.core.relations import CommPhase
from repro.core.work import Flops, MatmulBlock
from repro.machines import CM5


def full_h_relation(P, h, rng, msg_bytes=8):
    src = np.tile(np.arange(P), h)
    dst = np.concatenate([rng.permutation(P) for _ in range(h)])
    return CommPhase(P=P, src=src, dst=dst,
                     count=np.ones(P * h, dtype=np.int64),
                     msg_bytes=np.full(P * h, msg_bytes, dtype=np.int64))


class TestHRelations:
    def test_g_and_L_near_table1(self, rng):
        m = CM5(seed=1)
        hs = np.array([1, 4, 16, 64, 256])
        times = np.array([
            time_phase(m, full_h_relation(64, int(h), rng))
            for h in hs])
        g, L = np.polyfit(hs, times, 1)
        assert g == pytest.approx(9.1, rel=0.10)
        assert L == pytest.approx(45, rel=0.6)

    def test_fat_tree_partial_patterns_not_discounted(self, rng):
        # §5.3: "due to its large bisection bandwidth, there is only a
        # minor difference between a full h-relation and a scatter".
        m = CM5(seed=1)
        h = 64
        t_full = time_phase(m, full_h_relation(64, h, rng), barrier=False)
        # scatter: 8 senders, h messages each, fan over machine
        src = np.repeat(np.arange(8), h)
        dst = rng.integers(0, 64, size=8 * h)
        scat = CommPhase(P=64, src=src, dst=dst,
                         count=np.ones(8 * h, dtype=np.int64),
                         msg_bytes=np.full(8 * h, 8, dtype=np.int64))
        # per-h cost of the scatter is NOT an order of magnitude cheaper
        assert t_full / time_phase(m, scat, barrier=False) < 3


class TestEndpointContention:
    def _phase(self, stagger):
        # 4 senders all target the same destination (plus background perm)
        src = np.array([1, 2, 3, 4])
        dst = np.zeros(4, dtype=np.int64)
        return CommPhase(P=64, src=src, dst=dst,
                         count=np.full(4, 32, dtype=np.int64),
                         msg_bytes=np.full(4, 8, dtype=np.int64),
                         stagger=stagger)

    def test_unstaggered_slower(self):
        m = CM5(seed=2)
        t_stag = time_phase(m, self._phase(stagger=True), barrier=False)
        t_uns = time_phase(m, self._phase(stagger=False), barrier=False)
        assert t_uns > t_stag

    def test_penalty_about_20_to_40_percent(self):
        # §5.1: the unstaggered matmul was 21% slower overall.
        m = CM5(seed=2)
        t_stag = np.mean([time_phase(m, self._phase(True), barrier=False)
                          for _ in range(10)])
        t_uns = np.mean([time_phase(m, self._phase(False), barrier=False)
                         for _ in range(10)])
        assert 1.1 < t_uns / t_stag < 1.5

    def test_no_fan_in_no_penalty(self, rng):
        m = CM5(seed=2)
        perm = np.roll(np.arange(64), 1)
        ph_t = CommPhase.permutation(perm, 8, stagger=True)
        ph_f = CommPhase.permutation(perm, 8, stagger=False)
        a = np.mean([time_phase(m, ph_t, barrier=False) for _ in range(10)])
        b = np.mean([time_phase(m, ph_f, barrier=False) for _ in range(10)])
        assert b / a == pytest.approx(1.0, rel=0.02)


class TestBlockTransfers:
    def test_block_permutation_matches_table1(self):
        m = CM5(seed=3)
        sizes = np.array([256, 1024, 4096, 16384])
        perm = np.roll(np.arange(64), 5)
        times = [time_phase(m, CommPhase.permutation(perm, int(s)),
                            barrier=False) for s in sizes]
        sigma, ell = np.polyfit(sizes, times, 1)
        assert sigma == pytest.approx(0.27, rel=0.15)
        assert ell == pytest.approx(75, rel=0.40)

    def test_bulk_gain_about_4(self):
        # §3.3: g/(w sigma) ~ 4.2 for 8-byte messages.
        m = CM5(seed=3)
        n_words = 1024
        perm = np.roll(np.arange(64), 1)
        fine = CommPhase(P=64, src=np.arange(64), dst=perm,
                         count=np.full(64, n_words, dtype=np.int64),
                         msg_bytes=np.full(64, 8, dtype=np.int64))
        block = CommPhase.permutation(perm, 8 * n_words)
        ratio = (time_phase(m, fine, barrier=False)
                 / time_phase(m, block, barrier=False))
        assert 2.5 < ratio < 6


class TestCacheEffects:
    def test_kernel_rate_in_paper_band(self):
        # §4.1.1: 6.5-7.5 Mflops for 32..256 square blocks.
        m = CM5(seed=4)
        for b in (32, 64):
            t = m.compute_time(MatmulBlock(b, b, b), 0)
            mflops = 2.0 * b**3 / t
            assert 6.0 < mflops < 8.0

    def test_big_blocks_drop_toward_5_2(self):
        # §4.1.1: "When N = 512, the performance drops to 5.2 Mflops."
        m = CM5(seed=4)
        b = 512
        t = m.compute_time(MatmulBlock(b, b, b), 0)
        mflops = 2.0 * b**3 / t
        assert mflops == pytest.approx(5.2, rel=0.10)

    def test_tiny_blocks_pay_overhead(self):
        m = CM5(seed=4)
        t = m.compute_time(MatmulBlock(8, 8, 8), 0)
        mflops = 2.0 * 8**3 / t
        assert mflops < 5.0

    def test_non_matmul_work_nominal(self):
        m = CM5(seed=4)
        times = [m.compute_time(Flops(10000), 0) for _ in range(20)]
        assert np.mean(times) == pytest.approx(10000 * m.nominal.alpha, rel=0.02)


class TestBarrier:
    def test_barrier_cheap(self):
        # fast control network
        assert CM5(seed=5).barrier_time() < 100
