"""Tests for the MasPar MP-1 machine model — the phenomena of §3.1/§5.1."""

import numpy as np
import pytest

from repro.calibration.microbench import time_phase
from repro.core.errors import SimulationError
from repro.core.relations import CommPhase
from repro.core.work import Flops, MatmulBlock
from repro.machines import MasParMP1


def random_permutation_phase(P, rng, msg_bytes=4):
    perm = rng.permutation(P)
    while np.any(perm == np.arange(P)):
        perm = rng.permutation(P)
    return CommPhase.permutation(perm, msg_bytes)


class TestConstruction:
    def test_default_is_1024_pes(self):
        assert MasParMP1().P == 1024

    def test_partition_sizes(self):
        assert MasParMP1(P=64).P == 64

    def test_bad_partition_rejected(self):
        with pytest.raises(SimulationError):
            MasParMP1(P=100)
        with pytest.raises(SimulationError):
            MasParMP1(P=8)

    def test_simd(self):
        assert MasParMP1().simd
        assert MasParMP1().barrier_time() == 0.0


class TestPermutationCosts:
    def test_full_permutation_about_1300us(self, rng):
        # §5.1: "the time taken by a 1-1 relation is about 1300 us".
        m = MasParMP1(seed=1)
        times = [time_phase(m, random_permutation_phase(1024, rng),
                            barrier=False)
                 for _ in range(10)]
        assert np.mean(times) == pytest.approx(1311, rel=0.05)

    def test_partial_permutation_32_active_about_13_percent(self, rng):
        m = MasParMP1(seed=1)
        perm = np.full(1024, -1)
        targets = rng.choice(1024, 32, replace=False)
        sources = rng.choice(1024, 32, replace=False)
        src_arr = np.array(sources)
        ph = CommPhase(P=1024, src=src_arr, dst=np.array(targets),
                       count=np.ones(32, dtype=np.int64),
                       msg_bytes=np.full(32, 4, dtype=np.int64))
        full = time_phase(m, random_permutation_phase(1024, rng),
                          barrier=False)
        assert time_phase(m, ph, barrier=False) / full == pytest.approx(
            0.13, abs=0.05)

    def test_cube_permutation_about_590us(self):
        # §5.1: single-bit-XOR permutations take ~590 us, less than half a
        # random permutation.
        m = MasParMP1(seed=1)
        cube = CommPhase.permutation(np.arange(1024) ^ 4, 4)
        t = time_phase(m, cube, barrier=False)
        assert t == pytest.approx(590, rel=0.05)

    def test_cube_cheaper_than_random(self, rng):
        m = MasParMP1(seed=1)
        cube = time_phase(m, CommPhase.permutation(np.arange(1024) ^ 1, 4),
                          barrier=False)
        rand = time_phase(m, random_permutation_phase(1024, rng),
                          barrier=False)
        assert cube < 0.5 * rand


class TestOneToHRelations:
    def _one_h(self, P, h, rng):
        n_dest = P // h
        dests = rng.choice(P, n_dest, replace=False)
        dst = np.repeat(dests, h)[:P]
        return CommPhase(P=P, src=np.arange(P), dst=dst,
                         count=np.ones(P, dtype=np.int64),
                         msg_bytes=np.full(P, 4, dtype=np.int64))

    def test_roughly_linear_in_h(self, rng):
        # Fig. 1: fitting a line to 1-h relation times gives g ~ 32, L ~ 1400.
        m = MasParMP1(seed=2)
        hs = np.array([1, 2, 4, 8, 16, 32])
        times = np.array([
            np.mean([time_phase(m, self._one_h(1024, h, rng), barrier=False)
                     for _ in range(5)])
            for h in hs])
        g, L = np.polyfit(hs, times, 1)
        assert 25 < g < 45
        assert 1100 < L < 1600

    def test_h1_cheaper_than_fit_intercept(self, rng):
        # §5.1: the h=1 point lies *below* the fitted g+L ~ 1430 line —
        # the source of the matmul prediction error.
        m = MasParMP1(seed=2)
        hs = np.array([1, 2, 4, 8, 16, 32])
        times = np.array([
            np.mean([time_phase(m, self._one_h(1024, h, rng), barrier=False)
                     for _ in range(5)])
            for h in hs])
        g, L = np.polyfit(hs, times, 1)
        assert times[0] < g * 1 + L

    def test_cluster_conflicts_add_variance(self, rng):
        # The error bars of Fig. 1: one router channel per 16-PE cluster.
        m = MasParMP1(seed=2)
        times = [time_phase(m, self._one_h(1024, 16, rng), barrier=False)
                 for _ in range(30)]
        assert np.std(times) > 5.0


class TestBlockTransfers:
    def test_block_permutation_linear_in_bytes(self, rng):
        m = MasParMP1(seed=3)
        sizes = np.array([64, 256, 1024, 4096])
        times = []
        for s in sizes:
            perm = rng.permutation(1024)
            ph = CommPhase.permutation(perm, int(s))
            times.append(time_phase(m, ph, barrier=False))
        sigma, ell = np.polyfit(sizes, times, 1)
        # Table 1: sigma = 107, ell = 630.
        assert 95 < sigma < 120
        assert 300 < ell < 1000

    def test_block_transfer_beats_word_at_a_time(self, rng):
        m = MasParMP1(seed=3)
        perm = rng.permutation(1024)
        block = CommPhase.permutation(perm, 4 * 64)
        words = CommPhase(P=1024, src=np.arange(1024), dst=perm,
                          count=np.full(1024, 64, dtype=np.int64),
                          msg_bytes=np.full(1024, 4, dtype=np.int64))
        # some self-sends in perm are fine for this comparison
        assert time_phase(m, block, barrier=False) < \
            0.5 * time_phase(m, words, barrier=False)


class TestSinglePortSerialisation:
    def test_multiple_sends_serialise(self, rng):
        m = MasParMP1(P=64, seed=4)
        one = CommPhase(P=64, src=[0], dst=[1], count=[1], msg_bytes=[4])
        three = CommPhase(P=64, src=[0, 0, 0], dst=[1, 2, 3],
                          count=[1, 1, 1], msg_bytes=[4, 4, 4])
        assert time_phase(m, three, barrier=False) == pytest.approx(
            3 * time_phase(m, one, barrier=False), rel=0.15)

    def test_repeated_counts_serialise(self):
        m = MasParMP1(P=64, seed=4)
        single = CommPhase(P=64, src=[0], dst=[1], count=[1], msg_bytes=[4])
        repeated = CommPhase(P=64, src=[0], dst=[1], count=[10], msg_bytes=[4])
        assert time_phase(m, repeated, barrier=False) == pytest.approx(
            10 * time_phase(m, single, barrier=False), rel=0.15)

    def test_hot_receiver_serialises(self):
        m = MasParMP1(P=64, seed=4)
        fan = CommPhase(P=64, src=np.arange(1, 17), dst=np.zeros(16, dtype=np.int64),
                        count=np.ones(16, dtype=np.int64),
                        msg_bytes=np.full(16, 4, dtype=np.int64),
                        step=np.zeros(16, dtype=np.int64))
        spread = CommPhase(P=64, src=np.arange(1, 17), dst=np.arange(17, 33),
                           count=np.ones(16, dtype=np.int64),
                           msg_bytes=np.full(16, 4, dtype=np.int64),
                           step=np.zeros(16, dtype=np.int64))
        assert time_phase(m, fan, barrier=False) > \
            time_phase(m, spread, barrier=False)


class TestCompute:
    def test_compute_is_nominal(self):
        m = MasParMP1(seed=5)
        assert m.compute_time(Flops(1000), 0) == pytest.approx(
            1000 * m.nominal.alpha)

    def test_no_cache_effects(self):
        # lockstep PEs, no caches: rate independent of block size
        m = MasParMP1(seed=5)
        small = m.compute_time(MatmulBlock(8, 8, 8), 0) / 8**3
        large = m.compute_time(MatmulBlock(64, 64, 64), 0) / 64**3
        assert small == pytest.approx(large)


class TestDeterminism:
    def test_same_seed_same_cost(self, rng):
        ph = random_permutation_phase(1024, rng)
        assert time_phase(MasParMP1(seed=9), ph, barrier=False) == \
            time_phase(MasParMP1(seed=9), ph, barrier=False)
