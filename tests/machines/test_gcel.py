"""Tests for the GCel machine model — the phenomena of §3.2/§5.1/§5.3."""

import numpy as np
import pytest

from repro.calibration.microbench import time_phase
from repro.core.relations import CommPhase
from repro.core.work import Flops
from repro.machines import GCel


def full_h_relation(P, h, rng, msg_bytes=4):
    """A random full h-relation: h random permutations overlaid."""
    src = np.tile(np.arange(P), h)
    dst = np.concatenate([rng.permutation(P) for _ in range(h)])
    return CommPhase(P=P, src=src, dst=dst,
                     count=np.ones(P * h, dtype=np.int64),
                     msg_bytes=np.full(P * h, msg_bytes, dtype=np.int64))


def multinode_scatter(P, h, rng):
    """sqrt(P) senders scatter h messages each, receivers balanced (§5.3).

    The paper's experiment guarantees each processor receives at most
    ceil(h / sqrt(P)) messages, so targets are assigned round-robin.
    """
    root = int(P ** 0.5)
    src = np.repeat(np.arange(root), h)
    receivers = np.arange(root, P)  # "the remaining processors"
    dst = receivers[np.arange(root * h) % receivers.size]
    n = src.size
    return CommPhase(P=P, src=src, dst=dst,
                     count=np.ones(n, dtype=np.int64),
                     msg_bytes=np.full(n, 4, dtype=np.int64))


class TestHRelations:
    def test_g_and_L_near_table1(self, rng):
        # Table 1: g = 4480, L = 5100 under HPVM.
        m = GCel(seed=1)
        hs = np.array([1, 2, 4, 8, 16])
        times = np.array([
            time_phase(m, full_h_relation(64, int(h), rng))
            for h in hs])
        g, L = np.polyfit(hs, times, 1)
        assert g == pytest.approx(4480, rel=0.10)
        assert L == pytest.approx(5100, rel=0.40)

    def test_scatter_is_much_cheaper(self, rng):
        # Fig. 14: a multinode scatter is up to a factor 9.1 cheaper than
        # a full h-relation with the same h.
        m = GCel(seed=1)
        h = 64
        t_full = time_phase(m, full_h_relation(64, h, rng)) - m.barrier_time()
        t_scat = time_phase(m, multinode_scatter(64, h, rng)) \
            - m.barrier_time()
        assert 5 < t_full / t_scat < 12

    def test_scatter_effective_g_near_492(self, rng):
        m = GCel(seed=1)
        hs = np.array([32, 64, 128, 256])
        times = np.array([time_phase(m, multinode_scatter(64, int(h), rng))
                          - m.barrier_time() for h in hs])
        g_mscat, _ = np.polyfit(hs, times, 1)
        # Paper: 492 us; our mechanistic decomposition (receive side of
        # c_recv h sqrt(P)/(P - sqrt(P))) lands near 576 us — same order,
        # same conclusion (far below g = 4480).
        assert 420 < g_mscat < 680


class TestBlockTransfers:
    def test_block_permutation_matches_table1(self, rng):
        m = GCel(seed=2)
        sizes = np.array([256, 1024, 4096, 16384])
        times = []
        for s in sizes:
            perm = np.roll(np.arange(64), 7)
            times.append(time_phase(m, CommPhase.permutation(perm, int(s)))
                         - m.barrier_time())
        sigma, ell = np.polyfit(sizes, times, 1)
        assert sigma == pytest.approx(9.3, rel=0.15)
        assert ell == pytest.approx(6900, rel=0.30)

    def test_bulk_gain_about_120(self, rng):
        # §3.2: grouping into long messages gains up to g/(w sigma) ~ 120.
        m = GCel(seed=2)
        n_words = 4096
        perm = np.roll(np.arange(64), 1)
        fine = CommPhase(P=64, src=np.arange(64), dst=perm,
                         count=np.full(64, n_words, dtype=np.int64),
                         msg_bytes=np.full(64, 4, dtype=np.int64))
        block = CommPhase.permutation(perm, 4 * n_words)
        ratio = ((time_phase(m, fine) - m.barrier_time())
                 / (time_phase(m, block) - m.barrier_time()))
        assert 60 < ratio < 150


class TestDrift:
    def _exchange_clocks(self, m, steps, barrier):
        perm = np.roll(np.arange(64), 1)
        ph = CommPhase(P=64, src=np.arange(64), dst=perm,
                       count=np.full(64, steps, dtype=np.int64),
                       msg_bytes=np.full(64, 4, dtype=np.int64))
        clocks = np.zeros(64)
        return m.comm_time(ph, clocks, barrier=barrier)

    def test_linear_below_window(self):
        # Fig. 7: h-h permutations behave like h-relations until h ~ 300.
        m = GCel(seed=3)
        t100 = self._exchange_clocks(m, 100, barrier=False).max()
        t200 = self._exchange_clocks(m, 200, barrier=False).max()
        assert t200 / t100 == pytest.approx(2.0, rel=0.10)

    def test_drift_beyond_window(self):
        # ... after which times become noisy and keep elevating.
        m = GCel(seed=3)
        t600 = self._exchange_clocks(m, 600, barrier=False).max()
        linear = self._exchange_clocks(m, 300, barrier=False).max() * 2
        assert t600 > 1.1 * linear

    def test_barrier_eliminates_drift(self):
        # §5.1: a barrier every 256 messages eliminates the performance drop.
        m = GCel(seed=3)
        total = 0.0
        clocks = np.zeros(64)
        for _ in range(4):  # 4 x 150 = 600 messages with barriers between
            clocks = self._exchange_clocks(m, 150, barrier=True)
        t_sync = clocks.max() - 0  # includes barrier costs
        m2 = GCel(seed=3)
        t_drift = float(self._exchange_clocks(m2, 600, barrier=False).max())
        assert t_sync < t_drift

    def test_unsynchronised_clocks_spread(self):
        m = GCel(seed=4)
        clocks = self._exchange_clocks(m, 400, barrier=False)
        assert clocks.std() > 0

    def test_barrier_equalises_clocks(self):
        m = GCel(seed=4)
        clocks = self._exchange_clocks(m, 400, barrier=True)
        assert np.allclose(clocks, clocks[0])


class TestCompute:
    def test_compute_near_nominal_with_jitter(self):
        m = GCel(seed=5)
        times = [m.compute_time(Flops(10_000), r) for r in range(20)]
        nominal = 10_000 * m.nominal.alpha
        assert np.mean(times) == pytest.approx(nominal, rel=0.02)
        assert np.std(times) > 0  # MIMD jitter present


class TestEmptyPhase:
    def test_barrier_only_costs_L(self):
        m = GCel(seed=6)
        clocks = m.comm_time(CommPhase.empty(64), np.zeros(64), barrier=True)
        assert clocks.max() == pytest.approx(m.barrier_us)

    def test_no_barrier_no_cost(self):
        m = GCel(seed=6)
        clocks = m.comm_time(CommPhase.empty(64), np.zeros(64), barrier=False)
        assert clocks.max() == 0.0
