"""Property-based invariants every machine model must satisfy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.calibration.microbench import time_phase
from repro.core.relations import CommPhase
from repro.core.work import Flops, Merge, RadixSort
from repro.machines import CM5, GCel, MasParMP1

MACHINES = [lambda seed: MasParMP1(P=64, seed=seed),
            lambda seed: GCel(seed=seed),
            lambda seed: CM5(seed=seed)]


def routing_time(m, phase):
    """``phase``'s time from zero clocks, without the barrier.  A GCel
    advance without a barrier adds per-node noise and drift, so its time
    is the synchronised one less the barrier."""
    if isinstance(m, GCel):
        return time_phase(m, phase) - m.barrier_time()
    return time_phase(m, phase, barrier=False)


def mean_cost(factory, phase, trials=5):
    return float(np.mean([routing_time(factory(s), phase)
                          for s in range(trials)]))


def random_phase(P, n, rng, max_count=4, max_bytes=64):
    src = rng.integers(0, P, size=n)
    dst = rng.integers(0, P, size=n)
    count = rng.integers(1, max_count + 1, size=n)
    size = rng.integers(1, max_bytes + 1, size=n)
    return CommPhase(P=P, src=src, dst=dst, count=count, msg_bytes=size)


@pytest.mark.parametrize("factory", MACHINES)
class TestPhaseCostInvariants:
    def test_nonnegative_and_finite(self, factory, rng):
        for _ in range(10):
            ph = random_phase(64, int(rng.integers(1, 30)), rng)
            t = routing_time(factory(0), ph)
            assert np.isfinite(t) and t >= 0

    def test_deterministic_given_seed(self, factory, rng):
        ph = random_phase(64, 20, rng)
        assert routing_time(factory(3), ph) == routing_time(factory(3), ph)

    def test_more_messages_cost_more(self, factory, rng):
        base = random_phase(64, 10, rng)
        double = CommPhase(P=64, src=base.src, dst=base.dst,
                           count=base.count * 4, msg_bytes=base.msg_bytes)
        assert mean_cost(factory, double) > mean_cost(factory, base)

    def test_bigger_blocks_cost_more(self, factory):
        perm = np.roll(np.arange(64), 1)
        small = CommPhase.permutation(perm, 512)
        big = CommPhase.permutation(perm, 8192)
        assert mean_cost(factory, big) > mean_cost(factory, small)

    def test_clocks_never_go_backward(self, factory, rng):
        m = factory(1)
        clocks = np.abs(rng.normal(1000, 200, size=64))
        ph = random_phase(64, 15, rng)
        for barrier in (True, False):
            new = m.comm_time(ph, clocks.copy(), barrier=barrier)
            assert new.shape == (64,)
            assert np.all(new >= clocks - 1e-9)

    def test_empty_phase_barrier_only(self, factory):
        m = factory(1)
        clocks = np.zeros(64)
        new = m.comm_time(CommPhase.empty(64), clocks, barrier=True)
        assert float(new.max()) <= m.barrier_time() + 1e-9


@pytest.mark.parametrize("factory", MACHINES)
class TestComputeInvariants:
    def test_nonnegative(self, factory):
        m = factory(2)
        for work in (Flops(0), Flops(1000), Merge(10), RadixSort(100)):
            assert m.compute_time(work, 0) >= 0

    def test_scales_with_work(self, factory):
        m = factory(2)
        small = np.mean([m.compute_time(Flops(1000), r) for r in range(8)])
        large = np.mean([m.compute_time(Flops(100000), r) for r in range(8)])
        assert large > 50 * small


class TestHypothesisPatterns:
    @given(st.integers(1, 40), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_gcel_any_pattern_positive(self, n, seed):
        rng = np.random.default_rng(seed)
        ph = random_phase(64, n, rng)
        t = routing_time(GCel(seed=0), ph)
        assert t > 0

    @given(st.integers(1, 40), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_maspar_any_pattern_positive(self, n, seed):
        rng = np.random.default_rng(seed)
        ph = random_phase(64, n, rng)
        t = routing_time(MasParMP1(P=64, seed=0), ph)
        assert t > 0

    @given(st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_cm5_superset_costs_at_least_subset(self, seed):
        """Adding traffic to a phase cannot make it (meaningfully) cheaper."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        ph = random_phase(64, n, rng)
        half = CommPhase(P=64, src=ph.src[: n // 2 + 1],
                         dst=ph.dst[: n // 2 + 1],
                         count=ph.count[: n // 2 + 1],
                         msg_bytes=ph.msg_bytes[: n // 2 + 1])
        full = mean_cost(lambda s: CM5(seed=s), ph, trials=3)
        part = mean_cost(lambda s: CM5(seed=s), half, trials=3)
        assert full >= 0.95 * part
