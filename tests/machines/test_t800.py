"""Tests for the T800 grid machine and the locality-aware model."""

import numpy as np
import pytest

from repro.calibration.microbench import time_phase
from repro.core.ebsp import LocalityAwareBSP
from repro.core.errors import ModelError, SimulationError
from repro.core.relations import CommPhase
from repro.machines import T800Grid


def east_shift(P, side, d, msg_bytes=4):
    """Partial permutation: every processor sends d columns east."""
    ranks = np.arange(P)
    cols = ranks % side
    dst = np.where(cols + d < side, ranks + d, -1)
    return CommPhase.permutation(dst, msg_bytes)


class TestConstruction:
    def test_default_64(self):
        m = T800Grid()
        assert m.P == 64 and m.side == 8

    def test_square_required(self):
        with pytest.raises(SimulationError):
            T800Grid(P=48)

    def test_other_sizes(self):
        assert T800Grid(P=16).side == 4


class TestLocality:
    def test_hops_manhattan(self):
        m = T800Grid()
        assert m.hops(np.array([0]), np.array([9]))[0] == 2  # (0,0)->(1,1)
        assert m.hops(np.array([0]), np.array([63]))[0] == 14

    def test_cost_grows_with_distance(self):
        m = T800Grid(seed=1)
        costs = [np.mean([time_phase(T800Grid(seed=s), east_shift(64, 8, d),
                                     barrier=False)
                          for s in range(3)]) for d in (1, 3, 5, 7)]
        assert costs == sorted(costs)
        assert costs[-1] > 2 * costs[0]

    def test_neighbour_cheaper_than_random(self, rng):
        m = T800Grid(seed=1)
        neigh = east_shift(64, 8, 1)
        perm = rng.permutation(64)
        rand = CommPhase.permutation(perm, 4)
        assert time_phase(m, neigh, barrier=False) < \
            0.7 * time_phase(m, rand, barrier=False)

    def test_flat_g_means_bsp_cannot_see_it(self):
        # BSP prices both shifts identically; the machine does not —
        # that is the whole point of the locality extension.
        m = T800Grid(seed=1)
        near, far = east_shift(64, 8, 1), east_shift(64, 8, 7)
        assert near.h == far.h  # identical BSP summary
        assert time_phase(m, far, barrier=False) > \
            1.5 * time_phase(m, near, barrier=False)


class TestLocalityAwareBSP:
    def _model(self, g0=30.0, g_hop=14.0):
        m = T800Grid(seed=0)
        return LocalityAwareBSP(m.nominal, m.side, g0=g0, g_hop=g_hop)

    def test_prices_by_distance(self):
        model = self._model()
        near = east_shift(64, 8, 1)
        far = east_shift(64, 8, 7)
        c_near = model.comm_cost(near)
        c_far = model.comm_cost(far)
        assert c_far - c_near == pytest.approx(6 * 14.0, rel=0.01)

    def test_word_counting(self):
        model = self._model()
        one = east_shift(64, 8, 2, msg_bytes=4)
        four = east_shift(64, 8, 2, msg_bytes=16)
        assert model.comm_cost(four) - model.params.L == pytest.approx(
            4 * (model.comm_cost(one) - model.params.L))

    def test_validation(self):
        m = T800Grid(seed=0)
        with pytest.raises(ModelError):
            LocalityAwareBSP(m.nominal, 7, g0=1, g_hop=1)
        with pytest.raises(ModelError):
            LocalityAwareBSP(m.nominal, 8, g0=-1, g_hop=1)

    def test_empty_free(self):
        assert self._model().comm_cost(CommPhase.empty(64)) == 0.0


class TestLinkContention:
    def test_bisection_heavy_pattern_pays(self):
        m = T800Grid(seed=2)
        # everyone in the left half sends far right: all traffic crosses
        # the middle cut
        src = np.arange(32)
        cols = src % 8
        heavy_src = src[cols < 4]
        dst = heavy_src + 4
        n = heavy_src.size
        heavy = CommPhase(P=64, src=heavy_src, dst=dst,
                          count=np.full(n, 64, dtype=np.int64),
                          msg_bytes=np.full(n, 4, dtype=np.int64))
        # same volume, nearest neighbour
        light = CommPhase(P=64, src=heavy_src, dst=heavy_src + 1,
                          count=np.full(n, 64, dtype=np.int64),
                          msg_bytes=np.full(n, 4, dtype=np.int64))
        assert time_phase(m, heavy, barrier=False) > \
            time_phase(m, light, barrier=False)
