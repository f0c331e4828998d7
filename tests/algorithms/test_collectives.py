"""Tests for the BSP collectives library (after reference [16])."""

import numpy as np
import pytest

from repro.algorithms.collectives import broadcast_vector_program
from repro.core import BSP, paper_params
from repro.core.errors import ExperimentError
from repro.machines import CM5
from repro.simulator import run_spmd_vector

CM5_PARAMS = paper_params("cm5")


def bcast(machine, vec, strategy, P=16):
    """Broadcast ``vec`` from processor 0 through ``run_spmd_vector``."""
    return run_spmd_vector(machine, broadcast_vector_program, vec, strategy,
                           P=P)


@pytest.mark.parametrize("strategy", ["naive", "two-phase"])
class TestBroadcast:
    def test_everyone_gets_the_vector(self, cm5, strategy):
        vec = np.arange(64, dtype=float)
        res = bcast(cm5, vec, strategy)
        assert len(res.returns) == 16
        for out in res.returns:
            assert np.array_equal(out, vec)

    def test_root_zero(self, cm5, strategy):
        vec = np.ones(16)
        res = bcast(cm5, vec, strategy)
        assert all(np.array_equal(o, vec) for o in res.returns)
        # every message leaves the root
        sends = [s.phase for s in res.trace if not s.phase.is_empty]
        assert set(sends[0].src.tolist()) == {0}


class TestBroadcastCosts:
    def _trace(self, strategy, n, P=16):
        return bcast(CM5(seed=1), np.zeros(n), strategy, P=P).trace

    def test_naive_priced_as_root_bottleneck(self):
        n, P = 64, 16
        cost = BSP(CM5_PARAMS).trace_cost(self._trace("naive", n, P))
        expected = CM5_PARAMS.g * n * (P - 1) + CM5_PARAMS.L
        assert cost == pytest.approx(expected, rel=0.01)

    def test_two_phase_priced_near_2gn(self):
        n, P = 256, 16
        cost = BSP(CM5_PARAMS).trace_cost(self._trace("two-phase", n, P))
        # scatter: h ~ n(P-1)/P; allgather: h ~ n(P-1)/P
        expected = 2 * (CM5_PARAMS.g * n * (P - 1) / P + CM5_PARAMS.L)
        assert cost == pytest.approx(expected, rel=0.05)

    def test_two_phase_beats_naive_for_large_vectors(self):
        n, P = 1024, 16
        naive = BSP(CM5_PARAMS).trace_cost(self._trace("naive", n, P))
        smart = BSP(CM5_PARAMS).trace_cost(self._trace("two-phase", n, P))
        assert smart < naive / 4

    def test_superstep_counts(self):
        # naive pays one latency term, two-phase pays two — the trade
        # the companion paper's optimal collectives balance
        naive = [s for s in self._trace("naive", 16) if not s.phase.is_empty]
        smart = [s for s in self._trace("two-phase", 16)
                 if not s.phase.is_empty]
        assert len(naive) == 1 and len(smart) == 2


class TestValidation:
    def test_bad_strategy(self, cm5):
        with pytest.raises(ExperimentError):
            bcast(cm5, np.zeros(16), "quantum")

    def test_vector_must_divide(self, cm5):
        with pytest.raises(ExperimentError):
            bcast(cm5, np.zeros(17), "two-phase")
