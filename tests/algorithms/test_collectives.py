"""Tests for the BSP collectives library (after reference [16])."""

import numpy as np
import pytest

from repro.algorithms.collectives import broadcast
from repro.core import BSP, paper_params
from repro.core.errors import ExperimentError
from repro.machines import CM5
from repro.simulator import run_spmd

CM5_PARAMS = paper_params("cm5")


def run_collective(machine, body, P=16):
    def prog(ctx):
        out = yield from body(ctx)
        return out

    return run_spmd(machine, prog, P=P)


@pytest.mark.parametrize("strategy", ["naive", "two-phase"])
class TestBroadcast:
    def test_everyone_gets_the_vector(self, cm5, strategy):
        vec = np.arange(64, dtype=float)

        def body(ctx):
            out = yield from broadcast(
                ctx, vec if ctx.rank == 3 else None, 3, "b", strategy)
            return out

        res = run_collective(cm5, body)
        for out in res.returns:
            assert np.array_equal(out, vec)

    def test_root_zero(self, cm5, strategy):
        vec = np.ones(16)

        def body(ctx):
            out = yield from broadcast(
                ctx, vec if ctx.rank == 0 else None, 0, "b", strategy)
            return out

        res = run_collective(cm5, body)
        assert all(np.array_equal(o, vec) for o in res.returns)


class TestBroadcastCosts:
    def _trace(self, strategy, n, P=16):
        vec = np.zeros(n)

        def body(ctx):
            out = yield from broadcast(
                ctx, vec if ctx.rank == 0 else None, 0, "b", strategy)
            return out

        return run_collective(CM5(seed=1), body, P=P).trace

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
        def body(ctx):
            out = yield from broadcast(
                ctx, np.zeros(16) if ctx.rank == 0 else None, 0, "b",
                "quantum")
            return out

        with pytest.raises(ExperimentError):
            run_collective(cm5, body)

    def test_vector_must_divide(self, cm5):
        def body(ctx):
            out = yield from broadcast(
                ctx, np.zeros(17) if ctx.rank == 0 else None, 0, "b",
                "two-phase")
            return out

        with pytest.raises(ExperimentError):
            run_collective(cm5, body)
