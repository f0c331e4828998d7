"""Tests for execution traces."""

import numpy as np
import pytest

from repro.core.errors import TraceError
from repro.core.params import paper_params
from repro.core.relations import CommPhase
from repro.core.trace import Superstep, Trace
from repro.core.work import NO_WORK, Flops, Generic, StepWork, WorkBatch

CM5 = paper_params("cm5")


def simple_step(P=8, measured=float("nan")):
    ph = CommPhase.permutation(np.roll(np.arange(P), 1), 8)
    return Superstep(phase=ph, measured_us=measured)


class TestSuperstep:
    def test_add_work_and_nominal(self):
        """A processor's work adds up across the superstep's batches."""
        s = simple_step()
        s.work = StepWork.of_batches([
            WorkBatch.of_items([Flops(100), Flops(50)], [0, 3]),
            WorkBatch.of_items([Generic(5.0)], [0])])
        arr = s.work_nominal_us(CM5)
        assert arr.shape == (8,)
        assert arr[0] == pytest.approx(100 * CM5.alpha + 5.0)
        assert arr[3] == pytest.approx(50 * CM5.alpha)
        assert s.max_work_nominal_us(CM5) == pytest.approx(arr.max())

    def test_no_work_is_zero(self):
        assert simple_step().max_work_nominal_us(CM5) == 0.0


class TestTrace:
    def test_append_and_iterate(self):
        tr = Trace(P=8)
        tr.append(simple_step())
        tr.append(simple_step())
        assert len(tr) == 2
        assert list(tr) == tr.supersteps
        assert tr[0] is tr.supersteps[0]

    def test_p_mismatch_rejected(self):
        tr = Trace(P=8)
        with pytest.raises(TraceError):
            tr.append(simple_step(P=16))

    def test_measured_requires_simulation(self):
        tr = Trace(P=8)
        tr.append(simple_step())
        with pytest.raises(TraceError, match="never simulated"):
            _ = tr.measured_us

    def test_measured_sums(self):
        tr = Trace(P=8)
        tr.append(simple_step(measured=10.0))
        tr.append(simple_step(measured=2.5))
        assert tr.measured_us == pytest.approx(12.5)

    def test_totals(self):
        tr = Trace(P=8)
        tr.append(simple_step())
        assert tr.total_messages == 8
        assert tr.total_bytes == 64

    def test_summary_mentions_relations(self):
        tr = Trace(P=8, label="demo")
        tr.append(simple_step())
        text = tr.summary()
        assert "demo" in text and "h1=1" in text and "M=8" in text


def shared_work_trace():
    """Six supersteps: three share one work record, two carry none."""
    shared = StepWork.of_batches([WorkBatch.of_items([Flops(100)], [0]),
                                  WorkBatch.of_items([Generic(5.0)], [0]),
                                  WorkBatch.of_items([Flops(50)], [3])])
    own = StepWork.of_batches([WorkBatch.of_items([Flops(7)], [1])])
    tr = Trace(P=8)
    for work in (shared, NO_WORK, shared, own, shared, None):
        step = simple_step()
        if work is not None:
            step.work = work
        tr.append(step)
    return tr


class TestWorkTerms:
    def test_equals_per_step_max_exactly(self):
        tr = shared_work_trace()
        expected = [s.max_work_nominal_us(CM5) for s in tr]
        assert tr.work_terms(CM5) == expected
        assert expected[1] == expected[5] == 0.0

    def test_totals_equal_per_step_sums_exactly(self):
        tr = shared_work_trace()
        assert tr.work_totals(CM5) == [float(s.work_nominal_us(CM5).sum())
                                       for s in tr]

    def test_empty_trace(self):
        assert Trace(P=8).work_terms(CM5) == []

    def test_replayed_trace_prices_each_distinct_dict_once(self,
                                                           monkeypatch):
        from repro.algorithms import bitonic
        from repro.machines import MasParMP1
        from repro.simulator.ir import IRStore, ir_store_scope

        with ir_store_scope(IRStore()) as store:
            bitonic.run(MasParMP1(seed=0), 128, P=16, seed=5)
            res = bitonic.run(MasParMP1(seed=1), 128, P=16, seed=5)
            assert store.memory_hits == 1
        trace = res.trace
        distinct = {id(s.work) for s in trace if s.work}
        steps = sum(1 for s in trace if s.work)
        assert 0 < len(distinct) < steps  # replay shares work records

        calls = []
        original = Superstep.max_work_nominal_us

        def spy(self, params):
            calls.append(id(self.work))
            return original(self, params)

        monkeypatch.setattr(Superstep, "max_work_nominal_us", spy)
        terms = trace.work_terms(CM5)
        assert sorted(calls) == sorted(distinct)
        monkeypatch.undo()
        assert terms == [s.max_work_nominal_us(CM5) for s in trace]
