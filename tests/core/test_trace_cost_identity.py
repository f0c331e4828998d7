"""Columnar, deduplicated work pricing is bit-identical to a scalar sum.

:meth:`CostModel.trace_cost` prices each distinct work record once
(:meth:`Trace.work_terms`), columnar.  These tests pin its result,
exactly, to an independent per-superstep formula: every item of
``step.work.by_rank()`` priced with the scalar ``nominal_time`` and
summed per rank left to right.  They cover every scoreboard model and
traces from every engine: IR record, IR memory hit and IR disk hit
(whose supersteps share the record the replay cached per batch list)
and ``run_spmd_vector``, each matching the oracle snapshot, plus a
custom per-rank program through ``run_spmd`` (whose ranks each charge
three items of two kinds per superstep, interleaved).  The
consumers routed through the helper -- ``attribute_error`` row totals
and ``BSF.p_max`` -- are pinned the same way.
"""

import math

import numpy as np
import pytest

from repro.calibration.table1 import calibration_for
from repro.core.bsf import BSF
from repro.core.work import nominal_time
from repro.machines import make_machine
from repro.simulator import run_spmd
from repro.simulator.ir import IRStore, ir_store_scope
from repro.validation.attribution import _family, attribute_error
from repro.validation.scoreboard import _models_for
from tests.simulator import oracle
from tests.simulator.test_work_records import interleaved_program

#: case -> its oracle case (machine seed 1).
CASES = {
    "maspar/bitonic": oracle.case("bitonic", "maspar", 1, 128, P=16,
                                  seed=5),
    "gcel/lu": oracle.case("lu", "gcel", 1, 16, P=16, seed=7),
    "modern/radix": oracle.case("radix", "modern", 1, 256, P=16, seed=17,
                                variant="bpram"),
}


def traces(case, tmp_path):
    """``engine -> trace`` for one case, including a disk-hit replay;
    ``"per-rank"`` is a custom per-rank program on the case's machine."""
    c = CASES[case]
    runs = {}
    with ir_store_scope(IRStore(tmp_path)) as store:
        res = runs["ir-record"] = oracle.run_ir(c)
        runs["ir-memory"] = oracle.run_ir(c)
        assert store.recorded == 1 and store.memory_hits == 1
    with ir_store_scope(IRStore(tmp_path)) as store:
        runs["ir-disk"] = oracle.run_ir(c)
        assert store.disk_hits == 1 and store.recorded == 0
    runs["vector"] = oracle.run_vector(c, res)
    for engine, run in runs.items():
        oracle.assert_matches(c, run, engine)
    out = {engine: run.trace for engine, run in runs.items()}
    out["per-rank"] = run_spmd(make_machine(c.machine, seed=1),
                               interleaved_program, 40, P=8).trace
    return out


def scalar_work_us(step, params):
    """Per-rank nominal work of ``step``, item by item, shape ``(P,)``."""
    out = np.zeros(step.P)
    for rank, items in step.work.by_rank().items():
        out[rank] += sum(nominal_time(item, params) for item in items)
    return out


def scalar_c(step, params):
    return float(scalar_work_us(step, params).max()) if step.work else 0.0


def seed_trace_cost(model, trace):
    """The per-superstep formula, ``c`` priced item by item."""
    comm = model.comm_cost_batch([s.phase for s in trace])
    return sum(scalar_c(s, model.params) + c for s, c in zip(trace, comm))


def seed_attribution(model, trace):
    """Per-family predicted totals, accumulated one superstep at a time."""
    out: dict[str, float] = {}
    for step in trace:
        key = _family(step.label)
        cost = scalar_c(step, model.params) + model.comm_cost(step.phase)
        out[key] = out.get(key, 0.0) + cost
    return out


def seed_p_max(bsf, trace):
    tc = float(sum(float(scalar_work_us(s, bsf.params).sum())
                   for s in trace))
    ti = bsf.t_interact(trace)
    return float("inf") if ti <= 0.0 else math.sqrt(tc / ti)


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_cost_matches_seed_formula_exactly(case, tmp_path):
    cal = calibration_for(CASES[case].machine)
    models = _models_for(cal)
    assert any(isinstance(m, BSF) for m in models)
    for engine, trace in traces(case, tmp_path).items():
        assert any(s.work for s in trace), engine
        for model in models:
            got = model.trace_cost(trace)
            assert got == seed_trace_cost(model, trace), (engine, model.name)

            rows = attribute_error(trace, model)
            assert {r.label: r.predicted_us for r in rows} \
                == seed_attribution(model, trace), (engine, model.name)
            assert sum(r.measured_us for r in rows) \
                == pytest.approx(trace.measured_us)

            if isinstance(model, BSF):
                assert model.p_max(trace) == seed_p_max(model, trace)


def test_replayed_traces_share_work_dicts(tmp_path):
    """The dedup has something to do: replay hands supersteps of one
    batch list the same record, on memory and disk hits alike."""
    out = traces("maspar/bitonic", tmp_path)
    for engine in ("ir-memory", "ir-disk"):
        steps = [s for s in out[engine] if s.work]
        assert len({id(s.work) for s in steps}) < len(steps), engine
