"""Deduplicated work pricing is bit-identical to the per-step formula.

:meth:`CostModel.trace_cost` prices each distinct work dict once
(:meth:`Trace.work_terms`).  These tests pin its result, exactly, to the
per-superstep formula it replaced, for every scoreboard model and for
traces from every engine: generator, vector, IR record, IR memory hit
and IR disk hit (whose supersteps share the work dicts the replay
prepped per batch list).  The consumers routed through the helper --
``attribute_error`` row totals and ``BSF.p_max`` -- are pinned the same
way.
"""

import math

import pytest

from repro.algorithms import bitonic, lu, radix
from repro.calibration.table1 import calibration_for
from repro.core.bsf import BSF
from repro.machines import make_machine
from repro.simulator.ir import IRStore, ir_store_scope
from repro.validation.attribution import _family, attribute_error
from repro.validation.scoreboard import _models_for

CASES = {
    "maspar/bitonic": ("maspar", lambda m, e: bitonic.run(
        m, 128, P=16, seed=5, engine=e)),
    "gcel/lu": ("gcel", lambda m, e: lu.run(m, 16, P=16, seed=7, engine=e)),
    "modern/radix": ("modern", lambda m, e: radix.run(
        m, 256, P=16, seed=17, variant="bpram", engine=e)),
}


def traces(case, tmp_path):
    """``engine -> trace`` for one case, including a disk-hit replay."""
    machine_name, run = CASES[case]

    def once(engine):
        return run(make_machine(machine_name, seed=1), engine).trace

    out = {"generator": once("generator"), "vector": once("vector")}
    with ir_store_scope(IRStore(tmp_path)) as store:
        out["ir-record"] = once("ir")
        out["ir-memory"] = once("ir")
        assert store.recorded == 1 and store.memory_hits == 1
    with ir_store_scope(IRStore(tmp_path)) as store:
        out["ir-disk"] = once("ir")
        assert store.disk_hits == 1 and store.recorded == 0
    return out


def seed_trace_cost(model, trace):
    """The per-superstep formula ``trace_cost`` used before deduplication."""
    comm = model.comm_cost_batch([s.phase for s in trace])
    return sum(s.max_work_nominal_us(model.params) + c
               for s, c in zip(trace, comm))


def seed_attribution(model, trace):
    """Per-family predicted totals, accumulated one superstep at a time."""
    out: dict[str, float] = {}
    for step in trace:
        key = _family(step.label)
        out[key] = out.get(key, 0.0) + model.superstep_cost(step)
    return out


def seed_p_max(bsf, trace):
    tc = float(sum(float(s.work_nominal_us(bsf.params).sum())
                   for s in trace))
    ti = bsf.t_interact(trace)
    return float("inf") if ti <= 0.0 else math.sqrt(tc / ti)


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_cost_matches_seed_formula_exactly(case, tmp_path):
    cal = calibration_for(CASES[case][0])
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
    batch list the same dict, on memory and disk hits alike."""
    out = traces("maspar/bitonic", tmp_path)
    for engine in ("ir-memory", "ir-disk"):
        steps = [s for s in out[engine] if s.work]
        assert len({id(s.work) for s in steps}) < len(steps), engine
