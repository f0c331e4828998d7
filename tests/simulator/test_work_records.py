"""Superstep work records: one columnar form, whichever engine made it.

A superstep's work is one immutable :class:`~repro.core.work.StepWork`:
same-kind batches plus the order that lays their items out rank-major,
each rank's in charge order.  A rank that charges ``Merge, Flops, Merge``
in one superstep keeps that charge order under every engine — for its
noise draws, its left-to-right sum and its items alike.  Pricing reads
the columns only: no production run rebuilds per-item ``Work`` objects.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core.work import Flops, Merge, StepWork
from repro.machines import make_machine
from repro.simulator import run_lowered, run_spmd, run_spmd_vector
from repro.simulator.ir import IRStore, ir_store_scope

P = 8


def interleaved_program(ctx, n):
    r = ctx.rank
    ctx.charge_merge(n + r)
    ctx.charge_flops(10.5 * (r + 1))
    ctx.charge_merge(2 * n)
    ctx.put((r + 1) % ctx.P, None, nbytes=8)
    yield ctx.sync("mix")
    if r % 2:
        ctx.charge_flops(r)
        ctx.charge_copy(3)
    yield ctx.sync("odd")


def interleaved_vector_program(ctx, n):
    ranks = ctx.ranks()
    ctx.charge_merge(ranks, n + ranks)
    ctx.charge_flops(ranks, 10.5 * (ranks + 1))
    ctx.charge_merge(ranks, 2 * n)
    ctx.put_group(ranks, (ranks + 1) % ctx.P, nbytes=8)
    yield ctx.sync("mix")
    odd = ranks[1::2]
    ctx.charge_flops(odd, odd)
    ctx.charge_copy(odd, 3)
    yield ctx.sync("odd")
    return [None] * ctx.P


@pytest.mark.parametrize("machine", ["gcel", "cm5"])
def test_interleaved_kinds_agree_across_engines(machine):
    n = 40
    runs = {}
    machines = {}
    for engine in ("generator", "vector", "ir"):
        m = machines[engine] = make_machine(machine, seed=3)
        assert m.compute_noise > 0
        if engine == "generator":
            runs[engine] = run_spmd(m, interleaved_program, n, P=P)
        elif engine == "vector":
            runs[engine] = run_spmd_vector(m, interleaved_vector_program, n,
                                           P=P)
        else:
            with ir_store_scope(IRStore(disk=False)):
                runs[engine] = run_lowered(
                    m, interleaved_vector_program, n, P=P,
                    algorithm="test-interleaved", key_params={"n": n})
    g = runs["generator"]
    assert g.trace[0].work.by_rank() == {
        r: [Merge(n + r), Flops(10.5 * (r + 1)), Merge(2 * n)]
        for r in range(P)}
    state = machines["generator"].rng.bit_generator.state
    for engine in ("vector", "ir"):
        o = runs[engine]
        assert np.array_equal(o.clocks, g.clocks), engine
        assert o.time_us == g.time_us, engine
        assert len(o.trace) == len(g.trace), engine
        for a, b in zip(g.trace, o.trace):
            assert a.work.by_rank() == b.work.by_rank(), engine
            assert a.measured_us == b.measured_us, engine
        assert machines[engine].rng.bit_generator.state == state, engine


def _what_if_selection():
    """The ablate and bounds cells the end-to-end benchmark's ``whatif``
    workload times (``benchmarks/e2e/workloads.py``)."""
    path = (Path(__file__).parents[2] / "benchmarks" / "e2e"
            / "workloads.py")
    spec = importlib.util.spec_from_file_location("e2e_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_production_runs_never_build_work_items(monkeypatch):
    """Cold and warm experiment runs and a what-if matrix price work from
    the columns alone: ``by_rank`` (the only path that turns columns
    back into ``Work`` objects) is never called."""
    from repro.ablation import AblateRequest, ablate
    from repro.bounds import BoundsRequest, bounds
    from repro.runner import run_experiments

    calls = []
    original = StepWork.by_rank

    def spy(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(StepWork, "by_rank", spy)
    W = _what_if_selection()
    with ir_store_scope(IRStore(disk=False)) as store:
        for _ in ("cold", "warm"):
            run_experiments(["fig12", "ext-radix"], scale=1.0, cache=None)
        assert store.recorded > 0 and store.memory_hits > 0
        ablate(AblateRequest(components=W.ABLATE_COMPONENTS,
                             cells=W.ABLATE_CELLS, scale=W.WHATIF_SCALE,
                             seed=0, use_cache=False))
        bounds(BoundsRequest(cells=W.BOUNDS_CELLS, scale=W.WHATIF_SCALE,
                             seed=0, use_cache=False))
    assert calls == []
