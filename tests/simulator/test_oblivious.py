"""Data-oblivious recording: one structure-only recording per shape.

Matmul (row-strip starts included), bitonic sort, APSP, LU, the Jacobi
stencil and the broadcasts send and charge the same whatever their
data, so the IR engine records them once per shape — keyed
without the data seed, in a structure-only pass that skips the numeric
kernels and draws no inputs.  These tests hold that pass to the full
record byte for byte, check that a recording shared across seeds still
hands every caller its own seed's inputs and results, and spy on a cold
``fig12`` to prove it computes nothing it does not read.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (apsp, bitonic, collectives, lu, matmul, radix,
                              samplesort, stencil)
from repro.experiments import get
from repro.machines import CM5, GCel, MasParMP1, ModernCluster, T800Grid
from repro.simulator import lower
from repro.simulator.ir import IRStore, encode_program, ir_store_scope

MACHINES = {
    "maspar": MasParMP1,
    "gcel": GCel,
    "cm5": CM5,
    "t800": T800Grid,
    "modern": ModernCluster,
}

#: oblivious algorithm -> (module, sizes, variants, runner(machine, n,
#: variant, seed)).  Sizes span both APSP broadcast regimes (also the row
#: broadcast's) and bitonic's chunked ``bsp-sync`` steps; a stencil's
#: variant is its sweep count.  The broadcasts draw no seeded data.
OBLIVIOUS = {
    "matmul": (matmul, (4, 8, 12), matmul.VARIANTS,
               lambda m, n, v, s: matmul.run(m, n, variant=v, P=8, seed=s)),
    "matmul-2d": (matmul, (8, 16, 24), matmul.LAYOUT_VARIANTS,
                  lambda m, n, v, s: matmul.run(m, n, variant=v, P=8,
                                                seed=s)),
    "bitonic": (bitonic, (8, 64, 300), bitonic.VARIANTS,
                lambda m, n, v, s: bitonic.run(m, n, variant=v, P=16,
                                               seed=s)),
    "apsp": (apsp, (4, 8, 24), (None,),
             lambda m, n, v, s: apsp.run(m, n, P=16, seed=s)),
    "lu": (lu, (8, 16, 24), (None,),
           lambda m, n, v, s: lu.run(m, n, P=16, seed=s)),
    "stencil": (stencil, (4, 8, 16), (1, 3),
                lambda m, n, v, s: stencil.run(m, n, v, P=16, seed=s)),
    "broadcast": (collectives, (16, 48), ("naive", "two-phase"),
                  lambda m, n, v, s: collectives.run_broadcast(
                      m, n, strategy=v, P=16)),
    "row-broadcast": (collectives, (2, 4, 8), ("direct", "two-phase"),
                      lambda m, n, v, s: collectives.run_row_broadcast(
                          m, n, strategy=v, P=16)),
}


def _blob(case, machine_name, n, variant, seed, *, full: bool) -> bytes:
    """The blob one IR run records, in a fresh store.

    ``full`` records through the full pass instead: the algorithm's
    ``run_lowered`` call loses its ``stand_in``, as a data-dependent
    program's would.
    """
    module, _, _, runner = OBLIVIOUS[case]

    def full_record(*args, stand_in=None, **kwargs):
        return lower.run_lowered(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        if full:
            mp.setattr(module, "run_lowered", full_record)
        with ir_store_scope(IRStore(disk=False)) as store:
            runner(MACHINES[machine_name](seed=0), n, variant, seed)
    (prog,) = store.memory.values()
    return encode_program(prog)


#: algorithm -> its key_params at a data seed (the broadcasts take none).
SEEDED_KEYS = {
    "apsp": lambda s: apsp.key_params(16, seed=s),
    "bitonic": lambda s: bitonic.key_params(16, seed=s),
    "lu": lambda s: lu.key_params(16, seed=s),
    "matmul": lambda s: matmul.key_params(16, seed=s),
    "stencil": lambda s: stencil.key_params(16, 4, seed=s),
}


@st.composite
def shapes(draw):
    case = draw(st.sampled_from(sorted(OBLIVIOUS)))
    _, sizes, variants, _ = OBLIVIOUS[case]
    return (case, draw(st.sampled_from(sorted(MACHINES))),
            draw(st.sampled_from(sizes)), draw(st.sampled_from(variants)))


class TestStructureOnlyRecording:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(shape=shapes(),
           seeds=st.lists(st.integers(min_value=0, max_value=2 ** 16),
                          min_size=3, max_size=3, unique=True))
    def test_structure_blob_is_the_full_blob_at_every_seed(self, shape,
                                                           seeds):
        """The structure-only pass records exactly what a full pass over
        real data records, and the data seed never changes a byte."""
        blobs = set()
        for seed in seeds:
            structure = _blob(*shape, seed, full=False)
            assert structure == _blob(*shape, seed, full=True), (shape, seed)
            blobs.add(structure)
        assert len(blobs) == 1, shape

    @pytest.mark.parametrize("case", sorted(SEEDED_KEYS))
    def test_key_params_leave_the_seed_out(self, case):
        key_params = SEEDED_KEYS[case]
        assert key_params(1) == key_params(2)
        assert "seed" not in key_params(1)

    @pytest.mark.parametrize("module", [samplesort, radix])
    def test_data_dependent_key_params_keep_the_seed(self, module):
        assert module.key_params(64, seed=1) != module.key_params(64, seed=2)


def _check_apsp(res, n):
    ref = apsp.reference_apsp(res.inputs)
    assert np.allclose(apsp.assemble(16, n, res.returns), ref)


def _check_lu(res, n):
    L, U = lu.reference_lu(res.inputs)
    assert np.allclose(lu.assemble(16, n, res.returns), L + U - np.eye(n))


def _check_bitonic(res, n):
    flat = np.concatenate(res.returns)
    assert bitonic.is_globally_sorted(res.returns)
    assert np.array_equal(flat, np.sort(res.inputs.ravel()))


def _check_matmul(res, n):
    A, B = res.inputs
    assert np.allclose(matmul.assemble(res.setup, res.returns), A @ B)


def _arrays(inputs) -> tuple:
    """A run's inputs as a tuple of arrays (matmul draws a pair)."""
    return inputs if isinstance(inputs, tuple) else (inputs,)


def _check_stencil(res, n):
    ref = stencil.reference_jacobi(res.inputs, 1)
    assert np.allclose(stencil.assemble(16, n, res.returns), ref)


#: algorithm -> (size, independent check of a run's inputs and returns).
CROSS_SEED = {
    "apsp": (16, _check_apsp),
    "lu": (16, _check_lu),
    "bitonic": (64, _check_bitonic),
    "matmul": (8, _check_matmul),
    "stencil": (16, _check_stencil),
}


class TestPerCallData:
    @pytest.mark.parametrize("machine", ["gcel", "maspar"])
    @pytest.mark.parametrize("case", sorted(CROSS_SEED))
    def test_memory_hit_at_another_seed_gets_that_seeds_data(self, case,
                                                             machine):
        """Record at seed j, run seed k as a memory hit: the hit gets
        seed k's inputs and results — checked against the numpy
        reference, and against a fresh recording of seed k (whose runs
        the oracle snapshot pins) — and the recording call keeps seed
        j's."""
        n, check = CROSS_SEED[case]
        variant = OBLIVIOUS[case][2][0]
        runner = OBLIVIOUS[case][3]
        cls = MACHINES[machine]
        with ir_store_scope(IRStore(disk=False)) as store:
            first = runner(cls(seed=0), n, variant, 3)
            hit = runner(cls(seed=0), n, variant, 4)
            assert store.recorded == 1
            assert store.memory_hits == 1
        with ir_store_scope(IRStore(disk=False)):
            fresh = runner(cls(seed=0), n, variant, 4)
        check(hit, n)
        assert hit.time_us == fresh.time_us
        assert np.array_equal(hit.clocks, fresh.clocks)
        assert [s.measured_us for s in hit.trace] \
            == [s.measured_us for s in fresh.trace]
        assert len(hit.returns) == len(fresh.returns)
        for a, b in zip(hit.returns, fresh.returns):
            assert np.array_equal(a, b)
        hit_in = _arrays(hit.inputs)
        for a, b in zip(hit_in, _arrays(fresh.inputs)):
            assert np.array_equal(a, b)
        check(first, n)
        assert not np.array_equal(_arrays(first.inputs)[0], hit_in[0])

    def test_a_hit_draws_its_inputs_once_and_only_when_read(self,
                                                            monkeypatch):
        draws = []
        real = apsp.random_digraph

        def counting(*args, **kwargs):
            draws.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(apsp, "random_digraph", counting)
        with ir_store_scope(IRStore(disk=False)):
            apsp.run(GCel(seed=0), 16, P=16, seed=3)
            hit = apsp.run(GCel(seed=0), 16, P=16, seed=4)
        assert draws == []
        _check_apsp(hit, 16)  # reads the inputs and the data pass's returns
        assert len(draws) == 1

    @pytest.mark.parametrize("run", [
        lambda m, s: samplesort.run(m, 64, P=16, seed=s),
        lambda m, s: radix.run(m, 64, P=16, seed=s),
    ])
    def test_data_dependent_programs_record_per_seed(self, run):
        with ir_store_scope(IRStore(disk=False)) as store:
            for seed in (3, 4, 3):
                res = run(GCel(seed=0), seed)
                flat = np.concatenate(res.returns)
                assert np.array_equal(flat, np.sort(res.inputs.ravel()))
            assert store.recorded == 2
            assert store.memory_hits == 1


class TestColdSweepComputesNothingUnread:
    def test_cold_fig12_runs_no_kernel_and_draws_no_inputs(self,
                                                           monkeypatch):
        """A cold fig12 (1024-PE Floyd) records every program structure
        only: no pass runs with data, and no input is ever drawn."""
        passes = []
        execute = lower._execute

        def spy_execute(ctx, *args, **kwargs):
            passes.append((type(ctx).__name__, ctx.structure_only))
            return execute(ctx, *args, **kwargs)

        def no_draw(*args, **kwargs):
            raise AssertionError("fig12 drew an APSP input")

        monkeypatch.setattr(lower, "_execute", spy_execute)
        monkeypatch.setattr(apsp, "random_digraph", no_draw)
        with ir_store_scope(IRStore(disk=False)) as store:
            result = get("fig12").run(scale=1.0, seed=0)
        assert all(c.passed for c in result.checks)
        assert store.recorded == len(passes) == 3
        assert passes == [("VectorContext", True)] * 3
