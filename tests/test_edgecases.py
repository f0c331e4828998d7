"""Edge cases and failure injection across the stack."""

import numpy as np
import pytest

from repro.algorithms import apsp, bitonic, matmul, samplesort
from repro.calibration.microbench import time_phase
from repro.core import BSP, MPBPRAM, ModelParams
from repro.core.errors import ModelError, SimulationError
from repro.core.relations import CommPhase
from repro.machines import CM5, GCel, MasParMP1
from repro.simulator import run_spmd, run_spmd_vector
from tests.simulator import oracle


class TestDegenerateParams:
    def test_zero_latency_model(self):
        p = ModelParams(machine="x", P=4, g=1.0, L=0.0, sigma=0.1, ell=0.0)
        ph = CommPhase.permutation(np.roll(np.arange(4), 1), 4)
        assert BSP(p).comm_cost(ph) == pytest.approx(1.0)
        assert MPBPRAM(p).comm_cost(ph) == pytest.approx(0.4)

    def test_zero_byte_message(self):
        ph = CommPhase(P=4, src=[0], dst=[1], count=[1], msg_bytes=[0])
        p = ModelParams(machine="x", P=4, g=1.0, L=2.0, sigma=0.1, ell=5.0)
        # zero bytes -> zero words, but the startup terms still apply
        assert MPBPRAM(p).comm_cost(ph) == pytest.approx(5.0)

    def test_negative_message_rejected(self):
        with pytest.raises(Exception):
            CommPhase(P=4, src=[0], dst=[1], count=[1], msg_bytes=[-1])


class TestTinyMachines:
    def test_single_processor_program(self, cm5):
        def prog(ctx):
            ctx.charge_flops(100)
            yield ctx.sync()
            return ctx.rank

        res = run_spmd(cm5, prog, P=1)
        assert res.returns == [0]
        assert res.time_us > 0

    def test_two_processor_bitonic(self):
        res = bitonic.run(CM5(seed=0), 4, variant="bsp", P=2, seed=1)
        flat = np.concatenate(res.returns)
        assert np.all(flat[:-1] <= flat[1:])

    def test_one_by_one_apsp_grid(self, cm5):
        res = apsp.run(cm5, 4, P=1, seed=0)
        got = apsp.assemble(1, 4, res.returns)
        assert np.allclose(got, apsp.reference_apsp(res.inputs))

    def test_minimum_matmul(self, cm5):
        # q = 1: a single processor does everything locally
        res = matmul.run(cm5, 4, variant="bpram", P=1, seed=0)
        C = matmul.assemble(res.setup, res.returns)
        A, B = res.inputs
        assert np.allclose(C, A @ B)


class TestAdversarialInputs:
    """The sorts on hostile key stacks, through their vector programs;
    each run also matches the oracle snapshot's entry."""

    def test_bitonic_all_equal_keys(self):
        machine = CM5(seed=0)
        keys = np.full((16, 8), 42, dtype=np.uint64)

        res = run_spmd_vector(machine, bitonic.bitonic_vector_program, keys,
                              "bsp", P=16)
        assert all(np.asarray(r).size == 8 for r in res.returns)
        flat = np.concatenate(res.returns)
        assert np.all(flat == 42)
        oracle.assert_matches(
            oracle.case("bitonic", "cm5", 0, 8, P=16, keys="equal"), res)

    def test_bitonic_presorted_and_reversed(self):
        for order, name in ((1, "ascending"), (-1, "descending")):
            machine = CM5(seed=0)
            base = np.arange(16 * 8, dtype=np.uint64)[::order].reshape(16, 8)

            res = run_spmd_vector(machine, bitonic.bitonic_vector_program,
                                  base.copy(), "bpram", P=16)
            flat = np.concatenate(res.returns)
            assert np.array_equal(flat, np.sort(base.ravel()))
            oracle.assert_matches(
                oracle.case("bitonic", "cm5", 0, 8, P=16, variant="bpram",
                            keys=name), res)

    def test_samplesort_single_hot_bucket(self):
        """Every key identical: one bucket takes everything, the padded
        routing must absorb the skew (or grow its messages)."""
        machine = CM5(seed=0)
        keys = np.full((16, 32), 7, dtype=np.uint64)

        res = run_spmd_vector(machine, samplesort.sample_sort_vector_program,
                              keys, "bpram", 8, sample_seed=0, P=16)
        flat = np.concatenate([np.asarray(r) for r in res.returns])
        assert flat.size == 16 * 32 and np.all(flat == 7)
        oracle.assert_matches(
            oracle.case("samplesort", "cm5", 0, 32, P=16, oversample=8,
                        keys="constant", sample_seed=0), res)

    def test_apsp_fully_disconnected(self, cm5):
        res = apsp.run(cm5, 16, P=16, seed=0, density=0.0)
        got = apsp.assemble(16, 16, res.returns)
        off_diag = ~np.eye(16, dtype=bool)
        assert np.all(got[off_diag] >= apsp.INF / 2)

    def test_apsp_fully_connected(self, cm5):
        res = apsp.run(cm5, 16, P=16, seed=0, density=1.0)
        got = apsp.assemble(16, 16, res.returns)
        assert np.allclose(got, apsp.reference_apsp(res.inputs))


class TestProgramFaults:
    def test_receive_before_send_superstep(self, cm5):
        """Reading a message that arrives only next superstep fails loudly."""

        def prog(ctx):
            if ctx.rank == 0:
                ctx.put(1, 1, nbytes=4, tag="late")
            if ctx.rank == 1:
                with pytest.raises(Exception):
                    ctx.get(src=0, tag="late")
            yield ctx.sync()
            if ctx.rank == 1:
                assert ctx.get(src=0, tag="late") == 1

        run_spmd(cm5, prog, P=2)

    def test_mixed_yield_types_rejected(self, cm5):
        def prog(ctx):
            yield ctx.sync()
            yield 42

        with pytest.raises(SimulationError):
            run_spmd(cm5, prog, P=2)

    def test_machine_rejects_foreign_clock_shape(self):
        m = GCel(seed=0)
        ph = CommPhase.permutation(np.roll(np.arange(64), 1), 4)
        with pytest.raises(Exception):
            m.comm_time(ph, np.zeros(32))


class TestSeedIsolation:
    def test_machine_instances_do_not_share_state(self):
        a = MasParMP1(P=64, seed=5)
        b = MasParMP1(P=64, seed=5)
        ph = CommPhase.permutation(np.roll(np.arange(64), 3), 4)
        # interleaved calls must match pairwise (no hidden global RNG)
        assert time_phase(a, ph, barrier=False) == \
            time_phase(b, ph, barrier=False)
        assert time_phase(a, ph, barrier=False) == \
            time_phase(b, ph, barrier=False)
