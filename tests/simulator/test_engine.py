"""Tests for the SPMD engine."""

import numpy as np
import pytest

from repro.core.errors import MailboxError, SimulationError
from repro.core.work import Flops
from repro.machines import CM5, MasParMP1, make_machine
from repro.machines.base import Machine
from repro.simulator import replay, run_spmd
from tests.simulator.test_work_records import interleaved_program


def ring_shift(ctx, payload_value):
    """Each proc sends one word to its right neighbour."""
    right = (ctx.rank + 1) % ctx.P
    ctx.put(right, payload_value + ctx.rank, nbytes=ctx.word_bytes, tag="ring")
    yield ctx.sync("shift")
    got = ctx.get(src=(ctx.rank - 1) % ctx.P, tag="ring")
    return got


class TestBasicExecution:
    def test_ring_shift_delivers(self, cm5):
        res = run_spmd(cm5, ring_shift, 100)
        assert res.P == 64
        assert res.returns == [100 + (r - 1) % 64 for r in range(64)]

    def test_time_positive_and_matches_trace(self, cm5):
        res = run_spmd(cm5, ring_shift, 0)
        assert res.time_us > 0
        assert res.trace.measured_us == pytest.approx(res.time_us)

    def test_trace_contents(self, cm5):
        res = run_spmd(cm5, ring_shift, 0)
        assert len(res.trace) == 1
        step = res.trace[0]
        assert step.label == "shift"
        assert step.phase.relation().is_full_h_relation(64)

    def test_subset_of_machine(self, cm5):
        res = run_spmd(cm5, ring_shift, 0, P=8)
        assert res.P == 8
        assert len(res.returns) == 8

    def test_oversubscription_rejected(self, cm5):
        with pytest.raises(SimulationError):
            run_spmd(cm5, ring_shift, 0, P=128)

    def test_deterministic_given_seed(self):
        r1 = run_spmd(CM5(seed=5), ring_shift, 0)
        r2 = run_spmd(CM5(seed=5), ring_shift, 0)
        assert r1.time_us == r2.time_us


class TestComputeCharging:
    def test_work_advances_clock(self, cm5):
        def prog(ctx):
            ctx.charge(Flops(10_000))
            yield ctx.sync()

        res = run_spmd(cm5, prog)
        assert res.time_us >= 10_000 * 0.9 * cm5.nominal.alpha

    def test_uncharged_compute_is_free(self, cm5):
        def prog(ctx):
            _ = sum(range(1000))  # host work, no charge
            yield ctx.sync()

        res = run_spmd(cm5, prog)
        # only the barrier cost remains
        assert res.time_us < 1000

    def test_work_recorded_in_trace(self, cm5):
        def prog(ctx):
            ctx.charge(Flops(500))
            yield ctx.sync()

        res = run_spmd(cm5, prog)
        assert res.trace[0].work.by_rank() == {r: [Flops(500)]
                                                for r in range(cm5.P)}


class TestMultiSuperstep:
    def test_messages_not_visible_before_sync(self, cm5):
        def prog(ctx):
            if ctx.rank == 0:
                ctx.put(1, 42, nbytes=8, tag="x")
            early = ctx.has_message("x")
            yield ctx.sync()
            late = ctx.rank == 1 and ctx.get(0, "x") == 42
            return (early, late)

        res = run_spmd(cm5, prog, P=2)
        assert res.returns[1] == (False, True)

    def test_pipeline_over_supersteps(self, cm5):
        def prog(ctx):
            value = ctx.rank
            for step in range(5):
                ctx.put((ctx.rank + 1) % ctx.P, value, nbytes=8, tag=step)
                yield ctx.sync(f"s{step}")
                value = ctx.get(tag=step)
            return value

        res = run_spmd(cm5, prog, P=8)
        assert res.returns == [(r - 5) % 8 for r in range(8)]
        assert len(res.trace) == 5

    def test_unreceived_message_raises(self, cm5):
        def prog(ctx):
            yield ctx.sync()
            ctx.get(tag="never-sent")
            yield ctx.sync()

        with pytest.raises(MailboxError):
            run_spmd(cm5, prog, P=2)


class TestProgramValidation:
    def test_non_generator_rejected(self, cm5):
        def not_a_gen(ctx):
            return 42

        with pytest.raises(SimulationError, match="generator"):
            run_spmd(cm5, not_a_gen)

    def test_bad_yield_rejected(self, cm5):
        def prog(ctx):
            yield "not-a-token"

        with pytest.raises(SimulationError, match="sync"):
            run_spmd(cm5, prog, P=2)

    def test_livelock_guard(self, cm5):
        def prog(ctx):
            while True:
                yield ctx.sync()

        with pytest.raises(Exception, match="supersteps"):
            run_spmd(cm5, prog, P=2, max_supersteps=10)

    def test_bad_destination_rejected(self, cm5):
        def prog(ctx):
            ctx.put(ctx.P + 3, 0, nbytes=4)
            yield ctx.sync()

        with pytest.raises(SimulationError):
            run_spmd(cm5, prog, P=2)


class TestNonUniformTermination:
    def test_some_procs_finish_early(self, cm5):
        def prog(ctx):
            if ctx.rank == 0:
                ctx.put(1, "hello", nbytes=5, tag="a")
                yield ctx.sync()
                ctx.put(1, "world", nbytes=5, tag="b")
                yield ctx.sync()
            elif ctx.rank == 1:
                yield ctx.sync()
                yield ctx.sync()
                return (ctx.get(0, "a"), ctx.get(0, "b"))
            else:
                yield ctx.sync()

        res = run_spmd(cm5, prog, P=4)
        assert res.returns[1] == ("hello", "world")

    def test_trailing_sends_flushed(self, cm5):
        """A send issued right before program end is still priced."""

        def prog(ctx):
            yield ctx.sync()
            if ctx.rank == 0:
                ctx.put(1, 1, nbytes=8)

        res = run_spmd(cm5, prog, P=2)
        assert res.trace.total_messages == 1


class TestSIMDLockstep:
    def test_maspar_clocks_equalised(self):
        m = MasParMP1(P=64, seed=3)

        def prog(ctx):
            if ctx.rank == 0:
                ctx.charge(Flops(10_000))
            yield ctx.sync()

        res = run_spmd(m, prog)
        assert np.allclose(res.clocks, res.clocks[0])


class TestRunResultProfile:
    def test_profile_sums_to_total(self, cm5):
        def prog(ctx):
            for it in range(3):
                ctx.put((ctx.rank + 1) % ctx.P, it, nbytes=8, tag=it)
                yield ctx.sync(f"phase-{it}")
                ctx.get(tag=it)

        res = run_spmd(cm5, prog, P=8)
        prof = res.profile()
        assert set(prof) == {"phase"}
        assert sum(prof.values()) == pytest.approx(res.time_us)


class TestOnePricingPath:
    @pytest.mark.parametrize("name", ["maspar", "gcel", "cm5", "t800",
                                      "modern"])
    def test_a_run_is_one_replay_of_its_recording(self, name, monkeypatch):
        """``run_spmd`` prices nothing while the programs run: it never
        calls ``Machine.comm_time``, and its clocks, measured times and
        RNG state are those of one replay of the program it recorded."""
        import repro.simulator.engine as engine

        recorded = []
        build = engine.build_program

        def keep(**kwargs):
            recorded.append(build(**kwargs))
            return recorded[-1]

        def refuse(*args, **kwargs):
            raise AssertionError("run_spmd priced a phase itself")

        monkeypatch.setattr(engine, "build_program", keep)
        monkeypatch.setattr(Machine, "comm_time", refuse)
        machine = make_machine(name, seed=4)
        res = run_spmd(machine, interleaved_program, 40, P=8)
        (prog,) = recorded
        fresh = make_machine(name, seed=4)
        again = replay(fresh, prog)
        assert np.array_equal(res.clocks, again.clocks)
        assert [s.measured_us for s in res.trace] == \
            [s.measured_us for s in again.trace]
        assert machine.rng.bit_generator.state == \
            fresh.rng.bit_generator.state
