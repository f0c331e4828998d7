"""Step-program IR engine: record-once / price-many, bit-identically.

The IR engine's contract extends the vector engine's: every algorithm's
``run()`` must produce exactly the same clocks, trace and per-rank
results as :func:`~repro.simulator.run_spmd` on its generator program —
on the recording run, on memory hits, on disk hits (structure-only blobs
whose returns regenerate lazily), and under any ``disable=`` ablation
subset.  These tests enforce the full engine equivalence matrix (with
:func:`~repro.simulator.run_spmd_vector` as the third engine), the
store's record-once discipline, canonical (byte-identical) blob
round-trips, and the key's staleness rules (schema version + algorithm
source fingerprint).
"""

import functools
import importlib
import importlib.util
import json
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (apsp, bitonic, collectives, lu, matmul, radix,
                              samplesort, stencil)
from repro.core.relations import CommPhase
from repro.core.work import WORK_FIELDS, Flops, WorkBatch
from repro.machines import CM5, GCel, MasParMP1, ModernCluster, T800Grid
from repro.simulator import run_spmd, run_spmd_vector
from repro.simulator.ir import (IR_SCHEMA, IRStore, build_program,
                                decode_program, encode_program, ir_key,
                                ir_store_scope)
from repro.simulator.lower import (algorithm_fingerprint,
                                   clear_algorithm_fingerprints, run_lowered)
from repro.simulator.replay import replay
from repro.simulator.result import RunResult

# the package re-exports the function under the module's name
replay_module = importlib.import_module("repro.simulator.replay")

MACHINES = {
    "maspar": MasParMP1,
    "gcel": GCel,
    "cm5": CM5,
    "t800": T800Grid,
    "modern": ModernCluster,
}


def _matmul_2d(variant, N, P):
    return (lambda m: matmul.run(m, N, variant=variant, P=P, seed=3),
            matmul.matmul_program, matmul.matmul_vector_program,
            lambda r: (r.setup, variant))


def _broadcast(strategy):
    return (lambda m: collectives.run_broadcast(m, 64, strategy=strategy,
                                                P=16),
            collectives.broadcast_program,
            collectives.broadcast_vector_program, lambda r: (strategy,))


def _row_broadcast(strategy):
    return (lambda m: collectives.run_row_broadcast(m, 8, strategy=strategy,
                                                    P=16),
            collectives.row_broadcast_program,
            collectives.row_broadcast_vector_program, lambda r: (strategy,))


#: One representative configuration per algorithm, sized for test speed:
#: case -> (its IR run on a machine, generator program, vector program,
#: program arguments after the inputs, from the IR run's result).
CASES = {
    "matmul": (lambda m: matmul.run(m, 12, P=8, seed=3),
               matmul.matmul_program, matmul.matmul_vector_program,
               lambda r: (r.setup, "bsp-staggered")),
    "matmul-bsp-2d-p8": _matmul_2d("bsp-2d", 16, 8),
    "matmul-bsp-2d-p64": _matmul_2d("bsp-2d", 64, 64),
    "matmul-bpram-2d-p8": _matmul_2d("bpram-2d", 16, 8),
    "matmul-bpram-2d-p64": _matmul_2d("bpram-2d", 64, 64),
    "bitonic": (lambda m: bitonic.run(m, 128, P=16, seed=5),
                bitonic.bitonic_program, bitonic.bitonic_vector_program,
                lambda r: ("bsp",)),
    "lu": (lambda m: lu.run(m, 16, P=16, seed=7), lu.lu_program,
           lu.lu_vector_program, lambda r: ()),
    "apsp": (lambda m: apsp.run(m, 16, P=16, seed=11), apsp.apsp_program,
             apsp.apsp_vector_program, lambda r: ()),
    "samplesort": (lambda m: samplesort.run(m, 256, P=16, seed=13),
                   samplesort.sample_sort_program,
                   samplesort.sample_sort_vector_program,
                   lambda r: ("bpram", 32, 32, 13)),
    "radix": (lambda m: radix.run(m, 256, P=16, seed=17),
              radix.radix_sort_program, radix.radix_sort_vector_program,
              lambda r: ("bpram",)),
    "stencil": (lambda m: stencil.run(m, 16, 4, P=16, seed=19),
                stencil.stencil_program, stencil.stencil_vector_program,
                lambda r: (4,)),
    "broadcast-naive": _broadcast("naive"),
    "broadcast-two-phase": _broadcast("two-phase"),
    "row-broadcast-direct": _row_broadcast("direct"),
    "row-broadcast-two-phase": _row_broadcast("two-phase"),
}


def run_engine(machine_name, algorithm, engine, *, seed=1, disable=(),
               like=None):
    """``algorithm``'s case on a fresh machine: its ``run()`` for
    ``"ir"``; for ``"generator"``/``"vector"``, its generator program
    through ``run_spmd`` / its vector program through ``run_spmd_vector``
    on the inputs of the IR result ``like``."""
    run, generator, vector, args = CASES[algorithm]
    machine = MACHINES[machine_name](seed=seed, disable=disable)
    if engine == "ir":
        return run(machine)
    engine_fn, program = ((run_spmd, generator) if engine == "generator"
                          else (run_spmd_vector, vector))
    return engine_fn(machine, program, like.inputs, *args(like),
                     P=like.clocks.size)


def assert_runs_identical(g, v):
    """Every observable of the two runs must match exactly."""
    assert g.time_us == v.time_us
    assert np.array_equal(g.clocks, v.clocks)
    assert len(g.returns) == len(v.returns)
    for a, b in zip(g.returns, v.returns):
        assert np.array_equal(np.asarray(a), np.asarray(b))
    assert len(g.trace.supersteps) == len(v.trace.supersteps)
    for a, b in zip(g.trace.supersteps, v.trace.supersteps):
        assert a.label == b.label
        assert a.measured_us == b.measured_us
        assert a.work.by_rank() == b.work.by_rank()
        pa, pb = a.phase, b.phase
        assert pa.stagger == pb.stagger
        for field in ("src", "dst", "count", "msg_bytes", "step"):
            assert np.array_equal(getattr(pa, field), getattr(pb, field)), \
                f"phase field {field} differs in superstep {a.label!r}"


def _no_generic_replay(*args, **kwargs):
    raise AssertionError("MasPar program left the fused replay path")


class TestEngineEquivalenceMatrix:
    """IR vs vector vs generator across every machine and algorithm."""

    @pytest.mark.parametrize("machine", sorted(MACHINES))
    @pytest.mark.parametrize("algorithm", sorted(CASES))
    def test_three_engines_identical(self, machine, algorithm, monkeypatch):
        if machine == "maspar":
            # every MasPar program replays fused, irregular sub-steps
            # (a PE with several groups, unequal counts) included
            monkeypatch.setattr(replay_module, "_replay_generic",
                                _no_generic_replay)
        with ir_store_scope(IRStore()) as store:
            i1 = run_engine(machine, algorithm, "ir")  # records
            i2 = run_engine(machine, algorithm, "ir")  # memory hit
            g = run_engine(machine, algorithm, "generator", like=i1)
            v = run_engine(machine, algorithm, "vector", like=i1)
            assert_runs_identical(g, v)
            assert_runs_identical(g, i1)
            assert_runs_identical(g, i2)
            assert store.recorded == 1
            assert store.memory_hits >= 1


def _spy_on_generator_engine(monkeypatch) -> list:
    """Count calls of ``repro.simulator.engine.run_spmd`` under every name
    a loaded ``repro`` module binds it to."""
    from repro.simulator import engine

    calls = []
    real = engine.run_spmd

    def spy(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "repro" \
                and getattr(mod, "run_spmd", None) is real:
            monkeypatch.setattr(mod, "run_spmd", spy)
    return calls


class TestOneProductionEngine:
    """The last workloads the generator engine ran now record into IR."""

    def test_ported_experiments_never_call_the_generator_engine(
            self, monkeypatch):
        from repro.runner import run_experiments

        calls = _spy_on_generator_engine(monkeypatch)
        ids = ["ext-t800", "ext-primitives", "abl-layout", "ext-misranking"]
        with ir_store_scope(IRStore(disk=False)) as store:
            outcomes = run_experiments(ids, scale=0.3, cache=None)
        assert [o.id for o in outcomes] == ids
        assert calls == []
        assert store.recorded > 0

    def test_nothing_takes_an_engine(self):
        import dataclasses
        import inspect

        from repro.ablation import AblateRequest
        from repro.bounds import BoundsRequest
        from repro.runner import run_experiments
        from repro.service import ServiceConfig

        for cls in (AblateRequest, BoundsRequest, ServiceConfig):
            assert "engine" not in {f.name for f in dataclasses.fields(cls)}
        for fn in (run_experiments, apsp.run, bitonic.run, lu.run,
                   matmul.run, radix.run, samplesort.run, stencil.run,
                   collectives.run_broadcast, collectives.run_row_broadcast):
            assert "engine" not in inspect.signature(fn).parameters, fn

    @pytest.mark.parametrize("machine", ["gcel", "cm5"])
    def test_stencil_predict_never_calls_the_generator_engine(
            self, machine, monkeypatch):
        from repro.service.oracle import predict_offline

        calls = _spy_on_generator_engine(monkeypatch)
        with ir_store_scope(IRStore(disk=False)) as store:
            doc = predict_offline({"machine": machine, "model": "bsp",
                                   "algorithm": "stencil"})
        assert doc["measured_us"] > 0
        assert calls == []
        assert store.recorded == 1


class TestRecordOncePriceMany:
    def test_one_recording_serves_seeds_and_ablations(self):
        """The sweep discipline: structure recorded once, priced per
        (seed, disable) — each replay bit-identical to its generator."""
        subsets = [(), ("endpoint-contention",),
                   ("comm-staggering", "cache-effects")]
        with ir_store_scope(IRStore()) as store:
            for seed in (0, 9):
                for disable in subsets:
                    i = run_engine("cm5", "bitonic", "ir",
                                   seed=seed, disable=disable)
                    g = run_engine("cm5", "bitonic", "generator",
                                   seed=seed, disable=disable, like=i)
                    assert_runs_identical(g, i)
            assert store.recorded == 1

    def test_disk_hit_replays_identically_with_lazy_returns(self, tmp_path):
        """A fresh process (new store) loads structure from disk; the
        per-rank returns regenerate lazily and still match exactly."""
        with ir_store_scope(IRStore(tmp_path)) as store:
            run_engine("gcel", "lu", "ir")
            assert store.recorded == 1
        with ir_store_scope(IRStore(tmp_path)) as store2:
            i = run_engine("gcel", "lu", "ir")
            assert store2.disk_hits == 1
            assert store2.recorded == 0
            # reading .returns forces the data-only pass
            g = run_engine("gcel", "lu", "generator", like=i)
            assert_runs_identical(g, i)

    def test_radix_disk_hit_on_modern(self, tmp_path):
        """The new scenario axes together: a radix recording made on the
        fat-tree profile replays bit-identically from disk."""
        with ir_store_scope(IRStore(tmp_path)) as store:
            run_engine("modern", "radix", "ir")
            assert store.recorded == 1
        with ir_store_scope(IRStore(tmp_path)) as store2:
            i = run_engine("modern", "radix", "ir")
            assert store2.disk_hits == 1
            assert store2.recorded == 0
            g = run_engine("modern", "radix", "generator", like=i)
            assert_runs_identical(g, i)

    def test_radix_ablation_subsets_on_modern(self):
        """One radix recording prices every (seed, disable) combination
        of the modern profile's phenomena — each replay bit-identical to
        its generator run (scalar pricing) despite the batched pricer."""
        subsets = [(), ("incast-collapse",), ("adaptive-routing",),
                   ("incast-collapse", "adaptive-routing")]
        with ir_store_scope(IRStore()) as store:
            for seed in (0, 9):
                for disable in subsets:
                    i = run_engine("modern", "radix", "ir",
                                   seed=seed, disable=disable)
                    g = run_engine("modern", "radix", "generator",
                                   seed=seed, disable=disable, like=i)
                    assert_runs_identical(g, i)
            assert store.recorded == 1


class TestLazyReturns:
    def test_thunk_materialises_once(self):
        calls = []

        def thunk():
            calls.append(1)
            return [1, 2, 3]

        r = RunResult(time_us=1.0, clocks=np.zeros(3), trace=None,
                      returns=thunk)
        assert r.returns == [1, 2, 3]
        assert r.returns == [1, 2, 3]
        assert len(calls) == 1

    def test_plain_returns_untouched(self):
        r = RunResult(time_us=1.0, clocks=np.zeros(2), trace=None,
                      returns=[4, 5])
        assert r.returns == [4, 5]


class TestBlobRoundTrip:
    def record(self, n, seed):
        from repro.simulator.vector import VectorContext, collect_steps

        machine = CM5(seed=0)
        keys = np.random.default_rng(seed).integers(
            0, 1 << 32, size=(16, n), dtype=np.uint64)
        ctx = VectorContext(16, machine.nominal.w, simd=machine.simd)
        gen = bitonic.bitonic_vector_program(ctx, keys, "bsp")
        steps, _ = collect_steps(ctx, gen, max_supersteps=10_000)
        return build_program(P=16, word_bytes=machine.nominal.w,
                             simd=machine.simd, steps=steps)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.sampled_from([64, 128, 256]),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_serialise_replay_parity(self, n, seed):
        prog = self.record(n, seed)
        back = decode_program(encode_program(prog))
        a = replay(CM5(seed=42), prog, label="orig")
        b = replay(CM5(seed=42), back, label="orig")
        assert a.time_us == b.time_us
        assert np.array_equal(a.clocks, b.clocks)
        for sa, sb in zip(a.trace.supersteps, b.trace.supersteps):
            assert sa.label == sb.label
            assert sa.measured_us == sb.measured_us
            assert sa.work.by_rank() == sb.work.by_rank()

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_reserialisation_is_byte_identical(self, seed):
        """Canonical encoding: decode → re-encode reproduces the blob
        exactly, so re-records after quarantine are byte-identical."""
        prog = self.record(128, seed)
        blob = encode_program(prog)
        again = encode_program(decode_program(blob))
        assert blob == again

    def test_integer_dtypes_survive_narrowing(self):
        """Column width narrowing must restore the original dtype."""
        prog = self.record(64, 0)
        back = decode_program(encode_program(prog))
        for ph, bh in zip(prog.phases, back.phases):
            for f in ("src", "dst", "count", "msg_bytes", "step"):
                a, b = getattr(ph, f), getattr(bh, f)
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)


#: values that need int8, int16, int32 and int64 columns
WIDTH_VALUES = [4, 1000, 100_000, 5_000_000_000]

_NONE = np.zeros(0, dtype=np.int64)


def _draw_phase(draw, P):
    """A random recorded phase: empty, or groups whose byte sizes need
    any of the four integer widths, staggered or not."""
    stagger = draw(st.booleans())
    if draw(st.integers(0, 4)) == 0:
        return CommPhase(P=P, src=_NONE, dst=_NONE, count=_NONE,
                         msg_bytes=_NONE, step=_NONE, stagger=stagger)
    n = draw(st.integers(1, 6))
    column = functools.partial(st.lists, min_size=n, max_size=n)
    return CommPhase(
        P=P, src=np.array(draw(column(st.integers(0, P - 1)))),
        dst=np.array(draw(column(st.integers(0, P - 1)))),
        count=np.array(draw(column(st.integers(1, 300)))),
        msg_bytes=np.array(draw(column(st.sampled_from(WIDTH_VALUES)))),
        step=np.array(draw(column(st.integers(-1, 3)))), stagger=stagger)


def _draw_param(draw, n):
    """A batch parameter column of ``n`` items: int64 of any width,
    int32 or float, and either uniform (a broadcast scalar) or not."""
    dtype = draw(st.sampled_from([np.int64, np.int32, np.float64]))
    values = (st.floats(0, 1e6) if dtype is np.float64
              else st.sampled_from(WIDTH_VALUES[:3] if dtype is np.int32
                                   else WIDTH_VALUES))
    if draw(st.booleans()):
        return np.asarray(draw(values), dtype=dtype)
    return np.array(draw(st.lists(values, min_size=n, max_size=n)),
                    dtype=dtype)


@st.composite
def hand_built_programs(draw):
    """A program built from drawn supersteps, interned phases included."""
    P = draw(st.sampled_from([4, 16]))
    pool = [_draw_phase(draw, P) for _ in range(draw(st.integers(1, 5)))]
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        batches = []
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from(sorted(WORK_FIELDS,
                                               key=lambda k: k.__name__)))
            n = draw(st.integers(1, 5))
            ranks = np.array(draw(st.lists(st.integers(0, P - 1),
                                           min_size=n, max_size=n)))
            batches.append(WorkBatch(kind, {f: _draw_param(draw, n)
                                            for f in WORK_FIELDS[kind]},
                                     ranks))
        steps.append((draw(st.sampled_from(pool)), batches,
                      draw(st.booleans()), draw(st.sampled_from("abc"))))
    return build_program(P=P, word_bytes=4, simd=draw(st.booleans()),
                         steps=steps)


def _recorded_program(case):
    with ir_store_scope(IRStore(disk=False)) as store:
        CASES[case][0](MACHINES["cm5"](seed=0))
    (prog,) = store.memory.values()
    return prog


def assert_same_array(a, b):
    assert a.dtype == b.dtype
    assert np.array_equal(a, b)


def assert_programs_equal(a, b):
    assert (a.P, a.word_bytes, a.simd) == (b.P, b.word_bytes, b.simd)
    for x, y in zip(a.table, b.table):
        assert_same_array(x, y)
    assert len(a.phases) == len(b.phases)
    for x, y in zip(a.phases, b.phases):
        assert (x.P, x.stagger, x.is_empty) == (y.P, y.stagger, y.is_empty)
        for f in ("src", "dst", "count", "msg_bytes", "step"):
            assert_same_array(getattr(x, f), getattr(y, f))
    assert (a.phase_idx, a.batch_idx, a.barriers, a.labels) \
        == (b.phase_idx, b.batch_idx, b.barriers, b.labels)
    assert len(a.batchlists) == len(b.batchlists)
    for xl, yl in zip(a.batchlists, b.batchlists):
        assert len(xl) == len(yl)
        for x, y in zip(xl, yl):
            assert x.kind is y.kind
            assert_same_array(x.ranks, y.ranks)
            assert x.params.keys() == y.params.keys()
            for f in x.params:
                assert_same_array(x.params[f], y.params[f])
                # a uniform column comes back as a broadcast scalar
                assert any(x.params[f].strides) \
                    == any(y.params[f].strides)


def decoded_arrays(prog):
    yield from prog.table
    for ph in prog.phases:
        yield from (ph.src, ph.dst, ph.count, ph.msg_bytes, ph.step)
    for bl in prog.batchlists:
        for b in bl:
            yield b.ranks
            yield from b.params.values()


class TestBlobLayout:
    """The raw-column blob restores every column, and nothing it hands
    out can write to or pin the blob's bytes."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog=hand_built_programs())
    def test_round_trip_hand_built(self, prog):
        blob = encode_program(prog)
        back = decode_program(blob)
        assert_programs_equal(prog, back)
        assert encode_program(back) == blob

    @pytest.mark.parametrize("case", ["matmul", "bitonic", "samplesort",
                                      "radix", "apsp"])
    def test_round_trip_recorded(self, case):
        prog = _recorded_program(case)
        blob = encode_program(prog)
        back = decode_program(blob)
        assert_programs_equal(prog, back)
        assert encode_program(back) == blob

    def test_every_width_round_trips(self):
        """Integer columns are stored in each of the four widths, and
        each comes back in its original dtype."""
        ph = CommPhase.permutation(np.roll(np.arange(4), 1), 8)
        steps = [(ph, [WorkBatch(Flops, {"n": np.array([v, v + 1])},
                                 np.array([0, 1]))], True, "w")
                 for v in WIDTH_VALUES]
        prog = build_program(P=4, word_bytes=4, simd=False, steps=steps)
        blob = encode_program(prog)
        head_len = int(blob[:blob.index(b"\n")])
        body = blob[blob.index(b"\n") + 1:]
        stored = {c["dtype"] for c in json.loads(body[:head_len])["columns"]
                  if c["orig"] == "<i8"}
        assert {"|i1", "<i2", "<i4", "<i8"} <= stored
        assert_programs_equal(prog, decode_program(blob))

    def test_decoded_columns_are_read_only(self):
        back = decode_program(encode_program(_recorded_program("samplesort")))
        arrays = list(decoded_arrays(back))
        assert any(a.size for a in arrays)
        for a in arrays:
            if a.size:
                with pytest.raises(ValueError):
                    a[0] = a[0]

    def test_no_decoded_array_views_the_blob(self):
        blob = encode_program(_recorded_program("samplesort"))
        back = decode_program(blob)
        for a in decoded_arrays(back):
            base = a
            while base is not None:
                assert base is not blob
                assert not (isinstance(base, memoryview)
                            and base.obj is blob)
                base = getattr(base, "base", None)


class TestKeying:
    COMMON = dict(algorithm="x", fingerprint="f" * 64, P=16,
                  word_bytes=4, simd=False, params={"n": 64, "seed": 0})

    def test_deterministic(self):
        assert ir_key(**self.COMMON) == ir_key(**self.COMMON)

    @pytest.mark.parametrize("change", [
        {"fingerprint": "e" * 64},
        {"P": 32},
        {"word_bytes": 8},
        {"simd": True},
        {"params": {"n": 64, "seed": 1}},
        {"algorithm": "y"},
    ])
    def test_every_component_keys(self, change):
        assert ir_key(**{**self.COMMON, **change}) != ir_key(**self.COMMON)

    def test_schema_version_is_in_key(self, monkeypatch):
        base = ir_key(**self.COMMON)
        monkeypatch.setattr("repro.simulator.ir.IR_SCHEMA", IR_SCHEMA + 1)
        assert ir_key(**self.COMMON) != base


_PROG_TEMPLATE = """\
import numpy as np


def tiny_program(ctx):
    ranks = ctx.ranks()
    ctx.put_group(ranks, (ranks + 1) %% ctx.P, nbytes=ctx.word_bytes)
    ctx.charge_flops(ranks, %d)
    yield ctx.sync("ring")
    return [int(r) for r in range(ctx.P)]
"""

# A shared kernel and a program that binds it from its sibling module.
_KERNEL_TEMPLATE = """\
def charge_kernel(ctx, ranks):
    ctx.charge_flops(ranks, %d)
"""

_KERNEL_USER = """\
from tiny_kernel_fp import charge_kernel


def tiny_program(ctx):
    ranks = ctx.ranks()
    ctx.put_group(ranks, (ranks + 1) % ctx.P, nbytes=ctx.word_bytes)
    charge_kernel(ctx, ranks)
    yield ctx.sync("ring")
    return [int(r) for r in range(ctx.P)]
"""


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


class TestFingerprintStaleness:
    def test_editing_algorithm_body_misses_the_cache(self, tmp_path):
        """The regression the fingerprint exists for: change an
        algorithm's source and its recordings must not be reused."""
        path = tmp_path / "tiny_alg.py"
        path.write_text(_PROG_TEMPLATE % 100)
        mod = _load(path, "tiny_alg_fp_test")
        machine = CM5(seed=1)
        kw = dict(algorithm="tiny", key_params={"n": 1}, P=8, label="tiny")
        try:
            with ir_store_scope(IRStore(tmp_path / "ir")) as store:
                r1 = run_lowered(machine, mod.tiny_program, **kw)
                assert store.recorded == 1
                fp1 = algorithm_fingerprint(mod.tiny_program)

                # edit the body: the charge changes, so replays of the
                # old recording would be silently wrong
                path.write_text(_PROG_TEMPLATE % 999)
                clear_algorithm_fingerprints()
                mod = _load(path, "tiny_alg_fp_test")
                fp2 = algorithm_fingerprint(mod.tiny_program)
                assert fp1 != fp2

                r2 = run_lowered(CM5(seed=1), mod.tiny_program, **kw)
                assert store.recorded == 2  # miss → fresh recording
                assert r2.time_us > r1.time_us  # the edit took effect
        finally:
            sys.modules.pop("tiny_alg_fp_test", None)
            clear_algorithm_fingerprints()

    def test_editing_shared_kernel_module_misses_the_cache(self, tmp_path):
        """A program that binds a kernel from a sibling module must not
        reuse recordings made before that kernel (only) was edited."""
        kernel = tmp_path / "tiny_kernel_fp.py"
        kernel.write_text(_KERNEL_TEMPLATE % 100)
        program = tmp_path / "tiny_prog_fp.py"
        program.write_text(_KERNEL_USER)
        machine = CM5(seed=1)
        kw = dict(algorithm="tiny", key_params={"n": 1}, P=8, label="tiny")
        try:
            with ir_store_scope(IRStore(tmp_path / "ir")) as store:
                _load(kernel, "tiny_kernel_fp")
                mod = _load(program, "tiny_prog_fp")
                r1 = run_lowered(machine, mod.tiny_program, **kw)
                assert store.recorded == 1
                fp1 = algorithm_fingerprint(mod.tiny_program)

                kernel.write_text(_KERNEL_TEMPLATE % 999)
                clear_algorithm_fingerprints()
                _load(kernel, "tiny_kernel_fp")
                mod = _load(program, "tiny_prog_fp")
                assert algorithm_fingerprint(mod.tiny_program) != fp1

                r2 = run_lowered(CM5(seed=1), mod.tiny_program, **kw)
                assert store.recorded == 2  # miss → fresh recording
                assert r2.time_us > r1.time_us
        finally:
            sys.modules.pop("tiny_kernel_fp", None)
            sys.modules.pop("tiny_prog_fp", None)
            clear_algorithm_fingerprints()

    def test_unedited_source_hits(self, tmp_path):
        path = tmp_path / "tiny_alg.py"
        path.write_text(_PROG_TEMPLATE % 100)
        mod = _load(path, "tiny_alg_fp_hit_test")
        kw = dict(algorithm="tiny", key_params={"n": 1}, P=8, label="tiny")
        try:
            with ir_store_scope(IRStore(tmp_path / "ir")) as store:
                run_lowered(CM5(seed=1), mod.tiny_program, **kw)
                run_lowered(CM5(seed=1), mod.tiny_program, **kw)
                assert store.recorded == 1
                assert store.memory_hits == 1
        finally:
            sys.modules.pop("tiny_alg_fp_hit_test", None)
            clear_algorithm_fingerprints()
