"""Vector programs vs their generator reference: exact equivalence.

The contract of every vector program is *bit identity* with its
per-rank generator twin: driven through
:func:`repro.simulator.run_spmd_vector`, or recorded and replayed by the
algorithm's own ``run()``, it must produce exactly the same clocks,
trace (phases, work items, labels, measured times) and per-rank results
as :func:`repro.simulator.run_spmd` on the generator program — same
machine seed, same inputs, same floating point.  These tests enforce
that across machines, processor counts and seeds, plus property-style
sweeps over randomly drawn configurations.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import apsp, bitonic, lu, matmul, radix, samplesort
from repro.machines import CM5, GCel, MasParMP1, ModernCluster, T800Grid
from repro.simulator import run_spmd, run_spmd_vector
from repro.simulator.ir import IRStore, ir_store_scope

MACHINES = {
    "maspar": MasParMP1,
    "gcel": GCel,
    "cm5": CM5,
    "t800": T800Grid,
    "modern": ModernCluster,
}


def fresh(name: str, seed: int):
    return MACHINES[name](seed=seed)


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


#: run() -> (generator program, vector program, program arguments
#: after the inputs, from the run's result and keywords).
TWINS = {
    apsp.run: (apsp.apsp_program, apsp.apsp_vector_program,
               lambda res, **kw: ()),
    lu.run: (lu.lu_program, lu.lu_vector_program, lambda res, **kw: ()),
    bitonic.run: (bitonic.bitonic_program, bitonic.bitonic_vector_program,
                  lambda res, variant="bsp", sync_every=256, key_bits=32,
                  group_words=1, **kw: (variant, sync_every, key_bits,
                                        group_words)),
    matmul.run: (matmul.matmul_program, matmul.matmul_vector_program,
                 lambda res, variant="bsp-staggered", **kw:
                 (res.setup, variant)),
    samplesort.run: (samplesort.sample_sort_program,
                     samplesort.sample_sort_vector_program,
                     lambda res, variant="bpram", oversample=32,
                     key_bits=32, seed=0, **kw:
                     (variant, oversample, key_bits, seed)),
    radix.run: (radix.radix_sort_program, radix.radix_sort_vector_program,
                lambda res, variant="bpram", key_bits=32, **kw:
                (variant, key_bits)),
}


def both(run_fn, machine_name, machine_seed, *args, **kwargs):
    """The generator reference and the vector engine, each run on the
    inputs and program arguments of one ``run_fn`` call — whose own
    (IR) result must match them too."""
    with ir_store_scope(IRStore(disk=False)):
        res = run_fn(fresh(machine_name, machine_seed), *args, **kwargs)
    gen, vec, program_args = TWINS[run_fn]
    pargs = program_args(res, **kwargs)
    P = res.clocks.size
    g = run_spmd(fresh(machine_name, machine_seed), gen, res.inputs, *pargs,
                 P=P)
    v = run_spmd_vector(fresh(machine_name, machine_seed), vec, res.inputs,
                        *pargs, P=P)
    assert_runs_identical(g, res)
    g.inputs = v.inputs = res.inputs
    return g, v


class TestApspEquivalence:
    @pytest.mark.parametrize("machine",
                             ["maspar", "gcel", "cm5", "t800", "modern"])
    @pytest.mark.parametrize("N,P", [(32, 16), (16, 64)])
    def test_machines_and_regimes(self, machine, N, P):
        # (32, 16): M >= sqrt(P) scatter+allgather regime;
        # (16, 64): M < sqrt(P) scatter+doubling regime
        g, v = both(apsp.run, machine, 3, N, P=P, seed=1)
        assert_runs_identical(g, v)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_seeds(self, seed):
        g, v = both(apsp.run, "maspar", seed, 32, P=64, seed=seed)
        assert_runs_identical(g, v)

    def test_result_is_correct(self):
        _, v = both(apsp.run, "cm5", 0, 32, P=16, seed=5)
        D = v.inputs
        got = apsp.assemble(16, 32, v.returns)
        assert np.array_equal(got, apsp.reference_apsp(D))

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(machine=st.sampled_from(["maspar", "gcel", "cm5"]),
           side=st.sampled_from([2, 4]),
           mult=st.sampled_from([1, 2, 4, 8]),  # M < side needs a power of 2
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_property_sweep(self, machine, side, mult, seed):
        N, P = side * mult, side * side
        g, v = both(apsp.run, machine, seed, N, P=P, seed=seed)
        assert_runs_identical(g, v)


class TestBitonicEquivalence:
    @pytest.mark.parametrize("machine",
                             ["maspar", "gcel", "cm5", "t800", "modern"])
    @pytest.mark.parametrize("variant", bitonic.VARIANTS)
    def test_machines_and_variants(self, machine, variant):
        g, v = both(bitonic.run, machine, 11, 24, variant=variant, P=64,
                    seed=2)
        assert_runs_identical(g, v)

    def test_sync_every_chunking(self):
        # M > sync_every forces the multi-superstep chunked exchanges
        g, v = both(bitonic.run, "gcel", 5, 300, variant="bsp-sync", P=16,
                    seed=3, sync_every=128)
        assert_runs_identical(g, v)

    def test_group_words(self):
        g, v = both(bitonic.run, "maspar", 1, 32, variant="bsp", P=256,
                    seed=0, group_words=4)
        assert_runs_identical(g, v)

    def test_result_is_sorted(self):
        _, v = both(bitonic.run, "maspar", 0, 16, variant="bsp", P=64,
                    seed=9)
        assert bitonic.is_globally_sorted(v.returns)

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(machine=st.sampled_from(["maspar", "gcel", "cm5"]),
           variant=st.sampled_from(bitonic.VARIANTS),
           log_p=st.integers(min_value=1, max_value=5),
           M=st.integers(min_value=1, max_value=48),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_property_sweep(self, machine, variant, log_p, M, seed):
        g, v = both(bitonic.run, machine, seed, M, variant=variant,
                    P=1 << log_p, seed=seed)
        assert_runs_identical(g, v)


class TestMatmulEquivalence:
    @pytest.mark.parametrize("machine", ["gcel", "cm5", "t800"])
    @pytest.mark.parametrize("variant", matmul.VARIANTS)
    def test_machines_and_variants(self, machine, variant):
        g, v = both(matmul.run, machine, 13, 48, variant=variant, P=64,
                    seed=4)
        assert_runs_identical(g, v)

    def test_simd_self_sends(self):
        # SIMD PEs execute the router op for their own block too; the
        # vector port must keep those self-messages in the phase
        g, v = both(matmul.run, "maspar", 0, 100, variant="bsp", P=1000,
                    seed=0)
        assert_runs_identical(g, v)

    def test_result_is_correct(self):
        res = matmul.run(fresh("cm5", 0), 64, variant="bsp-staggered",
                         seed=6)
        A, B = res.inputs
        got = matmul.assemble(res.setup, res.returns)
        ref = run_spmd(fresh("cm5", 0), matmul.matmul_program, res.inputs,
                       res.setup, "bsp-staggered", P=64)
        assert np.array_equal(got, matmul.assemble(res.setup, ref.returns))
        assert np.allclose(got, A @ B)


class TestSampleSortEquivalence:
    @pytest.mark.parametrize("machine",
                             ["maspar", "gcel", "cm5", "t800", "modern"])
    @pytest.mark.parametrize("variant", samplesort.VARIANTS)
    def test_machines_and_variants(self, machine, variant):
        g, v = both(samplesort.run, machine, 17, 64, variant=variant,
                    oversample=8, P=16, seed=5)
        assert_runs_identical(g, v)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_seeds(self, seed):
        g, v = both(samplesort.run, "gcel", seed, 48, variant="bpram",
                    oversample=16, P=16, seed=seed)
        assert_runs_identical(g, v)

    def test_uneven_buckets(self):
        # tiny oversample -> badly skewed buckets; the global-sort split
        # must still reproduce every rank's radix-sorted bucket exactly
        g, v = both(samplesort.run, "cm5", 2, 96, variant="bsp",
                    oversample=1, P=16, seed=8)
        assert_runs_identical(g, v)

    def test_result_is_sorted_permutation(self):
        _, v = both(samplesort.run, "maspar", 0, 64, variant="bpram",
                    oversample=8, P=16, seed=9)
        out = np.concatenate([np.asarray(b).ravel() for b in v.returns])
        assert np.array_equal(out, np.sort(out))  # globally sorted
        assert np.array_equal(np.sort(out),
                              np.sort(np.asarray(v.inputs).ravel()))

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(machine=st.sampled_from(["maspar", "gcel", "cm5"]),
           variant=st.sampled_from(samplesort.VARIANTS),
           P=st.sampled_from([4, 16]),
           M=st.integers(min_value=8, max_value=96),
           oversample=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_property_sweep(self, machine, variant, P, M, oversample, seed):
        g, v = both(samplesort.run, machine, seed, M, variant=variant,
                    oversample=oversample, P=P, seed=seed)
        assert_runs_identical(g, v)


class TestRadixEquivalence:
    @pytest.mark.parametrize("machine",
                             ["maspar", "gcel", "cm5", "t800", "modern"])
    @pytest.mark.parametrize("variant", radix.VARIANTS)
    def test_machines_and_variants(self, machine, variant):
        g, v = both(radix.run, machine, 11, 64, variant=variant, P=16,
                    seed=2)
        assert_runs_identical(g, v)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_seeds(self, seed):
        g, v = both(radix.run, "gcel", seed, 96, variant="bpram", P=16,
                    seed=seed)
        assert_runs_identical(g, v)

    def test_modern_full_width(self):
        # the fat-tree profile at its native P: the batched pricer's
        # padded (phase.P < machine.P) incast/permutation analysis must
        # agree with the scalar loop bit-for-bit
        g, v = both(radix.run, "modern", 3, 64, variant="bpram", P=256,
                    seed=1)
        assert_runs_identical(g, v)

    def test_narrow_keys(self):
        # key_bits barely above log2(P): the finishing sort covers only
        # two low bits
        g, v = both(radix.run, "cm5", 5, 48, variant="bsp", P=16, seed=4,
                    key_bits=6)
        assert_runs_identical(g, v)

    def test_result_is_sorted_permutation(self):
        _, v = both(radix.run, "maspar", 0, 64, variant="bpram", P=16,
                    seed=9)
        out = np.concatenate([np.asarray(b).ravel() for b in v.returns])
        assert np.array_equal(out, np.sort(out))  # globally sorted
        assert np.array_equal(np.sort(out),
                              np.sort(np.asarray(v.inputs).ravel()))

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(machine=st.sampled_from(["maspar", "gcel", "modern"]),
           variant=st.sampled_from(radix.VARIANTS),
           P=st.sampled_from([4, 16, 64]),
           M=st.integers(min_value=8, max_value=96),
           key_bits=st.sampled_from([8, 16, 32]),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_property_sweep(self, machine, variant, P, M, key_bits, seed):
        g, v = both(radix.run, machine, seed, M, variant=variant, P=P,
                    seed=seed, key_bits=key_bits)
        assert_runs_identical(g, v)


class TestLuEquivalence:
    @pytest.mark.parametrize("machine",
                             ["maspar", "gcel", "cm5", "t800", "modern"])
    @pytest.mark.parametrize("N,P", [(32, 16), (16, 64)])
    def test_machines_and_regimes(self, machine, N, P):
        # (32, 16): blocks bigger than the grid; (16, 64): 2x2 blocks on
        # an 8x8 grid — the broadcasts dominate
        g, v = both(lu.run, machine, 19, N, P=P, seed=1)
        assert_runs_identical(g, v)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_seeds(self, seed):
        g, v = both(lu.run, "gcel", seed, 24, P=16, seed=seed)
        assert_runs_identical(g, v)

    def test_single_processor_grid(self):
        g, v = both(lu.run, "cm5", 0, 8, P=1, seed=2)
        assert_runs_identical(g, v)

    def test_result_is_correct(self):
        _, v = both(lu.run, "cm5", 0, 32, P=16, seed=5)
        A = v.inputs
        got = lu.assemble(16, 32, v.returns)
        L, U = lu.reference_lu(A)
        want = np.tril(L, -1) + U
        assert np.array_equal(got, want)

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(machine=st.sampled_from(["maspar", "gcel", "cm5"]),
           side=st.sampled_from([1, 2, 4]),
           mult=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_property_sweep(self, machine, side, mult, seed):
        N, P = side * mult, side * side
        g, v = both(lu.run, machine, seed, N, P=P, seed=seed)
        assert_runs_identical(g, v)
