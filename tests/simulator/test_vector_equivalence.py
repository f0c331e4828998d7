"""Vector programs against the oracle snapshot: exact equivalence.

Every algorithm's vector program, driven through
:func:`repro.simulator.run_spmd_vector` or recorded and replayed by the
algorithm's own ``run()`` (recording and memory hit), must produce
exactly the clocks, trace (phases, work items, labels, measured times)
and per-rank results that the oracle snapshot froze from its former
per-rank generator program — same machine seed, same inputs, same
floating point (:mod:`tests.simulator.oracle`).  These tests enforce
that across machines, processor counts and seeds.  The property-style
sweeps over randomly drawn configurations check every run's data
against numpy and ``run()`` against ``run_spmd_vector``; their domains
are pinned to the snapshot as fixed grids in ``test_oracle.py``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import bitonic, matmul, radix, samplesort
from repro.simulator.ir import IRStore, ir_store_scope
from tests.simulator import oracle


def runs(algorithm, machine_name, machine_seed, size, **kwargs):
    """The case and its three runs: the algorithm's ``run()`` recording
    in a fresh store, a memory hit of it, and its vector program on the
    recording's inputs."""
    c = oracle.case(algorithm, machine_name, machine_seed, size, **kwargs)
    with ir_store_scope(IRStore(disk=False)):
        res = oracle.run_ir(c)
        hit = oracle.run_ir(c)
    v = oracle.run_vector(c, res)
    v.inputs = res.inputs
    return c, res, hit, v


def both(algorithm, machine_name, machine_seed, size, **kwargs):
    """The ``run()`` and vector results of a snapshot case, all three
    runs checked against the case's oracle entry."""
    c, res, hit, v = runs(algorithm, machine_name, machine_seed, size,
                          **kwargs)
    oracle.assert_engines_agree(
        c, {"record": res, "memory hit": hit, "vector": v})
    return res, v


def swept(algorithm, machine_name, machine_seed, size, **kwargs):
    """The ``run()`` and vector results of a drawn configuration: the
    runs identical, their data checked against numpy."""
    c, res, hit, v = runs(algorithm, machine_name, machine_seed, size,
                          **kwargs)
    oracle.assert_runs_identical(res, hit)
    oracle.assert_runs_identical(res, v)
    oracle.check_data(c, v, res)
    return res, v


class TestApspEquivalence:
    @pytest.mark.parametrize("machine",
                             ["maspar", "gcel", "cm5", "t800", "modern"])
    @pytest.mark.parametrize("N,P", [(32, 16), (16, 64)])
    def test_machines_and_regimes(self, machine, N, P):
        # (32, 16): M >= sqrt(P) scatter+allgather regime;
        # (16, 64): M < sqrt(P) scatter+doubling regime
        both("apsp", machine, 3, N, P=P, seed=1)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_seeds(self, seed):
        both("apsp", "maspar", seed, 32, P=64, seed=seed)

    def test_result_is_correct(self):
        _, v = both("apsp", "cm5", 0, 32, P=16, seed=5)
        oracle.check_data(oracle.case("apsp", "cm5", 0, 32, P=16, seed=5),
                          v)

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(machine=st.sampled_from(["maspar", "gcel", "cm5"]),
           side=st.sampled_from([2, 4]),
           mult=st.sampled_from([1, 2, 4, 8]),  # M < side needs a power of 2
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_property_sweep(self, machine, side, mult, seed):
        N, P = side * mult, side * side
        swept("apsp", machine, seed, N, P=P, seed=seed)


class TestBitonicEquivalence:
    @pytest.mark.parametrize("machine",
                             ["maspar", "gcel", "cm5", "t800", "modern"])
    @pytest.mark.parametrize("variant", bitonic.VARIANTS)
    def test_machines_and_variants(self, machine, variant):
        both("bitonic", machine, 11, 24, variant=variant, P=64,
             seed=2)

    def test_sync_every_chunking(self):
        # M > sync_every forces the multi-superstep chunked exchanges
        both("bitonic", "gcel", 5, 300, variant="bsp-sync", P=16,
             seed=3, sync_every=128)

    def test_group_words(self):
        both("bitonic", "maspar", 1, 32, variant="bsp", P=256,
             seed=0, group_words=4)

    def test_result_is_sorted(self):
        _, v = both("bitonic", "maspar", 0, 16, variant="bsp", P=64,
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
        swept("bitonic", machine, seed, M, variant=variant,
              P=1 << log_p, seed=seed)


class TestMatmulEquivalence:
    @pytest.mark.parametrize("machine", ["gcel", "cm5", "t800"])
    @pytest.mark.parametrize("variant", matmul.VARIANTS)
    def test_machines_and_variants(self, machine, variant):
        both("matmul", machine, 13, 48, variant=variant, P=64,
             seed=4)

    def test_simd_self_sends(self):
        # SIMD PEs execute the router op for their own block too; the
        # vector port must keep those self-messages in the phase
        both("matmul", "maspar", 0, 100, variant="bsp", P=1000,
             seed=0)

    def test_result_is_correct(self):
        # the blocks come from BLAS, so they are not pinned: run() and
        # the vector engine agree bit for bit on this host, and the
        # product matches numpy's to rounding
        res, v = both("matmul", "cm5", 0, 64, variant="bsp-staggered",
                      seed=6)
        A, B = res.inputs
        got = matmul.assemble(res.setup, res.returns)
        assert np.array_equal(got, matmul.assemble(res.setup, v.returns))
        assert np.allclose(got, A @ B)


class TestSampleSortEquivalence:
    @pytest.mark.parametrize("machine",
                             ["maspar", "gcel", "cm5", "t800", "modern"])
    @pytest.mark.parametrize("variant", samplesort.VARIANTS)
    def test_machines_and_variants(self, machine, variant):
        both("samplesort", machine, 17, 64, variant=variant,
             oversample=8, P=16, seed=5)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_seeds(self, seed):
        both("samplesort", "gcel", seed, 48, variant="bpram",
             oversample=16, P=16, seed=seed)

    def test_uneven_buckets(self):
        # tiny oversample -> badly skewed buckets; the global-sort split
        # must still reproduce every rank's radix-sorted bucket exactly
        both("samplesort", "cm5", 2, 96, variant="bsp",
             oversample=1, P=16, seed=8)

    def test_result_is_sorted_permutation(self):
        _, v = both("samplesort", "maspar", 0, 64, variant="bpram",
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
        swept("samplesort", machine, seed, M, variant=variant,
              oversample=oversample, P=P, seed=seed)


class TestRadixEquivalence:
    @pytest.mark.parametrize("machine",
                             ["maspar", "gcel", "cm5", "t800", "modern"])
    @pytest.mark.parametrize("variant", radix.VARIANTS)
    def test_machines_and_variants(self, machine, variant):
        both("radix", machine, 11, 64, variant=variant, P=16,
             seed=2)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_seeds(self, seed):
        both("radix", "gcel", seed, 96, variant="bpram", P=16,
             seed=seed)

    def test_modern_full_width(self):
        # the fat-tree profile at its native P: the batched pricer's
        # padded (phase.P < machine.P) incast/permutation analysis must
        # agree with the scalar loop bit-for-bit
        both("radix", "modern", 3, 64, variant="bpram", P=256,
             seed=1)

    def test_narrow_keys(self):
        # key_bits barely above log2(P): the finishing sort covers only
        # two low bits
        both("radix", "cm5", 5, 48, variant="bsp", P=16, seed=4,
             key_bits=6)

    def test_result_is_sorted_permutation(self):
        _, v = both("radix", "maspar", 0, 64, variant="bpram", P=16,
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
        swept("radix", machine, seed, M, variant=variant, P=P,
              seed=seed, key_bits=key_bits)


class TestLuEquivalence:
    @pytest.mark.parametrize("machine",
                             ["maspar", "gcel", "cm5", "t800", "modern"])
    @pytest.mark.parametrize("N,P", [(32, 16), (16, 64)])
    def test_machines_and_regimes(self, machine, N, P):
        # (32, 16): blocks bigger than the grid; (16, 64): 2x2 blocks on
        # an 8x8 grid — the broadcasts dominate
        both("lu", machine, 19, N, P=P, seed=1)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_seeds(self, seed):
        both("lu", "gcel", seed, 24, P=16, seed=seed)

    def test_single_processor_grid(self):
        both("lu", "cm5", 0, 8, P=1, seed=2)

    def test_result_is_correct(self):
        _, v = both("lu", "cm5", 0, 32, P=16, seed=5)
        oracle.check_data(oracle.case("lu", "cm5", 0, 32, P=16, seed=5), v)

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(machine=st.sampled_from(["maspar", "gcel", "cm5"]),
           side=st.sampled_from([1, 2, 4]),
           mult=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_property_sweep(self, machine, side, mult, seed):
        N, P = side * mult, side * side
        swept("lu", machine, seed, N, P=P, seed=seed)
