"""Tests for sample sort (paper §4.3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import bitonic, samplesort
from repro.core.errors import ExperimentError
from repro.machines import CM5, GCel
from repro.simulator import run_spmd_vector
from tests.simulator import oracle


def check(res) -> bool:
    flat = np.concatenate([np.asarray(r) for r in res.returns])
    return (bool(np.all(flat[:-1] <= flat[1:]))
            and np.array_equal(np.sort(flat), np.sort(res.inputs.ravel())))


@pytest.mark.parametrize("variant", samplesort.VARIANTS)
class TestCorrectness:
    def test_sorts_on_cm5(self, cm5, variant):
        res = samplesort.run(cm5, 64, variant=variant, oversample=16, seed=2)
        assert check(res)

    def test_sorts_on_gcel(self, gcel, variant):
        res = samplesort.run(gcel, 32, variant=variant, oversample=8, seed=3)
        assert check(res)

    def test_skewed_input_still_sorts(self, cm5, variant):
        # nearly-constant keys stress splitter selection and bucket skew
        P, M = 64, 32
        keys = np.full((P, M), 7, dtype=np.uint64)
        keys[0, :5] = [1, 2, 3, 4, 5]

        res = run_spmd_vector(cm5, samplesort.sample_sort_vector_program,
                              keys, variant, 8, sample_seed=1)
        flat = np.concatenate([np.asarray(r) for r in res.returns])
        assert np.array_equal(np.sort(flat), np.sort(keys.ravel()))
        assert np.all(flat[:-1] <= flat[1:])
        c = oracle.case("samplesort", "cm5", 7, M, P=P, variant=variant,
                        oversample=8, keys="skewed", sample_seed=1)
        assert np.array_equal(oracle.case_inputs(c), keys)
        oracle.assert_matches(c, res)


class TestValidation:
    def test_bad_variant(self, cm5):
        with pytest.raises(ExperimentError):
            samplesort.run(cm5, 32, variant="bogus")

    def test_oversample_bounds(self, cm5):
        with pytest.raises(ExperimentError):
            samplesort.run(cm5, 32, variant="bpram", oversample=0)
        with pytest.raises(ExperimentError):
            samplesort.run(cm5, 32, variant="bpram", oversample=64)


class TestOversampling:
    def test_larger_s_balances_buckets(self, cm5):
        sizes = {}
        for S in (4, 32):
            res = samplesort.run(cm5, 256, variant="bpram", oversample=S,
                                 seed=4)
            bucket_sizes = np.array([np.asarray(r).size for r in res.returns])
            sizes[S] = bucket_sizes.max() / bucket_sizes.mean()
        assert sizes[32] < sizes[4]


class TestPaperPhenomena:
    def test_plain_does_not_beat_bitonic_on_gcel(self):
        # Fig. 18: "it does not outperform bitonic sort."
        g = GCel(seed=5)
        ratios = []
        for M in (128, 512, 2048):
            t_ss = samplesort.run(g, M, variant="bpram", oversample=64,
                                  seed=0).time_us
            t_bt = bitonic.run(g, M, variant="bpram", seed=0).time_us
            ratios.append(t_ss / t_bt)
        assert min(ratios) > 0.9
        assert max(ratios) > 1.3  # clearly worse at the small end

    def test_staggered_packing_roughly_2x(self):
        # Fig. 18: the staggered packed variant "yields an improvement by
        # a factor of approximately 2".
        g = GCel(seed=5)
        gains = []
        for M in (1024, 2048):
            t_plain = samplesort.run(g, M, variant="bpram", oversample=64,
                                     seed=0).time_us
            t_stag = samplesort.run(g, M, variant="bpram-staggered",
                                    oversample=64, seed=0).time_us
            gains.append(t_plain / t_stag)
        assert 1.4 < np.mean(gains) < 3.2

    def test_send_phase_dominated_by_padded_route(self, gcel_params):
        # §6: the send substep alone needs ~16 sigma w N/P us per key.
        g = GCel(seed=5)
        M = 2048
        res = samplesort.run(g, M, variant="bpram", oversample=64, seed=0)
        route = sum(s.measured_us for s in res.trace
                    if s.label.startswith("route-"))
        floor = 16 * gcel_params.sigma * gcel_params.w * M
        assert route > 0.9 * floor


class TestPropertyBased:
    @given(st.integers(0, 4), st.sampled_from([16, 64]))
    @settings(max_examples=8, deadline=None)
    def test_sorts_any_seed(self, seed, P):
        c = CM5(seed=1)
        res = samplesort.run(c, 32, variant="bpram", oversample=8, P=P,
                             seed=seed)
        assert check(res)

    @given(st.sampled_from([1, 2, 8]))
    @settings(max_examples=6, deadline=None)
    def test_tiny_oversample_still_correct(self, S):
        c = CM5(seed=1)
        res = samplesort.run(c, 32, variant="bpram-staggered", oversample=S,
                             P=16, seed=0)
        assert check(res)
