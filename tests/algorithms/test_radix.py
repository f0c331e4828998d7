"""Tests for the parallel integer radix sort (scenario extension)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import radix, samplesort
from repro.core.errors import ExperimentError
from repro.core.work import RadixSort
from repro.machines import CM5, GCel, ModernCluster
from repro.simulator import run_spmd_vector
from tests.simulator import oracle

pytestmark = pytest.mark.fast


def check(res) -> bool:
    flat = np.concatenate([np.asarray(r) for r in res.returns])
    return (bool(np.all(flat[:-1] <= flat[1:]))
            and np.array_equal(np.sort(flat), np.sort(res.inputs.ravel())))


@pytest.mark.parametrize("variant", radix.VARIANTS)
class TestCorrectness:
    def test_sorts_on_cm5(self, cm5, variant):
        assert check(radix.run(cm5, 64, variant=variant, seed=2))

    def test_sorts_on_gcel(self, gcel, variant):
        assert check(radix.run(gcel, 32, variant=variant, seed=3))

    def test_sorts_on_modern(self, variant):
        m = ModernCluster(P=16, seed=7)
        assert check(radix.run(m, 48, variant=variant, P=16, seed=4))

    def test_skewed_input_still_sorts(self, cm5, variant):
        # nearly-constant keys put (almost) every key in one bucket;
        # the padded grid route and the scan must survive the skew
        P, M = 16, 32
        keys = np.full((P, M), (7 << 28) + 1, dtype=np.uint64)
        keys[0, :5] = [1, 2, 3, 4, 5]

        res = run_spmd_vector(cm5, radix.radix_sort_vector_program, keys,
                              variant, P=P)
        flat = np.concatenate([np.asarray(r) for r in res.returns])
        assert np.array_equal(np.sort(flat), np.sort(keys.ravel()))
        assert np.all(flat[:-1] <= flat[1:])
        c = oracle.case("radix", "cm5", 7, M, P=P, variant=variant,
                        keys="skewed-top")
        assert np.array_equal(oracle.case_inputs(c), keys)
        oracle.assert_matches(c, res)

    def test_narrow_keys(self, cm5, variant):
        assert check(radix.run(cm5, 40, variant=variant, P=16, seed=5,
                               key_bits=8))


class TestValidation:
    def test_bad_variant(self, cm5):
        with pytest.raises(ExperimentError):
            radix.run(cm5, 32, variant="bogus")

    def test_non_power_of_two_p(self, cm5):
        with pytest.raises(ExperimentError, match="power-of-two"):
            radix.run(cm5, 32, variant="bsp", P=12)

    def test_digit_must_fit_the_key(self, cm5):
        # log2(64) = 6 >= key_bits
        with pytest.raises(ExperimentError, match="key_bits"):
            radix.run(cm5, 32, variant="bsp", P=64, key_bits=6)


class TestRadixTrick:
    def test_finishing_sort_covers_only_low_bits(self, cm5):
        """The routed keys share their top digit, so the last local
        sort is over ``key_bits - log2 P`` bits — visible in the trace
        as a RadixSort work item narrower than the 32-bit opener."""
        res = radix.run(cm5, 64, variant="bpram", P=16, seed=1)
        widths = [w.bits for s in res.trace
                  for items in s.work.by_rank().values()
                  for w in items if isinstance(w, RadixSort)]
        assert 32 in widths          # the opening full-key sort
        assert 32 - 4 in widths      # the finishing sort, P=16 -> 4 bits
        assert max(widths) == 32

    def test_beats_samplesort_on_gcel(self):
        """No sampling phase and a shorter finishing sort: radix wins
        against sample sort through the identical grid route."""
        g1, g2 = GCel(seed=5), GCel(seed=5)
        M = 1024
        t_radix = radix.run(g1, M, variant="bpram", seed=0).time_us
        t_sample = samplesort.run(g2, M, variant="bpram", oversample=32,
                                  seed=0).time_us
        assert t_radix < t_sample


class TestPropertyBased:
    @given(st.integers(0, 4), st.sampled_from([16, 64]))
    @settings(max_examples=8, deadline=None)
    def test_sorts_any_seed(self, seed, P):
        c = CM5(seed=1)
        assert check(radix.run(c, 32, variant="bpram", P=P, seed=seed))

    @given(st.sampled_from([8, 12, 24]), st.sampled_from(radix.VARIANTS))
    @settings(max_examples=6, deadline=None)
    def test_sorts_any_key_width(self, key_bits, variant):
        c = CM5(seed=1)
        assert check(radix.run(c, 32, variant=variant, P=16, seed=0,
                               key_bits=key_bits))
