"""Tests for the local computation kernels of the vector programs.

The radix sort and the compare-split merge are bitonic sort's row
kernels (sample sort and radix sort share them); the local product and
the key classification run inside matmul's and sample sort's programs,
checked here through ``run_spmd_vector``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import matmul, samplesort
from repro.algorithms.bitonic import _merge_keep_rows, _radix_sort_rows
from repro.core.errors import ExperimentError, SimulationError
from repro.core.work import Compare, MatmulBlock, Merge, RadixSort
from repro.machines import CM5
from repro.simulator import run_spmd_vector
from repro.simulator.vector import VectorContext


@pytest.fixture
def ctx():
    return VectorContext(1, 4)


def charged(ctx):
    """The context's charges as work items, in charge order."""
    return [b.kind(**{f: v[i] if np.ndim(v) else v
                      for f, v in b.params.items()})
            for b in ctx._batches for i in range(len(b.ranks))]


def row(values, dtype=np.uint64):
    return np.array([values], dtype=dtype)


class TestRadixSort:
    def test_sorts(self, ctx, rng):
        keys = rng.integers(0, 2**32, size=(1, 1000), dtype=np.uint64)
        out = _radix_sort_rows(ctx, keys)
        assert np.array_equal(out, np.sort(keys))

    def test_charges_radix_work(self, ctx):
        _radix_sort_rows(ctx, row(np.arange(100)))
        assert charged(ctx) == [RadixSort(100, bits=32, radix_bits=8)]

    def test_empty(self, ctx):
        out = _radix_sort_rows(ctx, np.empty((1, 0), dtype=np.uint64))
        assert out.size == 0

    def test_duplicates(self, ctx):
        keys = row([5, 1, 5, 1, 5])
        assert _radix_sort_rows(ctx, keys).tolist() == [[1, 1, 5, 5, 5]]

    def test_small_key_width(self, ctx, rng):
        keys = rng.integers(0, 2**16, size=(1, 256), dtype=np.uint64)
        out = _radix_sort_rows(ctx, keys, bits=16)
        assert np.array_equal(out, np.sort(keys))

    def test_negative_rejected(self, ctx):
        with pytest.raises(SimulationError):
            _radix_sort_rows(ctx, row([-1, 2], dtype=np.int64))

    @given(st.lists(st.integers(0, 2**32 - 1), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_property_matches_np_sort(self, lst):
        keys = row(lst)
        out = _radix_sort_rows(VectorContext(1, 4), keys)
        assert np.array_equal(out, np.sort(keys))


class TestMergeKeep:
    def test_keep_min(self, ctx):
        a, b = row([1, 4, 7]), row([2, 3, 9])
        out = _merge_keep_rows(ctx, a, b, np.array([True]))
        assert out.tolist() == [[1, 2, 3]]

    def test_keep_max(self, ctx):
        a, b = row([1, 4, 7]), row([2, 3, 9])
        out = _merge_keep_rows(ctx, a, b, np.array([False]))
        assert out.tolist() == [[4, 7, 9]]

    def test_charges_output_length(self, ctx):
        _merge_keep_rows(ctx, row(np.arange(8)), row(np.arange(8)),
                         np.array([True]))
        assert charged(ctx) == [Merge(8)]

    def test_length_mismatch(self, ctx):
        # a compare-split exchanges equal runs: rows that do not line up
        # cannot be merged
        with pytest.raises(ValueError):
            _merge_keep_rows(ctx, row(np.arange(3)), row(np.arange(4)),
                             np.array([True]))

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=50), st.data())
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, lst, data):
        """min-half and max-half partition the multiset of both runs."""
        other = data.draw(st.lists(st.integers(0, 100), min_size=len(lst),
                                   max_size=len(lst)))
        ctx = VectorContext(2, 4)
        a = np.sort(np.array(lst, dtype=np.uint64))
        b = np.sort(np.array(other, dtype=np.uint64))
        # two ranks holding the pair's runs, one keeping each half
        lo, hi = _merge_keep_rows(ctx, np.stack([a, b]), np.stack([b, a]),
                                  np.array([True, False]))
        assert np.array_equal(np.sort(np.concatenate([lo, hi])),
                              np.sort(np.concatenate([a, b])))
        assert lo.max(initial=0) <= hi.min(initial=101)


def _matmul(A, B, P=8, variant="bpram"):
    setup = matmul.MatmulSetup.create(A.shape[0], P)
    res = run_spmd_vector(CM5(seed=0), matmul.matmul_vector_program, (A, B),
                          setup, variant, P=P)
    return setup, res


class TestLocalMatmul:
    def test_product(self, rng):
        A = rng.standard_normal((8, 8))
        B = rng.standard_normal((8, 8))
        setup, res = _matmul(A, B)
        assert np.allclose(matmul.assemble(setup, res.returns), A @ B)

    def test_charges_block_shape(self):
        # q = 2 on 8 processors: every rank multiplies one 4 x 4 pair
        setup, res = _matmul(np.zeros((8, 8)), np.zeros((8, 8)))
        blocks = [(rank, item) for s in res.trace
                  for rank, items in s.work.by_rank().items()
                  for item in items if isinstance(item, MatmulBlock)]
        assert blocks == [(rank, MatmulBlock(4, 4, 4)) for rank in range(8)]

    def test_shape_mismatch(self):
        # the matrix must split into q^2 row blocks of whole rows
        with pytest.raises(ExperimentError):
            _matmul(np.zeros((6, 6)), np.zeros((6, 6)))


def _classify(keys, oversample):
    """Sample-sort the ``(P, M)`` stack ``keys`` (fine-grain variant)."""
    return run_spmd_vector(CM5(seed=0), samplesort.sample_sort_vector_program,
                           keys, "bsp", oversample, 32, 0, P=keys.shape[0])


#: 16 distinct keys on 4 ranks, shuffled; sampling every key makes the
#: splitters the sorted keys 40, 80 and 120.
KEYS = np.random.default_rng(3).permutation(
    np.arange(16, dtype=np.uint64) * 10).reshape(4, 4)


class TestClassifyKeys:
    def test_buckets(self):
        res = _classify(KEYS, oversample=4)
        assert [r.tolist() for r in res.returns] == [
            [0, 10, 20, 30], [40, 50, 60, 70], [80, 90, 100, 110],
            [120, 130, 140, 150]]

    def test_key_equal_to_splitter_goes_right(self):
        res = _classify(KEYS, oversample=4)
        # each splitter heads the bucket to its right
        assert [int(r[0]) for r in res.returns[1:]] == [40, 80, 120]

    def test_charges_linear_work(self):
        # 8 keys against 3 splitters: Theta(M + P) comparisons, M + P
        keys = np.arange(32, dtype=np.uint64).reshape(4, 8)
        res = _classify(keys, oversample=2)
        compares = [(rank, item) for s in res.trace
                    for rank, items in s.work.by_rank().items()
                    for item in items if isinstance(item, Compare)]
        assert compares == [(rank, Compare(12)) for rank in range(4)]
