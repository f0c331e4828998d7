"""Tests for work descriptors and their nominal pricing."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.errors import ModelError
from repro.core.params import paper_params
from repro.core.work import (
    WORK_FIELDS,
    Compare,
    Copy,
    Flops,
    Generic,
    MatmulBlock,
    Merge,
    RadixSort,
    Work,
    WorkBatch,
    nominal_time,
    nominal_time_batch,
)
from repro.machines import make_machine

CM5 = paper_params("cm5")

#: every machine's nominal coefficients (the paper machines' are their
#: ``paper_params``).
MACHINE_PARAMS = [make_machine(name).nominal
                  for name in ("maspar", "gcel", "cm5", "t800", "modern")]


class TestDescriptors:
    def test_flops_nominal(self):
        assert nominal_time(Flops(1000), CM5) == pytest.approx(1000 * CM5.alpha)

    def test_matmul_block_flops(self):
        blk = MatmulBlock(4, 5, 6)
        assert blk.flops == 120
        assert nominal_time(blk, CM5) == pytest.approx(120 * CM5.alpha)

    def test_matmul_working_set(self):
        blk = MatmulBlock(10, 10, 10)
        assert blk.working_set_bytes == 8 * 300

    def test_radix_sort_follows_paper_law(self):
        # (b/r)(beta 2^r + gamma n), paper §4.2.1
        w = RadixSort(n=4096, bits=32, radix_bits=8)
        expected = 4 * (CM5.sort_beta * 256 + CM5.sort_gamma * 4096)
        assert nominal_time(w, CM5) == pytest.approx(expected)

    def test_radix_sort_passes_ceil(self):
        assert RadixSort(n=10, bits=32, radix_bits=8).passes == 4
        assert RadixSort(n=10, bits=33, radix_bits=8).passes == 5

    def test_merge_linear(self):
        assert nominal_time(Merge(100), CM5) == pytest.approx(100 * CM5.merge_alpha)

    def test_copy_uses_beta(self):
        assert nominal_time(Copy(64), CM5) == pytest.approx(64 * CM5.beta_copy)

    def test_generic_is_identity(self):
        assert nominal_time(Generic(12.5), CM5) == 12.5

    def test_compare_priced(self):
        assert nominal_time(Compare(10), CM5) > 0


class TestValidation:
    @pytest.mark.parametrize("bad", [
        lambda: Flops(-1),
        lambda: MatmulBlock(-1, 2, 3),
        lambda: RadixSort(-5),
        lambda: RadixSort(5, bits=0),
        lambda: RadixSort(5, bits=8, radix_bits=16),
        lambda: Merge(-1),
        lambda: Copy(-1),
        lambda: Generic(-0.1),
        lambda: Compare(-2),
    ])
    def test_negative_rejected(self, bad):
        with pytest.raises(ModelError):
            bad()

    def test_unknown_work_type_rejected(self):
        class Strange:
            pass

        with pytest.raises(ModelError):
            nominal_time(Strange(), CM5)  # type: ignore[arg-type]


class TestProperties:
    @given(n=st.integers(min_value=0, max_value=10**7))
    def test_flops_nominal_nonnegative_and_linear(self, n):
        t = nominal_time(Flops(n), CM5)
        assert t >= 0
        assert t == pytest.approx(n * CM5.alpha)

    @given(m=st.integers(0, 64), k=st.integers(0, 64), n=st.integers(0, 64))
    def test_matmul_flops_product(self, m, k, n):
        assert MatmulBlock(m, k, n).flops == m * k * n

    @given(n=st.integers(0, 10**6),
           bits=st.sampled_from([16, 32, 64]),
           radix=st.sampled_from([4, 8, 11, 16]))
    def test_radix_monotone_in_n(self, n, bits, radix):
        t1 = nominal_time(RadixSort(n, bits=bits, radix_bits=radix), CM5)
        t2 = nominal_time(RadixSort(n + 1, bits=bits, radix_bits=radix), CM5)
        assert t2 >= t1


def item_of(kind):
    """A strategy for one ``kind`` item; counts are integer or float."""
    num = st.one_of(st.integers(0, 10**9),
                    st.floats(0, 1e9, allow_nan=False))
    if kind is MatmulBlock:
        dim = st.integers(0, 2000)
        return st.builds(MatmulBlock, dim, dim, dim)
    if kind is RadixSort:
        return st.builds(RadixSort, num, st.integers(16, 64),
                         st.integers(1, 16))
    return st.builds(kind, num)


@st.composite
def batches(draw):
    """``(kind, items, params)``: array columns, or broadcast scalars
    when every item is the same."""
    kind = draw(st.sampled_from(sorted(WORK_FIELDS, key=lambda k: k.__name__)))
    n = draw(st.integers(1, 6))
    fields = WORK_FIELDS[kind]
    if draw(st.booleans()):
        one = draw(item_of(kind))
        items = [one] * n
        params = WorkBatch(kind, {f: getattr(one, f) for f in fields},
                           np.zeros(n, dtype=np.int64)).params
    else:
        items = draw(st.lists(item_of(kind), min_size=n, max_size=n))
        params = {f: np.array([getattr(w, f) for w in items])
                  for f in fields}
    return kind, items, params


class TestBatchPricing:
    """``nominal_time_batch`` is the price every model's ``c`` term uses;
    the scalar ``nominal_time`` is its item-by-item reference."""

    @given(batch=batches(), mp=st.sampled_from(MACHINE_PARAMS))
    def test_equals_scalar_price_exactly(self, batch, mp):
        kind, items, params = batch
        got = nominal_time_batch(kind, params, mp)
        assert got.tolist() == [nominal_time(w, mp) for w in items]

    @pytest.mark.parametrize("mp", MACHINE_PARAMS, ids=lambda p: p.machine)
    def test_unregistered_kind_raises_from_both(self, mp):
        @dataclass(frozen=True)
        class Strange(Work):
            n: int = 1

        with pytest.raises(ModelError):
            nominal_time(Strange(), mp)
        with pytest.raises(ModelError):
            nominal_time_batch(Strange, {"n": np.ones(2)}, mp)
