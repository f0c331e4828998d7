"""Machine work pricing: one batched function, held to independent rules.

Every engine prices local work through ``Machine.compute_time_batch``;
``compute_time`` is its one-item view plus one ``jitter(compute_noise)``
draw.  The CM-5's cache-sensitive matmul rate is checked against the
paper's §4.1.1 ladder written out as a table, one block per rung.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.work import (Compare, Copy, Flops, Generic, MatmulBlock,
                             Merge, RadixSort, WorkBatch)
from repro.machines import CM5, make_machine

MACHINES = ("maspar", "gcel", "cm5", "t800", "modern")

items = st.one_of(
    st.builds(Flops, st.one_of(st.integers(0, 10**9),
                               st.floats(0, 1e9, allow_nan=False))),
    st.builds(MatmulBlock, st.integers(0, 300), st.integers(0, 300),
              st.integers(0, 300)),
    st.builds(RadixSort, st.integers(0, 10**6), st.just(32),
              st.sampled_from([4, 8, 11, 16])),
    st.builds(Merge, st.integers(0, 10**6)),
    st.builds(Compare, st.integers(0, 10**6)),
    st.builds(Copy, st.integers(0, 10**6)),
    st.builds(Generic, st.floats(0, 1e6, allow_nan=False)),
)


@pytest.mark.parametrize("name", MACHINES)
@settings(max_examples=40, deadline=None)
@given(work=items, rank=st.integers(0, 7), seed=st.integers(0, 2**16))
def test_compute_time_is_the_one_item_batch_price_times_one_draw(
        name, work, rank, seed):
    m = make_machine(name, seed=seed)
    ref = make_machine(name, seed=seed)
    b = WorkBatch.of_items([work], [rank])
    expect = float(ref.compute_time_batch(b.kind, b.params, b.ranks)[0])
    if ref.compute_noise:
        expect *= ref.jitter(ref.compute_noise)
    assert m.compute_time(work, rank) == expect
    assert m.rng.bit_generator.state == ref.rng.bit_generator.state


#: (m, k, n) of one block per rung of the CM-5 ladder, and its Mflops.
CM5_LADDER = [
    ((0, 4, 4), 7.4),          # no flops
    ((8, 8, 8), 3.8),          # 512 flops < 2048: call overhead
    ((16, 16, 16), 4.0),       # 4096 < 8192: short inner loops
    ((16, 16, 64), 5.8),       # 16384 < 32768
    ((32, 32, 32), 7.4),       # 24 KB working set <= 64 KB
    ((64, 64, 64), 6.9),       # 96 KB <= 192 KB
    ((128, 128, 128), 6.2),    # 384 KB <= 768 KB
    ((256, 256, 256), 5.2),    # 1.5 MB: beyond the ladder
]


@pytest.mark.parametrize("shape,mflops", CM5_LADDER)
def test_cm5_matmul_prices_each_rung_at_its_rate(shape, mflops):
    blk = MatmulBlock(*shape)
    m = CM5(seed=0)
    b = WorkBatch.of_items([blk], [0])
    price = m.compute_time_batch(b.kind, b.params, b.ranks)
    assert price.tolist() == [2 / mflops * blk.flops]


def test_cm5_ladder_rungs_price_in_one_batch():
    blocks = [MatmulBlock(*shape) for shape, _ in CM5_LADDER]
    b = WorkBatch.of_items(blocks, np.zeros(len(blocks), dtype=np.int64))
    price = CM5(seed=0).compute_time_batch(b.kind, b.params, b.ranks)
    assert price.tolist() == [2 / rate * blk.flops
                              for blk, (_, rate) in zip(blocks, CM5_LADDER)]


def test_cm5_without_cache_effects_prices_at_alpha():
    m = CM5(seed=0, disable=("cache-effects",))
    blk = MatmulBlock(256, 256, 256)
    b = WorkBatch.of_items([blk], [0])
    assert m.compute_time_batch(b.kind, b.params, b.ranks).tolist() \
        == [m.nominal.alpha * blk.flops]
