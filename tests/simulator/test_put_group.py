"""``VectorContext.put_group``: argument validation and column shapes.

Every message group the vector programs emit passes through here, so the
table pins both halves of its contract: each invalid argument raises
:class:`SimulationError`, and every accepted argument form (scalar, 0-d
array, full-shape array) yields int64 columns of ``src``'s shape.  A
law pins what lets a program emit a superstep as one group: the
concatenation of several groups records the same phase as the groups.
A re-emitted group (a ``put_group`` cache hit) reuses its earlier
phase only under the same stagger flag.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.simulator.ir import build_program
from repro.simulator.vector import VectorContext, collect_steps

P = 8
SRC = np.arange(4, dtype=np.int64)


@pytest.mark.parametrize("kwargs, match", [
    (dict(src=[0, P], dst=0, nbytes=8), "source rank"),
    (dict(src=[-1, 0], dst=0, nbytes=8), "source rank"),
    (dict(src=SRC, dst=P, nbytes=8), "destination"),
    (dict(src=SRC, dst=-1, nbytes=8), "destination"),
    (dict(src=SRC, dst=np.array([0, 1, 2, P]), nbytes=8), "destination"),
    (dict(src=SRC, dst=np.array([0, -1, 2, 3]), nbytes=8), "destination"),
    (dict(src=SRC, dst=0, nbytes=8, count=0), "count"),
    (dict(src=SRC, dst=0, nbytes=np.full(4, 8), count=[1, 0, 1, 1]), "count"),
    (dict(src=SRC, dst=0, nbytes=-1), "nbytes"),
    (dict(src=SRC, dst=0, nbytes=np.array([8, 8, -8, 8])), "nbytes"),
])
def test_invalid_arguments_raise(kwargs, match):
    ctx = VectorContext(P, 4)
    with pytest.raises(SimulationError, match=match):
        ctx.put_group(**kwargs)
    assert ctx._groups == []


@pytest.mark.parametrize("dst, nbytes, count, step", [
    (3, 20, 3, 1),
    (np.int64(3), np.asarray(20), np.asarray(3), np.asarray(1)),
    (np.full(4, 3), np.full(4, 20), np.full(4, 3), np.full(4, 1)),
    (np.array([3, 2, 1, 0]), np.array([20, 0, 7, 9]), 3, [1, 1, 2, 2]),
    (0, 0, 5, -1),
    (np.array([7, 6, 5, 4]), 0, np.array([1, 2, 3, 4]), 0),
])
def test_valid_arguments_make_int64_columns(dst, nbytes, count, step):
    ctx = VectorContext(P, 4)
    ctx.put_group(SRC, dst, nbytes=nbytes, count=count, step=step)
    (group,) = ctx._groups
    for col in group:
        assert col.dtype == np.int64 and col.shape == SRC.shape
    src_c, dst_c, count_c, msg_bytes, step_c = group
    assert src_c.tolist() == SRC.tolist()
    assert dst_c.tolist() == np.broadcast_to(dst, SRC.shape).tolist()
    assert count_c.tolist() == np.broadcast_to(count, SRC.shape).tolist()
    assert step_c.tolist() == np.broadcast_to(step, SRC.shape).tolist()
    total = np.broadcast_to(nbytes, SRC.shape)
    assert msg_bytes.tolist() == [-(-int(t) // int(c)) if t else 0
                                  for t, c in zip(total, count_c)]


def test_empty_src_emits_nothing():
    ctx = VectorContext(P, 4)
    ctx.put_group(np.empty(0, dtype=np.int64), 0, nbytes=8)
    ctx.put_group([], np.empty(0, dtype=np.int64), nbytes=np.empty(0))
    assert ctx._groups == []


@st.composite
def groups(draw):
    """``(P, calls)``: one superstep's ``put_group`` argument sets, with
    repeated sources and scalar or per-pair ``dst``, ``count``,
    ``nbytes`` and ``step``."""
    P = draw(st.integers(1, 6))
    calls = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(0, 6))
        src = np.array(draw(st.lists(st.integers(0, P - 1), min_size=n,
                                     max_size=n)), dtype=np.int64)

        def column(lo, hi):
            if draw(st.booleans()):
                return draw(st.integers(lo, hi))
            return np.array(draw(st.lists(st.integers(lo, hi), min_size=n,
                                          max_size=n)), dtype=np.int64)

        calls.append(dict(src=src, dst=column(0, P - 1),
                          count=column(1, 5), nbytes=column(0, 40),
                          step=column(-1, 4)))
    return P, calls


def _phase(P: int, calls: list[dict]):
    """The phase one superstep of ``put_group`` calls records."""
    ctx = VectorContext(P, 4)

    def program(ctx):
        for kwargs in calls:
            ctx.put_group(**kwargs)
        yield ctx.sync()

    (step, *_), _ = collect_steps(ctx, program(ctx))
    return step[0]


@settings(max_examples=150, deadline=None)
@given(groups())
def test_concatenated_groups_record_the_same_phase(case):
    """One ``put_group`` over the concatenated pairs of a superstep's
    groups records the same phase columns as one call per group: the
    engine orders pairs by source, stably, either way."""
    P, calls = case
    merged = {key: np.concatenate(
        [np.broadcast_to(np.asarray(c[key], dtype=np.int64), c["src"].shape)
         for c in calls]) for key in calls[0]}
    separate, joined = _phase(P, calls), _phase(P, [merged])
    for col in ("src", "dst", "count", "msg_bytes", "step"):
        assert getattr(joined, col).tolist() == \
            getattr(separate, col).tolist(), col
    assert joined.stagger == separate.stagger


def test_phase_interning_keeps_the_stagger_flag():
    """One group tuple re-emitted under ``sync(stagger=False)``, then
    under ``sync()``, records two phases: unstaggered, then staggered."""
    src = np.arange(4, dtype=np.int64)
    dst = (src + 1) % 4

    def program(ctx):
        for stagger in (False, None):
            ctx.put_group(src, dst, nbytes=8)
            yield ctx.sync(stagger=stagger)

    ctx = VectorContext(4, 4)
    steps, _ = collect_steps(ctx, program(ctx))
    prog = build_program(P=4, word_bytes=4, simd=False, steps=steps)
    assert prog.phase_idx == [0, 1]
    assert prog.table.stagger.tolist() == [False, True]
