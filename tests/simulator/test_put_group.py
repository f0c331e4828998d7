"""``VectorContext.put_group``: argument validation and column shapes.

Every message group the vector programs emit passes through here, so the
table pins both halves of its contract: each invalid argument raises
:class:`SimulationError`, and every accepted argument form (scalar, 0-d
array, full-shape array) yields int64 columns of ``src``'s shape.
"""

import numpy as np
import pytest

from repro.core.errors import SimulationError
from repro.simulator.vector import VectorContext

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
