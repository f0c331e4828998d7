"""A run's inputs are its own: reading its results leaves them intact.

Every algorithm module's ``run()`` hands its result lazy ``inputs`` and
``returns``; the data pass behind ``returns`` runs on the drawn inputs.
A program that relaxed a *view* of them in place would leave ``inputs``
holding its results, and a later run on those inputs would start from
solved data.  APSP's block stack is such a view when every block is one
element (``N == sqrt(P)``) or when one rank holds the whole matrix.
"""

import numpy as np
import pytest

from repro.algorithms import (apsp, bitonic, collectives, lu, matmul, radix,
                              samplesort, stencil)
from repro.machines import CM5

#: case -> ``run()`` call on a machine.
CASES = {
    "apsp-N32-P16": lambda m: apsp.run(m, 32, P=16, seed=3),
    "apsp-N4-P16": lambda m: apsp.run(m, 4, P=16, seed=3),
    "apsp-N8-P64": lambda m: apsp.run(m, 8, P=64, seed=3),
    "apsp-N8-P1": lambda m: apsp.run(m, 8, P=1, seed=3),
    "bitonic": lambda m: bitonic.run(m, 32, P=16, seed=3),
    "broadcast": lambda m: collectives.run_broadcast(
        m, 64, strategy="two-phase", P=16),
    "row-broadcast": lambda m: collectives.run_row_broadcast(
        m, 8, strategy="two-phase", P=16),
    "lu-P16": lambda m: lu.run(m, 16, P=16, seed=3),
    "lu-P1": lambda m: lu.run(m, 8, P=1, seed=3),
    "matmul": lambda m: matmul.run(m, 32, variant="bsp-staggered", seed=3),
    "matmul-2d": lambda m: matmul.run(m, 32, variant="bsp-2d", P=8, seed=3),
    "radix": lambda m: radix.run(m, 64, variant="bpram", P=16, seed=3),
    "samplesort": lambda m: samplesort.run(m, 64, oversample=8, P=16, seed=3),
    "stencil-P16": lambda m: stencil.run(m, 16, 3, P=16, seed=3),
    "stencil-P1": lambda m: stencil.run(m, 8, 3, P=1, seed=3),
}


def snapshot(value):
    """Bytes of every array in ``value`` (an array or a list of them)."""
    if isinstance(value, (list, tuple)):
        return [snapshot(v) for v in value]
    arr = np.asarray(value)
    return arr.dtype.str, arr.shape, arr.tobytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_reading_returns_leaves_inputs_unchanged(case):
    res = CASES[case](CM5(seed=0))
    before = snapshot(res.inputs)
    assert res.returns is not None
    assert snapshot(res.inputs) == before
