"""Exact left-to-right segmented sums — the replay engines' inner kernel.

Both the fused IR replay path and the MasPar batched pricer need "sum
``terms[starts[i] : starts[i] + lens[i]]`` left-to-right, per segment
``i``" with *scalar-loop float semantics*: each segment's partial sums
must associate ``((t0 + t1) + t2) ...`` exactly like the per-phase
``cost += term`` loop they replace.  ``np.add.reduceat`` (pairwise
summation) would not preserve that association, so this kernel sweeps
column-by-column: iteration ``k`` adds every segment's ``k``-th
term, which keeps each segment's accumulation strictly left-to-right
while doing one vector operation per column.
"""

from __future__ import annotations

import numpy as np

__all__ = ["segment_sums"]


def segment_sums(terms: np.ndarray, starts: np.ndarray,
                 lens: np.ndarray) -> np.ndarray:
    """Per-segment left-to-right sums of ``terms``.

    ``out[i] = terms[starts[i]] + ... + terms[starts[i] + lens[i] - 1]``
    accumulated in index order from ``0.0``; zero-length segments sum to
    exactly ``0.0``.
    """
    out = np.zeros(lens.size)
    if not (terms.size and lens.size):
        return out
    maxlen = int(lens.max())
    if maxlen == 1 and lens.min() == 1:
        out[:] = terms[starts]
        return out
    for k in range(maxlen):
        mask = lens > k
        out[mask] += terms[starts[mask] + k]
    return out
