"""Blocked LU decomposition (extension).

The paper motivates APSP by its communication structure being "similar
to many other important algorithms such as LU decomposition" (§4.4), and
closes by asking "whether acceptable performance can also be achieved
for problems that are harder to parallelize" (§8).  This module answers
with the canonical such problem: right-looking LU (no pivoting) on the
same ``sqrt(P) x sqrt(P)`` block grid as APSP.

Per elimination step ``k``:

1. the processors owning column ``k`` compute the multipliers
   ``l_ik = a_ik / a_kk`` and broadcast their below-``k`` segment along
   their processor row;
2. the processors owning row ``k`` broadcast their right-of-``k``
   segment along their processor column;
3. every processor updates its part of the trailing submatrix:
   ``a_ij -= l_ik * u_kj``.

Two properties make LU "harder" than APSP and exercise the models
differently:

* the broadcasts shrink as elimination proceeds and originate from a
  *single* processor per row/column — even more unbalanced than APSP's
  scatter, so plain BSP's full-h-relation charge overestimates badly on
  low-bandwidth machines;
* the trailing submatrix shrinks onto the bottom-right of the block
  grid, so the *computation* is imbalanced too: the critical processor
  does up to ``P``-times the average work near the end.  No cost model
  with a single ``c`` term distinguishes "balanced" from "imbalanced"
  computation — but pricing the trace takes the *maximum*, so the
  predictions remain honest while parallel efficiency collapses (this is
  the quantitative answer to §8's closing question).

Pivoting is deliberately omitted (runs use diagonally dominant
matrices): partial pivoting adds a max-reduction per step but no new
communication structure.  Without it LU is data-oblivious — what it
sends and charges depends on ``N`` and ``P`` alone — so its IR
recordings are keyed without the data seed and made in a
structure-only pass (:func:`repro.simulator.lower.run_lowered`).
"""

from __future__ import annotations

import math

import numpy as np

from ..core.errors import ExperimentError
from ..machines.base import Machine
from ..simulator import RunResult
from ..simulator.lower import run_lowered
from ..simulator.vector import VectorContext, stand_in

__all__ = ["run", "key_params", "lu_vector_program",
           "assemble", "reference_lu", "random_dd_matrix"]


def random_dd_matrix(N: int, rng: np.random.Generator) -> np.ndarray:
    """A random diagonally dominant matrix (stable without pivoting)."""
    A = rng.standard_normal((N, N))
    A[np.arange(N), np.arange(N)] = np.abs(A).sum(axis=1) + 1.0
    return A


def reference_lu(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sequential right-looking LU without pivoting — the oracle."""
    N = A.shape[0]
    LU = A.astype(float).copy()
    for k in range(N - 1):
        LU[k + 1:, k] /= LU[k, k]
        LU[k + 1:, k + 1:] -= np.outer(LU[k + 1:, k], LU[k, k + 1:])
    L = np.tril(LU, -1) + np.eye(N)
    U = np.triu(LU)
    return L, U


def lu_vector_program(ctx: VectorContext, A: np.ndarray):
    """SPMD LU on the ``sqrt(P) x sqrt(P)`` grid (all ranks at once);
    returns every processor's final ``M x M`` block of L\\U.

    All blocks live in one ``(P, M, M)`` stack.  The per-``k`` ranks fall
    into a handful of classes (above/on/below the pivot block row and
    column), each updated with one uniform slice operation; every element
    sees one divide by the pivot and one multiply-subtract per step, as
    in :func:`reference_lu`.  A structure-only pass reads ``A``'s shape
    alone and skips the arithmetic.
    """
    P = ctx.P
    N = A.shape[0]
    side = math.isqrt(P)
    if side * side != P:
        raise ExperimentError(f"LU needs a square grid, got P={P}")
    if N % side:
        raise ExperimentError(f"LU needs sqrt(P) | N (N={N}, sqrt(P)={side})")
    M = N // side
    w = ctx.word_bytes
    ranks = ctx.ranks()
    r, c = np.divmod(ranks, side)
    data = not ctx.structure_only
    if data:
        blocks = (A.astype(float).reshape(side, M, side, M)
                  .transpose(0, 2, 1, 3).reshape(P, M, M).copy())
    rows = np.arange(side)
    fan = np.arange(1, side)  # the grid steps of every broadcast
    piv_cache: dict[int, tuple] = {}  # pivot fan-out depends on kb only

    for k in range(N - 1):
        kb, ki = divmod(k, M)
        diag = kb * side + kb
        t = ki + 1

        # ---- pivot word down the processor column of the diagonal ----
        if side > 1:
            grp = piv_cache.get(kb)
            if grp is None:
                grp = (np.full(side - 1, diag),
                       ((kb + fan) % side) * side + kb, fan)
                piv_cache[kb] = grp
            ctx.put_group(grp[0], grp[1], nbytes=w, count=1, step=grp[2])
        yield ctx.sync(f"pivot-{k}")

        # ---- multipliers + column broadcast along rows ----
        # rows below k held by processor row rr: M for rr > kb, M-ki-1
        # for rr == kb, none above.
        nr = np.where(rows > kb, M, np.where(rows == kb, M - t, 0))
        below = rows[nr > 0]
        if below.size:
            own = below * side + kb
            if data:
                piv = float(blocks[diag, ki, ki])
                if t < M:
                    blocks[diag, t:, ki] /= piv
                gt = (rows[rows > kb]) * side + kb
                blocks[gt, :, ki] /= piv
            ctx.charge_flops(own, nr[below])
            if side > 1:
                # one group: the owners tiled once per grid step
                step = np.repeat(fan, below.size)
                cnt = np.tile(nr[below], side - 1)
                ctx.put_group(np.tile(own, side - 1),
                              np.tile(below * side, side - 1)
                              + (kb + step) % side,
                              nbytes=cnt * w, count=cnt, step=step)
        yield ctx.sync(f"col-bcast-{k}")

        # ---- row broadcast along columns ----
        nc = np.where(rows > kb, M, np.where(rows == kb, M - t, 0))
        right = rows[nc > 0]  # columns with entries right of k
        if right.size and side > 1:
            step = np.repeat(fan, right.size)
            cnt = np.tile(nc[right], side - 1)
            ctx.put_group(np.tile(kb * side + right, side - 1),
                          ((kb + step) % side) * side
                          + np.tile(right, side - 1),
                          nbytes=cnt * w, count=cnt, step=step)
        yield ctx.sync(f"row-bcast-{k}")

        # ---- trailing update of every block ----
        if data:
            col_all = blocks[r * side + kb][:, :, ki]  # (P, M) multipliers
            row_all = blocks[kb * side + c][:, ki, :]  # (P, M) pivot row
            m_full = (r > kb) & (c > kb)
            if m_full.any():
                blocks[m_full] -= (col_all[m_full][:, :, None]
                                   * row_all[m_full][:, None, :])
            if t < M:
                m_prow = (r == kb) & (c > kb)
                blocks[m_prow, t:, :] -= (col_all[m_prow][:, t:, None]
                                          * row_all[m_prow][:, None, :])
                m_pcol = (r > kb) & (c == kb)
                blocks[m_pcol, :, t:] -= (col_all[m_pcol][:, :, None]
                                          * row_all[m_pcol][:, None, t:])
                blocks[diag, t:, t:] -= np.outer(col_all[diag, t:],
                                                 row_all[diag, t:])
        nr_p = nr[r]
        nc_p = nc[c]
        upd = (nr_p > 0) & (nc_p > 0)
        if upd.any():
            ctx.charge_flops(ranks[upd], (nr_p * nc_p)[upd])

    return [blocks[p] for p in range(P)] if data else None


def key_params(N: int, *, seed: int = 0) -> dict:
    """The IR key params :func:`run` records under.

    The program is data-oblivious, so ``seed`` does not shape the
    recording and is left out: every seed of one size shares it.
    """
    return {"N": N}


def run(machine: Machine, N: int, *, P: int | None = None,
        seed: int = 0) -> RunResult:
    """Factor a random diagonally dominant ``N x N`` matrix."""
    P = P or machine.P

    def inputs() -> np.ndarray:
        return random_dd_matrix(N, np.random.default_rng(seed))

    return run_lowered(machine, lu_vector_program, P=P, label=f"lu-N{N}",
                       algorithm="lu", key_params=key_params(N, seed=seed),
                       inputs=inputs, stand_in=stand_in((N, N)))


def assemble(P: int, N: int, returns: list[np.ndarray]) -> np.ndarray:
    """Rebuild the packed L\\U factor matrix from the blocks."""
    side = math.isqrt(P)
    M = N // side
    out = np.empty((N, N))
    for rank, blk in enumerate(returns):
        r, c = divmod(rank, side)
        out[r * M:(r + 1) * M, c * M:(c + 1) * M] = blk
    return out
