"""2-D Jacobi stencil with halo exchange (extension workload).

The canonical *neighbour-structured* computation: the global grid is
block-partitioned over a ``sqrt(P) x sqrt(P)`` processor grid; each
iteration every processor exchanges its boundary rows/columns with its
four grid neighbours (non-periodic), then applies the five-point
update.  On a store-and-forward machine each halo message travels one
hop, so the flat-``g`` BSP charge (calibrated on random patterns)
systematically *overestimates* it — the "general locality" error that
:class:`~repro.core.ebsp.LocalityAwareBSP` fixes and the ext-t800
experiment measures.

The stencil is data-oblivious: what it sends and charges depends on
``N``, ``P`` and the sweep count alone, never on the grid values.  Its
IR recordings are therefore keyed without the data seed and made in a
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

__all__ = ["run", "key_params", "stencil_vector_program",
           "assemble", "reference_jacobi"]


def reference_jacobi(grid: np.ndarray, iters: int) -> np.ndarray:
    """Sequential Jacobi with fixed (Dirichlet) boundary — the oracle."""
    a = grid.astype(float).copy()
    for _ in range(iters):
        b = a.copy()
        b[1:-1, 1:-1] = 0.25 * (a[:-2, 1:-1] + a[2:, 1:-1]
                                + a[1:-1, :-2] + a[1:-1, 2:])
        a = b
    return a


def _block_side(N: int, P: int) -> tuple[int, int]:
    """``(sqrt(P), N / sqrt(P))``, validated."""
    side = math.isqrt(P)
    if side * side != P:
        raise ExperimentError(f"stencil needs a square grid, got P={P}")
    if N % side:
        raise ExperimentError(f"stencil needs sqrt(P) | N (N={N})")
    return side, N // side


def stencil_vector_program(ctx: VectorContext, grid: np.ndarray, iters: int):
    """SPMD Jacobi on the ``sqrt(P) x sqrt(P)`` grid (all ranks at
    once); returns every processor's final ``M x M`` block.

    Every sweep exchanges halos with the grid neighbours, one message of
    ``M`` words per existing neighbour: one message group per sweep, its
    directions (north, south, west, east) at steps 0-3, built once and
    re-emitted every sweep.  The update runs on the whole grid, each
    interior point summing its four neighbours in the order of
    :func:`reference_jacobi`.  A structure-only pass reads ``grid``'s
    shape alone and skips the update.
    """
    P = ctx.P
    side, M = _block_side(grid.shape[0], P)
    w = ctx.word_bytes
    ranks = ctx.ranks()
    r, c = np.divmod(ranks, side)
    halos = ((r > 0, -side), (r < side - 1, side),
             (c > 0, -1), (c < side - 1, 1))
    src = np.concatenate([ranks[has] for has, _ in halos])
    dst = np.concatenate([ranks[has] + offset for has, offset in halos])
    step = np.repeat(np.arange(4), [np.count_nonzero(has)
                                    for has, _ in halos])
    data = not ctx.structure_only
    if data:
        a = grid.astype(float)

    for it in range(iters):
        ctx.put_group(src, dst, nbytes=M * w, count=M, step=step)
        yield ctx.sync(f"halo-{it}")
        if data:
            b = a.copy()
            b[1:-1, 1:-1] = 0.25 * (a[:-2, 1:-1] + a[2:, 1:-1]
                                    + a[1:-1, :-2] + a[1:-1, 2:])
            a = b
        ctx.charge_flops(ranks, 2 * M * M)

    if not data:
        return None
    return [a[rr * M:(rr + 1) * M, cc * M:(cc + 1) * M].copy()
            for rr, cc in zip(r.tolist(), c.tolist())]


def key_params(N: int, iters: int, *, seed: int = 0) -> dict:
    """The IR key params :func:`run` records under.

    The stencil is data-oblivious, so ``seed`` does not shape the
    recording and is left out: every seed of one shape shares it.
    """
    return {"N": N, "iters": iters}


def run(machine: Machine, N: int, iters: int, *, P: int | None = None,
        seed: int = 0) -> RunResult:
    """Run ``iters`` Jacobi sweeps on a random ``N x N`` grid."""
    P = P or machine.P

    def inputs() -> np.ndarray:
        return np.random.default_rng(seed).random((N, N))

    return run_lowered(machine, stencil_vector_program, iters, P=P,
                       label=f"stencil-N{N}-it{iters}", algorithm="stencil",
                       key_params=key_params(N, iters, seed=seed),
                       inputs=inputs, stand_in=stand_in((N, N)))


def assemble(P: int, N: int, returns: list[np.ndarray]) -> np.ndarray:
    side = math.isqrt(P)
    M = N // side
    out = np.empty((N, N))
    for rank, blk in enumerate(returns):
        r, c = divmod(rank, side)
        out[r * M:(r + 1) * M, c * M:(c + 1) * M] = blk
    return out
