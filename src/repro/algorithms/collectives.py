"""BSP communication primitives (after the paper's reference [16]).

Sample sort's multi-scan cites "Communication Primitives for BSP
Computers" (Juurlink & Wijshoff, IPL '95) — the companion paper in which
the authors derive optimal BSP collectives.  This module implements the
classic broadcast strategy pair so its crossover can be measured on the
simulated machines: **vector broadcast** — ``naive`` (the root sends the
whole vector to everybody: ``g n (P-1) + L``) vs ``two-phase`` (scatter
the vector, then allgather the pieces: ``~ 2 (g n + L)``), the textbook
optimal BSP broadcast for large vectors.

Both run through the IR store: :func:`run_broadcast` (the vector
broadcast from processor 0) and :func:`run_row_broadcast` (every grid
row's first processor broadcasts a segment along its row, directly or
by APSP's scatter+allgather).  Both are data-oblivious, so their
recordings carry no data and serve every run of one shape; a run's
results are the vectors every processor ends up holding, so tests check
both the costs and the answers.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.errors import ExperimentError
from ..machines.base import Machine
from ..simulator import RunResult
from ..simulator.lower import run_lowered
from ..simulator.vector import VectorContext, stand_in
from .apsp import _emit_broadcast_vector

__all__ = ["run_broadcast", "broadcast_vector_program", "run_row_broadcast",
           "row_broadcast_vector_program"]


def _check_vec(vec, P: int) -> np.ndarray:
    v = np.asarray(vec, dtype=np.float64)
    if v.ndim != 1 or v.size == 0 or v.size % P:
        raise ExperimentError(
            f"collectives need a 1-D vector with P | n, got shape {v.shape}")
    return v


def broadcast_vector_program(ctx: VectorContext, vec, strategy: str):
    """SPMD broadcast of ``vec`` from processor 0, ``"naive"`` (the root
    sends the whole vector to everybody) or ``"two-phase"`` (scatter,
    then allgather); every rank returns the vector.

    Each superstep is one message group in step order: the root's sends,
    then the allgather with every rank's sources tiled once per step.  A
    structure-only pass reads ``vec``'s shape alone.
    """
    P = ctx.P
    w = ctx.word_bytes
    v = _check_vec(vec, P)
    n = v.size
    root = np.zeros(P - 1, dtype=np.int64)
    others = np.arange(1, P)  # destination s goes out at step s
    if strategy == "naive":
        ctx.put_group(root, others, nbytes=n * w, count=n, step=others)
        yield ctx.sync("b-bcast-naive")
    elif strategy == "two-phase":
        piece = n // P
        ctx.put_group(root, others, nbytes=piece * w, count=piece,
                      step=others)
        yield ctx.sync("b-bcast-scatter")
        src = np.tile(ctx.ranks(), P - 1)
        step = np.repeat(others, P)
        ctx.put_group(src, (src + step) % P, nbytes=piece * w, count=piece,
                      step=step)
        yield ctx.sync("b-bcast-allgather")
    else:
        raise ExperimentError(f"unknown broadcast strategy {strategy!r}")
    return None if ctx.structure_only else [v.copy() for _ in range(P)]


def run_broadcast(machine: Machine, n: int, *, strategy: str,
                  P: int | None = None) -> RunResult:
    """Broadcast the ``n``-word vector ``0, 1, ..., n-1`` from
    processor 0."""
    P = P or machine.P
    return run_lowered(machine, broadcast_vector_program, strategy, P=P,
                       label=f"broadcast-{strategy}-n{n}",
                       algorithm="broadcast",
                       key_params={"n": n, "strategy": strategy},
                       inputs=lambda: np.arange(n, dtype=np.float64),
                       stand_in=stand_in((n,)))


def _row_grid(segs, P: int) -> tuple[int, int]:
    """``(sqrt(P), M)`` of a row broadcast's ``(sqrt(P), M)`` segments."""
    side = math.isqrt(P)
    if side * side != P or np.ndim(segs) != 2 or len(segs) != side:
        raise ExperimentError(
            f"row broadcast needs a square grid and one segment per row "
            f"(P={P}, segments {np.shape(segs)})")
    return side, np.shape(segs)[1]


def row_broadcast_vector_program(ctx: VectorContext, segs: np.ndarray,
                                 strategy: str):
    """SPMD row broadcast on the ``sqrt(P) x sqrt(P)`` grid: processor
    ``<r, 0>`` delivers ``segs[r]`` to its row-mates, ``"direct"`` (one
    whole-segment message each) or ``"two-phase"`` (APSP's
    scatter+allgather).  Every processor returns its row's segment; a
    structure-only pass reads ``segs``' shape alone."""
    side, M = _row_grid(segs, ctx.P)
    ranks = ctx.ranks()
    r, c = np.divmod(ranks, side)
    if strategy == "two-phase":
        yield from _emit_broadcast_vector(ctx, c, lambda ll: r * side + ll,
                                          0, side, M, "b", {})
    elif strategy == "direct":
        owners = np.tile(ranks[c == 0], side - 1)
        step = np.repeat(np.arange(1, side), side)
        ctx.put_group(owners, owners + step, nbytes=M * ctx.word_bytes,
                      count=M, step=step)
        yield ctx.sync("direct-bcast")
    else:
        raise ExperimentError(f"unknown row broadcast strategy {strategy!r}")
    if ctx.structure_only:
        return None
    return [np.array(segs[rr], dtype=np.float64) for rr in r.tolist()]


def run_row_broadcast(machine: Machine, M: int, *, strategy: str,
                      P: int | None = None) -> RunResult:
    """Row-broadcast segment ``r`` = ``r, r+1, ..., r+M-1`` on every row."""
    P = P or machine.P
    side = math.isqrt(P)

    def inputs() -> np.ndarray:
        return np.arange(M, dtype=np.float64) + np.arange(side)[:, None]

    return run_lowered(machine, row_broadcast_vector_program, strategy, P=P,
                       label=f"row-broadcast-{strategy}-M{M}",
                       algorithm="row-broadcast",
                       key_params={"M": M, "strategy": strategy},
                       inputs=inputs, stand_in=stand_in((side, M)))

