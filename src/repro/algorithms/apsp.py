"""All pairs shortest path — parallel Floyd's algorithm (paper §4.4).

The ``N x N`` distance matrix is partitioned into ``P`` square blocks of
size ``M x M`` (``M = N / sqrt(P)``) on a ``sqrt(P) x sqrt(P)`` processor
grid.  Iteration ``k`` broadcasts the "active" column ``D[*, k]`` along
rows and the active row ``D[k, *]`` along columns, then every processor
relaxes its block: ``D[i,j] = min(D[i,j], X[i] + Y[j])``.

The broadcast is the interesting part (and the E-BSP case study, §4.4.1):

* if ``M >= sqrt(P)``: the owner *scatters* its ``M``-element segment
  over its row — an unbalanced ``(N, N/sqrt(P), N/P)``-relation in which
  only ``sqrt(P)`` of the ``P`` processors send — then everyone
  *allgathers* the subsegments (a full relation);
* if ``M < sqrt(P)``: the owner hands one element to each of ``M``
  row-mates, ``log2(sqrt(P)/M)`` doubling steps replicate the elements,
  and the allgather runs within aligned blocks of ``M`` processors.

Plain BSP charges the scatter like a full h-relation and overestimates
badly on the MasPar (78% at N = 512) and the GCel (the scatter is ~9x
cheaper than a full h-relation there); E-BSP / the ``g_mscat`` correction
repair the prediction (§5.3).  Communication is fine-grain (one word per
distance value) and step-tagged so single-port machines serialise it
correctly.

Floyd is data-oblivious: what it sends and charges depends on ``N`` and
``P`` alone, never on the distances — the reason §4 prices it from
``(N, P)`` in closed form.  Its IR recordings are therefore keyed
without the data seed and made in a structure-only pass
(:func:`repro.simulator.lower.run_lowered`).
"""

from __future__ import annotations

import math

import numpy as np

from ..core.errors import ExperimentError
from ..machines.base import Machine
from ..simulator import RunResult
from ..simulator.lower import run_lowered
from ..simulator.vector import VectorContext, stand_in

__all__ = ["run", "key_params", "apsp_vector_program",
           "assemble", "random_digraph", "reference_apsp", "INF"]

#: "infinite" distance; finite so min-plus arithmetic stays exact.
INF = np.float64(1e30)


def random_digraph(N: int, density: float, rng: np.random.Generator) -> np.ndarray:
    """A random weighted digraph as a dense distance matrix."""
    D = np.where(rng.random((N, N)) < density,
                 rng.uniform(1.0, 100.0, (N, N)), INF)
    np.fill_diagonal(D, 0.0)
    return D


def reference_apsp(D: np.ndarray) -> np.ndarray:
    """Sequential Floyd — the correctness oracle."""
    out = D.copy()
    for k in range(out.shape[0]):
        np.minimum(out, out[:, k:k + 1] + out[k:k + 1, :], out=out)
    return out


def _segment_bounds(side: int, M: int) -> list[tuple[int, int]]:
    """Even split of an M-vector into ``side`` contiguous pieces."""
    base = M // side
    bounds = []
    lo = 0
    for idx in range(side):
        hi = M if idx == side - 1 else lo + base
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _emit_broadcast_vector(ctx: VectorContext, line: np.ndarray, addr_v,
                           owner_line: int, side: int, M: int, tag: str,
                           cache: dict):
    """Broadcast the owners' ``M``-vectors along every line: emit the
    message groups of both regimes of §4.4 (scatter+allgather, or
    scatter+doubling+block allgather).

    ``line`` is every rank's line coordinate and ``owner_line`` the
    coordinate of the line's owner; ``addr_v(ll)`` maps target line
    coordinates (a per-rank array, a scalar, or a ``(steps, P)`` stack)
    to ranks.  Emits the supersteps' counts, sizes, steps and labels but
    no payloads: vector programs move the data themselves.  Each
    superstep is one message group whose pairs run in step order (the
    sources tiled once per step), and the engine's stable sort by source
    lays them out rank-major.  Generator — ``yield from`` it.

    ``cache`` (one dict per broadcast orientation) hoists the groups'
    arrays across ``k`` iterations: the doubling and allgather patterns
    do not depend on the owner line at all, and the scatter only through
    ``owner_line``, so after the first few rounds every superstep
    re-emits previously built arrays and the engine interns the phase.
    """
    w = ctx.word_bytes
    steps = np.arange(1, side)

    def owner_group(step: np.ndarray) -> tuple:
        """The owners' sources and targets at each of ``step``."""
        owner_mask = line == owner_line
        owners = ctx.ranks()[owner_mask]
        ll = (owner_line + step) % side
        return (np.tile(owners, step.size),
                addr_v(ll[:, None])[:, owner_mask].ravel(),
                np.repeat(step, owners.size))

    if M >= side:
        widths = cache.get("widths")
        if widths is None:
            widths = cache["widths"] = np.array(
                [hi - lo for lo, hi in _segment_bounds(side, M)])
        scat = cache.get(("scat", owner_line))
        if scat is None:
            src, dst, step = owner_group(steps)
            n = widths[(owner_line + step) % side]
            scat = cache[("scat", owner_line)] = (src, dst, n * w, n, step)
        # superstep 1: owners scatter subsegments over their line
        src, dst, nb, cnt, step = scat
        ctx.put_group(src, dst, nbytes=nb, count=cnt, step=step)
        yield ctx.sync(f"{tag}-scatter")
        ag = cache.get("ag")
        if ag is None:
            mine_n = np.tile(widths[line], side - 1)
            ag = cache["ag"] = (
                np.tile(ctx.ranks(), side - 1),
                addr_v((line + steps[:, None]) % side).ravel(),
                mine_n * w, mine_n, np.repeat(steps, line.size))
        # superstep 2: everyone allgathers its subsegment along the line
        src, dst, nb, cnt, step = ag
        ctx.put_group(src, dst, nbytes=nb, count=cnt, step=step)
        yield ctx.sync(f"{tag}-allgather")
        return

    # ---- M < sqrt(P): element-wise scatter, doubling, block allgather ----
    doublings = int(round(math.log2(side / M)))
    if (M << doublings) != side:
        raise ExperimentError(
            f"M={M} must divide sqrt(P)={side} by a power of two")
    scat = cache.get(("scat", owner_line))
    if scat is None:
        # the owner hands element ll to line processor ll < M only
        scat = cache[("scat", owner_line)] = owner_group(
            steps[(owner_line + steps) % side < M])
    src, dst, step = scat
    ctx.put_group(src, dst, nbytes=w, count=1, step=step)
    yield ctx.sync(f"{tag}-scatter")
    dbl = cache.get("dbl")
    if dbl is None:
        ranks_all = ctx.ranks()
        dbl = []
        holders = M
        for _ in range(doublings):
            senders = line < holders
            dbl.append((ranks_all[senders], addr_v(line + holders)[senders]))
            holders *= 2
        cache["dbl"] = dbl
    for t, (srcs, dsts) in enumerate(dbl):
        ctx.put_group(srcs, dsts, nbytes=w, count=1, step=0)
        yield ctx.sync(f"{tag}-double-{t}")
    ag = cache.get("ag")
    if ag is None:
        block_base = line - (line % M)
        ag_steps = np.arange(1, M)
        ag = cache["ag"] = (
            np.tile(ctx.ranks(), M - 1),
            addr_v(block_base
                   + (line - block_base + ag_steps[:, None]) % M).ravel(),
            np.repeat(ag_steps, line.size))
    src, dst, step = ag
    ctx.put_group(src, dst, nbytes=w, count=1, step=step)
    yield ctx.sync(f"{tag}-allgather")


def apsp_vector_program(ctx: VectorContext, D: np.ndarray):
    """SPMD Floyd on the ``sqrt(P) x sqrt(P)`` grid (all ranks at once);
    returns every processor's final ``M x M`` block.

    Blocks live in one ``(P, M, M)`` stack; each ``k`` iteration emits
    the two broadcasts' message groups and relaxes every block with one
    elementwise ``np.minimum``.  A structure-only pass reads ``D``'s
    shape alone and skips the relaxation.
    """
    P = ctx.P
    N = D.shape[0]
    side = math.isqrt(P)
    if side * side != P:
        raise ExperimentError(f"APSP needs a square grid, got P={P}")
    if N % side:
        raise ExperimentError(f"APSP needs sqrt(P) | N (N={N}, sqrt(P)={side})")
    M = N // side
    ranks_all = ctx.ranks()
    r_arr, c_arr = np.divmod(ranks_all, side)
    lines = np.arange(side, dtype=np.int64)
    data = not ctx.structure_only
    if data:
        # blocks[rank] == D[r*M:(r+1)*M, c*M:(c+1)*M]; a copy, since the
        # reshape is a view of D when M == 1 or P == 1 and the in-place
        # relaxation below must not touch the caller's matrix
        blocks = (D.reshape(side, M, side, M).transpose(0, 2, 1, 3)
                  .reshape(P, M, M).copy())
    col_cache: dict = {}
    row_cache: dict = {}

    for k in range(N):
        kb, ki = divmod(k, M)

        # active column D[*, k]: owners <*, kb>, broadcast along rows
        yield from _emit_broadcast_vector(
            ctx, c_arr, lambda ll: r_arr * side + ll, kb, side, M, f"c{k}",
            col_cache)
        if data:
            X = blocks[lines * side + kb, :, ki][r_arr]  # (P, M)

        # active row D[k, *]: owners <kb, *>, broadcast along columns
        yield from _emit_broadcast_vector(
            ctx, r_arr, lambda ll: ll * side + c_arr, kb, side, M, f"r{k}",
            row_cache)
        if data:
            Y = blocks[kb * side + lines, ki, :][c_arr]  # (P, M)
            np.minimum(blocks, X[:, :, None] + Y[:, None, :], out=blocks)
        ctx.charge_flops(ranks_all, M * M)

    return [blocks[p] for p in range(P)] if data else None


def key_params(N: int, *, seed: int = 0, density: float = 0.3) -> dict:
    """The IR key params :func:`run` records under.

    The program is data-oblivious, so ``seed`` does not shape the
    recording and is left out: every seed of one size shares it.
    """
    return {"N": N, "density": density}


def run(machine: Machine, N: int, *, P: int | None = None, seed: int = 0,
        density: float = 0.3) -> RunResult:
    """Solve APSP for a random digraph of ``N`` vertices on ``machine``."""
    P = P or machine.P

    def inputs() -> np.ndarray:
        return random_digraph(N, density, np.random.default_rng(seed))

    return run_lowered(machine, apsp_vector_program, P=P, label=f"apsp-N{N}",
                       algorithm="apsp",
                       key_params=key_params(N, seed=seed, density=density),
                       inputs=inputs, stand_in=stand_in((N, N)))


def assemble(P: int, N: int, returns: list[np.ndarray]) -> np.ndarray:
    """Rebuild the full distance matrix from per-processor blocks."""
    side = math.isqrt(P)
    M = N // side
    out = np.empty((N, N))
    for rank, blk in enumerate(returns):
        r, c = divmod(rank, side)
        out[r * M:(r + 1) * M, c * M:(c + 1) * M] = blk
    return out
