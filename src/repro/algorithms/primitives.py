"""Communication primitives used by sample sort (paper §4.3/§4.3.1).

The MP-BPRAM variants route everything through the two-phase *grid*
scheme of the paper (after JáJá & Ryu's Block Distributed Memory model):
processors form a ``sqrt(P) x sqrt(P)`` grid, every transfer goes via the
intermediate processor that shares the sender's row and the receiver's
column, and each phase is ``sqrt(P)`` staggered single-port block steps.

* an all-to-all of one word per destination costs
  ``2 sqrt(P) (sigma w sqrt(P) + ell)`` — the paper's splitter-broadcast
  "transpose" cost;
* the multi-scan (exclusive prefix sums per bucket) is two such
  all-to-alls: ``4 sqrt(P) (sigma w sqrt(P) + ell)``;
* the BSP versions are single fine-grain supersteps costing ``g P + L``
  each (the optimal BSP scan of [Juurlink & Wijshoff, IPL '95]).
"""

from __future__ import annotations

import math

import numpy as np

from ..core.errors import ExperimentError
from ..simulator.vector import VectorContext

__all__ = ["grid_side", "alltoall_words_vector", "multiscan_vector",
           "grid_groups", "route_keys_vector"]


def grid_side(P: int) -> int:
    """``sqrt(P)`` for a square processor grid, validated."""
    side = math.isqrt(P)
    if side * side != P:
        raise ExperimentError(f"grid primitives need a square P, got {P}")
    return side


def grid_groups(cache: dict, P: int) -> tuple[np.ndarray, ...]:
    """``(src, dst_a, dst_b, step)``: the grid scheme's two transposes,
    each one message group of ``sqrt(P)`` steps of all ranks in step
    order — at step ``s`` phase A sends to ``<r, c + s>`` and phase B to
    ``<r + s, c>``.  Built once per ``cache`` (one dict per program run),
    so every all-to-all of the run re-emits the same objects."""
    grid = cache.get("grid")
    if grid is None:
        side = grid_side(P)
        ranks = np.arange(P, dtype=np.int64)
        r, c = np.divmod(ranks, side)
        s = np.arange(side)[:, None]
        grid = cache["grid"] = (np.tile(ranks, side),
                                (r * side + (c + s) % side).ravel(),
                                (((r + s) % side) * side + c).ravel(),
                                np.repeat(np.arange(side), P))
    return grid


def route_keys_vector(ctx: VectorContext, counts: np.ndarray, *,
                      block: bool) -> None:
    """Send every rank's keys straight to their buckets as one message
    group: at step ``s = 1 .. P-1`` rank ``p`` sends its
    ``counts[p, (p + s) % P]`` keys, if any, one word each or, with
    ``block``, as one message."""
    P = ctx.P
    src = np.tile(ctx.ranks(), P - 1)
    step = np.repeat(np.arange(1, P), P)
    dst = (src + step) % P
    sizes = counts[src, dst]
    m = sizes > 0
    ctx.put_group(src[m], dst[m], nbytes=sizes[m] * ctx.word_bytes,
                  count=1 if block else sizes[m], step=step[m])


def alltoall_words_vector(ctx: VectorContext, words: np.ndarray, tag: str,
                          mode: str = "bpram", cache: dict | None = None):
    """All-to-all of one word per destination, all ranks at once.

    ``words[p, j]`` is rank ``p``'s word for rank ``j``; returns the
    ``(P, P)`` stack ``out`` with ``out[p, src] = words[src, p]``.  Mode
    ``"bsp"`` is one fine-grain superstep of ``P`` words per rank
    (``g P + L``); ``"bpram"`` routes through the grid scheme, two
    staggered transposes of ``sqrt(P)`` block steps each
    (``2 sqrt(P) (sigma w sqrt(P) + ell)``).  The word values travel
    unchanged through the grid intermediates, so the result is formed
    directly.  Each superstep is one message group; ``cache`` (one dict
    per program run) holds the hoisted group arrays so every all-to-all
    of the run re-emits the *same* objects and the engine interns the
    phases.
    """
    P = ctx.P
    w = ctx.word_bytes
    words = np.asarray(words, dtype=np.int64)
    if words.shape != (P, P):
        raise ExperimentError(f"vector alltoall needs a (P, P) word stack, "
                              f"got shape {words.shape}")
    cache = cache if cache is not None else {}
    if "ranks" not in cache:
        cache["ranks"] = ctx.ranks()

    if mode == "bsp":
        a2a = cache.get("a2a")
        if a2a is None:
            src = np.tile(cache["ranks"], P)
            step = np.repeat(np.arange(P), P)
            a2a = cache["a2a"] = (src, (src + step) % P, step)
        src, dst, step = a2a
        ctx.put_group(src, dst, nbytes=w, count=1, step=step)
        yield ctx.sync(f"{tag}-alltoall")
        return words.T.copy()

    if mode != "bpram":
        raise ExperimentError(f"unknown alltoall mode {mode!r}")

    side = grid_side(P)
    src, dst_a, dst_b, step = grid_groups(cache, P)
    ctx.put_group(src, dst_a, nbytes=side * w, count=1, step=step)
    yield ctx.sync(f"{tag}-transpose-A", barrier=False)
    ctx.put_group(src, dst_b, nbytes=side * w, count=1, step=step)
    yield ctx.sync(f"{tag}-transpose-B", barrier=False)
    return words.T.copy()


def multiscan_vector(ctx: VectorContext, counts: np.ndarray, tag: str,
                     mode: str = "bpram", cache: dict | None = None):
    """The multi-scan of §4.3: per-bucket exclusive prefix sums.

    ``counts[p, j]`` = keys rank ``p`` sends to bucket ``j``; returns
    ``(offsets, totals)`` stacks: ``offsets[p, j]`` is rank ``p``'s write
    offset within bucket ``j`` and ``totals[p]`` the size of the bucket
    rank ``p`` owns.  Exactly two all-to-alls — the paper's
    ``T_scan = 2 (g P + L)`` (BSP) or ``4 sqrt(P)(sigma w sqrt(P) +
    ell)`` (MP-BPRAM).
    """
    P = ctx.P
    per_src = yield from alltoall_words_vector(ctx, counts, f"{tag}-counts",
                                               mode, cache)
    ctx.charge_us(ctx.ranks(), 0.05 * P)
    prefix = np.concatenate(
        [np.zeros((P, 1), dtype=np.int64), np.cumsum(per_src, axis=1)[:, :-1]],
        axis=1)
    totals = per_src.sum(axis=1)
    my_offsets = yield from alltoall_words_vector(ctx, prefix,
                                                  f"{tag}-offsets", mode,
                                                  cache)
    return my_offsets, totals
