"""Batcher's bitonic sort on blocks (paper §4.2).

``N = P * M`` keys, ``M`` per processor.  Every processor radix-sorts its
keys locally, then ``log P`` merge stages run; stage ``d`` has ``d`` merge
steps.  In step ``j`` of stage ``d`` each processor exchanges its whole
sorted run with the partner whose rank differs in bit ``d - j`` and keeps
the lower or upper half of the merge — the classic compare-split block
bitonic network.  The exchange pattern of every step is a single-bit-XOR
("cube") permutation, which is why the MasPar router runs it almost twice
as fast as the models predict (§5.1).

Variants:

``"bsp"``
    fine-grain word-at-a-time exchange, one barrier per merge step — the
    plain (MP-)BSP implementation;
``"bsp-nosync"``
    same messages but *no barriers* — the paper's first GCel/PVM
    implementation, whose processors drift out of sync beyond ~300
    back-to-back messages (Fig. 7);
``"bsp-sync"``
    fine-grain with an extra barrier after every ``sync_every`` (default
    256) messages — the paper's fix;
``"bpram"``
    one block message per merge step (the MP-BPRAM version).

The network is data-oblivious: every merge step exchanges whole runs
with a fixed partner whatever the keys, so what it sends and charges
depends on ``M``, ``P`` and the variant alone — the line
Gerbessiotis–Siniolakis draw between bitonic sort and the
data-dependent splitters of sample sort.  Its IR recordings are
therefore keyed without the data seed and made in a structure-only pass
(:func:`repro.simulator.lower.run_lowered`).
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ExperimentError, SimulationError
from ..machines.base import Machine
from ..simulator import RunResult
from ..simulator.lower import run_lowered
from ..simulator.vector import VectorContext, stand_in

__all__ = ["run", "key_params", "bitonic_vector_program",
           "bitonic_sort_vector", "VARIANTS"]

VARIANTS = ("bsp", "bsp-nosync", "bsp-sync", "bpram")


def _ilog2(n: int) -> int:
    if n <= 0 or n & (n - 1):
        raise ExperimentError(f"bitonic sort needs a power-of-two P, got {n}")
    return n.bit_length() - 1


def _radix_sort_rows(ctx: VectorContext, keys: np.ndarray, *,
                     bits: int = 32, radix_bits: int = 8) -> np.ndarray:
    """Every rank's local LSD radix sort (§4.2.1) of its row of ``keys``.

    The work is charged symbolically (one ``RadixSort`` per rank), and an
    LSD radix sort over ``bits`` bits *is* a full sort of keys in
    ``[0, 2**bits)``: one row sort.  A structure-only pass charges it and
    returns ``keys`` unread.
    """
    ctx.charge_sort(ctx.ranks(), keys.shape[1], bits=bits,
                    radix_bits=radix_bits)
    if ctx.structure_only:
        return keys
    if keys.size and (int(keys.min()) < 0 or int(keys.max()) >> bits):
        raise SimulationError(f"radix sort needs keys in [0, 2**{bits})")
    return np.sort(keys, axis=1)


def _merge_keep_rows(ctx: VectorContext, mine: np.ndarray, theirs: np.ndarray,
                     keep_min: np.ndarray) -> np.ndarray:
    """Every rank's compare-split: merge its sorted run with its
    partner's and keep the lower half (``keep_min``) or the upper half,
    charged as one ``Merge`` of the output run length per rank.  For
    ascending rows the half-cleaner ``min(mine, theirs[::-1])`` holds
    exactly the pair's lower half of keys and ``max`` its upper half."""
    ctx.charge_merge(ctx.ranks(), mine.shape[1])
    if ctx.structure_only:
        return mine
    rev = theirs[:, ::-1]
    out = np.maximum(mine, rev)
    np.minimum(mine, rev, out=out, where=keep_min[:, None])
    out.sort(axis=1, kind="stable")  # timsort merges the two runs
    return out


def bitonic_sort_vector(ctx: VectorContext, all_keys: np.ndarray,
                        variant: str, sync_every: int = 256,
                        key_bits: int = 32, group_words: int = 1):
    """Block bitonic sort of the ``(P, M)`` key stack, all ranks at once.

    ``group_words > 1`` makes the fine-grain variants pack that many keys
    into each message — the "fixed size short messages, but larger than
    one computational word" of the paper's conclusions (§8).

    Every merge step is one message group (the cube permutation
    ``rank ^ bit``) plus one axis-1 sort.  Each bit's partner array is
    built once, so every merge step on one bit with one message shape
    re-emits the same group and the engine interns its phase: the
    ``log P (log P + 1) / 2`` merge steps record ``log P`` phases (one
    per bit and chunk size for ``"bsp-sync"``).  Returns the sorted
    stack, so callers (sample sort's splitter phase) can keep working on
    it; use :func:`bitonic_vector_program` for the per-rank-list form.
    A structure-only pass reads ``all_keys``' shape alone.
    """
    if variant not in VARIANTS:
        raise ExperimentError(f"unknown bitonic variant {variant!r}")
    if group_words < 1:
        raise ExperimentError("group_words must be >= 1")
    P = ctx.P
    log_p = _ilog2(P)
    M = all_keys.shape[1]
    w = ctx.word_bytes
    ranks = ctx.ranks()
    partners = [ranks ^ (1 << j) for j in range(log_p)]

    mine = _radix_sort_rows(ctx, all_keys, bits=key_bits)

    for d in range(1, log_p + 1):
        for j in range(d - 1, -1, -1):
            partner = partners[j]
            if d < log_p:
                ascending = (ranks >> d) & 1 == 0
            else:
                ascending = np.ones(P, dtype=bool)
            keep_min = (ranks < partner) == ascending

            if variant == "bpram":
                ctx.put_group(ranks, partner, nbytes=M * w, count=1)
                yield ctx.sync(f"merge-{d}.{j}", barrier=False)
            elif variant == "bsp":
                ctx.put_group(ranks, partner, nbytes=M * w,
                              count=max(1, -(-M // group_words)))
                yield ctx.sync(f"merge-{d}.{j}")
            elif variant == "bsp-nosync":
                ctx.put_group(ranks, partner, nbytes=M * w,
                              count=max(1, -(-M // group_words)))
                yield ctx.sync(f"merge-{d}.{j}", barrier=False)
            else:  # bsp-sync: barrier after every `sync_every` messages
                sent = 0
                chunk_no = 0
                while sent < M:
                    n = min(sync_every, M - sent)
                    ctx.put_group(ranks, partner, nbytes=n * w, count=n)
                    sent += n
                    chunk_no += 1
                    yield ctx.sync(f"merge-{d}.{j}.{chunk_no}")

            theirs = mine if ctx.structure_only else mine[partner]
            mine = _merge_keep_rows(ctx, mine, theirs, keep_min)
    return mine


def bitonic_vector_program(ctx: VectorContext, all_keys: np.ndarray,
                           variant: str, sync_every: int = 256,
                           key_bits: int = 32, group_words: int = 1):
    """SPMD block bitonic sort of the ``(P, M)`` key stack (row ``p`` is
    rank ``p``'s input); returns every rank's sorted run."""
    mine = yield from bitonic_sort_vector(ctx, all_keys, variant,
                                           sync_every=sync_every,
                                           key_bits=key_bits,
                                           group_words=group_words)
    return None if ctx.structure_only else [mine[p] for p in range(ctx.P)]


def key_params(M: int, *, variant: str = "bsp", seed: int = 0,
               sync_every: int = 256, key_bits: int = 32,
               group_words: int = 1) -> dict:
    """The IR key params :func:`run` records under.

    The network is data-oblivious, so ``seed`` does not shape the
    recording and is left out: every seed of one shape shares it.
    """
    return {"M": M, "variant": variant, "sync_every": sync_every,
            "key_bits": key_bits, "group_words": group_words}


def run(machine: Machine, M: int, *, variant: str = "bsp",
        P: int | None = None, seed: int = 0, sync_every: int = 256,
        key_bits: int = 32, group_words: int = 1) -> RunResult:
    """Sort ``P * M`` random keys on ``machine``; ``M`` keys per processor."""
    P = P or machine.P

    def inputs() -> np.ndarray:
        return np.random.default_rng(seed).integers(
            0, 1 << key_bits, size=(P, M), dtype=np.uint64)

    return run_lowered(machine, bitonic_vector_program, variant,
                       sync_every=sync_every, key_bits=key_bits,
                       group_words=group_words, P=P,
                       label=f"bitonic-{variant}-M{M}", algorithm="bitonic",
                       key_params=key_params(
                           M, variant=variant, seed=seed,
                           sync_every=sync_every, key_bits=key_bits,
                           group_words=group_words),
                       inputs=inputs, stand_in=stand_in((P, M), np.uint64))


def is_globally_sorted(returns: list[np.ndarray]) -> bool:
    """Check the concatenation of the per-processor runs is sorted."""
    flat = np.concatenate(returns)
    return bool(np.all(flat[:-1] <= flat[1:]))
