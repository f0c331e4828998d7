"""Sample sort (paper §4.3 / §4.3.1).

Three phases:

1. **splitter** — every processor draws ``S`` random samples
   (oversampling ratio), the ``P * S`` samples are sorted with bitonic
   sort, the samples with global ranks ``S, 2S, ..., (P-1)S`` become the
   splitters and are broadcast to everyone;
2. **send** — keys are sorted locally, classified against the splitters,
   write offsets are obtained with the multi-scan, and the keys are
   routed to their buckets;
3. **sort buckets** — each bucket is radix-sorted locally.

Variants (all deliver a correct global sort):

``"bsp"``
    fine-grain routing: every key travels as one word straight to its
    bucket (cost ``g * M_max + L``), splitters/scan as fine-grain
    supersteps;
``"bpram"``
    the paper's MP-BPRAM algorithm: a processor may receive only one
    message per step, so keys are routed through the two-phase grid
    scheme with *fixed-size padded* block messages — ``4 sqrt(P)`` step
    startups and ``16 sigma w M`` bytes per processor, the
    ``T_send-to-buckets = 4 sqrt(P)(4 sigma w N / P^1.5 + ell)`` of
    §4.3.1.  This padding is why measured sample sort does *not* beat
    bitonic sort on the GCel (Fig. 18);
``"bpram-staggered"``
    the paper's "Staggered" curve: pack the keys per destination bucket
    and send each packet directly (staggered).  May violate the
    single-port restriction, but is about twice as fast.

Sample sort is data-dependent: the splitters, and with them every
bucket's size and message, follow the keys.  Its IR recordings are
therefore keyed by the data seed and made in a full pass over the run's
keys (:func:`repro.simulator.lower.run_lowered`).
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ExperimentError
from ..machines.base import Machine
from ..simulator import RunResult
from ..simulator.lower import run_lowered
from ..simulator.vector import VectorContext
from .bitonic import _radix_sort_rows, bitonic_sort_vector
from .primitives import (alltoall_words_vector, grid_groups, grid_side,
                         multiscan_vector, route_keys_vector)

__all__ = ["run", "key_params", "sample_sort_vector_program", "VARIANTS"]

VARIANTS = ("bsp", "bpram", "bpram-staggered")

#: padding factor of the grid routing: each block message is padded to
#: ``PAD * M / sqrt(P)`` keys, and sent as two sub-messages, matching the
#: constants of the paper's send-to-buckets bound.
PAD = 4


def sample_sort_vector_program(ctx: VectorContext, all_keys: np.ndarray,
                               variant: str, oversample: int,
                               key_bits: int = 32, sample_seed: int = 0):
    """SPMD sample sort of the ``(P, M)`` key stack (row ``p`` is rank
    ``p``'s input, all ranks at once); returns every rank's sorted
    bucket.

    Each rank draws its samples with its own seeded generator; everything
    else is columnar: one stacked bitonic sort, ``(P, P)`` count/offset
    matrices through the all-to-alls, and routing as one message group
    per superstep.  The final buckets are value ranges split by the
    (globally sorted) splitters, so one global key sort split at the
    per-bucket totals is every rank's radix-sorted bucket.
    """
    if variant not in VARIANTS:
        raise ExperimentError(f"unknown sample sort variant {variant!r}")
    P = ctx.P
    M = all_keys.shape[1]
    S = oversample
    if not 1 <= S <= M:
        raise ExperimentError(
            f"oversampling ratio S={S} must be in [1, M={M}]")
    mode = "bsp" if variant == "bsp" else "bpram"
    bitonic_variant = "bsp" if variant == "bsp" else "bpram"
    ranks = ctx.ranks()
    cache: dict = {}  # hoisted group arrays, shared by every all-to-all

    # ---- Phase 1: splitters ----
    samples = np.empty((P, S), dtype=np.uint64)
    for p in range(P):
        rng = np.random.default_rng(sample_seed + 7919 * p)
        samples[p] = rng.choice(all_keys[p], size=S,
                                replace=False).astype(np.uint64)
    ctx.charge_us(ranks, 0.2 * S)  # sample selection
    sorted_samples = yield from bitonic_sort_vector(ctx, samples,
                                                    bitonic_variant,
                                                    key_bits=key_bits)
    # Rank p now holds the samples of global ranks [p*S, (p+1)*S); its
    # first sample is the splitter it owns, so the splitter vector is
    # ascending in p and identical on every rank after the all-to-all.
    my_splitters = sorted_samples[:, 0].astype(np.int64)
    spl = yield from alltoall_words_vector(
        ctx, np.broadcast_to(my_splitters[:, None], (P, P)), "splitters",
        mode, cache)
    splitters = spl[0, 1:].astype(np.uint64)  # drop rank-0 sentinel

    # ---- Phase 2: send ----
    mine = _radix_sort_rows(ctx, all_keys, bits=key_bits)
    ctx.charge_compare(ranks, mine.shape[1] + splitters.size + 1)
    bucket_of = np.searchsorted(splitters, mine.ravel(),
                                side="right").reshape(P, M)
    counts = np.bincount((ranks[:, None] * P + bucket_of).ravel(),
                         minlength=P * P).reshape(P, P).astype(np.int64)
    offsets, totals = yield from multiscan_vector(ctx, counts, "scan",
                                                 mode, cache)

    if variant == "bsp":
        route_keys_vector(ctx, counts, block=False)
        yield ctx.sync("route-keys")
    elif variant == "bpram-staggered":
        route_keys_vector(ctx, counts, block=True)
        ctx.charge_copy(ranks, M)  # pack keys per destination
        yield ctx.sync("route-keys-staggered", barrier=False)
    else:  # bpram: two-phase padded grid routing
        yield from _grid_route_vector(ctx, M, cache)

    # ---- Phase 3: sort buckets locally ----
    bucket_sizes = totals  # keys headed for each rank's bucket
    ctx.charge_sort(ranks, bucket_sizes, bits=key_bits)
    # Buckets are contiguous value ranges (ties broken consistently by
    # value), so one global sort split at the totals equals each rank's
    # radix-sorted bucket.
    srt = np.sort(mine.ravel())
    bounds = np.concatenate(([0], np.cumsum(bucket_sizes)))
    return [srt[bounds[p]:bounds[p + 1]] for p in range(P)]


def _grid_route_vector(ctx: VectorContext, M: int, cache: dict):
    """Two-phase padded block routing (the §4.3.1 scheme), supersteps
    and work only: the callers form the final buckets by value.

    Each phase is ``sqrt(P)`` staggered steps; every step sends one
    padded block of capacity ``PAD * M / sqrt(P)`` keys as *two*
    messages of ``4 w M / sqrt(P)`` bytes, so a processor pays
    ``4 sqrt(P)`` startups and ``16 sigma w M`` bytes over the two
    phases — exactly the paper's ``T_send-to-buckets``.

    Packing and unpacking the *padded* buffers is charged per buffer
    slot at the platform's per-key message-handling rate (the merge
    rate: on the GCel it is dominated by PVM pack/unpack).  This
    overhead, paid on capacity rather than on actual keys, is what makes
    the measured plain sample sort "somewhat disappointing" (Fig. 18);
    the §4.3.1 prediction does not include it.  Every rank packs
    ``sqrt(P)`` buffers before phase A, unpacks and repacks ``sqrt(P)``
    each between the phases, and unpacks ``sqrt(P)`` at the end, each
    group charged as one batch of the rank's buffers in rank order.
    """
    P = ctx.P
    w = ctx.word_bytes
    side = grid_side(P)
    ranks = cache["ranks"]
    half_bytes = max(w, -(-PAD * M * w // side))
    cap = max(1, -(-PAD * M // side))

    def halves(col: np.ndarray) -> np.ndarray:
        """A transpose column with each step's row sent twice: the two
        padded halves go out back to back."""
        return np.repeat(col.reshape(side, P), 2, axis=0).ravel()

    src, dst_a, dst_b, step = map(halves, grid_groups(cache, P))

    # Phase A: pack one padded buffer per destination column, route by
    # column (two padded halves per step)
    ctx.charge_merge(np.repeat(ranks, side), cap)
    ctx.put_group(src, dst_a, nbytes=half_bytes, count=1, step=step)
    yield ctx.sync("route-A", barrier=False)

    # Intermediate: unpack one buffer per source column, then repack one
    # per destination row and forward by row.
    ctx.charge_merge(np.repeat(ranks, 2 * side), cap)
    ctx.put_group(src, dst_b, nbytes=half_bytes, count=1, step=step)
    yield ctx.sync("route-B", barrier=False)

    ctx.charge_merge(np.repeat(ranks, side), cap)  # final unpack


def key_params(M: int, *, variant: str = "bpram", oversample: int = 32,
               seed: int = 0, key_bits: int = 32) -> dict:
    """The IR key params :func:`run` records under.

    The splitters follow the keys, so the data ``seed`` shapes the
    recording and is part of the key.
    """
    return {"M": M, "variant": variant, "oversample": oversample,
            "seed": seed, "key_bits": key_bits}


def run(machine: Machine, M: int, *, variant: str = "bpram",
        oversample: int = 32, P: int | None = None, seed: int = 0,
        key_bits: int = 32) -> RunResult:
    """Sample-sort ``P * M`` random keys on ``machine``."""
    P = P or machine.P

    def inputs() -> np.ndarray:
        return np.random.default_rng(seed).integers(
            0, 1 << key_bits, size=(P, M), dtype=np.uint64)

    return run_lowered(machine, sample_sort_vector_program, variant,
                       oversample, key_bits=key_bits, sample_seed=seed, P=P,
                       label=f"samplesort-{variant}-M{M}",
                       algorithm="samplesort",
                       key_params=key_params(
                           M, variant=variant, oversample=oversample,
                           seed=seed, key_bits=key_bits),
                       inputs=inputs)
