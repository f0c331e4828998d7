"""Parallel integer radix sort (scenario extension, after PAPERS.md's
"Multithreaded Fine-Grained Asynchronous BSP for Integer Sorting").

``N = P * M`` unsigned integer keys, ``M`` per processor.  Unlike sample
sort there is no sampling phase: the destination bucket of a key is its
top ``log2 P`` bits, so the counting phase is deterministic and the
routed key volume per processor depends only on the key *values*, not on
a sample draw.  Three supersteps:

1. **count** — every processor radix-sorts its keys locally (so the keys
   headed for each bucket are one contiguous slice) and counts keys per
   destination digit;
2. **scan** — the counts go through the multi-scan of §4.3 (two
   all-to-alls) to produce write offsets and per-bucket totals;
3. **scatter** — the key slices are routed to their buckets, and each
   bucket is finished with a *short* local radix sort over the remaining
   ``key_bits - log2 P`` low bits — the radix trick: the route itself
   sorted the top digit.

Variants:

``"bsp"``
    fine-grain routing: every key travels as one word straight to its
    bucket (the plain BSP cost ``g * M_max + L``), scans as fine-grain
    supersteps;
``"bpram"``
    single-port routing through the two-phase padded grid scheme of
    §4.3.1 (shared with sample sort), scans via grid transposes.

Both variants need a power-of-two ``P`` (the digit is a bit field);
``"bpram"`` additionally needs a square ``P`` for the grid.

Radix sort is data-dependent: bucket sizes, and with them the routed
messages, follow the keys' top digits.  Its IR recordings are therefore
keyed by the data seed and made in a full pass over the run's keys
(:func:`repro.simulator.lower.run_lowered`).
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ExperimentError
from ..machines.base import Machine
from ..simulator import RunResult
from ..simulator.lower import run_lowered
from ..simulator.vector import VectorContext
from .bitonic import _radix_sort_rows
from .primitives import multiscan_vector, route_keys_vector
from .samplesort import _grid_route_vector

__all__ = ["run", "key_params", "radix_sort_vector_program", "VARIANTS"]

VARIANTS = ("bsp", "bpram")


def _digit_bits(P: int, key_bits: int) -> int:
    """``log2 P``, validated: the top digit must fit inside the key."""
    log_p = P.bit_length() - 1
    if P <= 0 or P & (P - 1):
        raise ExperimentError(f"radix sort needs a power-of-two P, got {P}")
    if log_p >= key_bits:
        raise ExperimentError(
            f"radix sort needs log2(P)={log_p} < key_bits={key_bits}")
    return log_p


def radix_sort_vector_program(ctx: VectorContext, all_keys: np.ndarray,
                              variant: str, key_bits: int = 32):
    """SPMD radix sort of the ``(P, M)`` key stack (row ``p`` is rank
    ``p``'s input, all ranks at once); returns every rank's sorted
    bucket.

    Counts become a ``(P, P)`` matrix through the multi-scan, routing is
    one message group per superstep, and — because bucket ``p`` holds
    exactly the keys whose top digit is ``p``, a contiguous value range
    — one global key sort split at the per-bucket totals is every rank's
    sorted bucket.  The routed keys all share their top digit, so the
    finishing sort is charged over the low ``key_bits - log2 P`` bits
    only: a digit shorter than a full-key sort, the radix win over
    sample sort.
    """
    if variant not in VARIANTS:
        raise ExperimentError(f"unknown radix sort variant {variant!r}")
    P = ctx.P
    M = all_keys.shape[1]
    log_p = _digit_bits(P, key_bits)
    shift = key_bits - log_p
    mode = "bsp" if variant == "bsp" else "bpram"
    ranks = ctx.ranks()
    cache: dict = {"ranks": ranks}  # hoisted group arrays (shared objects)

    # ---- Phase 1: count ----
    mine = _radix_sort_rows(ctx, all_keys, bits=key_bits,
                            radix_bits=min(8, key_bits))
    ctx.charge_compare(ranks, M)
    bucket_of = (mine >> np.uint64(shift)).astype(np.int64)
    counts = np.bincount((ranks[:, None] * P + bucket_of).ravel(),
                         minlength=P * P).reshape(P, P).astype(np.int64)

    # ---- Phase 2: scan ----
    offsets, totals = yield from multiscan_vector(ctx, counts, "scan",
                                                 mode, cache)

    # ---- Phase 3: scatter ----
    if variant == "bsp":
        route_keys_vector(ctx, counts, block=False)
        yield ctx.sync("route-keys")
    else:  # bpram: two-phase padded grid routing
        yield from _grid_route_vector(ctx, M, cache)

    ctx.charge_sort(ranks, totals, bits=shift, radix_bits=min(8, shift))
    # Buckets are contiguous value ranges [p << shift, (p+1) << shift):
    # one global sort split at the totals equals each rank's sorted bucket.
    srt = np.sort(mine.ravel())
    bounds = np.concatenate(([0], np.cumsum(totals)))
    return [srt[bounds[p]:bounds[p + 1]] for p in range(P)]


def key_params(M: int, *, variant: str = "bpram", seed: int = 0,
               key_bits: int = 32) -> dict:
    """The IR key params :func:`run` records under.

    Bucket sizes follow the keys, so the data ``seed`` shapes the
    recording and is part of the key.
    """
    return {"M": M, "variant": variant, "seed": seed, "key_bits": key_bits}


def run(machine: Machine, M: int, *, variant: str = "bpram",
        P: int | None = None, seed: int = 0, key_bits: int = 32) -> RunResult:
    """Radix-sort ``P * M`` random keys on ``machine``."""
    P = P or machine.P

    def inputs() -> np.ndarray:
        return np.random.default_rng(seed).integers(
            0, 1 << key_bits, size=(P, M), dtype=np.uint64)

    return run_lowered(machine, radix_sort_vector_program, variant,
                       key_bits=key_bits, P=P, label=f"radix-{variant}-M{M}",
                       algorithm="radix",
                       key_params=key_params(M, variant=variant, seed=seed,
                                             key_bits=key_bits),
                       inputs=inputs)
