"""Local-computation work descriptors.

Algorithms do not charge raw microseconds for local computation.  Instead
they emit *work descriptors* — "multiply two b x b blocks", "radix-sort n
keys" — which are priced twice:

* by a **cost model** (:func:`nominal_time`) using the constant
  coefficients of :class:`~repro.core.params.ModelParams` — this is what
  the paper's closed-form predictions do (e.g. ``alpha * N^3 / P``);
* by a **machine model**
  (:meth:`repro.machines.base.Machine.compute_time_batch`) which may
  deviate from the constants, e.g. the CM-5 local matrix multiply slows
  down once the working set spills out of the 64 KB cache (paper §5.1:
  "the primary source of error is in the local computation").

Keeping work symbolic until pricing is what lets the reproduction show
*why* predictions go wrong, rather than baking the answer in.

A superstep records its work as one immutable :class:`StepWork`: columns
of same-kind items (:class:`WorkBatch`) plus their rank-major order.
Machines and models price the same record the same way — one array
price per batch, gathered into rank-major order, summed left to right
per rank (:func:`_accumulate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .errors import ModelError
from .params import ModelParams

__all__ = [
    "Work",
    "Flops",
    "MatmulBlock",
    "RadixSort",
    "Merge",
    "Compare",
    "Copy",
    "Generic",
    "WORK_FIELDS",
    "WorkBatch",
    "StepWork",
    "NO_WORK",
    "nominal_time",
    "nominal_time_batch",
    "work_fields",
]


@dataclass(frozen=True)
class Work:
    """Base class for all work descriptors."""


@dataclass(frozen=True)
class Flops(Work):
    """``n`` compound floating-point operations (one add + one multiply)."""

    n: float

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ModelError("Flops count must be >= 0")


@dataclass(frozen=True)
class MatmulBlock(Work):
    """A local dense matrix product ``(m x k) @ (k x n)``.

    Carries the shape so machines can model cache behaviour; the nominal
    cost is simply ``alpha * m * k * n``.
    """

    m: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n) < 0:
            raise ModelError("matmul block dimensions must be >= 0")

    @property
    def flops(self) -> int:
        return self.m * self.k * self.n

    @property
    def working_set_bytes(self) -> int:
        """Bytes touched assuming 8-byte elements for all three operands."""
        return 8 * (self.m * self.k + self.k * self.n + self.m * self.n)


@dataclass(frozen=True)
class RadixSort(Work):
    """Radix sort of ``n`` keys of ``bits`` bits with ``radix_bits`` digits.

    Priced as ``(bits/radix_bits) * (sort_beta * 2**radix_bits +
    sort_gamma * n)`` — the empirical law of paper §4.2.1.
    """

    n: int
    bits: int = 32
    radix_bits: int = 8

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ModelError("RadixSort n must be >= 0")
        if self.bits <= 0 or self.radix_bits <= 0:
            raise ModelError("RadixSort bit widths must be positive")
        if self.radix_bits > self.bits:
            raise ModelError("radix_bits cannot exceed key width")

    @property
    def passes(self) -> int:
        return -(-self.bits // self.radix_bits)  # ceil division


@dataclass(frozen=True)
class Merge(Work):
    """A linear-time merge touching ``n`` keys (paper's bitonic merge step)."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ModelError("Merge n must be >= 0")


@dataclass(frozen=True)
class Compare(Work):
    """``n`` key comparisons / bucket classifications (sample sort §4.3)."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ModelError("Compare n must be >= 0")


@dataclass(frozen=True)
class Copy(Work):
    """Move ``n`` words between local buffers (the ``beta`` term of §4.1)."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ModelError("Copy n must be >= 0")


@dataclass(frozen=True)
class Generic(Work):
    """An opaque amount of local time, in microseconds.

    Used for bookkeeping the models do not distinguish (loop overheads,
    address arithmetic).  Both the nominal and machine price equal ``us``.
    """

    us: float

    def __post_init__(self) -> None:
        if self.us < 0:
            raise ModelError("Generic time must be >= 0")


def nominal_time(work: Work, params: ModelParams) -> float:
    """Price ``work`` with the constant model coefficients, in microseconds.

    This is the computation-cost function shared by all the paper's
    closed-form predictions; machine models deliberately deviate from it.
    """
    if isinstance(work, Flops):
        return params.alpha * work.n
    if isinstance(work, MatmulBlock):
        return params.alpha * work.flops
    if isinstance(work, RadixSort):
        return work.passes * (
            params.sort_beta * (1 << work.radix_bits) + params.sort_gamma * work.n
        )
    if isinstance(work, Merge):
        return params.merge_alpha * work.n
    if isinstance(work, Compare):
        return params.merge_alpha * work.n
    if isinstance(work, Copy):
        return params.beta_copy * work.n
    if isinstance(work, Generic):
        return work.us
    raise ModelError(f"cannot price work descriptor of type {type(work).__name__}")


# ----------------------------------------------------------------------
# Batched (vectorised) pricing
# ----------------------------------------------------------------------

#: parameter fields of each built-in work kind, in declaration order.
#: The batched engine packs homogeneous items into one array per field.
WORK_FIELDS: dict[type, tuple[str, ...]] = {
    Flops: ("n",),
    MatmulBlock: ("m", "k", "n"),
    RadixSort: ("n", "bits", "radix_bits"),
    Merge: ("n",),
    Compare: ("n",),
    Copy: ("n",),
    Generic: ("us",),
}


def work_fields(kind: type) -> tuple[str, ...]:
    """Parameter field names of a work kind (:data:`WORK_FIELDS` entry)."""
    try:
        return WORK_FIELDS[kind]
    except KeyError:
        raise ModelError(
            f"no field spec for work kind {kind.__name__}; add it to "
            "WORK_FIELDS to enable batched pricing") from None


def nominal_time_batch(kind: type, params: dict[str, np.ndarray],
                       mp: ModelParams) -> np.ndarray:
    """Vectorised :func:`nominal_time` over a batch of same-kind items.

    ``params`` maps field names (see :data:`WORK_FIELDS`) to equal-length
    arrays.  Returns per-item microseconds, elementwise bit-identical to
    the scalar function (same operations in the same order); an unknown
    kind raises :class:`ModelError`, as the scalar function does.
    """
    if kind is Flops:
        return mp.alpha * np.asarray(params["n"])
    if kind is MatmulBlock:
        flops = (np.asarray(params["m"]) * np.asarray(params["k"])
                 * np.asarray(params["n"]))
        return mp.alpha * flops
    if kind is RadixSort:
        bits = np.asarray(params["bits"])
        radix_bits = np.asarray(params["radix_bits"])
        passes = -(-bits // radix_bits)
        return passes * (mp.sort_beta * (1 << radix_bits)
                         + mp.sort_gamma * np.asarray(params["n"]))
    if kind is Merge or kind is Compare:
        return mp.merge_alpha * np.asarray(params["n"])
    if kind is Copy:
        return mp.beta_copy * np.asarray(params["n"])
    if kind is Generic:
        return np.asarray(params["us"], dtype=np.float64)
    raise ModelError(f"cannot price work descriptor of type {kind.__name__}")


# ----------------------------------------------------------------------
# Recorded work: columns plus rank-major order
# ----------------------------------------------------------------------
class WorkBatch:
    """One homogeneous charge: ``kind`` items with vector parameters.

    ``params`` maps the kind's field names to equal-length sequences;
    ``ranks`` holds the owning processor of each item.  Emitted by
    vector programs via ``VectorContext.charge_batch``, and by
    ``run_spmd`` for each run of one kind among the ranks' ``k``-th
    items of a superstep.
    """

    __slots__ = ("kind", "params", "ranks")

    def __init__(self, kind: type, params: dict[str, Any], ranks: np.ndarray):
        self.kind = kind
        self.ranks = np.asarray(ranks, dtype=np.int64)
        self.params = {
            f: np.broadcast_to(np.asarray(params[f]), self.ranks.shape)
            for f in work_fields(kind)}

    @classmethod
    def of_items(cls, items: Sequence[Work], ranks) -> "WorkBatch":
        """The batch of same-kind ``items``, owned by ``ranks``."""
        kind = type(items[0])
        return cls(kind, {f: np.array([getattr(w, f) for w in items])
                          for f in work_fields(kind)}, ranks)

    def __len__(self) -> int:
        return int(self.ranks.size)


def flat_rank_order(batches: Sequence[WorkBatch],
                    ) -> tuple[np.ndarray, np.ndarray | None]:
    """Flatten non-empty batches into rank-major item order.

    Returns ``(ranks, order)``: ``ranks`` is the rank-major rank of each
    flat item, ``order`` the stable argsort that produced it (``None``
    when the concatenation was already rank-major, so gathers can be
    skipped).  Ties keep batch emission order — a rank's items in the
    order it charged them.
    """
    flat = np.concatenate([b.ranks for b in batches])
    if bool((np.diff(flat) >= 0).all()):
        return flat, None  # already rank-major: skip the sort and gathers
    order = np.argsort(flat, kind="stable")
    return flat[order], order


def _accumulate(clocks: np.ndarray, ranks: np.ndarray,
                times: np.ndarray) -> None:
    """``clocks[r] += sum(times of r)`` with scalar-path float semantics.

    ``ranks`` must be rank-major (non-decreasing).  Totals are summed
    left-to-right per rank and added to the clock in one operation.
    """
    n = ranks.size
    if n == 0:
        return
    change = np.nonzero(np.diff(ranks))[0] + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [n]))
    lengths = ends - starts
    single = lengths == 1
    if single.all():
        clocks[ranks[starts]] += times[starts]
        return
    clocks[ranks[starts[single]]] += times[starts[single]]
    for s, e in zip(starts[~single], ends[~single]):
        clocks[ranks[s]] += sum(times[s:e])


@dataclass(frozen=True, eq=False)
class StepWork:
    """One superstep's local work, immutable and columnar.

    ``batches`` hold the items; ``ranks`` is the owner of each item in
    rank-major order, and ``order`` gathers the batches' concatenated
    items into that order (``None`` when they already are).  Within a
    rank, items keep the order the rank charged them.  Equality is
    identity: supersteps replayed from one batch list share one record,
    which is what :meth:`~repro.core.trace.Trace.work_terms` dedups by.
    """

    batches: tuple[WorkBatch, ...]
    ranks: np.ndarray
    order: np.ndarray | None = None

    @classmethod
    def of_batches(cls, batches: Sequence[WorkBatch]) -> "StepWork":
        """The record of a superstep's batches (empty ones dropped)."""
        live = tuple(b for b in batches if len(b))
        if not live:
            return NO_WORK
        return cls(live, *flat_rank_order(live))

    def __bool__(self) -> bool:
        return bool(self.batches)

    def plus(self, rank: int, item: Work) -> "StepWork":
        """A new record: this one with ``item`` charged last on ``rank``."""
        n = self.ranks.size
        at = int(np.searchsorted(self.ranks, rank, side="right"))
        order = np.arange(n) if self.order is None else self.order
        return StepWork(self.batches + (WorkBatch.of_items([item], [rank]),),
                        np.insert(self.ranks, at, rank),
                        np.insert(order, at, n))

    def prices(self, price: Callable[[WorkBatch], np.ndarray]) -> np.ndarray:
        """``price(batch)`` of every batch, as one rank-major item column."""
        cols = [price(b) for b in self.batches]
        flat = cols[0] if len(cols) == 1 else np.concatenate(cols)
        return flat if self.order is None else flat[self.order]

    def per_rank(self, times: np.ndarray, P: int) -> np.ndarray:
        """Rank-major item ``times`` summed left to right per rank, ``(P,)``."""
        out = np.zeros(P)
        _accumulate(out, self.ranks, times)
        return out

    def nominal_us(self, params: ModelParams, P: int) -> np.ndarray:
        """Per-processor nominal work time, shape ``(P,)``."""
        if not self:
            return np.zeros(P)
        return self.per_rank(self.prices(
            lambda b: nominal_time_batch(b.kind, b.params, params)), P)

    def by_rank(self) -> dict[int, list[Work]]:
        """The items as ``{rank: [Work, ...]}``, each rank's in charge order.

        A view for readers that iterate items; pricing never builds it.
        """
        flat: list[Work] = []
        for b in self.batches:
            cols = [c.tolist() for c in b.params.values()]
            flat.extend(b.kind(*args) for args in zip(*cols))
        if self.order is not None:
            flat = [flat[i] for i in self.order.tolist()]
        out: dict[int, list[Work]] = {}
        for rank, item in zip(self.ranks.tolist(), flat):
            out.setdefault(rank, []).append(item)
        return out


#: the record of a superstep without local work.
NO_WORK = StepWork((), np.zeros(0, dtype=np.int64))
