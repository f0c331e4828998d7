"""Communication patterns and their vectorised analysis.

The central objects of the paper are *communication patterns* and the ways
the different models summarise them:

* BSP sees an ``h``-relation: ``h = max(h_s, h_r)`` where ``h_s``/``h_r``
  are the maximum number of messages sent/received by any processor;
* MP-BPRAM sees a sequence of *block steps*, each processor sending and
  receiving at most one (long) message per step;
* E-BSP sees an ``(M, h1, h2)``-relation — at most ``h1`` sends and ``h2``
  receives per processor, at most ``M`` messages in total.

A :class:`CommPhase` stores the pattern of one superstep as *message
groups* — ``count`` messages of ``msg_bytes`` bytes each from ``src`` to
``dst`` — so a processor sending 4096 fine-grain words is one group, not
4096 Python objects.  All analyses below are NumPy-vectorised over groups
(per the hpc-parallel guides: no per-message Python loops on hot paths).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import TraceError

__all__ = ["CommPhase", "Relation", "unique_phases",
           "PhaseStack", "SubSteps"]


@dataclass(frozen=True)
class Relation:
    """The E-BSP ``(M, h1, h2)`` summary of a communication pattern.

    ``h1``/``h2`` are the maximum per-processor send/receive counts, ``M``
    the total number of messages, ``active`` the number of processors that
    send or receive at least one message.  A full h-relation is the special
    case ``M = h * P`` and ``h1 = h2 = h`` (paper §2.3).
    """

    M: int
    h1: int
    h2: int
    active: int

    @property
    def h(self) -> int:
        """The plain-BSP summary ``h = max(h1, h2)``."""
        return max(self.h1, self.h2)

    def is_full_h_relation(self, P: int) -> bool:
        return self.h1 == self.h2 and self.M == self.h1 * P


@dataclass(frozen=True)
class CommPhase:
    """The communication pattern of one superstep, as message groups.

    Parameters
    ----------
    P:
        number of processors.
    src, dst:
        integer arrays of shape ``(G,)`` — endpoints of each group.
    count:
        messages per group (``>= 1``).
    msg_bytes:
        bytes per message in the group.
    step:
        schedule sub-step tag per group.  Single-port machines (MasPar)
        route one sub-step at a time; ``-1`` means "no schedule given".
    stagger:
        whether the send order was staggered to avoid several processors
        targeting the same destination simultaneously (paper §5.1 — the
        unstaggered CM-5 matrix multiply runs 21% slower).
    """

    P: int
    src: np.ndarray
    dst: np.ndarray
    count: np.ndarray
    msg_bytes: np.ndarray
    step: np.ndarray = field(default=None)  # type: ignore[assignment]
    stagger: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "src", np.asarray(self.src, dtype=np.int64))
        object.__setattr__(self, "dst", np.asarray(self.dst, dtype=np.int64))
        object.__setattr__(self, "count", np.asarray(self.count, dtype=np.int64))
        object.__setattr__(self, "msg_bytes", np.asarray(self.msg_bytes, dtype=np.int64))
        if self.step is None:
            object.__setattr__(self, "step", np.full(self.src.shape, -1, dtype=np.int64))
        else:
            object.__setattr__(self, "step", np.asarray(self.step, dtype=np.int64))
        shapes = {a.shape for a in (self.src, self.dst, self.count, self.msg_bytes, self.step)}
        if len(shapes) != 1 or any(a.ndim != 1 for a in (self.src,)):
            raise TraceError(f"inconsistent group array shapes: {shapes}")
        if self.P <= 0:
            raise TraceError("CommPhase needs P >= 1")
        if self.src.size:
            if self.src.min() < 0 or self.src.max() >= self.P:
                raise TraceError("message source out of range")
            if self.dst.min() < 0 or self.dst.max() >= self.P:
                raise TraceError("message destination out of range")
            if self.count.min() < 1:
                raise TraceError("group count must be >= 1")
            if self.msg_bytes.min() < 0:
                raise TraceError("message size must be >= 0")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _trusted(cls, P: int, src: np.ndarray, dst: np.ndarray, count: np.ndarray,
                 msg_bytes: np.ndarray, step: np.ndarray, stagger: bool) -> "CommPhase":
        """Build a phase from arrays already known to be valid ``int64``.

        Skips ``__post_init__`` conversion/validation — for internal use on
        hot paths only (engine-built phases whose groups were validated at
        ``put``/``put_group`` time, and sub-phases sliced from a validated
        parent).  Semantically identical to the public constructor.
        """
        self = object.__new__(cls)
        d = object.__setattr__
        d(self, "P", P)
        d(self, "src", src)
        d(self, "dst", dst)
        d(self, "count", count)
        d(self, "msg_bytes", msg_bytes)
        d(self, "step", step)
        d(self, "stagger", stagger)
        return self

    @classmethod
    def empty(cls, P: int) -> "CommPhase":
        z = np.zeros(0, dtype=np.int64)
        return cls(P=P, src=z, dst=z.copy(), count=z.copy(), msg_bytes=z.copy())

    @classmethod
    def permutation(cls, perm: np.ndarray, msg_bytes: int, *, P: int | None = None,
                    step: int = -1, stagger: bool = True) -> "CommPhase":
        """A (partial) permutation: processor ``i`` sends to ``perm[i]``.

        Entries with ``perm[i] < 0`` or ``perm[i] == i`` are inactive.
        """
        perm = np.asarray(perm, dtype=np.int64)
        n = perm.size if P is None else P
        mask = (perm >= 0) & (perm != np.arange(perm.size))
        src = np.nonzero(mask)[0].astype(np.int64)
        dst = perm[mask]
        ones = np.ones(src.size, dtype=np.int64)
        return cls(P=n, src=src, dst=dst, count=ones,
                   msg_bytes=np.full(src.size, msg_bytes, dtype=np.int64),
                   step=np.full(src.size, step, dtype=np.int64), stagger=stagger)

    @property
    def n_groups(self) -> int:
        return int(self.src.size)

    @cached_property
    def is_empty(self) -> bool:
        return self.src.size == 0 or int(self.count.sum()) == 0

    # ------------------------------------------------------------------
    # Vectorised per-processor summaries
    # ------------------------------------------------------------------
    @cached_property
    def sends_per_proc(self) -> np.ndarray:
        """Messages sent by each processor; shape ``(P,)``."""
        return np.bincount(self.src, weights=self.count, minlength=self.P).astype(np.int64)

    @cached_property
    def recvs_per_proc(self) -> np.ndarray:
        """Messages received by each processor; shape ``(P,)``."""
        return np.bincount(self.dst, weights=self.count, minlength=self.P).astype(np.int64)

    @cached_property
    def bytes_sent_per_proc(self) -> np.ndarray:
        return np.bincount(self.src, weights=self.count * self.msg_bytes,
                           minlength=self.P).astype(np.int64)

    @cached_property
    def bytes_recv_per_proc(self) -> np.ndarray:
        return np.bincount(self.dst, weights=self.count * self.msg_bytes,
                           minlength=self.P).astype(np.int64)

    @property
    def h_s(self) -> int:
        """Maximum messages sent by any processor (BSP ``h_s``)."""
        return int(self.sends_per_proc.max(initial=0))

    @property
    def h_r(self) -> int:
        """Maximum messages received by any processor (BSP ``h_r``)."""
        return int(self.recvs_per_proc.max(initial=0))

    @property
    def h(self) -> int:
        return max(self.h_s, self.h_r)

    @property
    def total_messages(self) -> int:
        return int(self.count.sum())

    @property
    def total_bytes(self) -> int:
        return int((self.count * self.msg_bytes).sum())

    @cached_property
    def active_procs(self) -> int:
        """Processors that send or receive at least one message."""
        mask = (self.sends_per_proc > 0) | (self.recvs_per_proc > 0)
        return int(mask.sum())

    @cached_property
    def senders(self) -> int:
        return int((self.sends_per_proc > 0).sum())

    @cached_property
    def receivers(self) -> int:
        return int((self.recvs_per_proc > 0).sum())

    def relation(self) -> Relation:
        """The E-BSP ``(M, h1, h2)`` summary of this phase."""
        return Relation(M=self.total_messages, h1=self.h_s, h2=self.h_r,
                        active=self.active_procs)

    # ------------------------------------------------------------------
    # Pattern classification
    # ------------------------------------------------------------------
    @cached_property
    def is_partial_permutation(self) -> bool:
        """True iff every processor sends <= 1 and receives <= 1 message."""
        return self.h_s <= 1 and self.h_r <= 1

    @cached_property
    def cube_bit(self) -> int:
        """If every message goes to ``src XOR 2**k`` for one fixed ``k``,
        return ``k``; otherwise ``-1``.

        This is the pattern of a bitonic merge step, which the MasPar
        global router completes roughly twice as fast as a random
        permutation (paper §5.1).  Message counts are irrelevant: a
        repeated pairwise exchange with the same partner is still a cube
        pattern.
        """
        if self.is_empty:
            return -1
        x = self.src ^ self.dst
        first = int(x[0])
        if first <= 0 or (first & (first - 1)) != 0:
            return -1
        if not bool(np.all(x == first)):
            return -1
        return int(first).bit_length() - 1

    @cached_property
    def max_fan_in(self) -> int:
        """Largest number of *distinct senders* targeting one destination."""
        if self.is_empty:
            return 0
        pair = self.src * self.P + self.dst
        dsts = np.unique(pair) % self.P
        return int(np.bincount(dsts, minlength=self.P).max(initial=0))

    # ------------------------------------------------------------------
    # Schedule steps
    # ------------------------------------------------------------------
    @cached_property
    def _step_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One stable sort of ``step`` shared by every schedule analysis.

        Returns ``(order, sorted_steps, bounds)`` where ``order`` is the
        stable argsort of ``step``, ``sorted_steps = step[order]`` and
        ``bounds`` are the piece boundaries between distinct tags.
        """
        order = np.argsort(self.step, kind="stable")
        sorted_steps = self.step[order]
        bounds = np.nonzero(np.diff(sorted_steps))[0] + 1
        return order, sorted_steps, bounds

    @cached_property
    def step_ids(self) -> np.ndarray:
        """Sorted unique schedule sub-step tags present in the phase."""
        order, sorted_steps, bounds = self._step_order
        if sorted_steps.size == 0:
            return sorted_steps
        starts = np.concatenate(([0], bounds))
        return sorted_steps[starts]

    @property
    def n_steps(self) -> int:
        return int(self.step_ids.size)

    def split_steps(self) -> list["CommPhase"]:
        """Split into one phase per schedule sub-step (sorted by tag).

        Groups tagged ``-1`` form their own pseudo-step.  Single-port
        machine models route sub-steps sequentially.
        """
        if self.n_steps <= 1:
            return [self]
        cached = self.__dict__.get("_split_cache")
        if cached is not None:
            return cached
        order, sorted_steps, bounds = self._step_order
        pieces = np.split(order, bounds)
        subs = []
        for idx in pieces:
            sub = CommPhase._trusted(P=self.P, src=self.src[idx], dst=self.dst[idx],
                                     count=self.count[idx], msg_bytes=self.msg_bytes[idx],
                                     step=self.step[idx], stagger=self.stagger)
            # Each piece holds exactly one tag — seed the derived caches so
            # the children never re-sort what the parent already knows.
            sub.__dict__["step_ids"] = sub.step[:1]
            subs.append(sub)
        self.__dict__["_split_cache"] = subs
        return subs


def unique_phases(phases: "list[CommPhase]") -> "tuple[list[CommPhase], list[int]]":
    """Deduplicate a phase sequence by object identity.

    The vector engine *interns* repeated communication patterns — a
    superstep built from the same message-group arrays as an earlier one
    reuses the earlier :class:`CommPhase` object — so iterative
    algorithms (APSP's broadcasts, bitonic's merge schedule) hand the
    cost models long trace sequences with only a handful of distinct
    patterns (:meth:`~repro.core.base.CostModel.comm_cost_batch`).
    Deterministic per-phase analysis only needs to run once per distinct
    object.

    Returns ``(uniq, index)`` with ``uniq[index[i]] is phases[i]``.
    Sound because the caller keeps ``phases`` (and hence every id) alive.
    """
    first: dict[int, int] = {}
    uniq: list[CommPhase] = []
    index: list[int] = []
    for ph in phases:
        j = first.get(id(ph))
        if j is None:
            j = len(uniq)
            first[id(ph)] = j
            uniq.append(ph)
        index.append(j)
    return uniq, index


class SubSteps(NamedTuple):
    """The schedule sub-steps of a :class:`PhaseStack`.

    ``order`` sorts the stacked groups stably by (phase, step tag), so
    each sub-step is a contiguous run and the runs of one phase come in
    the tag order :meth:`CommPhase.split_steps` visits them.
    """

    order: np.ndarray   #: stacked group indices in sub-step order
    sub: np.ndarray     #: sub-step index of each group of ``order``
    starts: np.ndarray  #: first position in ``order`` of each sub-step
    pid: np.ndarray     #: owning phase of each sub-step


class PhaseStack:
    """The message groups of many distinct phases as one set of columns.

    Every machine pricer analyses a whole program's distinct phases at
    once (cost models price each distinct phase with their per-phase law
    instead; see :meth:`~repro.core.base.CostModel.comm_cost_batch`).
    The stack holds the ``int64`` group columns of its phases in phase
    order, each phase's group count, and the phases themselves as
    :meth:`CommPhase._trusted` views into the columns (a view carries
    its phase's stagger flag).
    ``pid`` records each group's owning phase.  A phase's own groups
    keep their order, so a float sum over them accumulates exactly as
    the per-phase code's does.  Per-processor tables are ``(n, P)``
    with ``P`` the largest phase ``P``: a narrower phase leaves its
    extra columns zero, so phases of different ``P`` stack without a
    fallback.

    :meth:`from_columns` builds a stack straight from group columns, as
    a recorded step program holds them and the calibration sweeps
    generate them; the constructor concatenates a list of phases (one
    phase, for :meth:`~repro.machines.base.Machine.comm_time`).
    ``len(stack)`` is the phase count.  The per-group arrays derived
    here (``pid``, :attr:`substeps`) live on the stack, so a stack built
    per pricer drops them with the pricer.
    """

    #: where a pricer keeps the deterministic columns it derives from
    #: this stack, by machine state: a recorded step program's memo for
    #: the stacks it hands out, ``None`` (derive them per pricer) for
    #: every other stack.  It has ``get(key)`` and ``put(key, columns)``.
    memo = None

    def __init__(self, phases: "list[CommPhase]"):
        live = [ph for ph in phases if not ph.is_empty]
        if live:
            cols = [np.concatenate([getattr(ph, name) for ph in live])
                    for name in ("src", "dst", "count", "msg_bytes", "step")]
        else:
            cols = [np.zeros(0, dtype=np.int64)] * 5
        self._stack(max((ph.P for ph in phases), default=1),
                    [0 if ph.is_empty else ph.n_groups for ph in phases],
                    *cols)
        self.phases = phases

    @classmethod
    def from_columns(cls, P: int, groups, src: np.ndarray, dst: np.ndarray,
                     count: np.ndarray, msg_bytes: np.ndarray,
                     step: np.ndarray, stagger=None, *,
                     views: "list[CommPhase] | None" = None
                     ) -> "PhaseStack":
        """A stack of ``len(groups)`` phases on ``P`` processors.

        Phase ``i`` owns the next ``groups[i]`` rows of the ``int64``
        group columns and is staggered iff ``stagger[i]`` (default: all
        staggered).  The rows must already be valid (endpoints in range,
        counts ``>= 1``): nothing is checked.  ``phases`` are
        :meth:`CommPhase._trusted` views into the columns; ``views``
        hands in the views of an earlier stack over the same columns
        instead, so their cached summaries carry over.
        """
        self = object.__new__(cls)
        self._stack(P, groups, src, dst, count, msg_bytes, step)
        if views is not None:
            self.phases = views
            return self
        flags = ([True] * self.n if stagger is None
                 else np.asarray(stagger, dtype=bool).tolist())
        ends = np.cumsum(self.groups).tolist()
        self.phases = []
        for a, b, stag in zip([0] + ends[:-1], ends, flags):
            ph = CommPhase._trusted(P, src[a:b], dst[a:b], count[a:b],
                                    msg_bytes[a:b], step[a:b], stag)
            # every row counts >= 1 message: a phase is empty iff it owns
            # no rows, so the per-phase advance need not sum its counts
            ph.__dict__["is_empty"] = a == b
            self.phases.append(ph)
        return self

    def _stack(self, P: int, groups, src, dst, count, msg_bytes,
               step) -> None:
        """The stacked state of both constructors; an empty phase owns
        no rows."""
        self.groups = np.asarray(groups, dtype=np.int64)
        self.n = int(self.groups.size)
        self.P = P
        #: phases with at least one message
        self.live = self.groups > 0
        self.src, self.dst, self.count = src, dst, count
        self.msg_bytes, self.step = msg_bytes, step

    def __len__(self) -> int:
        return self.n

    @property
    def size(self) -> int:
        """Number of stacked groups."""
        return int(self.src.size)

    @cached_property
    def pid(self) -> np.ndarray:
        """The owning phase of each stacked group."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.groups)

    def per_proc(self, ends: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """``(n, P)`` per-phase sums of ``weights`` at endpoints ``ends``."""
        n, P = self.n, self.P
        out = np.bincount(self.pid * P + ends, weights=weights,
                          minlength=n * P)
        # bincount of no groups returns integers whatever the weights
        return out.astype(np.float64, copy=False).reshape(n, P)

    def per_phase(self, weights: np.ndarray) -> np.ndarray:
        """Per-phase sums of ``weights`` (exact for integer weights)."""
        out = np.bincount(self.pid, weights=weights, minlength=self.n)
        return out.astype(np.float64, copy=False)

    @cached_property
    def substeps(self) -> SubSteps:
        """The (phase, step tag) split of the stacked groups."""
        if not self.size:
            z = np.zeros(0, dtype=np.int64)
            return SubSteps(z, z, z, z)
        smin = int(self.step.min())
        srange = int(self.step.max()) - smin + 1
        key = self.pid * srange + (self.step - smin)
        order = np.argsort(key, kind="stable")
        skey = key[order]
        new = np.concatenate(([True], skey[1:] != skey[:-1]))
        starts = np.flatnonzero(new)
        return SubSteps(order, np.cumsum(new) - 1, starts,
                        self.pid[order[starts]])
