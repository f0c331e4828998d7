"""Lockstep vector programs: one generator for all ``P`` ranks.

:func:`run_spmd` resumes ``P`` Python generators per superstep, and the
interpreter pays for every rank separately even though the programs are
SPMD: at any superstep all ranks execute the *same* code on different
data.  A vector program runs each superstep for all ``P`` ranks at once
on stacked arrays, emitting sends as whole message *groups*
(:meth:`VectorContext.put_group`) and work as homogeneous batches
(:class:`~repro.core.work.WorkBatch`).  Every algorithm in
:mod:`repro.algorithms` is written this way.

The engine keeps :func:`run_spmd`'s semantics, so one program written in
either form gives identical clocks, traces and results on a machine of
the same seed:

* each superstep's message groups are laid out rank-major (source
  ascending, emission order within a source) by a stable sort — the
  order in which :func:`run_spmd` drains its per-rank contexts;
* each superstep's work batches go, in emission order, to the step
  program, whose replay prices, jitters and accumulates them in
  rank-major item order, each rank's in charge order
  (:mod:`repro.simulator.replay`);
* the superstep bookkeeping is :func:`run_spmd`'s: the
  stagger/barrier/label resolution, the empty-phase barrier, and the
  trailing superstep that drains work charged after the last ``sync``.

A vector program emits groups and batches in per-rank order (a rank's
sends and charges in the order that rank makes them) and keeps each
rank's floating-point operations in one association order (e.g. loop
over partial sums rather than ``np.sum`` along an axis).

Every algorithm's ``run()`` drives its vector program through
:func:`collect_steps` inside :func:`repro.simulator.lower.run_lowered`;
:func:`run_spmd_vector` records and replays the same steps without the
store, for custom programs and tests.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

import numpy as np

from ..core.errors import DeadlockError, SimulationError
from ..core.relations import CommPhase
from ..core.work import (Compare, Copy, Flops, Generic, MatmulBlock, Merge,
                         RadixSort, WorkBatch)
from .commands import SyncToken
from .ir import build_program
from .replay import replay
from .result import RunResult

__all__ = ["VectorContext", "run_spmd_vector", "collect_steps", "stand_in"]

VectorProgram = Callable[..., Iterator[SyncToken]]

_EMPTY = np.zeros(0, dtype=np.int64)


def _column(x, shape: tuple) -> np.ndarray:
    """``x`` as an int64 column of ``shape``: passed through when it has
    that shape already, filled when scalar, broadcast otherwise."""
    a = np.asarray(x, dtype=np.int64)
    if a.shape == shape:
        return a
    return np.full(shape, a) if a.ndim == 0 else np.broadcast_to(a, shape)


def stand_in(shape: tuple, dtype=np.float64) -> np.ndarray:
    """A read-only zero array of ``shape`` that allocates nothing.

    A structure-only pass hands it to a data-oblivious program in place
    of its data: the program reads the shape, never the values.
    """
    return np.broadcast_to(np.zeros((), dtype=dtype), shape)


class VectorContext:
    """The view a vector program has of all ``P`` processors at once.

    ``structure_only`` marks a pass that records structure alone: the
    program still emits every message group and work batch, but skips
    its numeric kernels, and its data arguments are :func:`stand_in`
    arrays whose values it must not read.  Only data-oblivious programs
    run such a pass (see :func:`repro.simulator.lower.run_lowered`).
    """

    __slots__ = ("P", "word_bytes", "simd", "structure_only", "_groups",
                 "_batches", "_put_cache")

    def __init__(self, P: int, word_bytes: int, simd: bool = False, *,
                 structure_only: bool = False):
        if P < 1:
            raise SimulationError(f"need at least one processor, got P={P}")
        self.P = P
        self.word_bytes = word_bytes
        self.simd = simd
        self.structure_only = structure_only
        # per-superstep accumulators, drained by the engine at each sync:
        self._groups: list[tuple[np.ndarray, ...]] = []
        self._batches: list[WorkBatch] = []
        # memoised put_group results, keyed by argument identity: programs
        # that hoist their group arrays out of iteration loops (APSP's
        # broadcasts) re-emit the *same* objects every round, and the
        # cached tuple (same object too) lets the engine intern the whole
        # phase.  The cache pins its keys' arrays, so an id collision
        # implies identity; arrays passed to put_group are borrowed for
        # the run and must not be mutated afterwards.
        self._put_cache: dict = {}

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def ranks(self) -> np.ndarray:
        """``[0, 1, ..., P-1]`` — the all-ranks source vector."""
        return np.arange(self.P, dtype=np.int64)

    def put_group(self, src, dst, *, nbytes, count=1, step=-1) -> None:
        """Emit one message per ``src[i] -> dst[i]`` pair.

        The vector equivalent of every rank in ``src`` calling
        :meth:`ProcContext.put` once; arguments broadcast against
        ``src``.  Within one group a rank should appear at most once per
        logical send position — emit several groups (in per-rank emission
        order) for multi-send supersteps, so the engine's stable
        rank-major sort reproduces the per-rank emission order.
        """
        key = (id(src), id(dst),
               count if type(count) is int else (id(count),),
               nbytes if type(nbytes) is int else (id(nbytes),),
               step if type(step) is int else (id(step),))
        cached = self._put_cache.get(key)
        if cached is not None:
            # the cache holds the keyed objects alive, so the ids in the
            # key cannot have been reused: this is the same call again.
            self._groups.append(cached[1])
            return
        pin = (src, dst, count, nbytes, step)
        src = np.atleast_1d(np.asarray(src, dtype=np.int64))
        if src.size == 0:
            return
        shape = src.shape
        if int(src.min()) < 0 or int(src.max()) >= self.P:
            raise SimulationError(f"source rank out of range (P={self.P})")
        dst = _column(dst, shape)
        if int(dst.min()) < 0 or int(dst.max()) >= self.P:
            raise SimulationError(f"destination out of range (P={self.P})")
        count_a = np.asarray(count, dtype=np.int64)
        total_a = np.asarray(nbytes, dtype=np.int64)
        if count_a.ndim == 0 and total_a.ndim == 0:
            # scalar fast path: one division instead of per-pair arrays
            c = int(count_a)
            t = int(total_a)
            if c < 1:
                raise SimulationError("count must be >= 1")
            if t < 0:
                raise SimulationError("nbytes must be >= 0")
            count_b = np.full(shape, c, dtype=np.int64)
            msg_bytes = np.full(shape, -(-t // c) if t else 0, dtype=np.int64)
        else:
            count_b = _column(count_a, shape)
            total_b = _column(total_a, shape)
            if int(count_b.min()) < 1:
                raise SimulationError("count must be >= 1")
            if int(total_b.min()) < 0:
                raise SimulationError("nbytes must be >= 0")
            msg_bytes = np.where(total_b, -(-total_b // count_b), 0)
        group = (src, dst, count_b, msg_bytes, _column(step, shape))
        self._put_cache[key] = (pin, group)
        self._groups.append(group)

    # ------------------------------------------------------------------
    # Synchronisation
    # ------------------------------------------------------------------
    def sync(self, label: str = "", *, stagger: bool | None = None,
             barrier: bool = True) -> SyncToken:
        """Superstep boundary token; the vector program must ``yield`` it."""
        return SyncToken(label=label, stagger=stagger, barrier=barrier)

    # ------------------------------------------------------------------
    # Local work
    # ------------------------------------------------------------------
    def charge_batch(self, kind: type, ranks, **params) -> None:
        """Charge one ``kind`` work item per rank in ``ranks``.

        ``params`` maps the kind's fields to scalars or per-item arrays.
        Like sends, batches must be emitted in per-rank charge order.
        """
        self._batches.append(WorkBatch(kind, params, np.asarray(ranks)))

    def charge_flops(self, ranks, n) -> None:
        self.charge_batch(Flops, ranks, n=n)

    def charge_matmul(self, ranks, m, k, n) -> None:
        self.charge_batch(MatmulBlock, ranks, m=m, k=k, n=n)

    def charge_sort(self, ranks, n, *, bits: int = 32,
                    radix_bits: int = 8) -> None:
        self.charge_batch(RadixSort, ranks, n=n, bits=bits,
                          radix_bits=radix_bits)

    def charge_merge(self, ranks, n) -> None:
        self.charge_batch(Merge, ranks, n=n)

    def charge_compare(self, ranks, n) -> None:
        self.charge_batch(Compare, ranks, n=n)

    def charge_copy(self, ranks, n_words) -> None:
        self.charge_batch(Copy, ranks, n=n_words)

    def charge_us(self, ranks, us) -> None:
        self.charge_batch(Generic, ranks, us=us)

    # ------------------------------------------------------------------
    # Engine-side hooks
    # ------------------------------------------------------------------
    def _drain(self) -> tuple[list[tuple[np.ndarray, ...]], list[WorkBatch]]:
        groups, batches = self._groups, self._batches
        self._groups, self._batches = [], []
        return groups, batches


def collect_steps(ctx: VectorContext, gen: Iterator[SyncToken], *,
                  max_supersteps: int = 1_000_000,
                  ) -> tuple[list[tuple[CommPhase, list[WorkBatch], bool, str]],
                             list[Any] | None]:
    """Pass 1 — drive a vector program to completion, collecting one
    ``(phase, batches, barrier, label)`` record per superstep.

    SPMD programs never observe the clocks, and nothing here touches the
    machine RNG, so execution is machine-independent: the records feed
    the IR recorder (:func:`~repro.simulator.ir.build_program`) for
    :func:`run_spmd_vector` and :mod:`repro.simulator.lower` alike.
    Returns ``(steps, returns)`` with ``returns`` the program's return
    value (unconverted).
    """
    P = ctx.P
    steps: list[tuple[CommPhase, list[WorkBatch], bool, str]] = []
    returns: list[Any] | None = None
    done = False
    # Phase interning: a superstep assembled from the same group tuples
    # as an earlier one (put_group cache hits) reuses that superstep's
    # CommPhase object outright — iterative algorithms then hand the
    # pricers mostly-shared phases, which they deduplicate by identity.
    # Cache values pin the group tuples, so matching ids imply identity.
    phase_cache: dict[tuple, tuple[list, CommPhase]] = {}
    empty_cache: dict[bool, CommPhase] = {}

    for _ in range(max_supersteps):
        token: SyncToken | None = None
        if not done:
            try:
                token = next(gen)
            except StopIteration as stop:
                returns = stop.value
                done = True
            if token is not None and not isinstance(token, SyncToken):
                raise SimulationError(
                    f"vector program yielded {token!r}; programs may only "
                    "yield ctx.sync() tokens")

        groups, batches = ctx._drain()
        if done and not groups and not batches:
            break  # program returned without trailing activity

        # a lone vector token plays the role of all P live tokens
        stagger = not (token is not None and token.stagger is False)
        barrier = token.barrier if token is not None else True
        step_label = token.label if token is not None else ""

        if groups:
            cache_key = (tuple(map(id, groups)), stagger)
            cached = phase_cache.get(cache_key)
            if cached is not None:
                phase = cached[1]
            else:
                src = np.concatenate([g[0] for g in groups])
                # rank-major order, emission order within a rank — exactly
                # how the generator engine drains contexts rank by rank
                order = np.argsort(src, kind="stable")
                src = src[order]
                dst, count, msg_bytes, step = (
                    np.concatenate([g[i] for g in groups])[order]
                    for i in range(1, 5))
                # groups were validated at put_group time
                phase = CommPhase._trusted(P=P, src=src, dst=dst,
                                           count=count, msg_bytes=msg_bytes,
                                           step=step, stagger=stagger)
                phase_cache[cache_key] = (groups, phase)
        else:
            phase = empty_cache.get(stagger)
            if phase is None:
                phase = CommPhase(P=P, src=_EMPTY, dst=_EMPTY, count=_EMPTY,
                                  msg_bytes=_EMPTY, step=_EMPTY,
                                  stagger=stagger)
                empty_cache[stagger] = phase

        steps.append((phase, batches, barrier, step_label))
        if done:
            break
    else:
        raise DeadlockError(
            f"vector program exceeded {max_supersteps} supersteps; "
            "suspected livelock")
    return steps, returns


def _execute(ctx: VectorContext, program: VectorProgram, args, kwargs,
             max_supersteps: int):
    """Run ``program`` on ``ctx`` through :func:`collect_steps`; returns
    ``(steps, returns)`` with ``returns`` as a list (or None)."""
    gen = program(ctx, *args, **kwargs)
    if not hasattr(gen, "__next__"):
        raise SimulationError(
            "vector program must be a generator function (got "
            f"{type(gen).__name__}); did you forget a 'yield ctx.sync()'?")
    steps, returns = collect_steps(ctx, gen, max_supersteps=max_supersteps)
    if returns is not None and not isinstance(returns, list):
        returns = list(returns)
    return steps, returns


def run_spmd_vector(machine, program: VectorProgram, *args: Any,
                    P: int | None = None, label: str = "",
                    max_supersteps: int = 1_000_000,
                    **kwargs: Any) -> RunResult:
    """Run a vector program on ``P`` virtual processors of ``machine``.

    Drop-in replacement for :func:`run_spmd` given the vector port of a
    per-rank program: same :class:`RunResult` (``returns`` is the list
    the program returns, one entry per rank), bit-identical clocks and
    trace.  It is :func:`~repro.simulator.lower.run_lowered` without the
    store: execute, intern the steps into a program, replay it.
    """
    P = machine.P if P is None else P
    if not 0 < P <= machine.P:
        raise SimulationError(
            f"requested P={P} processors on a {machine.P}-processor machine")
    ctx = VectorContext(P, machine.nominal.w, simd=machine.simd)
    steps, returns = _execute(ctx, program, args, kwargs, max_supersteps)
    prog = build_program(P=P, word_bytes=ctx.word_bytes, simd=ctx.simd,
                         steps=steps)
    result = replay(machine, prog, label=label)
    result.returns = returns
    return result
