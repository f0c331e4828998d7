"""The per-rank SPMD engine: one generator per processor, recorded,
then replayed.

:func:`run_spmd` executes one program on all ``P`` virtual processors of a
machine model.  Programs are generator functions ``prog(ctx, *args)`` that
``yield ctx.sync()`` at superstep boundaries; between boundaries they do
real computation on real data (so results can be checked) while declaring
its *cost* symbolically through the context.

Per superstep the engine:

1. resumes every live processor until it yields a sync token (or returns);
2. assembles all pending sends into one :class:`CommPhase` and delivers
   the payloads;
3. records the superstep as one ``(phase, batches, barrier, label)``
   entry.  Its work becomes the :class:`WorkBatch` list a vector
   program would charge: the ranks' first items, then their second
   items, and so on, one batch per run of one kind, so each rank's
   items keep their charge order.

Nothing is priced while the programs run: SPMD programs never observe
the clocks.  At the end the entries are interned into a step program
(:func:`~repro.simulator.ir.build_program`) and priced by
:func:`~repro.simulator.replay.replay`, as
:func:`~repro.simulator.vector.run_spmd_vector` does, so every run is
priced by one engine.  Any cost model can price the trace afterwards —
that is the "predicted" time the paper compares against the machine's
"measured" time.
"""

from __future__ import annotations

from itertools import count, groupby
from typing import Any, Callable, Iterator

import numpy as np

from ..core.errors import DeadlockError, SimulationError
from ..core.relations import CommPhase
from ..core.work import Work, WorkBatch
from .commands import SyncToken
from .context import ProcContext
from .ir import build_program
from .replay import replay
from .result import RunResult

__all__ = ["run_spmd"]

Program = Callable[..., Iterator[SyncToken]]


def _resume(gen: Iterator[SyncToken], rank: int) -> tuple[SyncToken | None, Any]:
    """Advance one generator; return (token, return_value)."""
    try:
        token = next(gen)
    except StopIteration as stop:
        return None, stop.value
    if not isinstance(token, SyncToken):
        raise SimulationError(
            f"proc {rank} yielded {token!r}; programs may only yield "
            "ctx.sync() tokens")
    return token, None


def _work_batches(charges: list[tuple[int, list[Work]]]) -> list[WorkBatch]:
    """A superstep's ``(rank, items)`` charges, in rank order, as
    batches: the ranks' ``k``-th items for ``k = 0, 1, ...``, one batch
    per run of one kind.  A stable sort of the items by rank
    (:meth:`~repro.core.work.StepWork.of_batches`) gives back each
    rank's charge order, and an SPMD superstep makes one batch per
    charge, whatever ``P``."""
    batches = []
    for k in count():
        column = [(rank, items[k]) for rank, items in charges
                  if k < len(items)]
        if not column:
            return batches
        for _, run in groupby(column, lambda c: type(c[1])):
            ranks, works = zip(*run)
            batches.append(WorkBatch.of_items(works, ranks))


def run_spmd(machine, program: Program, *args: Any, P: int | None = None,
             label: str = "", max_supersteps: int = 1_000_000,
             **kwargs: Any) -> RunResult:
    """Run ``program`` on ``P`` virtual processors of ``machine``.

    Parameters
    ----------
    machine:
        a :class:`repro.machines.base.Machine`.
    program:
        generator function ``program(ctx, *args, **kwargs)``.
    P:
        number of processors to use; defaults to the whole machine.  Using
        a subset is how e.g. the matrix multiplication runs on ``q^3 = 512``
        of the MasPar's 1024 PEs.
    """
    P = machine.P if P is None else P
    if not 0 < P <= machine.P:
        raise SimulationError(
            f"requested P={P} processors on a {machine.P}-processor machine")

    word = machine.nominal.w
    contexts = [ProcContext(rank, P, word, simd=machine.simd)
                for rank in range(P)]
    gens = [program(ctx, *args, **kwargs) for ctx in contexts]
    for rank, gen in enumerate(gens):
        if not hasattr(gen, "__next__"):
            raise SimulationError(
                f"program must be a generator function (proc {rank} got "
                f"{type(gen).__name__}); did you forget a 'yield ctx.sync()'?")

    steps: list[tuple[CommPhase, list[WorkBatch], bool, str]] = []
    returns: list[Any] = [None] * P
    alive = np.ones(P, dtype=bool)

    for _ in range(max_supersteps):
        if not alive.any():
            break
        tokens: list[SyncToken | None] = [None] * P
        for rank in range(P):
            if not alive[rank]:
                continue
            token, value = _resume(gens[rank], rank)
            if token is None:
                alive[rank] = False
                returns[rank] = value
            else:
                tokens[rank] = token

        # ---- collect work and sends from every context ----
        # Contexts accumulate sends columnar (flat int list + parallel
        # tag/payload lists), so assembling the CommPhase arrays is one
        # list concatenation per context plus one C-speed np conversion
        # — no per-message Python tuple traffic.
        send_vals: list[int] = []  # flat: dst, count, msg_bytes, step per send
        send_tags: list[Any] = []
        send_payloads: list[Any] = []
        src_runs: list[int] = []   # rank of each contiguous run of sends
        run_lens: list[int] = []
        charges: list[tuple[int, list[Work]]] = []  # each in charge order
        for rank, ctx in enumerate(contexts):
            vals, tags, payloads, items = ctx._drain()
            if items:
                charges.append((rank, items))
            if tags:
                send_vals += vals
                send_tags += tags
                send_payloads += payloads
                src_runs.append(rank)
                run_lens.append(len(tags))

        live_tokens = [t for t in tokens if t is not None]
        if not live_tokens and not send_tags and not charges:
            continue  # every processor returned without trailing activity

        stagger = True
        barrier = True
        step_label = ""
        for t in live_tokens:
            if t.stagger is False:
                stagger = False
            if not t.barrier:
                barrier = False
            if t.label and not step_label:
                step_label = t.label

        cols = np.asarray(send_vals, dtype=np.int64).reshape(-1, 4)
        src = np.repeat(np.asarray(src_runs, dtype=np.int64),
                        np.asarray(run_lens, dtype=np.int64))
        phase = CommPhase(
            P=P,
            src=src,
            dst=cols[:, 0].copy(),
            count=cols[:, 1].copy(),
            msg_bytes=cols[:, 2].copy(),
            step=cols[:, 3].copy(),
            stagger=stagger,
        )
        if send_tags:
            for dst, s, tag, payload in zip(phase.dst.tolist(), src.tolist(),
                                            send_tags, send_payloads):
                contexts[dst]._deliver(s, tag, payload)
        steps.append((phase, _work_batches(charges), barrier, step_label))
    else:
        raise DeadlockError(
            f"program exceeded {max_supersteps} supersteps; "
            "suspected livelock")

    prog = build_program(P=P, word_bytes=word, simd=machine.simd,
                         steps=steps)
    result = replay(machine, prog, label=label)
    result.returns = returns
    return result
