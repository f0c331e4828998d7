"""Microbenchmarks that determine the model parameters (paper Section 3).

Each experiment drives a synthetic communication pattern through a
machine model's timing path repeatedly (with a fresh random pattern per
trial) and reports mean/min/max virtual times — the data behind Fig. 1
(1-h relations), Fig. 2 (partial permutations), Fig. 7 (h-h permutations
vs. h-relations), Fig. 14 (multinode scatter) and Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from ..core.errors import CalibrationError
from ..core.relations import CommPhase, PhaseStack
from ..machines.base import Machine

__all__ = [
    "TimingSeries",
    "random_permutation",
    "random_partial_permutation",
    "random_h_relation",
    "one_h_relation",
    "multinode_scatter",
    "time_phase",
    "one_h_relation_experiment",
    "partial_permutation_experiment",
    "full_h_relation_experiment",
    "block_permutation_experiment",
    "hh_permutation_experiment",
    "multinode_scatter_experiment",
]


@dataclass
class TimingSeries:
    """Timings of one microbenchmark over a parameter sweep."""

    name: str
    xs: np.ndarray
    mean: np.ndarray
    lo: np.ndarray = field(default=None)  # type: ignore[assignment]
    hi: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.xs = np.asarray(self.xs, dtype=float)
        self.mean = np.asarray(self.mean, dtype=float)
        if self.lo is None:
            self.lo = self.mean.copy()
        if self.hi is None:
            self.hi = self.mean.copy()
        if not (self.xs.shape == self.mean.shape):
            raise CalibrationError("TimingSeries arrays must align")


# ----------------------------------------------------------------------
# Pattern generators.  Each pattern has one column generator: it checks
# its arguments, then draws one phase per entry of ``xs``, in order,
# straight into stacked group columns.  A public per-phase function is
# its one-phase case, validated once as a CommPhase; a sweep draws all
# of its phases at once, in range by construction, without per-phase
# validation, and stacks them block by block for pricing.
# ----------------------------------------------------------------------

def _at_least(name: str, values, low: int) -> np.ndarray:
    """``values`` as int64; CalibrationError if one is below ``low``."""
    values = np.asarray(values, dtype=np.int64)
    bad = values[values < low]
    if bad.size:
        raise CalibrationError(f"{name} must be >= {low}, got {bad[0]}")
    return values


class _Columns(NamedTuple):
    """Unit-count message groups of consecutive phases on ``P`` PEs."""

    P: int
    groups: np.ndarray      #: groups of each phase
    src: np.ndarray
    dst: np.ndarray
    msg_bytes: np.ndarray

    def phase(self) -> CommPhase:
        """The single phase these columns hold, validated."""
        return CommPhase(P=self.P, src=self.src, dst=self.dst,
                         count=np.ones(self.src.size, dtype=np.int64),
                         msg_bytes=self.msg_bytes)

    def blocks(self, budget: int) -> Iterator[PhaseStack]:
        """Stacks of consecutive whole phases, in order, each holding at
        most ``budget`` rows unless it holds one phase."""
        ends = np.cumsum(self.groups)
        a = 0
        while a < ends.size:
            lo = int(ends[a] - self.groups[a])
            b = max(a + 1, int(np.searchsorted(ends, lo + budget, "right")))
            hi = int(ends[b - 1])
            yield PhaseStack.from_columns(
                self.P, self.groups[a:b], self.src[lo:hi], self.dst[lo:hi],
                np.ones(hi - lo, dtype=np.int64), self.msg_bytes[lo:hi],
                np.full(hi - lo, -1, dtype=np.int64))
            a = b


#: leads every list of per-phase draws, so an empty sweep, which draws
#: nothing, still concatenates to an empty int64 column
_NO_ROWS = np.zeros(0, dtype=np.int64)


def _derange(perm: np.ndarray) -> None:
    """Move ``perm``'s fixed points in place (P = 1 keeps its one)."""
    fixed = np.nonzero(perm == np.arange(perm.size))[0]
    if fixed.size == 1:
        other = (fixed[0] + 1) % perm.size
        perm[fixed[0]], perm[other] = perm[other], perm[fixed[0]]
    elif fixed.size > 1:
        perm[fixed] = np.roll(perm[fixed], 1)


def _permutation_columns(P: int, sizes, rng: np.random.Generator
                         ) -> _Columns:
    # one rng.permutation(P) per phase, drawn as the rows of one call
    sizes = _at_least("message size", sizes, 0)
    perms = rng.permuted(np.tile(np.arange(P), (sizes.size, 1)), axis=1)
    for row in np.flatnonzero((perms == np.arange(P)).any(axis=1)):
        _derange(perms[row])
    sends = perms != np.arange(P)
    groups = sends.sum(axis=1)
    return _Columns(P, groups, np.nonzero(sends)[1], perms[sends],
                    np.repeat(sizes, groups))


def _partial_columns(P: int, actives, rng: np.random.Generator,
                     msg_bytes: int) -> _Columns:
    actives = np.asarray(actives, dtype=np.int64)
    bad = actives[(actives <= 0) | (actives > P)]
    if bad.size:
        raise CalibrationError(f"active must be in (0, {P}], got {bad[0]}")
    _at_least("message size", msg_bytes, 0)
    src, dst = [_NO_ROWS], [_NO_ROWS]
    for a in actives.tolist():
        src.append(rng.choice(P, size=a, replace=False))
        dst.append(rng.choice(P, size=a, replace=False))
    src, dst = np.concatenate(src), np.concatenate(dst)
    return _Columns(P, actives, src, dst,
                    np.full(src.size, msg_bytes, dtype=np.int64))


def _h_relation_columns(P: int, hs, rng: np.random.Generator,
                        msg_bytes: int) -> _Columns:
    # h rng.permutation(P) calls per phase, drawn as the rows of one call
    hs = _at_least("h", hs, 1)
    _at_least("message size", msg_bytes, 0)
    rows = int(hs.sum())
    dst = rng.permuted(np.tile(np.arange(P), (rows, 1)), axis=1).ravel()
    return _Columns(P, hs * P, np.tile(np.arange(P), rows), dst,
                    np.full(dst.size, msg_bytes, dtype=np.int64))


def _one_h_columns(P: int, hs, rng: np.random.Generator,
                   msg_bytes: int) -> _Columns:
    hs = _at_least("h", hs, 1)
    _at_least("message size", msg_bytes, 0)
    n_dest = -(-P // hs)
    dests = np.concatenate([_NO_ROWS]
                           + [rng.choice(P, size=k, replace=False)
                              for k in n_dest.tolist()])
    # PE i of a phase sends to that phase's destination i // h
    pe = np.tile(np.arange(P), hs.size)
    first = np.cumsum(n_dest) - n_dest
    dst = dests[np.repeat(first, P) + pe // np.repeat(hs, P)]
    return _Columns(P, np.full(hs.size, P), pe, dst,
                    np.full(pe.size, msg_bytes, dtype=np.int64))


def _scatter_columns(P: int, hs, rng: np.random.Generator,
                     msg_bytes: int) -> _Columns:
    hs = _at_least("h", hs, 1)
    _at_least("message size", msg_bytes, 0)
    root = int(round(P ** 0.5))
    n_recv = P - root
    offsets = np.array([rng.integers(0, n_recv) for _ in range(hs.size)],
                       dtype=np.int64)
    groups = root * hs
    # group k of a phase: source k // h, receiver (k + offset) mod n_recv
    k = np.arange(int(groups.sum())) - np.repeat(np.cumsum(groups) - groups,
                                                 groups)
    return _Columns(P, groups, k // np.repeat(hs, groups),
                    root + (k + np.repeat(offsets, groups)) % n_recv,
                    np.full(k.size, msg_bytes, dtype=np.int64))


def random_permutation(P: int, rng: np.random.Generator,
                       msg_bytes: int = 4) -> CommPhase:
    """A random full permutation without fixed points (all PEs active)."""
    return _permutation_columns(P, [msg_bytes], rng).phase()


def random_partial_permutation(P: int, active: int, rng: np.random.Generator,
                               msg_bytes: int = 4) -> CommPhase:
    """``active`` random senders paired with ``active`` random recipients."""
    return _partial_columns(P, [active], rng, msg_bytes).phase()


def random_h_relation(P: int, h: int, rng: np.random.Generator,
                      msg_bytes: int = 4) -> CommPhase:
    """A random full h-relation: ``h`` random permutations overlaid."""
    return _h_relation_columns(P, [h], rng, msg_bytes).phase()


def one_h_relation(P: int, h: int, rng: np.random.Generator,
                   msg_bytes: int = 4) -> CommPhase:
    """The Fig. 1 pattern: every PE sends one message; ``ceil(P/h)``
    random destinations receive ``h`` (the last one possibly fewer)."""
    return _one_h_columns(P, [h], rng, msg_bytes).phase()


def multinode_scatter(P: int, h: int, rng: np.random.Generator,
                      msg_bytes: int = 4) -> CommPhase:
    """The Fig. 14 pattern: ``sqrt(P)`` sources scatter ``h`` messages
    each over the remaining processors, receives balanced."""
    return _scatter_columns(P, [h], rng, msg_bytes).phase()


# ----------------------------------------------------------------------
# Timing loop
# ----------------------------------------------------------------------

def time_phase(machine: Machine, phase: CommPhase, *,
               barrier: bool = True) -> float:
    """Virtual time of one communication phase incl. synchronisation."""
    clocks = np.zeros(phase.P)
    return float(machine.comm_time(phase, clocks, barrier=barrier).max())


#: the most message groups one sweep pricer takes: a sweep is priced in
#: consecutive blocks of whole phases of at most this many rows (a
#: phase with more is priced alone), which bounds a pricer's
#: temporaries however many trials the sweep draws.  Every calibration
#: fit of the paper machines is one block.
BLOCK_ROWS = 1 << 16


def _sweep(machine, columns, xs, trials, rng, name, *,
           barrier: bool = True) -> TimingSeries:
    """Time ``trials`` fresh patterns per x, each from zero clocks.

    ``columns(P, xs, rng)`` draws every phase, x-major, into one set of
    columns, and the machine prices them in blocks of whole phases of
    at most :data:`BLOCK_ROWS` rows, one pricer per block, in order (the
    pattern and machine RNG streams are separate).  Each block's pricer
    draws its noise phase by phase, so the machine RNG moves exactly as
    :func:`time_phase` calls on each phase would move it.
    """
    _at_least("trials", trials, 1)
    cols = columns(machine.P,
                   np.repeat(np.asarray(xs, dtype=np.int64), trials), rng)
    times = [np.zeros(0)]
    for stack in cols.blocks(BLOCK_ROWS):
        times.append(_zero_clock_times(machine, stack, barrier))
    return _series(name, xs, np.concatenate(times), trials)


def _zero_clock_times(machine, stack: PhaseStack, barrier: bool
                      ) -> np.ndarray:
    """Each phase of ``stack`` timed alone from zero clocks.

    Where the pricer has ``sequence_costs``, one noise draw prices every
    phase, and the zero-clock time is ``Machine._advance`` from zero:
    the cost, plus a barrier on a MIMD machine.  Otherwise each phase
    advances in turn.
    """
    pricer = machine.comm_time_batch(stack)
    if getattr(pricer, "sequence_costs", None) is not None:
        times = pricer.sequence_costs()
        if barrier and not machine.simd:
            times = times + machine.barrier_time()
        return times
    zeros = np.zeros(machine.P)
    return np.array([pricer.comm_time(i, zeros, barrier=barrier).max()
                     for i in range(len(stack))])


def _series(name, xs, times, trials) -> TimingSeries:
    """Mean, min and max of each x's ``trials`` consecutive times."""
    rows = np.asarray(times).reshape(-1, trials)
    return TimingSeries(name=name, xs=np.asarray(xs, dtype=float),
                        mean=np.array([np.mean(r) for r in rows]),
                        lo=rows.min(axis=1), hi=rows.max(axis=1))


def one_h_relation_experiment(machine: Machine, hs, *, trials: int = 20,
                              rng: np.random.Generator) -> TimingSeries:
    """Fig. 1: time of routing 1-h relations vs ``h``."""
    mb = machine.nominal.w
    return _sweep(machine, lambda P, x, r: _one_h_columns(P, x, r, mb),
                  hs, trials, rng, "1-h relations")


def partial_permutation_experiment(machine: Machine, actives, *,
                                   trials: int = 20,
                                   rng: np.random.Generator) -> TimingSeries:
    """Fig. 2: time of partial permutations vs active PEs."""
    mb = machine.nominal.w
    return _sweep(machine, lambda P, x, r: _partial_columns(P, x, r, mb),
                  actives, trials, rng, "partial permutations")


def full_h_relation_experiment(machine: Machine, hs, *, trials: int = 5,
                               rng: np.random.Generator) -> TimingSeries:
    """Random full h-relations — the (g, L) calibration run (§3.2/§3.3)."""
    mb = machine.nominal.w
    return _sweep(machine, lambda P, x, r: _h_relation_columns(P, x, r, mb),
                  hs, trials, rng, "full h-relations")


def block_permutation_experiment(machine: Machine, sizes, *, trials: int = 5,
                                 rng: np.random.Generator,
                                 barrier: bool = True) -> TimingSeries:
    """Full block permutations — the (sigma, ell) calibration run."""
    return _sweep(machine, _permutation_columns,
                  sizes, trials, rng, "block permutations", barrier=barrier)


def hh_permutation_experiment(machine: Machine, hs, *,
                              rng: np.random.Generator,
                              sync_every: int | None = None,
                              trials: int = 3) -> TimingSeries:
    """Fig. 7: ``h`` repetitions of one permutation, with or without
    periodic barriers (``sync_every`` messages).

    Each trial sends ``h`` messages from every PE to its target under
    one random permutation (self-sends included), in chunks of
    ``sync_every`` messages with a barrier after each, or as one
    barrier-free chunk.  Every chunk of every trial is one phase of a
    single stack, priced by one pricer; each trial advances its chunks
    in order from zero clocks, so the machine RNG moves as it would
    under :meth:`Machine.comm_time` calls chunk by chunk.
    """
    _at_least("trials", trials, 1)
    h = np.repeat(_at_least("h", hs, 1), trials)
    if sync_every is not None:
        _at_least("sync_every", sync_every, 1)
    P = machine.P
    # one rng.permutation(P) per trial, h-major, drawn as the rows of
    # one call
    perms = rng.permuted(np.tile(np.arange(P), (h.size, 1)), axis=1)
    every = h if sync_every is None else np.full(h.size, sync_every)
    chunks = -(-h // every)
    first = np.cumsum(chunks) - chunks
    trial = np.repeat(np.arange(h.size), chunks)
    # chunk j of a trial carries min(every, h - j * every) messages
    j = np.arange(trial.size) - first[trial]
    count = np.minimum(every[trial], h[trial] - j * every[trial])
    n = trial.size * P
    stack = PhaseStack.from_columns(
        P, np.full(trial.size, P), np.tile(np.arange(P), trial.size),
        perms[trial].ravel(), np.repeat(count, P),
        np.full(n, machine.nominal.w, dtype=np.int64),
        np.full(n, -1, dtype=np.int64))
    pricer = machine.comm_time_batch(stack)
    times = []
    for a, c in zip(first.tolist(), chunks.tolist()):
        clocks = np.zeros(P)
        for i in range(a, a + c):
            clocks = pricer.comm_time(i, clocks,
                                      barrier=sync_every is not None)
        times.append(float(clocks.max()))
    label = "h-h permutations" if sync_every is None else \
        f"h-h permutations (barrier/{sync_every})"
    return _series(label, hs, times, trials)


def multinode_scatter_experiment(machine: Machine, hs, *, trials: int = 5,
                                 rng: np.random.Generator) -> TimingSeries:
    """Fig. 14: multinode scatter times vs ``h``."""
    mb = machine.nominal.w
    return _sweep(machine, lambda P, x, r: _scatter_columns(P, x, r, mb),
                  hs, trials, rng, "multinode scatter")
