"""Machine model base class.

A :class:`Machine` is the simulator's substitute for real hardware: it
prices local work (:meth:`compute_time_batch`) and communication phases
(:meth:`comm_time`), advancing per-processor virtual clocks.  Machine
models are deliberately *richer* than the cost models under test — they
know about endpoint contention, router cluster conflicts, partial-pattern
discounts, cache behaviour and loss of synchrony, which is exactly what
lets the reproduction show where the models' predictions break (paper §5).

All randomness flows through ``self.rng`` (a seeded
``numpy.random.Generator``), so every "measurement" is reproducible.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.errors import SimulationError
from ..core.params import ModelParams
from ..core.relations import CommPhase, PhaseStack
from ..core.work import Work, WorkBatch, nominal_time_batch

__all__ = ["Machine", "CommPricer", "state_key"]


class _Unkeyable(Exception):
    """A machine attribute :func:`state_key` cannot encode."""


def _encode(value):
    """``value`` as a hashable key that equals another's only if the
    values are equal and of one type; raises :class:`_Unkeyable`."""
    t = type(value)
    if t in (bool, int, str):
        return t, value
    if t is float:
        return t, value.hex()  # tells 0.0 from -0.0
    if t is frozenset:
        return t, frozenset(map(_encode, value))
    if t is dict:  # the RNG's bit-generator state
        return t, frozenset((k, _encode(v)) for k, v in value.items())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return t, tuple((f.name, _encode(getattr(value, f.name)))
                        for f in dataclasses.fields(value))
    raise _Unkeyable(t)


def state_key(machine: "Machine", *, rng: bool = False) -> "tuple | None":
    """The machine's deterministic state as one hashable key.

    The key is the machine's class plus every instance attribute except
    the RNG, by name; a dataclass (the nominal :class:`ModelParams`, the
    MasPar's ``T_unb`` law) is encoded field by field.  Machines with
    equal keys price every phase and every work item alike, so the
    per-process caches key by it: the pricer columns a step program
    keeps (:class:`CommPricer`) and, with ``rng`` set (the key then
    carries the RNG's bit-generator state too), the calibration memo.
    Returns ``None`` for a machine holding an attribute the key cannot
    encode, such as a monkeypatched method: nothing about it is cached.
    """
    attrs = vars(machine)
    try:
        key = tuple((name, _encode(value))
                    for name, value in sorted(attrs.items()) if name != "rng")
        if rng:
            gen = attrs.get("rng")
            if type(gen) is not np.random.Generator:
                return None
            key += (("rng", _encode(gen.bit_generator.state)),)
    except _Unkeyable:
        return None
    return type(machine), key


class CommPricer:
    """Prices a sequence of communication phases, one call per phase.

    The pricer is where each machine's communication law lives: calling
    ``pricer.comm_time(i, clocks, barrier=...)`` for ``i = 0 .. n-1``
    *in order* advances the clocks across the sequence's phase ``i``
    and draws the phase's noise from the machine RNG.
    :meth:`Machine.comm_time` is the one-phase case.  The tests hold
    every pricer to a scalar, phase-at-a-time formulation of the same
    laws (``tests/machines/scalar_reference.py``).

    The pricer takes the sequence's distinct phases as one
    :class:`~repro.core.relations.PhaseStack` and the sequence itself
    as ``idx``, the stack phase of each position (default: every stack
    phase once, in order).  A replay hands over its program's own phase
    table and ``phase_idx`` column, so nothing is deduplicated or
    concatenated here: each distinct phase is analysed once, as it
    stands in the stack.  This base class is the bulk-synchronous
    layout (CM-5, T800, modern cluster): :meth:`Machine.phase_cost_batch`
    gives each phase's deterministic cost, and each advance multiplies
    in one ``jitter(machine.noise)`` draw per non-empty phase and lands
    the clocks through :meth:`Machine._advance`.  :meth:`sequence_costs`
    takes every phase's jittered cost from one draw instead.  The MasPar
    (sub-step segments) and the GCel (per-node times with drift)
    subclass it.

    :meth:`_prep` derives the deterministic columns (:attr:`_COLUMNS`)
    from the stack and the machine alone; the noise is drawn per
    advance.  A stack built from a step program carries the program's
    column memo (:attr:`~repro.core.relations.PhaseStack.memo`), so a
    pricer for a machine state (:func:`state_key`) the program was
    already priced under reuses those columns, read-only, instead of
    running :meth:`_prep` again.
    """

    #: the attributes :meth:`_prep` sets
    _COLUMNS: "tuple[str, ...]" = ("_det",)

    def __init__(self, machine: "Machine", stack: PhaseStack, idx=None):
        self.machine = machine
        #: the distinct phases; position ``i`` prices ``phases[_idx[i]]``
        self.phases = stack.phases
        self._idx = (np.arange(stack.n, dtype=np.int64) if idx is None
                     else np.asarray(idx, dtype=np.int64))
        self._live = stack.live
        memo = stack.memo
        key = None if memo is None else state_key(machine)
        cols = None if key is None else memo.get(key)
        if cols is None:
            self._prep(stack)
            if key is None:
                return
            cols = memo.put(key, {name: getattr(self, name)
                                  for name in self._COLUMNS})
        self.__dict__.update(cols)

    def _prep(self, stack: PhaseStack) -> None:
        self._det = self.machine.phase_cost_batch(stack)

    def _cost(self, i: int) -> float:
        """Noise-jittered cost of non-empty phase ``i``."""
        m = self.machine
        return float(self._det[self._idx[i]]) * m.jitter(m.noise)

    def sequence_costs(self) -> np.ndarray:
        """Every phase's jittered cost, from one noise draw.

        Entry ``i`` is what ``comm_time(i, ...)`` would add to the
        clocks' running maximum (``0.0`` for an empty phase, which draws
        no noise).  One ``rng.normal(0, noise, size=live)`` call consumes
        the RNG stream exactly as the per-phase ``jitter`` calls would,
        so the caller advances the clocks itself instead of calling
        :meth:`comm_time`.
        """
        m = self.machine
        live = self._live[self._idx]
        costs = np.zeros(self._idx.size)
        z = m.rng.normal(0.0, m.noise, size=int(live.sum()))
        costs[live] = self._det[self._idx[live]] * (1.0 + z)
        return costs

    def comm_time(self, i: int, clocks: np.ndarray, *,
                  barrier: bool = True) -> np.ndarray:
        phase = self.phases[self._idx[i]]
        if clocks.shape != (phase.P,):
            raise SimulationError("clock array does not match phase P")
        total = float(clocks.max())
        if not phase.is_empty:
            total += self._cost(i)
        return self.machine._advance(phase, clocks, total, barrier)


class Machine:
    """Base class for simulated parallel machines."""

    #: short identifier, e.g. ``"maspar"``.
    name: str = "abstract"
    #: lockstep SIMD machine (single instruction stream, no drift).
    simd: bool = False
    #: relative noise of one local-computation timing; 0 = deterministic
    #: compute (lockstep SIMD).  MIMD machines set this in ``__init__``.
    compute_noise: float = 0.0
    #: named phenomena this machine simulates beyond the flat cost
    #: models — each can be switched off at construction (``disable=``)
    #: by the ablation harness (:mod:`repro.ablation`).
    PHENOMENA: "tuple[str, ...]" = ()

    def __init__(self, nominal: ModelParams, *, seed: int = 0,
                 disable: "tuple[str, ...] | frozenset[str]" = ()):
        self.nominal = nominal
        self.P = nominal.P
        self.rng = np.random.default_rng(seed)
        self.disabled = frozenset(disable)
        unknown = self.disabled - set(self.PHENOMENA)
        if unknown:
            known = ", ".join(self.PHENOMENA) or "(none)"
            raise SimulationError(
                f"{self.name} has no phenomena {sorted(unknown)}; "
                f"known: {known}")

    def models_phenomenon(self, name: str) -> bool:
        """True while ``name`` (a :data:`PHENOMENA` entry) is switched on."""
        return name not in self.disabled

    # ------------------------------------------------------------------
    # Local computation
    # ------------------------------------------------------------------
    def compute_time_batch(self, kind: type, params: dict,
                           ranks) -> np.ndarray:
        """Deterministic prices of a batch of same-kind work items, in us.

        ``params`` maps the kind's field names to equal-length arrays (one
        entry per item); ``ranks`` is the owning processor of each item.
        The default prices work with the nominal model coefficients;
        machines override this to model cache effects etc.  Measurement
        noise is *not* applied here: the engines draw one jitter factor
        per item, as one vector in flat item order.
        """
        return nominal_time_batch(kind, params, self.nominal)

    def compute_time(self, work: Work, rank: int) -> float:
        """Time one processor needs for ``work``, in microseconds: the
        one-item :meth:`compute_time_batch` price times one
        ``jitter(compute_noise)`` draw."""
        b = WorkBatch.of_items([work], [rank])
        t = float(self.compute_time_batch(b.kind, b.params, b.ranks)[0])
        if self.compute_noise:
            t *= self.jitter(self.compute_noise)
        return t

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def barrier_time(self) -> float:
        """Cost of one barrier synchronisation."""
        return 0.0

    def comm_time(self, phase: CommPhase, clocks: np.ndarray, *,
                  barrier: bool = True) -> np.ndarray:
        """Advance ``clocks`` across one communication phase.

        The one-phase case of :meth:`comm_time_batch`: the machine's
        pricer for a one-phase stack, advanced once.  Code that times
        one phase at a time uses it; a whole run builds one pricer
        instead.
        """
        return self.comm_time_batch(PhaseStack([phase])).comm_time(
            0, clocks, barrier=barrier)

    def _advance(self, phase: CommPhase, clocks: np.ndarray, total: float,
                 barrier: bool) -> np.ndarray:
        """Bulk-synchronous clock advance of the base :class:`CommPricer`.

        ``total`` is start time plus the (already jittered) phase cost.
        Everybody waits for the slowest processor, the phase is routed,
        and a barrier (if requested) realigns the clocks; without one,
        only the phase's participants advance to the common finish time.
        """
        if barrier and not self.simd:
            total += self.barrier_time()
        if barrier or self.simd or phase.is_empty:
            return np.full(phase.P, total)
        new = clocks.copy()
        mask = (phase.sends_per_proc > 0) | (phase.recvs_per_proc > 0)
        new[mask] = total
        return new

    def comm_time_batch(self, stack: PhaseStack, idx=None) -> CommPricer:
        """A pricer for a whole run's communication phases.

        ``stack`` holds the run's distinct phases
        (:class:`~repro.core.relations.PhaseStack`; ``len(stack)`` is
        their count) and ``idx`` the run's phase sequence as positions
        in it — a replay passes its program's table and ``phase_idx``.
        Without ``idx`` the sequence is the stack's phases in order, as
        the calibration sweeps build them.  The pricer holds the
        machine's one implementation of its communication law (see
        :class:`CommPricer`).  The default is the base bulk-synchronous
        pricer over :meth:`phase_cost_batch`.
        """
        return CommPricer(self, stack, idx)

    def phase_cost_batch(self, stack: PhaseStack) -> np.ndarray:
        """Deterministic cost of every phase of ``stack``, in us.

        Entry ``i`` is the global routing time of ``stack.phases[i]``
        (slowest processor, no barrier) before the phase's one
        ``jitter(self.noise)`` factor, which the base
        :class:`CommPricer` multiplies in; entries of empty phases are
        never read.  Machines priced by the base pricer implement it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no columnar phase_cost_batch")

    # ------------------------------------------------------------------
    def jitter(self, scale: float = 0.01) -> float:
        """A multiplicative measurement-noise factor around 1."""
        return float(1.0 + self.rng.normal(0.0, scale))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(P={self.P}, seed=...)"
