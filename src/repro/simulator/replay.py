"""Price a recorded :class:`~repro.simulator.ir.StepProgram` on a machine.

Replay is the one pricing engine.  Every run records its supersteps
into a step program first — a vector program through
:func:`~repro.simulator.lower.run_lowered` or
:func:`~repro.simulator.vector.run_spmd_vector`, a per-rank program
through :func:`~repro.simulator.engine.run_spmd` — and is priced here,
so the machine charges one trace whichever way it was written.  No
generator resumes, no ``put_group``/``charge_batch`` bookkeeping
re-runs.  The machine-independent prep (each batchlist's work record,
with its rank-major item order) is cached on the program; per replay
only the machine-dependent pieces are computed — one deterministic
pricing pass per *distinct* batchlist, and one comm pricer built over
the program's own phase table and its ``phase_idx`` column — and the
per-superstep loop reduces to RNG-ordered noise application plus clock
advancement.

Two paths, bit-identical to each other:

* **fused** — for lockstep SIMD machines with deterministic compute and
  base bulk-synchronous ``comm_time`` semantics (the MasPar), clocks are
  provably uniform after every superstep, so the whole run collapses to
  a scalar scan ``T = (T + wmax_i) + cost_i`` over Python floats.  The
  per-phase costs come from one vectorised draw of the pricer's
  ``sequence_costs``; the work maxima are exact because ``fl`` is
  monotone (``max_r fl(T + w_r) = fl(T + max_r w_r)`` for ``w_r >= 0``).
  Zero per-superstep numpy calls, zero array traffic.
* **generic** — everything else (MIMD noise, drift machines): a
  per-step loop that charges each superstep's work through
  :func:`~repro.simulator.batch.charge_batches` (its work noise) and
  then advances the clocks through the pricer (its phase noise), so
  the machine RNG is consumed in that order, superstep by superstep.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import SimulationError
from ..core.trace import Superstep, Trace
from ..core.work import NO_WORK
from .batch import charge_batches, price_batches
from .ir import StepProgram
from .result import RunResult

__all__ = ["replay"]


def _fused_ok(machine, pricer) -> bool:
    # The scalar scan assumes: clocks uniform after every superstep
    # (lockstep SIMD through ``Machine._advance``: everyone lands on
    # ``total``, barriers free), each cost added to ``max(clocks)`` (a
    # pricer with ``sequence_costs``), and deterministic work prices
    # (no compute noise).
    return (machine.simd and not machine.compute_noise
            and getattr(pricer, "sequence_costs", None) is not None)


def replay(machine, prog: StepProgram, *, label: str = "") -> RunResult:
    """Re-price ``prog`` on ``machine``; bit-identical to re-running it."""
    P = prog.P
    if not 0 < P <= machine.P:
        raise SimulationError(
            f"program recorded for P={P} exceeds machine P={machine.P}")
    if prog.word_bytes != machine.nominal.w or prog.simd != machine.simd:
        raise SimulationError(
            "step program was recorded for a different machine shape "
            f"(word_bytes={prog.word_bytes}, simd={prog.simd}); record one "
            "per machine shape")

    pricer = machine.comm_time_batch(prog.stack(), prog.phase_idx)
    phases = [prog.phases[j] for j in prog.phase_idx]

    works = [prog.work(j) for j in range(len(prog.batchlists))]
    # deterministic prices per distinct batchlist, rank-major order
    bases = [price_batches(machine, work) for work in works]

    if _fused_ok(machine, pricer):
        return _replay_fused(prog, phases, pricer.sequence_costs(), works,
                             bases, label)
    return _replay_generic(machine, prog, phases, pricer, works, bases,
                           label)


def _replay_fused(prog: StepProgram, phases, costs: np.ndarray, works,
                  bases, label: str) -> RunResult:
    P = prog.P
    wmax = [float(work.per_rank(base, P).max())
            for work, base in zip(works, bases)]
    trace = Trace(P=P, label=label)
    append = trace.append
    batch_idx = prog.batch_idx
    labels = prog.labels
    cost_list = costs.tolist()
    T = 0.0
    for i in range(prog.n_steps):
        j = batch_idx[i]
        if j >= 0:
            t1 = T + wmax[j]
            work = works[j]
        else:
            t1 = T
            work = NO_WORK
        t2 = t1 + cost_list[i]
        append(Superstep(phase=phases[i], work=work, label=labels[i],
                         measured_us=t2 - T))
        T = t2
    return RunResult(time_us=T, clocks=np.full(P, T), trace=trace)


def _replay_generic(machine, prog: StepProgram, phases, pricer, works,
                    bases, label: str) -> RunResult:
    P = prog.P
    clocks = np.zeros(P)
    trace = Trace(P=P, label=label)
    append = trace.append
    batch_idx = prog.batch_idx
    barriers = prog.barriers
    labels = prog.labels
    for i in range(prog.n_steps):
        start_max = float(clocks.max())
        j = batch_idx[i]
        if j >= 0:
            work = works[j]
            charge_batches(machine, work, bases[j], clocks)
        else:
            work = NO_WORK
        clocks = pricer.comm_time(i, clocks, barrier=barriers[i])
        if clocks.shape != (P,):
            raise SimulationError(
                f"machine {machine.name} returned clocks of shape "
                f"{clocks.shape}, expected ({P},)")
        append(Superstep(phase=phases[i], work=work, label=labels[i],
                         measured_us=float(clocks.max()) - start_max))
    return RunResult(time_us=float(clocks.max()), clocks=clocks, trace=trace)
