"""Measured communication volumes for bound cells.

The warm path reads recorded step programs straight out of the IR
store — phase byte vectors times superstep multiplicity, zero replay,
zero simulation (:func:`repro.simulator.ir.program_comm_volume`).  Only
when no recording exists does :func:`measure_cell` fall back to a live
run (which records the program as a side effect, so the next
measurement is warm).

The reported ``max_traffic_words`` is the largest per-processor
sent-plus-received volume.  The analytic bounds constrain words
*received* by the busiest processor, and traffic >= received on every
processor, so comparing the two keeps the soundness invariant
``measured >= bound``.
"""

from __future__ import annotations

import numpy as np

from ..experiments.common import machine_for
from ..simulator.ir import ir_key, ir_store, program_comm_volume
from ..simulator.lower import algorithm_fingerprint
from .cells import BoundCell, cell_key_params, cell_program, cell_run

__all__ = ["cell_ir_key", "measure_cell", "trace_comm_volume"]


def cell_ir_key(cell: BoundCell, machine, n: int, seed: int) -> str:
    """The IR-store key the cell's ``run()`` records under."""
    return ir_key(algorithm=cell.algorithm,
                  fingerprint=algorithm_fingerprint(cell_program(cell)),
                  P=machine.P, word_bytes=machine.nominal.w,
                  simd=machine.simd,
                  params=cell_key_params(cell, n, seed))


def _volume_doc(P: int, word_bytes: int, sent_bytes: np.ndarray,
                recv_bytes: np.ndarray, messages: int,
                supersteps: int) -> dict:
    w = float(word_bytes)
    traffic = (np.asarray(sent_bytes, dtype=np.float64)
               + np.asarray(recv_bytes, dtype=np.float64))
    return {
        "P": int(P),
        "word_bytes": int(word_bytes),
        "max_sent_words": float(np.max(sent_bytes, initial=0.0) / w),
        "max_recv_words": float(np.max(recv_bytes, initial=0.0) / w),
        "max_traffic_words": float(traffic.max(initial=0.0) / w),
        "total_words": float(np.sum(sent_bytes) / w),
        "messages": int(messages),
        "supersteps": int(supersteps),
    }


def trace_comm_volume(trace, word_bytes: int) -> dict:
    """Volume doc from a live superstep trace (the fallback path)."""
    sent = np.zeros(trace.P, dtype=np.float64)
    recv = np.zeros(trace.P, dtype=np.float64)
    messages = 0
    for step in trace:
        sent += step.phase.bytes_sent_per_proc
        recv += step.phase.bytes_recv_per_proc
        messages += step.phase.total_messages
    return _volume_doc(trace.P, word_bytes, sent, recv, messages, len(trace))


def _live_volume(cell: BoundCell, machine, n: int, seed: int) -> dict:
    """Run the cell and extract the volume from its trace.

    Module-level on purpose: the warm-path tests monkeypatch this as a
    run-counter spy to prove a warm matrix never re-simulates.
    """
    res = cell_run(cell, machine, n, seed)
    return trace_comm_volume(res.trace, machine.nominal.w)


def measure_cell(cell: BoundCell, *, scale: float, seed: int) -> dict:
    """Measured volume doc for one cell: ``{"cell", "n", "volume"}``.

    IR-store hit -> structure-only extraction; miss -> live run.  Both
    paths report identical numbers (the recorded phases *are* the trace
    phases), so the doc carries no provenance marker — cached, warm and
    live reports stay byte-identical.
    """
    n = cell.size(scale)
    machine = machine_for(cell.machine, seed=seed)
    prog = ir_store().get(cell_ir_key(cell, machine, n, seed))
    if prog is not None:
        vol = program_comm_volume(prog)
        doc = _volume_doc(prog.P, prog.word_bytes,
                          vol["bytes_sent_per_proc"],
                          vol["bytes_recv_per_proc"],
                          vol["messages"], vol["supersteps"])
    else:
        doc = _live_volume(cell, machine, n, seed)
    return {"cell": cell.name, "n": n, "volume": doc}
