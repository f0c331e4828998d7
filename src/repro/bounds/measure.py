"""Measured communication volumes for bound cells.

Volumes are read from recorded step programs only — phase byte vectors
times superstep multiplicity, zero replay
(:func:`repro.simulator.ir.program_comm_volume`).  On an IR-store miss
:func:`measure_cell` runs the cell once, which records its program as a
side effect, and reads that program back, so the next measurement is
warm and every report reads the same numbers off the same path.

The reported ``max_traffic_words`` is the largest per-processor
sent-plus-received volume.  The analytic bounds constrain words
*received* by the busiest processor, and traffic >= received on every
processor, so comparing the two keeps the soundness invariant
``measured >= bound``.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import BoundsError
from ..experiments.common import machine_for
from ..simulator.ir import ir_key, ir_store, program_comm_volume
from ..simulator.lower import algorithm_fingerprint
from .cells import BoundCell, cell_key_params, cell_program, cell_run

__all__ = ["cell_ir_key", "measure_cell"]


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


def measure_cell(cell: BoundCell, *, scale: float, seed: int) -> dict:
    """Measured volume doc for one cell: ``{"cell", "n", "volume"}``.

    The volume comes from the cell's recorded program; on a store miss
    the cell is run first, which records it.  A run that leaves no
    program under the cell's key (``cells.py``'s key no longer matches
    what ``run()`` records under) raises :class:`BoundsError`.
    """
    n = cell.size(scale)
    machine = machine_for(cell.machine, seed=seed)
    key = cell_ir_key(cell, machine, n, seed)
    prog = ir_store().get(key)
    if prog is None:
        cell_run(cell, machine, n, seed)
        prog = ir_store().get(key)
        if prog is None:
            raise BoundsError(
                f"bound cell {cell.name}: its run recorded no step program "
                "under the cell's IR key; the cell's key parameters no "
                "longer match its algorithm's run()")
    vol = program_comm_volume(prog)
    doc = _volume_doc(prog.P, prog.word_bytes, vol["bytes_sent_per_proc"],
                      vol["bytes_recv_per_proc"], vol["messages"],
                      vol["supersteps"])
    return {"cell": cell.name, "n": n, "volume": doc}
