"""The default bound-cell matrix and its algorithm glue.

A :class:`BoundCell` names one (algorithm, variant, machine) point of
the comparison matrix together with its problem-size schedule and
bound family.  The glue functions below call each algorithm module's own
``key_params`` — the dictionary its ``run()`` passes to
:func:`repro.simulator.lower.run_lowered` — so the warm measurement
path can look step programs up in the IR store without running
anything.  The match is checked on every cold measurement: if a
``run()`` signature drifts, the program the run records is not under
the cell's key, and :func:`~repro.bounds.measure.measure_cell` raises
:class:`~repro.core.errors.BoundsError` naming the cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algorithms import apsp, bitonic, lu, matmul, radix, samplesort
from ..core.errors import BoundsError

__all__ = [
    "BoundCell",
    "BOUND_CELLS",
    "DEFAULT_CELLS",
    "SCOREBOARD_BOUND_CELLS",
    "resolve_bound_cells",
    "cell_key_params",
    "cell_program",
    "cell_run",
]


@dataclass(frozen=True)
class BoundCell:
    """One cell of the optimality matrix."""

    name: str           #: "<algorithm[-variant]>/<machine>"
    algorithm: str      #: registry name ("matmul", "lu", ...)
    variant: str | None  #: algorithm variant, None where run() has none
    machine: str        #: machine name for experiments.machine_for
    family: str         #: bound family (see analytic.FAMILIES)
    base: int           #: nominal size at scale 1.0
    multiple: int       #: sizes are rounded down to this multiple
    minimum: int        #: floor so every scale still runs

    def size(self, scale: float) -> int:
        """Problem size (n for dense algorithms, M keys/proc for sorts)."""
        return max(self.minimum, int(self.base * scale)
                   // self.multiple * self.multiple)


#: The default matrix, in render order.  Sizes mirror the validation
#: scoreboard where the same workload appears there.
_CELLS = (
    BoundCell("matmul/cm5", "matmul", "bsp-staggered", "cm5",
              "matmul-family", base=256, multiple=16, minimum=64),
    BoundCell("matmul-blk/cm5", "matmul", "bpram", "cm5",
              "matmul-family", base=256, multiple=16, minimum=64),
    BoundCell("lu/gcel", "lu", None, "gcel",
              "matmul-family", base=128, multiple=32, minimum=32),
    BoundCell("apsp/gcel", "apsp", None, "gcel",
              "matmul-family", base=128, multiple=32, minimum=32),
    BoundCell("bitonic/maspar", "bitonic", "bsp", "maspar",
              "counting", base=32, multiple=8, minimum=8),
    BoundCell("bitonic-blk/gcel", "bitonic", "bpram", "gcel",
              "counting", base=1024, multiple=256, minimum=256),
    BoundCell("samplesort/gcel", "samplesort", "bpram", "gcel",
              "counting", base=256, multiple=64, minimum=64),
    BoundCell("radix/gcel", "radix", "bpram", "gcel",
              "counting", base=256, multiple=64, minimum=64),
    BoundCell("radix/modern", "radix", "bpram", "modern",
              "counting", base=1024, multiple=256, minimum=256),
)

BOUND_CELLS: dict[str, BoundCell] = {c.name: c for c in _CELLS}

#: Default cell names, in render order.
DEFAULT_CELLS: tuple[str, ...] = tuple(c.name for c in _CELLS)

#: Validation-scoreboard workload -> bound cell carrying its
#: attained-vs-optimal column (scoreboard sizes match these cells).
SCOREBOARD_BOUND_CELLS: dict[str, str] = {
    "matmul": "matmul/cm5",
    "matmul-blk": "matmul-blk/cm5",
    "bitonic": "bitonic/maspar",
    "bitonic-blk": "bitonic-blk/gcel",
    "apsp": "apsp/gcel",
    "radix": "radix/modern",
}


def resolve_bound_cells(names=None) -> tuple[BoundCell, ...]:
    """Map cell names to :class:`BoundCell` rows, in matrix order.

    ``None`` (or an empty selection) means the full default matrix.
    Unknown names raise :class:`BoundsError` listing the valid ones.
    """
    if not names:
        return _CELLS
    unknown = sorted(set(names) - set(BOUND_CELLS))
    if unknown:
        raise BoundsError(
            f"unknown bound cell(s) {unknown}; "
            f"valid cells: {sorted(BOUND_CELLS)}")
    wanted = set(names)
    return tuple(c for c in _CELLS if c.name in wanted)


#: algorithm name -> (module, the vector program its run() records).
_ALGORITHMS = {
    "matmul": (matmul, matmul.matmul_vector_program),
    "lu": (lu, lu.lu_vector_program),
    "apsp": (apsp, apsp.apsp_vector_program),
    "bitonic": (bitonic, bitonic.bitonic_vector_program),
    "samplesort": (samplesort, samplesort.sample_sort_vector_program),
    "radix": (radix, radix.radix_sort_vector_program),
}


def _algorithm(cell: BoundCell):
    try:
        return _ALGORITHMS[cell.algorithm]
    except KeyError:
        raise BoundsError(f"unknown algorithm {cell.algorithm!r}") from None


def _variant(cell: BoundCell) -> dict:
    return {} if cell.variant is None else {"variant": cell.variant}


def cell_key_params(cell: BoundCell, n: int, seed: int) -> dict:
    """The exact ``key_params`` the algorithm's run() records under."""
    module, _ = _algorithm(cell)
    return module.key_params(n, seed=seed, **_variant(cell))


def cell_program(cell: BoundCell):
    """The vector program whose source fingerprint keys the IR store."""
    return _algorithm(cell)[1]


def cell_run(cell: BoundCell, machine, n: int, seed: int):
    """Run the cell's algorithm live (recording its IR on a miss)."""
    module, _ = _algorithm(cell)
    return module.run(machine, n, seed=seed, **_variant(cell))
