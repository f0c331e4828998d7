"""Optimality scoreboard: communication lower bounds vs. measured volume.

The validation scoreboard asks whether the cost models *predict* the
implementations; this package asks whether the implementations are
*near-optimal at all*.  For every cell of the comparison matrix it
computes the analytic per-processor bandwidth lower bound (the
Loomis-Whitney matmul-family bound for matmul/LU/Floyd-APSP, the
counting bound for the sorts — after Scquizzato & Silvestri, see
PAPERS.md), extracts the measured communication volume from recorded
step programs (no re-simulation on a warm IR store), and ranks the
attained-vs-optimal ratios, flagging cells with HEADROOM — candidates
for the next algorithmic improvement.

Front-ends: ``repro bounds`` and the service's ``POST /bounds``.  See
``docs/BOUNDS.md`` for the bound derivations and the extraction scheme.
"""

from .analytic import FAMILIES, cell_bound, counting_bound, \
    matmul_family_bound
from .api import BoundsRequest, DEFAULT_THRESHOLD, bound_run_id, bounds, \
    scoreboard_optimality
from .cells import BOUND_CELLS, BoundCell, DEFAULT_CELLS, \
    SCOREBOARD_BOUND_CELLS, resolve_bound_cells
from .measure import cell_ir_key, measure_cell
from .report import SCHEMA, build_report, render_report

__all__ = [
    "BOUND_CELLS",
    "BoundCell",
    "BoundsRequest",
    "DEFAULT_CELLS",
    "DEFAULT_THRESHOLD",
    "FAMILIES",
    "SCHEMA",
    "SCOREBOARD_BOUND_CELLS",
    "bound_run_id",
    "bounds",
    "build_report",
    "cell_bound",
    "cell_ir_key",
    "counting_bound",
    "matmul_family_bound",
    "measure_cell",
    "render_report",
    "resolve_bound_cells",
    "scoreboard_optimality",
]
