"""Model-component ablation harness (paper §4-5, quantified).

The paper's verdict — "the models mispredict because of endpoint
contention, the cube discount, sync loss, cache effects..." — is prose.
This package produces the quantitative version: every machine
phenomenon the simulator models can be switched off
(``Machine.PHENOMENA`` + the ``disable=`` constructor switch), the
validation scoreboard is re-run per configuration over a pruned,
content-addressed run matrix, and the per-component *importance* (how
much modelling the phenomenon improves prediction accuracy) is ranked,
with components whose removal improves accuracy flagged harmful.

Front-ends: ``repro ablate`` and the service's ``POST /ablate``.  See
``docs/ABLATION.md`` for the component catalog and the run-ID scheme.
"""

from .api import AblateRequest, ablate
from .components import COMPONENTS, Component, resolve_cells, \
    resolve_components
from .report import SCHEMA, build_report, render_report
from .runs import CellRun, canonical_disabled, cell_run_id, run_matrix

__all__ = [
    "AblateRequest",
    "COMPONENTS",
    "CellRun",
    "Component",
    "SCHEMA",
    "ablate",
    "build_report",
    "canonical_disabled",
    "cell_run_id",
    "render_report",
    "resolve_cells",
    "resolve_components",
    "run_matrix",
]
