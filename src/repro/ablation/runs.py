"""Run-matrix generation with content-addressed run IDs.

One *cell run* re-executes a single scoreboard cell with a set of
phenomena disabled.  Its ID is the SHA-256 of a canonical JSON document
naming everything the result depends on — cell, disabled-phenomenon
set, scale, seed and the source fingerprint — so the result cache
(:class:`repro.runner.cache.ResultCache`) makes re-runs incremental and
a code change invalidates every entry at once.

The disabled set is canonicalised (sorted, de-duplicated) before
hashing, so run IDs are invariant under the order in which components
were named on the command line — a property the hypothesis suite pins.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from ..bounds.cells import SCOREBOARD_CELLS
from .components import Component

__all__ = ["CellRun", "canonical_disabled", "cell_run_id", "run_matrix"]

#: configuration name of the nothing-disabled runs.
BASELINE = "baseline"


def canonical_disabled(disable) -> tuple[str, ...]:
    """Sorted, de-duplicated form of a disabled-phenomenon set."""
    return tuple(sorted(set(disable)))


def cell_run_id(cell: str, disable, *, scale: float, seed: int,
                fingerprint: str) -> str:
    """Stable content-addressed ID of one ablated cell run."""
    doc = {
        "kind": "ablate-cell",
        "cell": cell,
        "disable": list(canonical_disabled(disable)),
        "scale": scale,
        "seed": seed,
        "code": fingerprint,
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class CellRun:
    """One entry of the run matrix."""

    #: configuration this run belongs to (``baseline`` or a component name).
    config: str
    cell: str
    #: phenomena switched off (canonical order).
    disable: tuple[str, ...]
    run_id: str


def run_matrix(components: list[Component], cells: list[str], *,
               scale: float, seed: int, fingerprint: str) -> list[CellRun]:
    """The cell runs an ablation over ``components`` x ``cells`` needs.

    The matrix is pruned by construction: every scoreboard cell builds
    its own machine, so disabling a phenomenon of machine M can only
    change cells that run on M — ablated runs are generated for those
    cells alone, and the evaluator reuses the baseline result for the
    rest.  (The non-touch property is asserted bit-for-bit by the
    hypothesis suite, not just assumed.)
    """
    runs = [CellRun(config=BASELINE, cell=cell, disable=(),
                    run_id=cell_run_id(cell, (), scale=scale, seed=seed,
                                       fingerprint=fingerprint))
            for cell in cells]
    for comp in components:
        disable = canonical_disabled([comp.name])
        for cell in cells:
            if SCOREBOARD_CELLS[cell].machine != comp.machine:
                continue
            runs.append(CellRun(
                config=comp.name, cell=cell, disable=disable,
                run_id=cell_run_id(cell, disable, scale=scale, seed=seed,
                                   fingerprint=fingerprint)))
    return runs
