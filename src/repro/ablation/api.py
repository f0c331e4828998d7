"""Validated entry point shared by ``repro ablate`` and ``POST /ablate``.

:func:`ablate` is the one function both front-ends call: resolve the
component/cell selection, generate the pruned run matrix, evaluate it
on the job runner (cache-aware, optionally parallel, optionally under a
fault plan) and assemble the importance report.  The served path runs
it with ``jobs=1`` inside a batch worker; the CLI may fan the matrix out
over the persistent pool.  Both produce byte-identical reports — the
acceptance oracle of the service tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..core.errors import AblationError
from ..faults import Clock, FaultPlan, RetryPolicy
from ..runner.cache import ResultCache
from ..runner.fingerprint import source_fingerprint
from ..runner.pool import Job, run_jobs
from ..validation.scoreboard import run_cell
from .components import resolve_cells, resolve_components
from .report import build_report
from .runs import run_matrix

__all__ = ["AblateRequest", "ablate"]


@dataclass(frozen=True)
class AblateRequest:
    """One fully validated ablation request.

    ``components``/``cells`` of ``None`` select everything.  The
    execution knobs (``jobs`` and the cache fields) never influence the
    report's bytes — they are excluded from :attr:`key`, the service's
    LRU identity.
    """

    components: tuple[str, ...] | None = None
    cells: tuple[str, ...] | None = None
    scale: float = 0.3
    seed: int = 0
    # execution knobs (not part of the request identity)
    jobs: int = 1
    cache_dir: str | None = None
    use_cache: bool = True
    force: bool = False

    @classmethod
    def from_json(cls, doc: dict) -> "AblateRequest":
        """Validate a JSON body; raise :class:`AblationError` with a
        client-presentable message on any problem."""
        if not isinstance(doc, dict):
            raise AblationError("request body must be a JSON object")

        def names(field: str):
            raw = doc.get(field)
            if raw is None:
                return None
            if not isinstance(raw, list) or not raw \
                    or not all(isinstance(n, str) for n in raw):
                raise AblationError(
                    f"{field} must be a non-empty list of names")
            return tuple(raw)

        components = names("components")
        cells = names("cells")
        # resolve eagerly so unknown names fail at validation time
        resolve_components(components)
        resolve_cells(cells)
        scale = doc.get("scale", 0.3)
        if not isinstance(scale, (int, float)) or isinstance(scale, bool) \
                or not 0 < scale <= 1:
            raise AblationError(f"scale must be in (0, 1], got {scale!r}")
        seed = doc.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) \
                or not 0 <= seed < 2 ** 31:
            raise AblationError(f"seed must be a non-negative int, "
                                f"got {seed!r}")
        return cls(components=components, cells=cells, scale=float(scale),
                   seed=seed)

    @property
    def key(self) -> tuple:
        """What determines the report bytes (execution knobs excluded)."""
        comps = ("*",) if self.components is None \
            else tuple(sorted(set(self.components)))
        cells = ("*",) if self.cells is None \
            else tuple(sorted(set(self.cells)))
        return (comps, cells, self.scale, self.seed)


def _cell_doc(cell: str, disable: tuple[str, ...], scale: float,
              seed: int) -> dict:
    """Run one ablated scoreboard cell; JSON-safe document."""
    cells = run_cell(cell, scale=scale, seed=seed, disable=disable)
    return {"cell": cell, "disable": list(disable),
            "models": [c.to_dict() for c in cells]}


def ablate(req: AblateRequest, *, faults: FaultPlan | str | None = None,
           retry: RetryPolicy | None = None,
           exec_timeout_s: float | None = None,
           clock: Clock | None = None) -> dict:
    """Run the ablation described by ``req``; returns the report dict.

    Every cell run is one :func:`~repro.runner.pool.run_jobs` job keyed
    by its run ID; ``faults``/``retry``/``exec_timeout_s``/``clock`` are
    the runner's.
    """
    components = resolve_components(req.components)
    cells = resolve_cells(req.cells)
    if not cells:
        raise AblationError("no scoreboard cells selected")
    fingerprint = source_fingerprint()
    runs = run_matrix(components, cells, scale=req.scale, seed=req.seed,
                      fingerprint=fingerprint)
    done = run_jobs(
        [Job(run.run_id, {"experiment": f"ablate:{run.cell}",
                          "disable": list(run.disable), "scale": req.scale,
                          "seed": req.seed, "code": fingerprint},
             functools.partial(_cell_doc, run.cell, run.disable, req.scale,
                               req.seed))
         for run in runs],
        workers=req.jobs, seed=req.seed,
        cache=ResultCache(req.cache_dir) if req.use_cache else None,
        force=req.force, faults=faults, retry=retry,
        exec_timeout_s=exec_timeout_s, clock=clock)
    docs = {run_id: out.doc for run_id, out in done.items()}
    return build_report(runs, docs, components=components, cells=cells,
                        scale=req.scale, seed=req.seed)
