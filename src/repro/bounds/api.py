"""Validated entry point shared by ``repro bounds`` and ``POST /bounds``.

:func:`bounds` is the one function both front-ends call: resolve the
cell selection, measure every cell on the job runner (IR-store warm
path, cache-aware, optionally parallel) and assemble the ranked headroom
report.  The served path runs it with ``jobs=1`` inside a batch worker;
the CLI may fan cells out over the persistent pool.  Both produce
byte-identical reports — the acceptance oracle of the service tests.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass

from ..core.errors import BoundsError
from ..runner.cache import ResultCache
from ..runner.fingerprint import source_fingerprint
from ..runner.pool import Job, run_jobs
from .analytic import cell_bound
from .cells import BOUND_CELLS, SCOREBOARD_BOUND_CELLS, resolve_bound_cells
from .measure import measure_cell
from .report import build_report

__all__ = ["DEFAULT_THRESHOLD", "BoundsRequest", "bound_run_id", "bounds",
           "scoreboard_optimality"]

#: Default attained/optimal ratio above which a cell is flagged
#: HEADROOM.  Chosen between the matmul family (constant-factor, <= ~6x
#: at every matrix size) and the sorting cells (40x+): flags genuine
#: algorithmic headroom, not the unavoidable constant of a dense port.
DEFAULT_THRESHOLD = 8.0


@dataclass(frozen=True)
class BoundsRequest:
    """One fully validated optimality-bounds request.

    ``cells`` of ``None`` selects the full default matrix.  The
    execution knobs (``jobs`` and the cache fields) never influence the
    report's bytes — they are excluded from :attr:`key`, the service's
    LRU identity.  ``threshold`` *is* part of the identity: it changes
    the headroom flags in the report.
    """

    cells: tuple[str, ...] | None = None
    scale: float = 0.3
    seed: int = 0
    threshold: float = DEFAULT_THRESHOLD
    # execution knobs (not part of the request identity)
    jobs: int = 1
    cache_dir: str | None = None
    use_cache: bool = True
    force: bool = False

    @classmethod
    def from_json(cls, doc: dict) -> "BoundsRequest":
        """Validate a JSON body; raise :class:`BoundsError` with a
        client-presentable message on any problem."""
        if not isinstance(doc, dict):
            raise BoundsError("request body must be a JSON object")
        cells = doc.get("cells")
        if cells is not None:
            if not isinstance(cells, list) or not cells \
                    or not all(isinstance(n, str) for n in cells):
                raise BoundsError("cells must be a non-empty list of names")
            cells = tuple(cells)
        # resolve eagerly so unknown names fail at validation time
        resolve_bound_cells(cells)
        scale = doc.get("scale", 0.3)
        if not isinstance(scale, (int, float)) or isinstance(scale, bool) \
                or not 0 < scale <= 1:
            raise BoundsError(f"scale must be in (0, 1], got {scale!r}")
        seed = doc.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) \
                or not 0 <= seed < 2 ** 31:
            raise BoundsError(f"seed must be a non-negative int, "
                              f"got {seed!r}")
        threshold = doc.get("threshold", DEFAULT_THRESHOLD)
        if not isinstance(threshold, (int, float)) \
                or isinstance(threshold, bool) \
                or not math.isfinite(threshold) or threshold <= 0:
            raise BoundsError(f"threshold must be a positive finite "
                              f"number, got {threshold!r}")
        return cls(cells=cells, scale=float(scale), seed=seed,
                   threshold=float(threshold))

    @property
    def key(self) -> tuple:
        """What determines the report bytes (execution knobs excluded)."""
        cells = ("*",) if self.cells is None \
            else tuple(sorted(set(self.cells)))
        return (cells, self.scale, self.seed, self.threshold)


def bound_run_id(cell: str, *, scale: float, seed: int,
                 fingerprint: str) -> str:
    """Stable content-addressed ID of one cell measurement."""
    doc = {
        "kind": "bounds-cell",
        "cell": cell,
        "scale": scale,
        "seed": seed,
        "code": fingerprint,
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def bounds(req: BoundsRequest) -> dict:
    """Run the optimality scoreboard described by ``req``.

    Every cell measurement is one :func:`~repro.runner.pool.run_jobs`
    job keyed by :func:`bound_run_id`.
    """
    cells = resolve_bound_cells(req.cells)
    if req.jobs < 1:
        raise BoundsError(f"jobs must be >= 1, got {req.jobs}")
    fingerprint = source_fingerprint()
    run_ids = [bound_run_id(cell.name, scale=req.scale, seed=req.seed,
                            fingerprint=fingerprint) for cell in cells]
    done = run_jobs(
        [Job(run_id, {"experiment": f"bounds:{cell.name}",
                      "scale": req.scale, "seed": req.seed,
                      "code": fingerprint},
             functools.partial(measure_cell, cell, scale=req.scale,
                               seed=req.seed))
         for cell, run_id in zip(cells, run_ids)],
        workers=req.jobs, seed=req.seed,
        cache=ResultCache(req.cache_dir) if req.use_cache else None,
        force=req.force)
    docs = {cell.name: done[run_id].doc
            for cell, run_id in zip(cells, run_ids)}
    return build_report(cells, docs, scale=req.scale, seed=req.seed,
                        threshold=req.threshold)


def scoreboard_optimality(*, scale: float, seed: int,
                          workloads=None) -> dict[str, dict]:
    """Attained-vs-optimal column for the validation scoreboard.

    Maps each scoreboard workload to its bound cell (same machine and
    size schedule) and measures it directly — no result cache, because
    the scoreboard's own cell runs have just warmed the in-memory IR
    store, so the measurement is a pure structure extraction.
    """
    out: dict[str, dict] = {}
    for workload, name in SCOREBOARD_BOUND_CELLS.items():
        if workloads is not None and workload not in workloads:
            continue
        cell = BOUND_CELLS[name]
        doc = measure_cell(cell, scale=scale, seed=seed)
        bound = cell_bound(cell, doc["n"], doc["volume"]["P"])
        measured = doc["volume"]["max_traffic_words"]
        out[workload] = {
            "cell": name,
            "family": bound["family"],
            "n": doc["n"],
            "bound_words": bound["bound_words"],
            "measured_words": measured,
            "ratio": measured / bound["bound_words"],
        }
    return out
