"""Content-addressed on-disk cache of job documents.

A JSON codec over the ``results`` namespace of the one blob store
(:mod:`repro.blobstore`, under ``$REPRO_CACHE_DIR``, ``~/.cache/repro``
or a command's ``--cache-dir``), which owns the checksum envelope, the
atomic write, quarantine and the disk-failure policy.  An entry's
payload is the compact JSON of a metadata header (experiment id, scale,
seed, code fingerprint) next to the job's document — a serialised
:class:`~repro.validation.series.ExperimentResult`, an ablation cell or a
bounds cell (see :func:`repro.runner.pool.run_jobs`).  JSON round-trips
``float64`` exactly (``repr`` is the shortest round-tripping decimal), so
cached series are bit-identical to freshly computed ones — which the
golden tests assert.  Result writes opt into the ``cache-*`` fault
points, through which the chaos suite drives quarantine and healing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..blobstore import BlobStore, default_cache_root

__all__ = ["CacheStats", "ResultCache", "default_cache_root"]

#: result payload format, named in every entry's envelope.
_VERSION = 3


@dataclass
class CacheStats:
    """Hit/miss/store counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: entries moved aside after failing verification.
    quarantined: int = 0
    #: per-experiment outcome, id -> "hit" | "miss"
    outcomes: dict[str, str] = field(default_factory=dict)

    def record(self, exp_id: str, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        self.outcomes[exp_id] = "hit" if hit else "miss"

    def summary(self) -> str:
        base = f"{self.hits} hit(s), {self.misses} miss(es)"
        if self.quarantined:
            base += f", {self.quarantined} quarantined"
        return base


class ResultCache:
    """Read/write access to the content-addressed result store."""

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_cache_root()
        self.store = BlobStore(self.root, "results", _VERSION)
        self.stats = CacheStats()

    def get_doc(self, key: str, label: str = "?") -> dict | None:
        """The JSON document cached under ``key``, or None.

        A damaged entry is quarantined and reported as a miss, so
        callers transparently recompute.  ``label`` names the entry in
        :attr:`stats`.
        """
        doc = self.store.get(key, lambda raw: json.loads(raw)["result"])
        self.stats.quarantined = self.store.quarantined
        self.stats.record(label, hit=doc is not None)
        return doc

    def put_doc(self, key: str, result_doc: dict, *,
                meta: dict | None = None) -> Path | None:
        """Store a JSON document under ``key``; returns the path, or
        None when the disk refused the write."""
        payload = json.dumps({"meta": meta or {}, "result": result_doc},
                             separators=(",", ":")).encode()
        path = self.store.put(key, payload, faults=True)
        if path is not None:
            self.stats.stores += 1
        return path

    def entries(self) -> list[dict]:
        """Metadata headers of every cache entry (sorted by experiment id)."""
        out = [{"key": key, "bytes": size, **meta}
               for key, size, meta in self.store.items(
                   lambda raw: json.loads(raw)["meta"])]
        return sorted(out, key=lambda e: (e.get("experiment", ""), e["key"]))
