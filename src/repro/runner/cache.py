"""Content-addressed on-disk cache of job documents.

Layout: one JSON file per entry under ``<root>/results/<key[:2]>/<key>.json``
holding a metadata header (experiment id, scale, seed, code fingerprint)
next to the job's JSON document — a serialised
:class:`~repro.validation.series.ExperimentResult`, an ablation cell or a
bounds cell (see :func:`repro.runner.pool.run_jobs`).  JSON round-trips
``float64`` exactly (``repr`` is the shortest round-tripping decimal), so
cached series are bit-identical to freshly computed ones — which the
golden tests assert.

The default root is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``; recorded
step programs live under its ``ir/`` (:mod:`repro.simulator.ir`).
Writes are atomic (temp file + ``os.replace``) so a crashed run never
leaves a truncated entry behind.

Self-healing reads: every entry stores a SHA-256 checksum of its result
payload, verified on ``get_doc``.  An entry that fails to parse or to verify
(bit-rot, torn write, stale checksum) is *quarantined* — moved aside
under ``<root>/quarantine/`` for post-mortems — and reported as a miss,
so the caller recomputes and the next ``put_doc`` heals the slot.  The
chaos suite drives this path via the ``cache-corrupt``/``cache-truncate``
/``cache-stale`` fault points, which mangle the payload between
serialisation and the atomic rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from ..core.errors import ExperimentError
from ..faults import fault_flag

__all__ = ["CacheStats", "ResultCache", "default_cache_root"]

_FORMAT = 2  # v2: adds the result-payload checksum


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def _result_checksum(result_doc: dict) -> str:
    """SHA-256 of the canonical result serialisation.

    Computed over the exact compact JSON text that is stored, so a
    parse → re-dump on read reproduces it byte for byte (JSON object
    order is preserved and floats round-trip via ``repr``).
    """
    text = json.dumps(result_doc, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/store counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: entries moved aside after failing parse/checksum verification.
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
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        if len(key) < 8 or not all(c in "0123456789abcdef" for c in key):
            raise ExperimentError(f"malformed cache key {key!r}")
        return self.root / "results" / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a failed entry aside (never raises; best effort)."""
        dest_dir = self.root / "quarantine"
        try:
            dest_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest_dir / path.name)
            self.stats.quarantined += 1
        except OSError:
            pass

    @staticmethod
    def _verify_payload(raw: str) -> dict | None:
        """Parse + checksum-verify one entry text; None when invalid."""
        try:
            doc = json.loads(raw)
            if doc.get("format") != _FORMAT:
                raise ValueError("unknown cache format")
            if doc.get("checksum") != _result_checksum(doc["result"]):
                raise ValueError("checksum mismatch")
        except (ValueError, KeyError, TypeError):
            return None
        return doc

    def get_doc(self, key: str, label: str = "?") -> dict | None:
        """The JSON document cached under ``key``, or None.

        Corrupt entries — unparseable JSON, wrong format, or a checksum
        mismatch — are quarantined and reported as a miss, so callers
        transparently recompute.  ``label`` names the entry in
        :attr:`stats`.
        """
        path = self._path(key)
        try:
            with open(path) as fh:
                raw = fh.read()
        except OSError:
            self.stats.record(label, hit=False)
            return None
        doc = self._verify_payload(raw)
        if doc is None:
            self._quarantine(path)
            self.stats.record(label, hit=False)
            return None
        self.stats.record(label, hit=True)
        return doc["result"]

    def put_doc(self, key: str, result_doc: dict, *,
                meta: dict | None = None) -> Path:
        """Store a JSON document under ``key`` atomically; returns the
        path.  The entry carries the document's checksum, so a mangled
        write (the ``cache-*`` fault points) is caught on read."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        checksum = _result_checksum(result_doc)
        if fault_flag("cache-stale"):
            checksum = "0" * 64
        doc = {"format": _FORMAT, "key": key, "checksum": checksum,
               "meta": meta or {}, "result": result_doc}
        payload = json.dumps(doc, separators=(",", ":"))
        if fault_flag("cache-truncate"):
            payload = payload[: len(payload) // 2]
        if fault_flag("cache-corrupt"):
            from ..faults import corrupt_text

            payload = corrupt_text(payload)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        return path

    # ------------------------------------------------------------------
    def entries(self) -> list[dict]:
        """Metadata headers of every cache entry (sorted by experiment id)."""
        out = []
        results = self.root / "results"
        if results.is_dir():
            for path in sorted(results.glob("*/*.json")):
                try:
                    with open(path) as fh:
                        doc = json.load(fh)
                    out.append({"key": doc.get("key", path.stem),
                                "bytes": path.stat().st_size,
                                **doc.get("meta", {})})
                except (OSError, ValueError):
                    continue
        return sorted(out, key=lambda e: (e.get("experiment", ""), e["key"]))

    def quarantined(self) -> list[Path]:
        """The quarantined entry files (newest last)."""
        qdir = self.root / "quarantine"
        if not qdir.is_dir():
            return []
        return sorted(qdir.glob("*.json"), key=lambda p: p.stat().st_mtime)

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        results = self.root / "results"
        if results.is_dir():
            for path in results.glob("*/*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
            for sub in results.glob("*"):
                try:
                    sub.rmdir()
                except OSError:
                    continue
        return removed
