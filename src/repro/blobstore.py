"""One content-addressed blob store under the cache root.

Everything a run persists is a blob under a hex key in one namespace of
the cache root, ``<root>/<namespace>/<key[:2]>/<key>.blob``.  Result
documents (:mod:`repro.runner.cache`, namespace ``results``) and step
programs (:mod:`repro.simulator.ir`, namespace ``ir``) are codecs over
it: each turns its objects into payload bytes and back, and this module
holds the one copy of the rest.

* A blob is an envelope line ``repro-blob <namespace> <version>
  <sha256>`` (the codec, its format version, the SHA-256 of the payload
  bytes), then the payload.
* A write is atomic: ``mkstemp`` beside the blob, then ``os.replace``.
* A read verifies the envelope.  A damaged blob, or one its codec cannot
  decode, is moved into ``<root>/<namespace>/quarantine/`` and reported
  as a miss, so the caller recomputes and its next write heals the slot.
* The disk is an optimisation: an unreadable blob is a miss and a failed
  write is dropped, so an unwritable cache root never fails a run.
* A namespace's files are live (a blob of this version), orphaned (a
  blob of another version, or a file of a former layout, which no key
  reads again) or quarantined; :meth:`BlobStore.stats` counts each kind
  and :meth:`BlobStore.clear` removes all three.
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
import tempfile
from contextlib import suppress
from pathlib import Path
from typing import Any, Callable, Iterator

from .core.errors import ExperimentError
from .faults import corrupt_text, fault_flag

__all__ = ["BlobStore", "default_cache_root"]

_KEY = re.compile(r"[0-9a-f]{8,}")


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


class BlobStore:
    """Blobs of one codec version under ``<root>/<namespace>/``.

    ``root=None`` resolves :func:`default_cache_root` on every access,
    so a process-wide store follows ``$REPRO_CACHE_DIR``.
    :attr:`quarantined` counts the blobs this instance moved aside.
    """

    def __init__(self, root: Path | str | None, namespace: str,
                 version: int):
        self._root = Path(root) if root is not None else None
        self.namespace = namespace
        self.version = version
        self._magic = b"repro-blob %s %d " % (namespace.encode(), version)
        self.quarantined = 0

    @property
    def dir(self) -> Path:
        return (self._root or default_cache_root()) / self.namespace

    def path(self, key: str) -> Path:
        if not _KEY.fullmatch(key):
            raise ExperimentError(f"malformed cache key {key!r}")
        return self.dir / key[:2] / f"{key}.blob"

    def put(self, key: str, payload: bytes, *,
            faults: bool = False) -> Path | None:
        """Write ``payload`` under ``key``: its path, or None if the disk
        refused.  ``faults`` opts into the ``cache-*`` fault points."""
        path = self.path(key)
        digest = hashlib.sha256(payload).hexdigest().encode()
        if faults and fault_flag("cache-stale"):
            digest = b"0" * 64
        blob = b"".join((self._magic, digest, b"\n", payload))
        if faults and fault_flag("cache-truncate"):
            blob = blob[: len(blob) // 2]
        if faults and fault_flag("cache-corrupt"):
            blob = corrupt_text(blob.decode("latin-1")).encode("latin-1")
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
            tmp = None
            return path
        except OSError:
            return None
        finally:
            if tmp is not None:
                with suppress(OSError):
                    os.unlink(tmp)

    def get(self, key: str,
            decode: Callable[[bytes], Any] = bytes) -> Any | None:
        """``decode`` of the payload under ``key``; None on a miss, and
        on a blob that fails verification or decoding (quarantined)."""
        path = self.path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            return decode(self._open(raw))
        except Exception:
            self.quarantined += 1
            qdir = self.dir / "quarantine"
            try:
                qdir.mkdir(parents=True, exist_ok=True)
                os.replace(path, qdir / path.name)
            except OSError:
                with suppress(OSError):
                    path.unlink()
            return None

    def _open(self, raw: bytes) -> bytes:
        """The payload of ``raw``; raise unless its envelope verifies."""
        n = len(self._magic)
        if not raw.startswith(self._magic) or raw[n + 64:n + 65] != b"\n" \
                or hashlib.sha256(memoryview(raw)[n + 65:]).hexdigest() \
                .encode() != raw[n:n + 64]:
            raise ValueError(f"damaged {self.namespace} blob")
        return raw[n + 65:]

    def _files(self) -> Iterator[tuple[Path, str]]:
        """``(path, kind)`` of every file of the namespace."""
        qdir = self.dir / "quarantine"
        for path in sorted(self.dir.rglob("*")):
            if path.parent == qdir:
                yield path, "quarantined"
            elif path.suffix == ".blob":
                try:
                    with open(path, "rb") as fh:
                        live = fh.read(len(self._magic)) == self._magic
                except OSError:
                    continue
                yield path, "live" if live else "orphaned"
            elif path.is_file():
                yield path, "orphaned"

    def stats(self) -> dict[str, dict[str, int]]:
        """``{kind: {"count", "bytes"}}`` for each kind of file."""
        out = {kind: {"count": 0, "bytes": 0}
               for kind in ("live", "orphaned", "quarantined")}
        for path, kind in self._files():
            with suppress(OSError):
                out[kind]["bytes"] += path.stat().st_size
                out[kind]["count"] += 1
        return out

    def items(self, decode: Callable[[bytes], Any]
              ) -> Iterator[tuple[str, int, Any]]:
        """``(key, bytes, decoded payload)`` of every live blob that
        verifies (a keyed read quarantines the others)."""
        for path, kind in self._files():
            if kind != "live":
                continue
            try:
                raw = path.read_bytes()
                value = decode(self._open(raw))
            except Exception:
                continue
            yield path.stem, len(raw), value

    def clear(self) -> int:
        """Delete the namespace; returns its live and orphaned count."""
        removed = sum(kind != "quarantined" for _, kind in self._files())
        shutil.rmtree(self.dir, ignore_errors=True)
        return removed
