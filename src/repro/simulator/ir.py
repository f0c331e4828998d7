"""Columnar step-program IR: record a vector program once, replay it cheaply.

The paper's sweeps run the *same* algorithm trace under many machines,
models, seeds and ablations — the structure (who sends what to whom, how
much work each rank charges per superstep) never changes, only the
pricing.  This module captures that structure as a :class:`StepProgram`:
per-superstep records of interned :class:`~repro.core.relations.CommPhase`
objects and interned ``WorkBatch`` lists, plus barrier/label metadata.
Recording happens on the first execution of a configuration — the
algorithm's ``key_params`` (sizes and variant; the data seed too, but
only for data-dependent programs such as sample sort) on one machine
shape; every later run — any machine of that shape, any machine seed,
any ``disable=`` ablation subset, and for data-oblivious programs any
data seed — replays the program through
:func:`repro.simulator.replay.replay` with zero generator resumption.

Interning is aggressive and *value-based*: two supersteps whose batch
lists carry identical kinds, ranks and parameters share one record, so
the per-batchlist rank ordering and pricing run once per distinct
structure instead of once per superstep.
Content hashes (not object ids) key the dedup, so programs that rebuild
equal arrays each iteration still fold.

The :class:`IRStore` keeps programs in memory and, content-addressed by
:func:`ir_key`, on disk under ``ir/`` of the result cache's root
(``$REPRO_CACHE_DIR``/``~/.cache/repro``, or a command's
``--cache-dir``).  Keys include the IR schema version and the recording
algorithm's source fingerprint, so editing an algorithm or bumping the
schema invalidates stale recordings.  Blobs carry a SHA-256 checksum;
corrupt files are quarantined and transparently re-recorded
(byte-identically, since serialisation is canonical).  Programs, in memory and on disk, store
structure only — the inputs and per-rank *results* of a run belong to
that run alone and are produced per call by a data-only program pass
(see :mod:`repro.simulator.lower`).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any

import numpy as np

from ..core.errors import SimulationError
from ..core.relations import CommPhase
from ..core.work import WORK_FIELDS, StepWork, WorkBatch

__all__ = ["IR_SCHEMA", "StepProgram", "IRStore", "build_program", "ir_key",
           "ir_store", "set_ir_store", "ir_store_scope", "default_ir_root",
           "program_comm_volume"]

#: structural version of the IR itself; part of every :func:`ir_key`, so
#: bumping it orphans (and therefore invalidates) all older recordings.
IR_SCHEMA = 1

#: on-disk wrapper format (checksum envelope), independent of the schema.
_FORMAT = 1

#: header magic of on-disk blobs: ``repro-ir <format> <sha256-of-payload>``.
_MAGIC = b"repro-ir"

_KINDS = {kind.__name__: kind for kind in WORK_FIELDS}

_PHASE_FIELDS = ("src", "dst", "count", "msg_bytes", "step")


def _pack(arr: np.ndarray) -> dict:
    """An array as ``{"d": dtype, "b": base64}`` — canonical and cheap.

    Raw little-endian bytes parse orders of magnitude faster than JSON
    digit lists (the recordings hold millions of int64s), and base64 is
    deterministic, keeping re-records byte-identical.  Integer arrays are
    stored in the narrowest width that holds their range (most are rank
    ids and small counts); ``"o"`` records the original dtype, restored
    exactly on unpack so downstream arithmetic is unchanged.
    """
    arr = np.ascontiguousarray(arr)
    if arr.dtype.byteorder == ">":
        arr = arr.astype(arr.dtype.newbyteorder("<"))
    doc = {"d": arr.dtype.str}
    if arr.dtype.kind == "i" and arr.size:
        lo, hi = int(arr.min()), int(arr.max())
        for cand in (np.int8, np.int16, np.int32):
            info = np.iinfo(cand)
            if info.min <= lo and hi <= info.max:
                if np.dtype(cand) != arr.dtype:
                    doc["o"] = arr.dtype.str
                    arr = arr.astype(cand)
                    doc["d"] = arr.dtype.str
                break
    doc["b"] = base64.b64encode(arr.tobytes()).decode("ascii")
    return doc


def _unpack(doc: dict) -> np.ndarray:
    arr = np.frombuffer(base64.b64decode(doc["b"]),
                        dtype=np.dtype(doc["d"]))
    if "o" in doc:
        arr = arr.astype(np.dtype(doc["o"]))
    return arr


class StepProgram:
    """A recorded vector-program execution in columnar superstep form.

    ``phases``/``batchlists`` hold the distinct structures; the per-step
    columns ``phase_idx``/``batch_idx`` (``-1`` = no work) index into
    them, with ``barriers``/``labels`` alongside.  A program holds no
    data: one recording may serve runs at many data seeds.  Each
    batchlist's :class:`~repro.core.work.StepWork` record (its rank-major
    item order) is built once, cached on the program and shared by
    every replay and every superstep of the batchlist.
    """

    __slots__ = ("P", "word_bytes", "simd", "phases", "batchlists",
                 "phase_idx", "batch_idx", "barriers", "labels", "_works")

    def __init__(self, *, P: int, word_bytes: int, simd: bool,
                 phases: list[CommPhase], batchlists: list[list[WorkBatch]],
                 phase_idx: list[int], batch_idx: list[int],
                 barriers: list[bool], labels: list[str]):
        self.P = P
        self.word_bytes = word_bytes
        self.simd = simd
        self.phases = phases
        self.batchlists = batchlists
        self.phase_idx = phase_idx
        self.batch_idx = batch_idx
        self.barriers = barriers
        self.labels = labels
        self._works: list[StepWork | None] = [None] * len(batchlists)

    @property
    def n_steps(self) -> int:
        return len(self.phase_idx)

    def work(self, j: int) -> StepWork:
        """The work record of batchlist ``j`` (built once, then cached)."""
        work = self._works[j]
        if work is None:
            work = self._works[j] = StepWork.of_batches(self.batchlists[j])
        return work

    # ------------------------------------------------------------------
    # Serialisation (structure only; canonical, so re-records are
    # byte-identical)
    # ------------------------------------------------------------------
    def to_doc(self) -> dict:
        label_table: list[str] = []
        label_ids: dict[str, int] = {}
        lab_idx: list[int] = []
        for lab in self.labels:
            j = label_ids.get(lab)
            if j is None:
                j = label_ids[lab] = len(label_table)
                label_table.append(lab)
            lab_idx.append(j)
        return {
            "schema": IR_SCHEMA,
            "P": self.P,
            "word_bytes": self.word_bytes,
            "simd": bool(self.simd),
            "phases": [_phase_doc(ph) for ph in self.phases],
            "batchlists": [[_batch_doc(b) for b in bl]
                           for bl in self.batchlists],
            "steps": {
                "phase": _pack(np.asarray(self.phase_idx, dtype=np.int64)),
                "batch": _pack(np.asarray(self.batch_idx, dtype=np.int64)),
                "barrier": _pack(np.asarray(
                    [1 if b else 0 for b in self.barriers], dtype=np.int8)),
                "label": _pack(np.asarray(lab_idx, dtype=np.int64)),
            },
            "labels": label_table,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "StepProgram":
        if doc.get("schema") != IR_SCHEMA:
            raise SimulationError(
                f"IR schema {doc.get('schema')!r} != {IR_SCHEMA}")
        P = int(doc["P"])
        steps = doc["steps"]
        table = doc["labels"]
        return cls(
            P=P, word_bytes=int(doc["word_bytes"]), simd=bool(doc["simd"]),
            phases=[_phase_from_doc(d, P) for d in doc["phases"]],
            batchlists=[[_batch_from_doc(b) for b in bl]
                        for bl in doc["batchlists"]],
            phase_idx=_unpack(steps["phase"]).tolist(),
            batch_idx=_unpack(steps["batch"]).tolist(),
            barriers=[bool(x) for x in _unpack(steps["barrier"])],
            labels=[table[i] for i in _unpack(steps["label"])])


def _phase_doc(ph: CommPhase) -> dict:
    doc: dict = {f: _pack(getattr(ph, f).astype(np.int64, copy=False))
                 for f in _PHASE_FIELDS}
    doc["stagger"] = bool(ph.stagger)
    return doc


def _phase_from_doc(doc: dict, P: int) -> CommPhase:
    arrays = {f: _unpack(doc[f]) for f in _PHASE_FIELDS}
    return CommPhase._trusted(P=P, stagger=bool(doc["stagger"]), **arrays)


def _batch_doc(b: WorkBatch) -> dict:
    params: dict = {}
    for f, col in b.params.items():
        if not any(col.strides):  # uniform: store one scalar
            params[f] = col.flat[0].item()
        else:
            params[f] = _pack(col)
    return {"kind": b.kind.__name__, "ranks": _pack(b.ranks),
            "params": params}


def _batch_from_doc(doc: dict) -> WorkBatch:
    kind = _KINDS.get(doc["kind"])
    if kind is None:
        raise SimulationError(f"unknown work kind {doc['kind']!r} in IR blob")
    params = {f: (_unpack(v) if isinstance(v, dict) else v)
              for f, v in doc["params"].items()}
    return WorkBatch(kind, params, _unpack(doc["ranks"]))


# ----------------------------------------------------------------------
# Recording: intern pass-1 step records into a program
# ----------------------------------------------------------------------
def build_program(*, P: int, word_bytes: int, simd: bool,
                  steps: list[tuple[CommPhase, list[WorkBatch], bool, str]]
                  ) -> StepProgram:
    """Intern :func:`~repro.simulator.vector.collect_steps` records.

    Phases dedup by identity (the collector already interns repeated
    patterns); batch lists dedup by *content* — kind, rank array and
    parameter columns hashed by value — so supersteps that rebuild equal
    arrays every iteration still share one record and one pricing pass.
    """
    digests: dict[int, tuple[Any, bytes]] = {}

    def digest(arr: np.ndarray) -> bytes:
        ent = digests.get(id(arr))
        if ent is not None:
            return ent[1]
        d = hashlib.sha256(np.ascontiguousarray(arr).tobytes()).digest()
        # pin the array so its id cannot be reused while the memo lives
        digests[id(arr)] = (arr, d)
        return d

    def batch_key(b: WorkBatch) -> tuple:
        key: list = [b.kind, digest(b.ranks)]
        for f, col in b.params.items():
            if not any(col.strides):
                key.append(("s", col.dtype.kind, col.flat[0].item()))
            else:
                key.append(("a", col.dtype.str, digest(col)))
        return tuple(key)

    phase_ids: dict[int, int] = {}
    phases: list[CommPhase] = []
    phase_idx: list[int] = []
    bl_keys: dict[tuple, int] = {}
    batchlists: list[list[WorkBatch]] = []
    batch_idx: list[int] = []
    barriers: list[bool] = []
    labels: list[str] = []
    for phase, batches, barrier, label in steps:
        j = phase_ids.get(id(phase))
        if j is None:
            j = phase_ids[id(phase)] = len(phases)
            phases.append(phase)
        phase_idx.append(j)
        live = [b for b in batches if len(b)]
        if live:
            key = tuple(batch_key(b) for b in live)
            k = bl_keys.get(key)
            if k is None:
                k = bl_keys[key] = len(batchlists)
                batchlists.append(live)
            batch_idx.append(k)
        else:
            batch_idx.append(-1)
        barriers.append(bool(barrier))
        labels.append(label)
    return StepProgram(P=P, word_bytes=word_bytes, simd=simd, phases=phases,
                       batchlists=batchlists, phase_idx=phase_idx,
                       batch_idx=batch_idx, barriers=barriers, labels=labels)


def program_comm_volume(prog: StepProgram) -> dict:
    """Exact communication totals of a recorded program — no replay.

    Phases are interned, so the whole-run volume is each distinct
    phase's per-processor byte vectors times its superstep multiplicity
    (a single ``bincount`` over the phase column).  This is what lets
    :mod:`repro.bounds` price attained-vs-optimal ratios from the IR
    store without re-running any simulation.

    Returns per-processor ``bytes_sent_per_proc``/``bytes_recv_per_proc``
    float64 vectors of length ``P`` plus scalar ``messages`` and
    ``supersteps`` counts.
    """
    sent = np.zeros(prog.P, dtype=np.float64)
    recv = np.zeros(prog.P, dtype=np.float64)
    messages = 0
    mult = np.bincount(np.asarray(prog.phase_idx, dtype=np.int64),
                       minlength=len(prog.phases))
    for m, ph in zip(mult, prog.phases):
        if not m:
            continue
        sent += m * ph.bytes_sent_per_proc
        recv += m * ph.bytes_recv_per_proc
        messages += int(m) * ph.total_messages
    return {"bytes_sent_per_proc": sent, "bytes_recv_per_proc": recv,
            "messages": int(messages), "supersteps": prog.n_steps}


# ----------------------------------------------------------------------
# Content-addressed store
# ----------------------------------------------------------------------
def ir_key(*, algorithm: str, fingerprint: str, P: int, word_bytes: int,
           simd: bool, params: dict) -> str:
    """Content address of a recording configuration.

    ``params`` must be the JSON-serialisable structure parameters of the
    run (sizes, variant, the data seed of a data-dependent program, ...);
    ``fingerprint`` the recording algorithm's source hash.  Schema
    version and machine shape (``P``, word size, SIMD) are part of the
    key, so a replayed program always matches the requesting machine's
    shape.
    """
    doc = {"schema": IR_SCHEMA, "algorithm": algorithm, "code": fingerprint,
           "P": int(P), "word_bytes": int(word_bytes), "simd": bool(simd),
           "params": params}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def default_ir_root() -> Path:
    """``ir/`` under the one cache root,
    :func:`repro.runner.cache.default_cache_root`."""
    from ..runner.cache import default_cache_root

    return default_cache_root() / "ir"


def _encode_blob(payload: dict) -> bytes:
    """Header line (magic, format, payload checksum) + canonical JSON.

    The checksum covers the payload *bytes*, so verification on read is
    one hash over the tail — no re-serialisation.  Canonical JSON plus
    deterministic base64 packing keep re-records byte-identical.
    """
    body = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()
    head = b"%s %d %s\n" % (_MAGIC, _FORMAT,
                            hashlib.sha256(body).hexdigest().encode())
    return head + body


def _decode_blob(raw: bytes) -> dict:
    """Verify the envelope of :func:`_encode_blob`; raise on any damage."""
    nl = raw.find(b"\n")
    if nl < 0:
        raise ValueError("IR blob has no header line")
    magic, fmt, checksum = raw[:nl].split(b" ")
    if magic != _MAGIC or int(fmt) != _FORMAT:
        raise ValueError(f"IR blob header {raw[:nl]!r}")
    body = raw[nl + 1:]
    if hashlib.sha256(body).hexdigest().encode() != checksum:
        raise ValueError("IR blob checksum mismatch")
    return json.loads(body)


class IRStore:
    """In-memory + on-disk store of recorded step programs.

    Memory entries and disk blobs alike are structure-only.  Disk
    persistence is best-effort (an unwritable cache directory never
    fails a run) and every read verifies the checksum envelope —
    corrupt or unreadable blobs are quarantined so the caller re-records.
    """

    def __init__(self, root: "Path | str | None" = None, *, disk: bool = True):
        self._fixed_root = Path(root) if root is not None else None
        self.disk = disk
        self.memory: dict[str, StepProgram] = {}
        self.recorded = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.quarantined = 0

    @property
    def root(self) -> Path:
        # resolved per call so monkeypatched $REPRO_CACHE_DIR is honoured
        return self._fixed_root or default_ir_root()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.irp"

    def get(self, key: str) -> StepProgram | None:
        prog = self.memory.get(key)
        if prog is not None:
            self.memory_hits += 1
            return prog
        if not self.disk:
            return None
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            prog = StepProgram.from_doc(_decode_blob(raw))
        except Exception:
            self._quarantine(path)
            return None
        self.memory[key] = prog
        self.disk_hits += 1
        return prog

    def put(self, key: str, prog: StepProgram) -> None:
        self.memory[key] = prog
        self.recorded += 1
        if not self.disk:
            return
        blob = _encode_blob(prog.to_doc())
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError:
            pass  # memory entry stands; disk warmth is an optimisation

    def _quarantine(self, path: Path) -> None:
        qdir = self.root / "quarantine"
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        self.quarantined += 1

    def disk_stats(self) -> tuple[int, int]:
        """``(count, bytes)`` of healthy on-disk program blobs.

        Quarantined blobs keep their ``.irp`` name but no longer serve
        hits, so the ``quarantine/`` directory is excluded.
        """
        count = size = 0
        root = self.root
        if self.disk and root.exists():
            qdir = root / "quarantine"
            for p in root.rglob("*.irp"):
                if p.parent == qdir:
                    continue
                try:
                    size += p.stat().st_size
                except OSError:
                    continue
                count += 1
        return count, size

    def clear(self) -> int:
        """Drop memory entries and delete on-disk blobs; count removed."""
        self.memory.clear()
        removed = 0
        root = self.root
        if self.disk and root.exists():
            for p in sorted(root.rglob("*.irp")):
                try:
                    p.unlink()
                except OSError:
                    continue
                removed += 1
        return removed


_STORE: IRStore | None = None


def ir_store() -> IRStore:
    """The process-wide store every
    :func:`~repro.simulator.lower.run_lowered` call uses."""
    global _STORE
    if _STORE is None:
        _STORE = IRStore()
    return _STORE


def set_ir_store(store: IRStore | None) -> IRStore | None:
    """Swap the process-wide store; returns the previous one."""
    global _STORE
    prev = _STORE
    _STORE = store
    return prev


@contextmanager
def ir_store_scope(store: IRStore):
    """Temporarily install ``store`` (benchmarks: fresh memory-only)."""
    prev = set_ir_store(store)
    try:
        yield store
    finally:
        set_ir_store(prev)
