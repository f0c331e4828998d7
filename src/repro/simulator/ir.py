"""Columnar step-program IR: record a vector program once, replay it cheaply.

The paper's sweeps run the *same* algorithm trace under many machines,
models, seeds and ablations — the structure (who sends what to whom, how
much work each rank charges per superstep) never changes, only the
pricing.  This module captures that structure as a :class:`StepProgram`:
its distinct communication phases as one stacked :class:`PhaseTable`
(five ``int64`` group columns, a group count and a stagger flag per
phase), interned ``WorkBatch`` lists, and per-superstep index, barrier
and label columns.
Recording happens on the first execution of a configuration — the
algorithm's ``key_params`` (sizes and variant; the data seed too, but
only for data-dependent programs such as sample sort) on one machine
shape; every later run — any machine of that shape, any machine seed,
any ``disable=`` ablation subset, and for data-oblivious programs any
data seed — replays the program through
:func:`repro.simulator.replay.replay` with zero generator resumption.
A replay hands the machine's pricer the program's own table and its
``phase_idx`` column, so pricing never re-assembles the phases.

Interning is aggressive and *value-based*: two supersteps whose batch
lists carry identical kinds, ranks and parameters share one record, so
the per-batchlist rank ordering and pricing run once per distinct
structure instead of once per superstep.
Content hashes (not object ids) key the dedup, so programs that rebuild
equal arrays each iteration still fold.

The :class:`IRStore` keeps programs in a memory tier of at most
:data:`MEMORY_BUDGET` bytes and, content-addressed by :func:`ir_key`, in
the ``ir`` namespace of the one blob store (:mod:`repro.blobstore`),
which owns the checksum envelope, the atomic write and quarantine; this
module is the codec.  Keys include :data:`IR_SCHEMA` and the recording
algorithm's source fingerprint, so editing an algorithm or bumping the
schema invalidates stale recordings.  A payload (:func:`encode_program`)
is a line holding the header's length, a canonical JSON header (shape,
labels, batch kinds and scalar parameters, and the dtype, original
dtype, offset and length of every column) and the raw little-endian
columns, integer columns narrowed to the smallest width that holds
them.  Decoding (:func:`decode_program`) restores every column's
original dtype, in arrays of its own that are read-only, and checks the
header length, every column range, and that the phase table and step
columns agree, so a damaged recording is quarantined and re-recorded
byte-identically.  Programs, in memory and on disk, store structure
only — the inputs and per-rank *results* of a run belong to that run
alone and are produced per call by a data-only program pass (see
:mod:`repro.simulator.lower`).
"""

from __future__ import annotations

import hashlib
import json
import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from ..blobstore import BlobStore
from ..core.errors import SimulationError
from ..core.relations import CommPhase, PhaseStack
from ..core.work import WORK_FIELDS, StepWork, WorkBatch

__all__ = ["IR_SCHEMA", "PhaseTable", "PricerColumns", "StepProgram",
           "IRStore", "build_program", "encode_program", "decode_program",
           "ir_key", "ir_store", "set_ir_store", "ir_store_scope",
           "MEMORY_BUDGET", "program_comm_volume", "clear_pricer_columns"]

#: version of the IR and of its blob payload; part of every
#: :func:`ir_key` and of every blob's envelope, so bumping it orphans
#: (and therefore invalidates) all older recordings.
IR_SCHEMA = 3

_KINDS = {kind.__name__: kind for kind in WORK_FIELDS}

_PHASE_FIELDS = ("src", "dst", "count", "msg_bytes", "step")

#: the narrower integer widths a column may be stored in, with their ranges
_WIDTHS = [(np.dtype(t), int(np.iinfo(t).min), int(np.iinfo(t).max))
           for t in (np.int8, np.int16, np.int32)]


class PhaseTable(NamedTuple):
    """A program's distinct phases as one stack of columns.

    Phase ``j`` owns the next ``groups[j]`` rows of the five ``int64``
    group columns (an empty phase owns none) and is staggered iff
    ``stagger[j]``.  The fields follow the positional arguments of
    :meth:`~repro.core.relations.PhaseStack.from_columns`.
    """

    groups: np.ndarray      #: group count of each phase
    src: np.ndarray
    dst: np.ndarray
    count: np.ndarray
    msg_bytes: np.ndarray
    step: np.ndarray
    stagger: np.ndarray     #: stagger flag of each phase


#: guards every program's pricer columns and the tiers holding it
_COLUMNS_LOCK = threading.Lock()
#: the column memos holding entries (:func:`clear_pricer_columns`)
_MEMOS: "weakref.WeakSet[PricerColumns]" = weakref.WeakSet()


class PricerColumns:
    """The deterministic pricer columns of one program, by machine state.

    A pricer built over :meth:`StepProgram.stack` looks its machine's
    :func:`~repro.machines.base.state_key` up here and, on a miss, puts
    the columns its ``_prep`` derived: MasPar's segment columns, the
    GCel's per-node times, the base pricer's per-phase costs.  They are
    kept as read-only views and shared by every later pricer of that
    state.  Their bytes count in :attr:`StepProgram.nbytes`, so against
    :data:`MEMORY_BUDGET`: each memory tier holding the program
    re-checks its budget when the memo grows.
    """

    def __init__(self):
        self.entries: dict[tuple, dict[str, np.ndarray]] = {}
        self.nbytes = 0
        #: the :class:`IRStore` memory tiers that hold the program
        self.tiers: "weakref.WeakSet[IRStore]" = weakref.WeakSet()

    def get(self, key: tuple) -> "dict[str, np.ndarray] | None":
        return self.entries.get(key)

    def put(self, key: tuple, cols: "dict[str, np.ndarray]"
            ) -> "dict[str, np.ndarray]":
        """Keep ``cols`` under ``key``; returns the kept columns (the
        first put's, when two pricers race for one key)."""
        frozen = {}
        for name, col in cols.items():
            frozen[name] = view = col.view()
            view.flags.writeable = False
        with _COLUMNS_LOCK:
            kept = self.entries.setdefault(key, frozen)
            if kept is not frozen:
                return kept
            self.nbytes += sum(col.nbytes for col in frozen.values())
            _MEMOS.add(self)
            tiers = list(self.tiers)
        for tier in tiers:
            tier.trim()
        return frozen


def clear_pricer_columns() -> None:
    """Drop every program's pricer columns (for tests that patch pricer
    code, so that no kept column hides the patch)."""
    with _COLUMNS_LOCK:
        memos = list(_MEMOS)
        _MEMOS.clear()
        tiers = set()
        for memo in memos:
            memo.entries.clear()
            memo.nbytes = 0
            tiers.update(memo.tiers)
    for tier in tiers:
        tier.trim()


class StepProgram:
    """A recorded vector-program execution in columnar superstep form.

    ``table`` holds the distinct phases as one stack of columns, and
    ``phases[j]`` is a :meth:`~repro.core.relations.CommPhase._trusted`
    view of its phase ``j``; ``batchlists`` holds the distinct work
    batch lists.  The per-step columns ``phase_idx``/``batch_idx``
    (``-1`` = no work) index into them, with ``barriers``/``labels``
    alongside.  A program holds no data: one recording may serve runs
    at many data seeds.  Each batchlist's
    :class:`~repro.core.work.StepWork` record (its rank-major item
    order) is built once, cached on the program and shared by every
    replay and every superstep of the batchlist.  So are the pricer
    columns of each machine state the program is priced under
    (:attr:`columns`).
    """

    __slots__ = ("P", "word_bytes", "simd", "table", "phases", "batchlists",
                 "phase_idx", "batch_idx", "barriers", "labels", "columns",
                 "_structure_nbytes", "_works")

    def __init__(self, *, P: int, word_bytes: int, simd: bool,
                 table: PhaseTable, batchlists: list[list[WorkBatch]],
                 phase_idx: list[int], batch_idx: list[int],
                 barriers: list[bool], labels: list[str]):
        self.P = P
        self.word_bytes = word_bytes
        self.simd = simd
        self.table = table
        self.phases = PhaseStack.from_columns(P, *table).phases
        self.batchlists = batchlists
        self.phase_idx = phase_idx
        self.batch_idx = batch_idx
        self.barriers = barriers
        self.labels = labels
        self.columns = PricerColumns()
        self._structure_nbytes = (
            sum(col.nbytes for col in table)
            + sum(a.nbytes if any(a.strides) else a.itemsize
                  for bl in batchlists for b in bl
                  for a in (b.ranks, *b.params.values()))
            + 32 * len(phase_idx))
        self._works: list[StepWork | None] = [None] * len(batchlists)

    @property
    def nbytes(self) -> int:
        """Bytes of the phase table, the batch lists' arrays (one element
        for a uniform parameter), 8 per entry of the step columns and
        the pricer columns kept so far."""
        return self._structure_nbytes + self.columns.nbytes

    @property
    def n_steps(self) -> int:
        return len(self.phase_idx)

    def stack(self) -> PhaseStack:
        """The phase table as a :class:`~repro.core.relations.PhaseStack`
        for one pricer build.

        The stack shares the table's columns and :attr:`phases`, and
        its memo is :attr:`columns`: a pricer keeps the deterministic
        columns it derives there, by machine state.  The per-group
        arrays it derives on the way stay on the stack, so they go with
        the build.
        """
        stack = PhaseStack.from_columns(self.P, *self.table,
                                        views=self.phases)
        stack.memo = self.columns
        return stack

    def work(self, j: int) -> StepWork:
        """The work record of batchlist ``j`` (built once, then cached)."""
        work = self._works[j]
        if work is None:
            work = self._works[j] = StepWork.of_batches(self.batchlists[j])
        return work


# ----------------------------------------------------------------------
# Serialisation (structure only; canonical, so re-records are
# byte-identical)
# ----------------------------------------------------------------------
class _ColumnWriter:
    """The data section of a blob, one raw column at a time."""

    def __init__(self):
        self.docs: list[dict] = []
        self.chunks: list[bytes] = []
        self.offset = 0

    def add(self, arr: np.ndarray) -> int:
        """Append ``arr``; returns its column number.

        Raw little-endian bytes; an integer column is stored in the
        narrowest width that holds its range (most are rank ids and
        small counts), and ``orig`` records the dtype decoding restores.
        """
        arr = np.ascontiguousarray(arr)
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        orig = arr.dtype.str
        if arr.dtype.kind == "i" and arr.size:
            lo, hi = int(arr.min()), int(arr.max())
            for cand, cmin, cmax in _WIDTHS:
                if cmin <= lo and hi <= cmax:
                    if cand != arr.dtype:
                        arr = arr.astype(cand)
                    break
        raw = arr.tobytes()
        self.docs.append({"dtype": arr.dtype.str, "orig": orig,
                          "offset": self.offset, "length": int(arr.size)})
        self.chunks.append(raw)
        self.offset += len(raw)
        return len(self.docs) - 1


def _read_column(data: memoryview, doc: dict) -> np.ndarray:
    """Column ``doc`` of ``data``: a read-only array of its own."""
    dtype = np.dtype(doc["dtype"])
    offset, length = int(doc["offset"]), int(doc["length"])
    if offset < 0 or length < 0 \
            or offset + length * dtype.itemsize > len(data):
        raise ValueError("IR column runs past the blob's data")
    arr = np.frombuffer(data, dtype=dtype, count=length,
                        offset=offset).astype(np.dtype(doc["orig"]))
    arr.flags.writeable = False
    return arr


def encode_program(prog: StepProgram) -> bytes:
    """``prog`` as one canonical blob payload.

    A line holding the byte length ``n`` of the JSON header, the header
    itself, then the raw columns.  Canonical JSON and a fixed column
    order keep re-records byte-identical; the blob store's envelope
    carries the checksum and :data:`IR_SCHEMA`.
    """
    cols = _ColumnWriter()
    label_table: list[str] = []
    label_ids: dict[str, int] = {}
    lab_idx: list[int] = []
    for lab in prog.labels:
        j = label_ids.get(lab)
        if j is None:
            j = label_ids[lab] = len(label_table)
            label_table.append(lab)
        lab_idx.append(j)
    header = {
        "P": prog.P,
        "word_bytes": prog.word_bytes,
        "simd": bool(prog.simd),
        "labels": label_table,
        "table": {f: cols.add(col)
                  for f, col in zip(PhaseTable._fields, prog.table)},
        "steps": {
            "phase": cols.add(np.asarray(prog.phase_idx, dtype=np.int64)),
            "batch": cols.add(np.asarray(prog.batch_idx, dtype=np.int64)),
            "barrier": cols.add(np.asarray(prog.barriers, dtype=bool)),
            "label": cols.add(np.asarray(lab_idx, dtype=np.int64)),
        },
        "batchlists": [[_batch_doc(b, cols) for b in bl]
                       for bl in prog.batchlists],
        "columns": cols.docs,
    }
    head = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode()
    return b"".join([b"%d\n" % len(head), head, *cols.chunks])


def decode_program(raw: bytes) -> StepProgram:
    """The program of an :func:`encode_program` payload; raise on any
    damage (bad header length or column range, phase table or step
    columns that disagree, indices out of range)."""
    nl = raw.find(b"\n")
    if nl < 0:
        raise ValueError("IR payload has no header length")
    body = memoryview(raw)[nl + 1:]
    head_len = int(raw[:nl])
    if not 0 <= head_len <= len(body):
        raise ValueError("IR header length runs past the payload")
    header = json.loads(bytes(body[:head_len]))
    data = body[head_len:]
    cols = [_read_column(data, doc) for doc in header["columns"]]
    table = PhaseTable(*(cols[header["table"][f]]
                         for f in PhaseTable._fields))
    if table.stagger.size != table.groups.size \
            or table.groups.min(initial=0) < 0 \
            or len({int(table.groups.sum())}
                   | {getattr(table, f).size for f in _PHASE_FIELDS}) != 1:
        raise ValueError("IR phase table columns disagree")
    steps = {f: cols[i] for f, i in header["steps"].items()}
    labels = header["labels"]
    batchlists = [[_batch_from_doc(b, cols) for b in bl]
                  for bl in header["batchlists"]]
    if len({col.size for col in steps.values()}) != 1 \
            or not _in_range(steps["phase"], 0, table.groups.size) \
            or not _in_range(steps["batch"], -1, len(batchlists)) \
            or not _in_range(steps["label"], 0, len(labels)):
        raise ValueError("IR step columns disagree")
    return StepProgram(
        P=int(header["P"]), word_bytes=int(header["word_bytes"]),
        simd=bool(header["simd"]), table=table, batchlists=batchlists,
        phase_idx=steps["phase"].tolist(), batch_idx=steps["batch"].tolist(),
        barriers=steps["barrier"].tolist(),
        labels=[labels[i] for i in steps["label"].tolist()])


def _in_range(col: np.ndarray, lo: int, hi: int) -> bool:
    """Every entry of ``col`` lies in ``[lo, hi)``."""
    return col.size == 0 or (lo <= col.min() and col.max() < hi)


def _batch_doc(b: WorkBatch, cols: _ColumnWriter) -> dict:
    params: dict = {}
    for f, col in b.params.items():
        if not any(col.strides):  # uniform: one scalar and its dtype
            params[f] = {"dtype": col.dtype.str, "value": col.flat[0].item()}
        else:
            params[f] = cols.add(col)
    return {"kind": b.kind.__name__, "ranks": cols.add(b.ranks),
            "params": params}


def _batch_from_doc(doc: dict, cols: list[np.ndarray]) -> WorkBatch:
    kind = _KINDS.get(doc["kind"])
    if kind is None:
        raise SimulationError(f"unknown work kind {doc['kind']!r} in IR blob")
    params = {f: (cols[v] if isinstance(v, int)
                  else np.asarray(v["value"], dtype=np.dtype(v["dtype"])))
              for f, v in doc["params"].items()}
    return WorkBatch(kind, params, cols[doc["ranks"]])


# ----------------------------------------------------------------------
# Recording: intern pass-1 step records into a program
# ----------------------------------------------------------------------
def build_program(*, P: int, word_bytes: int, simd: bool,
                  steps: list[tuple[CommPhase, list[WorkBatch], bool, str]]
                  ) -> StepProgram:
    """Intern :func:`~repro.simulator.vector.collect_steps` records.

    Phases dedup by identity (the collector already interns repeated
    patterns) and are stacked, in first-occurrence order, into the
    program's :class:`PhaseTable`; batch lists dedup by *content* —
    kind, rank array and parameter columns hashed by value — so
    supersteps that rebuild equal arrays every iteration still share one
    record and one pricing pass.
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
    stack = PhaseStack(phases)
    table = PhaseTable(stack.groups, stack.src, stack.dst, stack.count,
                       stack.msg_bytes, stack.step,
                       np.array([ph.stagger for ph in phases], dtype=bool))
    return StepProgram(P=P, word_bytes=word_bytes, simd=simd, table=table,
                       batchlists=batchlists, phase_idx=phase_idx,
                       batch_idx=batch_idx, barriers=barriers, labels=labels)


def program_comm_volume(prog: StepProgram) -> dict:
    """Exact communication totals of a recorded program — no replay.

    Phases are interned, so the whole-run volume weighs each row of the
    phase table by its phase's superstep multiplicity (one ``bincount``
    over the phase column) and sums the rows per endpoint (one weighted
    ``bincount`` per direction).  Every sum is an integer below 2**53,
    so the float totals are exact in any order.  This is what lets
    :mod:`repro.bounds` price attained-vs-optimal ratios from the IR
    store without re-running any simulation.

    Returns per-processor ``bytes_sent_per_proc``/``bytes_recv_per_proc``
    float64 vectors of length ``P`` plus scalar ``messages`` and
    ``supersteps`` counts.
    """
    t = prog.table
    mult = np.bincount(np.asarray(prog.phase_idx, dtype=np.int64),
                       minlength=t.groups.size)
    messages = np.repeat(mult, t.groups) * t.count
    nbytes = messages * t.msg_bytes

    def per_proc(ends: np.ndarray) -> np.ndarray:
        # bincount of no rows returns integers whatever the weights
        return np.bincount(ends, weights=nbytes, minlength=prog.P
                           ).astype(np.float64, copy=False)

    return {"bytes_sent_per_proc": per_proc(t.src),
            "bytes_recv_per_proc": per_proc(t.dst),
            "messages": int(messages.sum()), "supersteps": prog.n_steps}


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


#: byte budget (:attr:`StepProgram.nbytes`) of an :class:`IRStore`'s
#: memory tier.  A cold seed-0 sweep of the 35 experiments records 130
#: programs of 38.0 MiB and keeps its 79 memory hits down to 35 MiB; this
#: holds the whole sweep and caps a server, whose fresh-seed sample sort
#: and radix predicts each record a program never asked for again.
MEMORY_BUDGET = 72 << 20


class IRStore:
    """Recorded step programs: a memory tier over the ``ir`` namespace
    of the blob store under ``root``, the cache root (by default resolved
    per call).  The tier keeps the most recently used programs within
    :data:`MEMORY_BUDGET`, pricer columns included, under one lock (the
    service replays on two threads); an evicted program is read back
    from disk, or re-recorded by the caller when ``disk`` is off.
    """

    def __init__(self, root: Path | str | None = None, *, disk: bool = True):
        self.blobs = BlobStore(root, "ir", IR_SCHEMA)
        self.disk = disk
        self.memory: OrderedDict[str, StepProgram] = OrderedDict()
        self.nbytes = 0
        self._lock = threading.Lock()
        self.recorded = 0
        self.memory_hits = 0
        self.disk_hits = 0

    @property
    def quarantined(self) -> int:
        """Blobs this store found damaged and moved aside."""
        return self.blobs.quarantined

    def get(self, key: str) -> StepProgram | None:
        with self._lock:
            prog = self.memory.get(key)
            if prog is not None:
                self.memory.move_to_end(key)
                self.memory_hits += 1
            elif self.disk:
                prog = self.blobs.get(key, decode_program)
                if prog is not None:
                    self.disk_hits += 1
                    self._remember(key, prog)
            return prog

    def put(self, key: str, prog: StepProgram) -> None:
        with self._lock:
            self.recorded += 1
            self._remember(key, prog)
        if self.disk:
            self.blobs.put(key, encode_program(prog))

    def trim(self) -> None:
        """Re-count the tier and evict past the budget (a program it
        holds has kept more pricer columns)."""
        with self._lock:
            self._trim()

    def _remember(self, key: str, prog: StepProgram) -> None:
        """Make ``prog`` the most recent entry and evict past the
        budget; the caller holds the lock."""
        self.memory.pop(key, None)
        self.memory[key] = prog
        with _COLUMNS_LOCK:
            prog.columns.tiers.add(self)
        self._trim()

    def _trim(self) -> None:
        """Count the tier's bytes and evict least recently used
        programs past the budget; the caller holds the lock."""
        self.nbytes = sum(prog.nbytes for prog in self.memory.values())
        while self.nbytes > MEMORY_BUDGET:
            self.nbytes -= self.memory.popitem(last=False)[1].nbytes


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
