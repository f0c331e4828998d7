"""Chaos tests for the step-program IR store's self-healing read path.

Damaged program blobs (flipped bytes, truncation, garbage envelopes, an
envelope of an older IR version, a header length or column range past
the payload, phase table columns that disagree, a superstep naming a
phase past the table, a blob of the former single-JSON layout) must be
detected on read, quarantined out of the way, and reported as misses —
after which the caller's re-record heals the slot with a blob
*byte-identical* to a never-faulted one (serialisation is canonical).
A poisoned store never changes what a run computes: replays after
quarantine stay bit-identical.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.algorithms import bitonic
from repro.machines import CM5
from repro.simulator.ir import IR_SCHEMA, IRStore, ir_store_scope

pytestmark = pytest.mark.chaos


def run_ir(seed=3):
    return bitonic.run(CM5(seed=seed), 64, P=16, seed=1)


def blob_paths(root):
    return sorted(p for p in root.rglob("*.blob")
                  if "quarantine" not in p.parts)


def _envelope(payload: bytes, version: int = IR_SCHEMA) -> bytes:
    """A program blob around ``payload`` whose envelope verifies,
    whatever the payload says."""
    return b"repro-blob ir %d %s\n" % (
        version, hashlib.sha256(payload).hexdigest().encode()) + payload


def _column(header: dict, data: bytearray, n: int) -> np.ndarray:
    """Column ``n`` of a payload's data section, as a writable view."""
    doc = header["columns"][n]
    return np.frombuffer(data, dtype=np.dtype(doc["dtype"]),
                         count=doc["length"], offset=doc["offset"])


def mangle(path, how):
    raw = bytearray(path.read_bytes())
    payload = bytes(raw[raw.index(b"\n") + 1:])
    nl = payload.index(b"\n")
    head_len = int(payload[:nl])
    if how == "head-len":
        # the header length points past the end of the payload
        raw = bytearray(_envelope(b"%d" % (2 * len(payload)) + payload[nl:]))
    elif how in ("column-range", "short-stagger", "negative-groups",
                 "step-index"):
        header = json.loads(payload[nl + 1:nl + 1 + head_len])
        data = bytearray(payload[nl + 1 + head_len:])
        if how == "column-range":
            # a checksum-valid blob whose last column runs past the data
            header["columns"][-1]["length"] += 1 << 20
        elif how == "short-stagger":
            # the stagger column is one phase short of the group counts
            header["columns"][header["table"]["stagger"]]["length"] -= 1
        elif how == "negative-groups":
            # two group counts trade so one turns negative: the total,
            # and so every column length, still agrees
            groups = _column(header, data, header["table"]["groups"])
            groups[0] += groups[1] + 1
            groups[1] = -1
        else:
            # the first superstep names a phase past the end of the table
            phase = _column(header, data, header["steps"]["phase"])
            phase[0] = header["columns"][header["table"]["groups"]]["length"]
        head = json.dumps(header, sort_keys=True,
                          separators=(",", ":")).encode()
        raw = bytearray(_envelope(b"%d\n" % len(head) + head + bytes(data)))
    elif how == "old-version":
        # the same payload, verified but enveloped as the previous version
        raw = bytearray(_envelope(payload, IR_SCHEMA - 1))
    elif how == "format-1":
        # a well-formed blob of the former layout: one JSON document
        doc = json.dumps({"schema": 1, "P": 16, "word_bytes": 4,
                          "simd": False, "phases": [], "batchlists": [],
                          "labels": []}, sort_keys=True,
                         separators=(",", ":")).encode()
        raw = bytearray(b"repro-ir 1 %s\n" % hashlib.sha256(doc)
                        .hexdigest().encode() + doc)
    elif how == "flip":
        raw[len(raw) // 2] ^= 0xFF
    elif how == "truncate":
        raw = raw[:len(raw) // 2]
    elif how == "no-header":
        raw = raw.replace(b"repro-blob", b"not-a-blob", 1)
    elif how == "empty":
        raw = bytearray()
    path.write_bytes(bytes(raw))


class TestPoisonedBlobQuarantine:
    @pytest.mark.parametrize("how", ["flip", "truncate", "no-header",
                                     "empty", "head-len", "column-range",
                                     "short-stagger", "negative-groups",
                                     "step-index", "format-1",
                                     "old-version"])
    def test_damage_quarantined_and_rerecorded(self, tmp_path, how):
        root = tmp_path
        with ir_store_scope(IRStore(root)) as store:
            clean = run_ir()
            assert store.recorded == 1
        (path,) = blob_paths(root)
        pristine = path.read_bytes()
        mangle(path, how)

        # fresh store (fresh process): the poisoned blob must be missed,
        # moved aside, and the re-record must heal the slot
        with ir_store_scope(IRStore(root)) as store:
            healed = run_ir()
            assert store.quarantined == 1
            assert store.disk_hits == 0
            assert store.recorded == 1
        qdir = root / "ir" / "quarantine"
        assert len(list(qdir.iterdir())) == 1
        (healed_path,) = blob_paths(root)
        assert healed_path.read_bytes() == pristine

        # the damage never reached the simulation
        assert healed.time_us == clean.time_us
        assert np.array_equal(healed.clocks, clean.clocks)

    def test_clean_blob_read_back_not_quarantined(self, tmp_path):
        root = tmp_path
        with ir_store_scope(IRStore(root)):
            run_ir()
        with ir_store_scope(IRStore(root)) as store:
            run_ir()
            assert store.disk_hits == 1
            assert store.quarantined == 0
        assert not (root / "ir" / "quarantine").exists()

    def test_poisoned_radix_recording_heals_byte_identically(self, tmp_path):
        """The healing path is algorithm-agnostic: a flipped byte in a
        radix-sort recording on the modern profile quarantines, re-records
        a blob byte-identical to the pristine one, and leaves every
        simulated observable (time, clocks, output keys) unchanged."""
        from repro.algorithms import radix
        from repro.machines import ModernCluster

        def run_radix():
            return radix.run(ModernCluster(seed=2), 256, P=16, seed=11)

        root = tmp_path
        with ir_store_scope(IRStore(root)) as store:
            clean = run_radix()
            assert store.recorded == 1
        (path,) = blob_paths(root)
        pristine = path.read_bytes()
        mangle(path, "flip")

        with ir_store_scope(IRStore(root)) as store:
            healed = run_radix()
            assert store.quarantined == 1
            assert store.disk_hits == 0
            assert store.recorded == 1
        (healed_path,) = blob_paths(root)
        assert healed_path.read_bytes() == pristine

        assert healed.time_us == clean.time_us
        assert np.array_equal(healed.clocks, clean.clocks)
        assert all(np.array_equal(h, c)
                   for h, c in zip(healed.returns, clean.returns))

    def test_unreadable_root_never_fails_a_run(self, tmp_path):
        """Disk persistence is best-effort: a store rooted at a plain
        file (mkdir/read both fail) still serves from memory."""
        bogus = tmp_path / "not-a-dir"
        bogus.write_text("occupied")
        with ir_store_scope(IRStore(bogus)) as store:
            a = run_ir()
            b = run_ir()
            assert store.recorded == 1
            assert store.memory_hits == 1
        assert a.time_us == b.time_us
