"""The one blob store's contract, through both of its codecs.

Result documents (:class:`~repro.runner.ResultCache`) and step programs
(:class:`~repro.simulator.ir.IRStore`) persist through
:class:`repro.blobstore.BlobStore`.  Each case runs once per codec, via
the codec's own front end, against a fresh instance (so no memory tier
answers for the disk).
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple

import numpy as np
import pytest

from repro.blobstore import BlobStore
from repro.cli import main
from repro.core.errors import ExperimentError
from repro.core.relations import CommPhase
from repro.core.work import Flops, WorkBatch
from repro.runner import ResultCache
from repro.simulator.ir import IRStore, build_program, encode_program

KEY = "ab" * 32
KEY2 = "cd" * 32

DOC = {"experiment": "figX", "ys": [0.1, 1 / 3, np.pi * 1e6]}

PROG = build_program(P=4, word_bytes=4, simd=False, steps=[
    (CommPhase.permutation(np.roll(np.arange(4), 1), 8),
     [WorkBatch(Flops, {"n": np.array([3, 300])}, np.array([0, 1]))],
     True, "step")])


class Codec(NamedTuple):
    namespace: str
    #: store the codec's value under a key, via its front end
    put: Callable
    #: ``(value or None, quarantines)`` of one read by a fresh front end
    get: Callable
    value: object


def _put_result(root, key):
    ResultCache(root).put_doc(key, DOC, meta={"experiment": "figX"})


def _get_result(root, key):
    cache = ResultCache(root)
    return cache.get_doc(key), cache.stats.quarantined


def _put_program(root, key):
    IRStore(root).put(key, PROG)


def _get_program(root, key):
    store = IRStore(root)
    prog = store.get(key)
    return (None if prog is None else encode_program(prog)), \
        store.quarantined


CODECS = {
    "results": Codec("results", _put_result, _get_result, DOC),
    "ir": Codec("ir", _put_program, _get_program, encode_program(PROG)),
}


@pytest.fixture(params=sorted(CODECS))
def codec(request) -> Codec:
    return CODECS[request.param]


def _store(root, codec) -> BlobStore:
    """The blob store behind ``codec``'s front end."""
    return (ResultCache(root).store if codec.namespace == "results"
            else IRStore(root).blobs)


def blob(root, codec, key=KEY):
    return root / codec.namespace / key[:2] / f"{key}.blob"


def _stale(raw: bytes) -> bytes:
    head, _, payload = raw.partition(b"\n")
    return head[:-64] + b"0" * 64 + b"\n" + payload


def _flip(raw: bytes) -> bytes:
    i = len(raw) // 2
    return raw[:i] + bytes([raw[i] ^ 0xFF]) + raw[i + 1:]


DAMAGE = {
    "flip": _flip,
    "truncate": lambda raw: raw[:len(raw) // 2],
    "empty": lambda raw: b"",
    "no-magic": lambda raw: raw.replace(b"repro-blob", b"not-a-blob", 1),
    "stale-checksum": _stale,
}


def test_round_trip(tmp_path, codec):
    codec.put(tmp_path, KEY)
    raw = blob(tmp_path, codec).read_bytes()
    assert raw.startswith(b"repro-blob %s " % codec.namespace.encode())
    assert codec.get(tmp_path, KEY) == (codec.value, 0)


@pytest.mark.parametrize("how", sorted(DAMAGE))
def test_damage_quarantined_then_healed(tmp_path, codec, how):
    codec.put(tmp_path, KEY)
    path = blob(tmp_path, codec)
    pristine = path.read_bytes()
    path.write_bytes(DAMAGE[how](pristine))

    assert codec.get(tmp_path, KEY) == (None, 1)
    assert not path.exists()
    qdir = tmp_path / codec.namespace / "quarantine"
    assert [p.name for p in qdir.iterdir()] == [path.name]

    codec.put(tmp_path, KEY)  # the recompute heals the slot
    assert path.read_bytes() == pristine
    assert codec.get(tmp_path, KEY) == (codec.value, 0)


def test_stats_exclude_quarantined(tmp_path, codec):
    codec.put(tmp_path, KEY)
    codec.put(tmp_path, KEY2)
    healthy = blob(tmp_path, codec, KEY2).stat().st_size
    blob(tmp_path, codec).write_bytes(b"garbage")
    assert codec.get(tmp_path, KEY) == (None, 1)
    assert _store(tmp_path, codec).stats() == {
        "live": {"count": 1, "bytes": healthy},
        "orphaned": {"count": 0, "bytes": 0},
        "quarantined": {"count": 1, "bytes": len(b"garbage")}}


@pytest.mark.parametrize("key", ["../../../etc/passwd", "AB" * 32, "abc",
                                 "", "ab" * 31 + "g0"])
def test_malformed_key_rejected(tmp_path, codec, key):
    with pytest.raises(ExperimentError, match="malformed"):
        codec.get(tmp_path, key)
    with pytest.raises(ExperimentError, match="malformed"):
        codec.put(tmp_path, key)
    assert not (tmp_path / codec.namespace).exists()


def test_unwritable_root_drops_writes(tmp_path, codec):
    """One disk-failure policy: a root that is a plain file makes every
    write a no-op and every read a miss, never an error."""
    bogus = tmp_path / "not-a-dir"
    bogus.write_text("occupied")
    codec.put(bogus, KEY)
    assert codec.get(bogus, KEY) == (None, 0)
    assert BlobStore(bogus, codec.namespace, 1).put(KEY, b"x") is None


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    import repro.blobstore as blobstore

    def refuse(src, dst):
        raise PermissionError("rename refused")

    monkeypatch.setattr(blobstore.os, "replace", refuse)
    store = BlobStore(tmp_path, "results", 1)
    assert store.put(KEY, b"payload") is None
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


class TestOrphans:
    """Blobs of another codec version, and files of a former layout, are
    never read again: ``cache info`` reports them apart from live
    entries and ``cache clear`` removes them with the quarantine."""

    def info(self, root, capsys):
        assert main(["cache", "info", "--json", "--cache-dir",
                     str(root)]) == 0
        return json.loads(capsys.readouterr().out)

    def test_old_version_blob_is_orphaned_until_clear(self, tmp_path,
                                                      capsys):
        for codec, suffix in ((CODECS["results"], ".json"),
                              (CODECS["ir"], ".irp")):
            codec.put(tmp_path, KEY)
            BlobStore(tmp_path, codec.namespace,
                      _store(tmp_path, codec).version - 1).put(
                KEY2, b"an older payload")
            # an entry of the layout before the blob store
            former = tmp_path / codec.namespace / "ef" / ("ef" * 32 + suffix)
            former.parent.mkdir(parents=True)
            former.write_bytes(b"a former layout")
        damaged = blob(tmp_path, CODECS["ir"], "12" * 32)
        damaged.parent.mkdir(parents=True)
        damaged.write_bytes(b"garbage")
        assert IRStore(tmp_path).get("12" * 32) is None  # quarantines it

        doc = self.info(tmp_path, capsys)
        assert doc["count"] == 1
        assert doc["ir"]["count"] == 1
        assert doc["orphaned"]["results"]["count"] == 2
        assert doc["orphaned"]["ir"]["count"] == 2
        assert doc["quarantined"]["ir"]["count"] == 1
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 recorded step program(s)" in out
        assert "orphaned: results 2 file(s)" in out

        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 3 cached result(s) and 3 step program(s)" \
            in capsys.readouterr().out
        doc = self.info(tmp_path, capsys)
        assert doc["count"] == 0 and doc["ir"] == {"count": 0, "bytes": 0}
        for kind in ("orphaned", "quarantined"):
            for ns in ("results", "ir"):
                assert doc[kind][ns] == {"count": 0, "bytes": 0}
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]
