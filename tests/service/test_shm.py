"""Metrics-board unit tests.

The board's contract: ``read`` returns the document a region's last
``publish`` stored, or ``None`` — never a torn one — and ``read_all``
keeps only regions whose publisher is still alive.  The fork-based test
drives the same code over real ``multiprocessing.shared_memory``.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.service.shm import MetricsBoard

fork_only = pytest.mark.skipif(not hasattr(os, "fork"),
                               reason="needs os.fork")


class TestMetricsBoard:
    def test_publish_read_roundtrip(self):
        board = MetricsBoard.over(2)
        assert board.publish(0, {"metrics": [{"name": "m"}]})
        doc = board.read(0)
        assert doc["metrics"] == [{"name": "m"}]
        assert doc["_pid"] == os.getpid()
        assert doc["_age_s"] >= 0.0

    def test_empty_region_reads_none(self):
        board = MetricsBoard.over(2)
        assert board.read(1) is None
        assert board.read_all() == []

    def test_oversize_payload_rejected(self):
        board = MetricsBoard.over(1, region_bytes=128)
        assert not board.publish(0, {"blob": "x" * 4096})

    def test_region_bounds(self):
        board = MetricsBoard.over(2)
        with pytest.raises(IndexError):
            board.read(2)

    def test_read_all_filters_dead_publishers(self):
        board = MetricsBoard.over(2)
        board.publish(0, {"worker": 0})
        board.publish(1, {"worker": 1})
        # forge a dead publisher pid in region 1's header
        import struct

        from repro.service.shm import _REGION

        seq, pid, stamp, length = _REGION.unpack_from(board.buf,
                                                      board._off(1))
        _REGION.pack_into(board.buf, board._off(1), seq, 2 ** 22 + 12345,
                          stamp, length)
        del struct
        alive = board.read_all()
        assert [d["worker"] for d in alive] == [0]
        everyone = board.read_all(require_alive=False)
        assert [d["worker"] for d in everyone] == [0, 1]

    @fork_only
    def test_cross_process_publish(self):
        ctx = multiprocessing.get_context("fork")
        board = MetricsBoard.create(2)

        def child() -> None:
            peer = MetricsBoard(board._shm.buf, 2, board.region_bytes)
            peer.publish(1, {"from": "child"})

        try:
            p = ctx.Process(target=child)
            p.start()
            p.join(30)
            assert p.exitcode == 0
            # the child is dead, so its region only shows up unfiltered
            docs = board.read_all(require_alive=False)
            assert {"from": "child"} == {
                k: v for d in docs for k, v in d.items()
                if not k.startswith("_")}
        finally:
            board.destroy()

    def test_json_payload_stays_compact(self):
        # snapshots of a full registry must fit the default region
        from repro.service.metrics import ServiceMetrics

        m = ServiceMetrics(version="1.0.0")
        for i in range(50):
            m.requests.inc(endpoint="/predict", status="200")
            m.latency.observe(0.001 * i, endpoint="/predict")
        payload = json.dumps({"metrics": m.snapshot()},
                             separators=(",", ":")).encode()
        assert len(payload) < 262144
