"""Shared-memory metrics board for the multi-process fleet.

:class:`MetricsBoard` holds one fixed-size region per fleet member into
which each worker publishes a JSON snapshot of its metrics registry, so
any worker can answer ``GET /metrics`` with fleet-wide totals.

The board is **lock-free by design**: Python cannot express atomic
compare-and-swap over shared memory, so correctness never depends on
mutual exclusion.  Each region has one writer (its own process) and
carries a *seqlock* — an even/odd version counter bracketing each
write.  A reader accepts a region only if the sequence number is even
and unchanged across the copy and the payload parses; a torn read is
reported as absent and the next publish replaces it.
"""

from __future__ import annotations

import json
import os
import struct
import time

__all__ = ["MetricsBoard"]

#: metrics-board region header: seq, pid, publish time, payload length.
_REGION = struct.Struct("<QQdI")


class MetricsBoard:
    """Per-process metrics publication over shared memory.

    ``regions`` fixed-size regions, one per fleet member (workers 0..N-1
    plus the supervisor at index N).  :meth:`publish` seqlock-writes a
    JSON document stamped with the publisher's pid and wall clock;
    :meth:`read_all` returns every region whose publisher is still
    alive, which is exactly the set a fleet-wide ``/metrics`` answer
    aggregates.
    """

    def __init__(self, buf, regions: int, region_bytes: int, *,
                 shm=None, owner: bool = False):
        self.buf = buf
        self.regions = regions
        self.region_bytes = region_bytes
        self._shm = shm
        self._owner = owner

    @classmethod
    def create(cls, regions: int,
               region_bytes: int = 262144) -> "MetricsBoard":
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True,
                                         size=regions * region_bytes)
        return cls(shm.buf, regions, region_bytes, shm=shm, owner=True)

    @classmethod
    def over(cls, regions: int, region_bytes: int = 65536) -> "MetricsBoard":
        """A board over a plain ``bytearray`` (unit tests)."""
        return cls(bytearray(regions * region_bytes), regions, region_bytes)

    def _off(self, index: int) -> int:
        if not 0 <= index < self.regions:
            raise IndexError(f"region {index} of {self.regions}")
        return index * self.region_bytes

    def publish(self, index: int, doc: dict) -> bool:
        """Seqlock-write ``doc`` into region ``index`` (best effort)."""
        payload = json.dumps(doc, separators=(",", ":")).encode()
        off = self._off(index)
        if _REGION.size + len(payload) > self.region_bytes:
            return False
        seq = _REGION.unpack_from(self.buf, off)[0]
        _REGION.pack_into(self.buf, off, seq + 1, os.getpid(), time.time(),
                          len(payload))
        lo = off + _REGION.size
        self.buf[lo:lo + len(payload)] = payload
        struct.pack_into("<Q", self.buf, off, seq + 2)
        return True

    def read(self, index: int) -> dict | None:
        """Region ``index``'s last published document, or ``None``."""
        off = self._off(index)
        seq1, pid, stamp, length = _REGION.unpack_from(self.buf, off)
        if length == 0 or seq1 % 2:
            return None
        if _REGION.size + length > self.region_bytes:
            return None
        lo = off + _REGION.size
        payload = bytes(self.buf[lo:lo + length])
        if _REGION.unpack_from(self.buf, off)[0] != seq1:
            return None
        try:
            doc = json.loads(payload.decode())
        except (ValueError, UnicodeDecodeError):
            return None
        doc["_pid"] = pid
        doc["_age_s"] = max(0.0, time.time() - stamp)
        return doc

    def read_all(self, *, require_alive: bool = True) -> list[dict]:
        """Every region's document, publisher-alive ones only by default."""
        docs = []
        for index in range(self.regions):
            doc = self.read(index)
            if doc is None:
                continue
            if require_alive and not _pid_alive(doc["_pid"]):
                continue
            docs.append(doc)
        return docs

    def close(self) -> None:
        if self._shm is not None:
            self.buf = bytearray(_REGION.size)
            try:
                self._shm.close()
            except (OSError, BufferError):
                pass

    def destroy(self) -> None:
        shm = self._shm
        self.close()
        if shm is not None and self._owner:
            try:
                shm.unlink()
            except OSError:
                pass


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
