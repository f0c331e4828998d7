"""Chaos tests for the multi-process fleet.

Two failure families, each asserting the serving contract survives:

* **worker death** (SIGKILL mid-loadtest, the ``worker-exit`` fault):
  the supervisor respawns deterministically, clients only ever see the
  documented degradation ladder (connection drop or 503 + Retry-After),
  and post-recovery answers are byte-identical to the offline oracle;
* **handoff loss**: an accepted-then-dropped connection costs exactly
  one client retry, nothing else.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.service import ServiceConfig, ServiceThread
from repro.service.loadtest import run_loadtest
from repro.service.oracle import predict_offline

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from fleetharness import (FleetProc, pid_alive, raw_request,  # noqa: E402
                          wait_dead)

pytestmark = [pytest.mark.chaos, pytest.mark.slow]

DOC = {"machine": "gcel", "model": "bsp", "algorithm": "bitonic",
       "size": 32}


def offline_bytes(doc) -> bytes:
    return (json.dumps(predict_offline(doc)) + "\n").encode()


class TestWorkerDeath:
    def test_kill9_mid_loadtest_respawns_within_ladder(self):
        """SIGKILL a worker under live load: the fleet keeps answering,
        every failure the clients saw is in the documented ladder, and
        the replacement worker serves byte-identical results."""
        with FleetProc(2) as fleet:
            victim_index, victim_pid = sorted(fleet.worker_pids().items())[0]
            killer = threading.Timer(
                1.0, os.kill, args=(victim_pid, signal.SIGKILL))
            killer.start()
            try:
                report = asyncio.run(run_loadtest(
                    "127.0.0.1", fleet.port, concurrency=4, duration_s=4.0,
                    mix=(1, 0, 0)))
            finally:
                killer.cancel()
            new_pid = fleet.wait_respawn(victim_index, victim_pid)
            assert new_pid != victim_pid and pid_alive(new_pid)
            assert not pid_alive(victim_pid)
            # failures stay within the documented degradation ladder
            assert set(report.error_detail) <= {"connection", "http 503"}, \
                report.error_detail
            assert report.total > 0
            # the healed fleet answers bit-identically to the oracle
            status, payload = raw_request(fleet.port, "POST", "/predict",
                                          json.dumps(DOC).encode())
            assert status == 200
            assert payload == offline_bytes(DOC)

    def test_worker_exit_fault_respawns_deterministically(self):
        """``worker-exit:count=1`` arms every worker to die mid-request
        (``os._exit(23)``); the supervisor reports the exit code and
        respawns, and the killed requests surface only as connection
        drops — never as wrong bytes or hangs."""
        with FleetProc(2, args=("--faults", "worker-exit:count=1")) as fleet:
            body = json.dumps(DOC).encode()
            outcomes = []
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                try:
                    status, payload = raw_request(fleet.port, "POST",
                                                  "/predict", body,
                                                  timeout=10)
                    outcomes.append((status, payload))
                except (ConnectionError, OSError):
                    outcomes.append(("dropped", None))
                if any("respawning" in line for line in fleet.lines):
                    break
                time.sleep(0.25)
            assert any("exited (code 23) — respawning" in line
                       for line in fleet.lines), \
                f"no worker hit the worker-exit fault: {outcomes}"
            # any successful answer was byte-identical (a respawned
            # worker is re-armed, so the fleet flaps by design here and
            # zero successes is a legal schedule)
            bodies = {p for s, p in outcomes if s == 200}
            assert bodies <= {offline_bytes(DOC)}
            # failures were connection drops (the killed request) only —
            # a worker dying mid-request can't hand out wrong bytes
            assert {s for s, _ in outcomes} <= {200, 503, "dropped"}
            # the supervisor replaced the dead worker and stays up
            assert fleet.proc.poll() is None
            assert len(fleet.worker_pids()) == 2


class TestHandoffLoss:
    def test_dropped_accept_costs_one_retry(self, tmp_path):
        """``handoff-loss:count=1`` drops the first accepted connection
        before reading the request; the retry is answered perfectly."""
        config = ServiceConfig(port=0, workers=2, warm=False,
                               cache_dir=str(tmp_path / "cache"),
                               faults="handoff-loss:count=1")
        with ServiceThread(config) as svc:
            body = json.dumps(DOC).encode()
            with pytest.raises((ConnectionError, OSError)):
                raw_request(svc.port, "POST", "/predict", body, timeout=10)
            status, payload = raw_request(svc.port, "POST", "/predict",
                                          body)
            assert status == 200
            assert payload == offline_bytes(DOC)
            _, metrics = raw_request(svc.port, "GET", "/metrics")
            assert ('repro_faults_injected_total{point="handoff-loss"} 1'
                    in metrics.decode())

    def test_fleet_signal_teardown_leaves_no_sockets(self):
        """After SIGTERM the port is closed fleet-wide — no half-open
        placeholder or worker socket keeps accepting."""
        with FleetProc(2) as fleet:
            port = fleet.port
            pids = list(fleet.worker_pids().values())
            assert fleet.stop() == 0
            assert wait_dead(pids)
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=2).close()
