"""Multi-process fleet integration tests (real ``repro serve`` subprocess).

One module-scoped 2-process fleet backs the read-only tests; the signal
tests boot their own so they can kill it, and the metrics test boots
its own so its request count is exact.  Everything here
asserts the tentpole contract: byte-identical responses to the
single-process and offline paths, fleet-aggregated ``/metrics``, and a
supervisor that drains and reaps on SIGINT/SIGTERM with no orphans left
behind.
"""

from __future__ import annotations

import json
import signal
import socket
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from fleetharness import (FleetProc, metric_total,  # noqa: E402
                          metric_value, pid_alive, raw_request, wait_dead)

DOC = {"machine": "gcel", "model": "bsp", "algorithm": "bitonic",
       "size": 32}


@pytest.fixture(scope="module")
def fleet():
    with FleetProc(2) as proc:
        yield proc


class TestFleetBoot:
    def test_banner_names_topology(self, fleet):
        banner = next(line for line in fleet.lines if "repro.fleet" in line)
        assert "processes=2" in banner
        assert "mode=" in banner

    def test_healthz_reports_fleet_topology(self, fleet):
        status, payload = raw_request(fleet.port, "GET", "/healthz")
        assert status == 200
        doc = json.loads(payload)
        assert doc["processes"] == 2
        assert doc["worker_index"] in (0, 1)

    def test_two_live_workers(self, fleet):
        pids = fleet.worker_pids()
        assert sorted(pids) == [0, 1]
        assert all(pid_alive(p) for p in pids.values())


class TestFleetServing:
    def test_responses_byte_identical_across_workers(self, fleet):
        body = json.dumps(DOC).encode()
        answers = set()
        for _ in range(24):
            status, payload = raw_request(fleet.port, "POST", "/predict",
                                          body)
            assert status == 200
            answers.add(payload)
        assert len(answers) == 1, \
            "workers disagreed on bytes for an identical request"

    def test_fleet_bytes_match_single_process_and_offline(self, fleet):
        from repro.service.oracle import predict_offline
        from repro.service.server import ServiceConfig, ServiceThread

        body = json.dumps(DOC).encode()
        _, fleet_payload = raw_request(fleet.port, "POST", "/predict", body)

        config = ServiceConfig(port=0, workers=2, warm=False)
        with ServiceThread(config) as thread:
            _, solo_payload = raw_request(thread.port, "POST", "/predict",
                                          body)
        assert fleet_payload == solo_payload
        offline = (json.dumps(predict_offline(DOC)) + "\n").encode()
        assert fleet_payload == offline

    def test_metrics_aggregates_fleet_wide(self):
        import time

        with FleetProc(2) as fleet:
            body = json.dumps(DOC).encode()
            served = set()
            sent = 0
            # fresh connections until both workers have answered some
            while len(served) < 2 or sent < 24:
                status, payload = raw_request(fleet.port, "GET", "/healthz")
                assert status == 200
                served.add(json.loads(payload)["worker_index"])
                status, _ = raw_request(fleet.port, "POST", "/predict", body)
                assert status == 200
                sent += 2
                assert sent < 400, "requests never reached both workers"
            # sibling snapshots republish every 0.5s, so the fleet totals
            # are eventually consistent — poll until every request above
            # is counted by whichever worker we scrape (the scrape itself
            # is counted after its response is rendered)
            deadline = time.monotonic() + 10.0
            while True:
                status, payload = raw_request(fleet.port, "GET", "/metrics")
                assert status == 200
                sent += 1
                text = payload.decode()
                counted = metric_total(text, "repro_requests_total")
                if counted == sent - 1 or time.monotonic() > deadline:
                    break
                time.sleep(0.2)
            assert counted == sent - 1
            assert metric_value(text, "repro_fleet_workers") == 2.0
            assert metric_value(text, "repro_fleet_spawned_total") == 2.0
            # info gauge merges with max, so the fleet reports exactly 1
            assert 'repro_service_info{' in text

    def test_unknown_route_is_404_everywhere(self, fleet):
        for _ in range(4):
            status, _ = raw_request(fleet.port, "GET", "/nope")
            assert status == 404


class TestFleetLifecycle:
    def test_killed_worker_respawns(self, fleet):
        import os

        pids = fleet.worker_pids()
        victim_index, victim_pid = sorted(pids.items())[0]
        os.kill(victim_pid, signal.SIGKILL)
        new_pid = fleet.wait_respawn(victim_index, victim_pid)
        assert new_pid != victim_pid
        assert not pid_alive(victim_pid)
        # the fleet keeps serving, replacement included
        status, payload = raw_request(fleet.port, "GET", "/healthz")
        assert status == 200
        assert json.loads(payload)["processes"] == 2
        assert any("respawning" in line for line in fleet.lines)

    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT],
                             ids=["SIGTERM", "SIGINT"])
    def test_signal_drains_and_reaps_no_orphans(self, sig):
        with FleetProc(2) as proc:
            port = proc.port
            pids = list(proc.worker_pids().values())
            assert len(pids) == 2
            proc.send(sig)
            assert proc.wait(timeout=30) == 0
            assert wait_dead(pids), f"orphaned workers: {pids}"
            assert any("drained and stopped" in line for line in proc.lines)
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", port),
                                         timeout=2).close()
