"""Chaos tests for the ablation evaluator's recovery paths.

Worker crashes mid-matrix, poisoned cache entries and served dispatch
faults are injected into ablation runs; every test asserts the report
still lands byte-identical to the fault-free one — the evaluator rides
the same retry/fallback/quarantine machinery as the experiment runner,
and a cell run is a pure function of its run ID.
"""

import json

import pytest

from repro.ablation import AblateRequest, ablate
from repro.faults import RetryPolicy
from repro.runner import ResultCache
from repro.service.oracle import ablate_offline

from .conftest import http
from .test_service_faults import service

pytestmark = [pytest.mark.chaos, pytest.mark.slow]

#: two components on two machines -> a 4-run matrix (2 baseline cells +
#: one ablated run each), small enough to stay fast, wide enough that a
#: mid-matrix crash leaves completed work behind.
SELECTION = dict(components=("sync-loss", "cube-discount"),
                 cells=("apsp", "bitonic"), scale=0.3, seed=0)
N_RUNS = 4

POLICY = RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05,
                     seed=0)


def report_bytes(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True).encode()


@pytest.fixture(scope="module")
def baseline() -> bytes:
    """The fault-free report every recovery must reproduce exactly."""
    return report_bytes(ablate(AblateRequest(**SELECTION,
                                             use_cache=False)))


class TestWorkerFaults:
    @pytest.mark.parametrize("seed", [7, 11, 13])
    def test_probabilistic_crashes_recover_bit_identical(self, baseline,
                                                         fake_clock, seed):
        report = ablate(
            AblateRequest(**SELECTION, jobs=2, use_cache=False),
            faults=f"worker-crash:p=0.5,seed={seed}",
            retry=POLICY, clock=fake_clock)
        assert report_bytes(report) == baseline
        assert len(fake_clock.sleeps) <= (POLICY.max_attempts - 1) * N_RUNS

    def test_certain_crash_falls_back_in_process(self, baseline,
                                                 fake_clock):
        """p=1: every pool attempt dies; the in-process fallback runs
        each cell with exactly the policy's backoff schedule spent."""
        report = ablate(
            AblateRequest(**SELECTION, jobs=2, use_cache=False),
            faults="worker-crash", retry=POLICY, clock=fake_clock)
        assert report_bytes(report) == baseline
        assert fake_clock.sleeps == POLICY.delays() * N_RUNS

    def test_hung_workers_time_out_and_recover(self, baseline, fake_clock):
        report = ablate(
            AblateRequest(**SELECTION, jobs=2, use_cache=False),
            faults="worker-hang:delay=0.6,count=1", retry=POLICY,
            clock=fake_clock, exec_timeout_s=0.2)
        assert report_bytes(report) == baseline


class TestCacheFaults:
    @pytest.mark.parametrize("point", ["cache-corrupt", "cache-truncate",
                                       "cache-stale"])
    def test_poisoned_entries_quarantined_then_healed(self, tmp_path,
                                                      baseline, point):
        """Mangle one stored cell doc; the next run quarantines it,
        recomputes, and both reports stay byte-identical."""
        req = AblateRequest(**SELECTION, cache_dir=str(tmp_path))
        first = ablate(req, faults=f"{point}:count=1")
        assert report_bytes(first) == baseline

        second = ablate(req)
        assert report_bytes(second) == baseline
        cache = ResultCache(tmp_path)
        assert cache.store.stats()["quarantined"]["count"] == 1

        # third run: fully verified hits, still the same bytes
        third = ablate(req)
        assert report_bytes(third) == baseline


class TestServedFaults:
    DOC = {"components": ["sync-loss"], "cells": ["apsp"], "scale": 0.3,
           "seed": 0}

    def test_dispatch_error_retried_to_offline_bytes(self, tmp_path):
        with service(tmp_path, faults="dispatch-error:count=1") as svc:
            status, body, _ = http(svc.port, "POST", "/ablate", self.DOC)
            assert status == 200
            assert body == json.loads(json.dumps(ablate_offline(self.DOC)))
            _, metrics, _ = http(svc.port, "GET", "/metrics")
            assert 'repro_faults_injected_total{point="dispatch-error"} 1' \
                in metrics

    def test_worker_crash_inside_service_still_serves(self, tmp_path):
        """A crash fault active inside the batch worker's evaluator is
        absorbed by the evaluator's own retries (jobs=1 runs inline, so
        the fault point fires nowhere) — the served bytes don't change."""
        with service(tmp_path, faults="worker-crash:p=0.5,seed=3") as svc:
            status, body, _ = http(svc.port, "POST", "/ablate", self.DOC)
            assert status == 200
            assert body == json.loads(json.dumps(ablate_offline(self.DOC)))
