"""Chaos tests for the warm-pool recovery path.

Crash, hang and spawn faults are injected into the worker pool under
seeded plans; every test asserts the batch still completes with results
bit-identical to the fault-free run, and that the bounded backoff spent
exactly (or at most) its budgeted attempts — measured on a FakeClock,
so no test actually sleeps through a backoff schedule.
"""

import json

import pytest

from repro.faults import FakeClock, RetryPolicy, faults_active
from repro.runner import run_experiments

pytestmark = [pytest.mark.chaos, pytest.mark.slow]

#: two cheap experiments exercising distinct machines/calibrations.
IDS = ["fig1", "fig14"]
SCALE = 0.3

#: a tight policy so exhausted-retry tests stay fast even on real clocks.
POLICY = RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05,
                     seed=0)


@pytest.fixture(scope="module")
def baseline():
    """The fault-free results (serial, uncached) every test compares to."""
    outs = run_experiments(IDS, scale=SCALE, cache=None)
    return {o.id: o.result for o in outs}


class TestWorkerCrash:
    @pytest.mark.parametrize("seed", [7, 11, 13])
    def test_probabilistic_crashes_recover_bit_identical(self, baseline,
                                                         fake_clock, seed):
        """Three different crash schedules, one invariant: same bytes."""
        outs = run_experiments(
            IDS, scale=SCALE, cache=None, jobs=2,
            faults=f"worker-crash:p=0.5,seed={seed}",
            retry=POLICY, clock=fake_clock)
        for out in outs:
            assert not out.cached
            assert out.result.identical(baseline[out.id]), out.id
            for a, b in zip(out.result.series, baseline[out.id].series):
                assert a.ys.tobytes() == b.ys.tobytes()
        # bounded attempts: at most the policy's schedule per experiment
        assert len(fake_clock.sleeps) <= (POLICY.max_attempts - 1) * len(IDS)

    def test_certain_crash_falls_back_in_process(self, baseline, fake_clock):
        """p=1: every pool attempt fails, the in-process fallback runs —
        and the backoff schedule replayed is *exactly* the policy's."""
        outs = run_experiments(
            IDS, scale=SCALE, cache=None, jobs=2, faults="worker-crash",
            retry=POLICY, clock=fake_clock)
        for out in outs:
            assert out.result.identical(baseline[out.id]), out.id
        assert fake_clock.sleeps == POLICY.delays() * len(IDS)

    def test_certain_crash_in_bounds_cells_falls_back_in_process(
            self, monkeypatch):
        """Bounds cells run on the same pool path as experiments: every
        pool attempt crashes, the in-process fallback measures each cell,
        and the report matches the fault-free one byte for byte."""
        from repro.bounds import BoundsRequest, bounds
        from repro.runner import pool

        cells = ("apsp/gcel", "bitonic/maspar")
        clean = bounds(BoundsRequest(cells=cells, scale=0.3,
                                     use_cache=False))
        clock = FakeClock()  # bounds backs off on the runner's clock
        monkeypatch.setattr(pool, "SYSTEM_CLOCK", clock)
        with faults_active("worker-crash:p=1"):
            report = bounds(BoundsRequest(cells=cells, scale=0.3, jobs=2,
                                          use_cache=False))
        assert json.dumps(report, sort_keys=True) \
            == json.dumps(clean, sort_keys=True)
        # the crash fired: each cell spent the runner's default backoff
        # (three attempts, two sleeps) before falling back
        assert len(clock.sleeps) == 2 * len(cells)

    def test_faulted_results_land_in_cache_and_heal(self, baseline,
                                                    fake_clock, tmp_path):
        """A recovered run stores normal entries: the next run hits."""
        from repro.runner import ResultCache

        cache = ResultCache(tmp_path)
        run_experiments(IDS, scale=SCALE, cache=cache, jobs=2,
                        faults="worker-crash:p=0.5,seed=7",
                        retry=POLICY, clock=fake_clock)
        warm = ResultCache(tmp_path)
        outs = run_experiments(IDS, scale=SCALE, cache=warm)
        assert all(o.cached for o in outs)
        for out in outs:
            assert out.result.identical(baseline[out.id]), out.id


class TestSpawnFaults:
    def test_broken_pool_recovers(self, baseline, fake_clock):
        """spawn-crash breaks the pool during bring-up; the batch must
        still complete bit-identically (rebuild or in-process)."""
        outs = run_experiments(
            IDS, scale=SCALE, cache=None, jobs=2, faults="spawn-crash",
            retry=POLICY, clock=fake_clock)
        for out in outs:
            assert out.result.identical(baseline[out.id]), out.id
        assert len(fake_clock.sleeps) <= (POLICY.max_attempts - 1) * len(IDS)

    def test_slow_spawn_only_delays(self, baseline):
        """spawn-slow is pure latency: no retries, identical results."""
        clock = FakeClock()
        outs = run_experiments(
            IDS, scale=SCALE, cache=None, jobs=2,
            faults="spawn-slow:delay=0.05", retry=POLICY, clock=clock)
        for out in outs:
            assert out.result.identical(baseline[out.id]), out.id
        assert clock.sleeps == []  # parent never had to back off


class TestWorkerHang:
    def test_deadline_cancels_and_retries(self, baseline, fake_clock):
        """A hung worker trips ``exec_timeout_s``; the task is retried
        elsewhere and the batch stays bit-identical."""
        outs = run_experiments(
            IDS, scale=SCALE, cache=None, jobs=2,
            faults="worker-hang:delay=0.6,count=1",
            retry=POLICY, clock=fake_clock, exec_timeout_s=0.2)
        for out in outs:
            assert out.result.identical(baseline[out.id]), out.id
        assert 0 < len(fake_clock.sleeps) \
            <= (POLICY.max_attempts - 1) * len(IDS)
