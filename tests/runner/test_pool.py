"""Tests for the parallel experiment executor (and the acceptance criteria:
parallel == serial bit-identically, and a warm cache serves a repeat batch
at least 5x faster than the cold run)."""

import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.errors import ExperimentError
from repro.faults import FakeClock, RetryPolicy
from repro.runner import ResultCache, resolve_ids, run_experiments
from repro.runner.pool import shutdown_pool, warm_pool

#: a cheap but non-trivial batch (two machines, calibration, microbenches)
BATCH = ["fig1", "fig2", "fig14", "table1"]


class TestResolveIds:
    def test_all_expands_to_registry(self):
        ids = resolve_ids(["all"])
        assert "fig1" in ids and "table1" in ids and "ext-lu" in ids
        assert "ext-radix" in ids and "ext-modern" in ids
        assert len(ids) == 35

    def test_duplicates_dropped_order_kept(self):
        assert resolve_ids(["fig2", "fig1", "fig2"]) == ["fig2", "fig1"]

    def test_unknown_id_lists_valid_ones(self):
        with pytest.raises(ExperimentError, match="valid ids:.*fig14"):
            resolve_ids(["fig1", "nope"])

    def test_jobs_validated(self):
        with pytest.raises(ExperimentError, match="jobs"):
            run_experiments(["fig14"], jobs=0)


class TestSerialExecution:
    def test_uncached_run_without_cache(self):
        (out,) = run_experiments(["fig14"], scale=0.3, cache=None)
        assert out.id == "fig14"
        assert not out.cached
        assert out.result.passed

    def test_cache_round_trip_equals_fresh(self, tmp_path):
        """Cache-hit result == cache-miss result, bit for bit."""
        cache = ResultCache(tmp_path)
        (miss,) = run_experiments(["fig14"], scale=0.3, cache=cache)
        (hit,) = run_experiments(["fig14"], scale=0.3, cache=cache)
        assert not miss.cached and hit.cached
        assert hit.result.identical(miss.result)
        for a, b in zip(hit.result.series, miss.result.series):
            assert a.ys.tobytes() == b.ys.tobytes()

    def test_key_inputs_partition_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiments(["fig14"], scale=0.3, seed=0, cache=cache)
        (other_seed,) = run_experiments(["fig14"], scale=0.3, seed=1,
                                        cache=cache)
        (other_scale,) = run_experiments(["fig14"], scale=0.4, seed=0,
                                         cache=cache)
        assert not other_seed.cached and not other_scale.cached

    def test_force_recomputes_and_restores(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiments(["fig14"], scale=0.3, cache=cache)
        (out,) = run_experiments(["fig14"], scale=0.3, cache=cache,
                                 force=True)
        assert not out.cached
        assert cache.stats.stores == 2


class TestParallelExecution:
    def test_jobs4_bit_identical_to_jobs1(self):
        par = run_experiments(BATCH, scale=0.3, jobs=4, cache=None)
        ser = run_experiments(BATCH, scale=0.3, jobs=1, cache=None)
        assert [o.id for o in par] == BATCH
        for a, b in zip(par, ser):
            assert a.result.identical(b.result), a.id

    def test_parallel_results_land_in_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiments(BATCH, scale=0.3, jobs=4, cache=cache)
        assert cache.stats.misses == len(BATCH)
        warm = ResultCache(tmp_path)
        outs = run_experiments(BATCH, scale=0.3, jobs=4, cache=warm)
        assert all(o.cached for o in outs)
        assert warm.stats.hits == len(BATCH)


class TestWarmPool:
    def test_pool_persists_across_batches(self):
        ex1 = warm_pool(2, seed=0)
        ex2 = warm_pool(2, seed=0)
        assert ex1 is ex2
        try:
            # the same executor serves successive run_experiments batches
            run_experiments(["fig14"], scale=0.3, jobs=2, cache=None)
            run_experiments(["fig14"], scale=0.3, jobs=2, cache=None)
            assert warm_pool(2, seed=0) is ex1
        finally:
            shutdown_pool()

    def test_jobs_change_rebuilds(self):
        ex2 = warm_pool(2, seed=0)
        ex3 = warm_pool(3, seed=0)
        assert ex2 is not ex3
        shutdown_pool()

    def test_shutdown_is_idempotent(self):
        warm_pool(2, seed=0)
        shutdown_pool()
        shutdown_pool()  # no pool running: must be a no-op

    def test_parent_memo_is_prewarmed(self):
        from repro.calibration.table1 import calibration_for

        warm_pool(2, seed=0)
        try:
            # warm_pool pre-fits in the parent before forking, so the
            # standard configs hit the memo instantly
            t0 = time.perf_counter()
            calibration_for("gcel", P=64, machine_seed=1000, seed=0)
            assert time.perf_counter() - t0 < 0.1
        finally:
            shutdown_pool()


def _boom(exp_id, scale, seed):
    """Stand-in experiment job raising a deterministic (non-retryable)
    error."""
    raise RuntimeError(f"injected pool failure for {exp_id}")


class TestPoolErrorCleanup:
    def test_worker_error_propagates_and_pool_is_reaped(self, monkeypatch):
        """Regression: an exception escaping the parallel collection loop
        used to leak the warm pool (workers alive, futures pending).  The
        error must still propagate, but the pool must be shut down."""
        from repro.runner import pool as pool_mod

        monkeypatch.setattr(pool_mod, "_experiment_doc", _boom)
        with pytest.raises(RuntimeError, match="injected pool failure"):
            run_experiments(BATCH, scale=0.3, jobs=2, cache=None)
        assert pool_mod._pool is None  # reaped, not leaked

    def test_pool_usable_again_after_cleanup(self, monkeypatch):
        from repro.runner import pool as pool_mod

        monkeypatch.setattr(pool_mod, "_experiment_doc", _boom)
        with pytest.raises(RuntimeError):
            run_experiments(BATCH, scale=0.3, jobs=2, cache=None)
        monkeypatch.undo()
        try:
            outs = run_experiments(["fig1", "fig14"], scale=0.3, jobs=2,
                                   cache=None)
            assert [o.id for o in outs] == ["fig1", "fig14"]
        finally:
            shutdown_pool()


class _BreaksOnSecondSubmit:
    """Stand-in executor: runs each task at submit time, except that the
    second submit finds the pool broken, as when a worker dies while a
    batch is still being submitted."""

    def __init__(self):
        self.submits = 0

    def submit(self, fn, *args):
        self.submits += 1
        if self.submits == 2:
            raise BrokenProcessPool("a worker died during submission")
        fut = Future()
        fut.set_result(fn(*args))
        return fut


class TestBrokenSubmit:
    def test_submit_into_broken_pool_is_retried(self, monkeypatch):
        """Regression: a pool that broke between two submits raised out
        of the batch; the failed submit must be retried like a task the
        break killed, and every document must equal the inline run's."""
        from repro.runner import pool as pool_mod

        inline = run_experiments(BATCH, scale=0.3, jobs=1, cache=None)
        stub = _BreaksOnSecondSubmit()
        monkeypatch.setattr(pool_mod, "warm_pool",
                            lambda workers, seed=0: stub)
        clock = FakeClock()
        outs = run_experiments(
            BATCH, scale=0.3, jobs=2, cache=None, clock=clock,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.05, seed=0))
        assert [o.id for o in outs] == BATCH
        for a, b in zip(outs, inline):
            assert a.result.to_dict() == b.result.to_dict(), a.id
        assert stub.submits == len(BATCH) + 1  # one retried submit
        assert len(clock.sleeps) == 1


class TestCacheSpeedup:
    def test_warm_batch_at_least_5x_faster(self, tmp_path):
        """Acceptance: a second invocation is served >=5x faster, and the
        cache-stats output proves it came from the cache."""
        cache = ResultCache(tmp_path)
        t0 = time.perf_counter()
        cold = run_experiments(BATCH, scale=0.3, cache=cache)
        cold_s = time.perf_counter() - t0
        assert cache.stats.summary() == "0 hit(s), 4 miss(es)"

        warm_cache = ResultCache(tmp_path)
        t0 = time.perf_counter()
        warm = run_experiments(BATCH, scale=0.3, cache=warm_cache)
        warm_s = time.perf_counter() - t0
        assert warm_cache.stats.summary() == "4 hit(s), 0 miss(es)"
        assert all(o.cached for o in warm)
        for a, b in zip(cold, warm):
            assert a.result.identical(b.result), a.id
        assert cold_s >= 5 * warm_s, (
            f"cold {cold_s:.3f}s vs warm {warm_s:.3f}s")


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        """There is one engine: a batch takes no engine to choose."""
        with pytest.raises(TypeError, match="engine"):
            run_experiments(["fig14"], scale=0.3, cache=None, engine="turbo")
