"""Micro-batcher unit tests (controlled evaluator, no simulator)."""

import asyncio

import pytest

from repro.service.batcher import LRUCache, MicroBatcher
from repro.service.metrics import ServiceMetrics


class TestLRUCache:
    def test_hit_miss_counters(self):
        lru = LRUCache(4)
        assert lru.get("a") is None
        lru.put("a", 1)
        assert lru.get("a") == 1
        assert (lru.hits, lru.misses) == (1, 1)

    def test_eviction_order(self):
        lru = LRUCache(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1     # refresh a; b is now oldest
        lru.put("c", 3)
        assert lru.get("b") is None  # evicted
        assert lru.get("a") == 1 and lru.get("c") == 3
        assert len(lru) == 2

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            LRUCache(0)


def _run(coro):
    return asyncio.run(coro)


def _echo_evaluate(calls):
    """An evaluator that records each batch and echoes the payloads."""
    def evaluate(items):
        calls.append([key for _, key, _ in items])
        return {key: {"payload": payload} for _, key, payload in items}
    return evaluate


class TestMicroBatcher:
    def test_coalesces_concurrent_submissions(self):
        calls = []

        async def scenario():
            b = MicroBatcher(_echo_evaluate(calls), window_s=0.05,
                             max_batch=64, workers=1)
            await b.start()
            try:
                results = await asyncio.gather(*[
                    b.submit("predict", ("k", i), i) for i in range(10)])
            finally:
                await b.stop()
            return results

        results = _run(scenario())
        assert [r["payload"] for r in results] == list(range(10))
        # everything arrived inside one window -> one evaluator call
        assert len(calls) == 1
        assert len(calls[0]) == 10

    def test_lru_serves_repeats_without_reevaluation(self):
        calls = []

        async def scenario():
            b = MicroBatcher(_echo_evaluate(calls), window_s=0.01,
                             workers=1)
            await b.start()
            try:
                first = await b.submit("predict", ("same",), 1)
                again = await b.submit("predict", ("same",), 1)
            finally:
                await b.stop()
            return first, again

        first, again = _run(scenario())
        assert first == again
        assert sum(len(c) for c in calls) == 1  # one miss, one LRU hit

    def test_duplicate_keys_in_one_batch_deduplicate(self):
        calls = []

        async def scenario():
            b = MicroBatcher(_echo_evaluate(calls), window_s=0.05,
                             workers=1)
            await b.start()
            try:
                results = await asyncio.gather(*[
                    b.submit("predict", ("dup",), 7) for _ in range(8)])
            finally:
                await b.stop()
            return results

        results = _run(scenario())
        assert all(r == {"payload": 7} for r in results)
        assert sum(len(c) for c in calls) == 1

    def test_max_batch_splits_oversized_bursts(self):
        calls = []

        async def scenario():
            b = MicroBatcher(_echo_evaluate(calls), window_s=0.05,
                             max_batch=4, workers=2)
            await b.start()
            try:
                await asyncio.gather(*[
                    b.submit("predict", ("k", i), i) for i in range(10)])
            finally:
                await b.stop()

        _run(scenario())
        assert all(len(c) <= 4 for c in calls)
        assert sum(len(c) for c in calls) == 10

    def test_per_key_errors_reach_only_their_callers(self):
        def evaluate(items):
            out = {}
            for _, key, payload in items:
                out[key] = (ValueError(f"bad {key}") if payload == "boom"
                            else {"ok": True})
            return out

        async def scenario():
            b = MicroBatcher(evaluate, window_s=0.05, workers=1)
            await b.start()
            try:
                good, bad = await asyncio.gather(
                    b.submit("predict", ("g",), "fine"),
                    b.submit("predict", ("b",), "boom"),
                    return_exceptions=True)
            finally:
                await b.stop()
            return good, bad

        good, bad = _run(scenario())
        assert good == {"ok": True}
        assert isinstance(bad, ValueError)

    def test_whole_batch_crash_rejects_every_future(self):
        def evaluate(items):
            raise RuntimeError("evaluator died")

        async def scenario():
            b = MicroBatcher(evaluate, window_s=0.05, workers=1)
            await b.start()
            try:
                return await asyncio.gather(
                    *[b.submit("predict", (i,), i) for i in range(3)],
                    return_exceptions=True)
            finally:
                await b.stop()

        results = _run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_errors_are_not_cached(self):
        attempts = []

        def evaluate(items):
            attempts.append(len(items))
            if len(attempts) == 1:
                return {key: ValueError("first try fails")
                        for _, key, _ in items}
            return {key: {"ok": True} for _, key, _ in items}

        async def scenario():
            b = MicroBatcher(evaluate, window_s=0.01, workers=1)
            await b.start()
            try:
                with pytest.raises(ValueError):
                    await b.submit("predict", ("k",), 1)
                return await b.submit("predict", ("k",), 1)
            finally:
                await b.stop()

        assert _run(scenario()) == {"ok": True}
        assert len(attempts) == 2

    def test_metrics_observe_batches_and_lru(self):
        metrics = ServiceMetrics(version="test")

        async def scenario():
            b = MicroBatcher(_echo_evaluate([]), window_s=0.05, workers=1,
                             metrics=metrics)
            await b.start()
            try:
                await asyncio.gather(*[
                    b.submit("predict", ("k", i % 2), i % 2)
                    for i in range(6)])
                await b.submit("predict", ("k", 0), 0)  # a later hit
            finally:
                await b.stop()

        _run(scenario())
        assert metrics.batch_size.count() >= 1
        assert metrics.batch_size.mean() > 1
        assert metrics.lru_hits.total() >= 1
        assert metrics.lru_misses.total() >= 2

    def test_submit_before_start_is_an_error(self):
        async def scenario():
            b = MicroBatcher(_echo_evaluate([]))
            with pytest.raises(RuntimeError, match="start"):
                await b.submit("predict", ("k",), 1)

        _run(scenario())

    @pytest.mark.parametrize("kwargs", [
        {"window_s": -1}, {"max_batch": 0}, {"workers": 0},
    ])
    def test_rejects_bad_configuration(self, kwargs):
        with pytest.raises(ValueError):
            MicroBatcher(_echo_evaluate([]), **kwargs)

