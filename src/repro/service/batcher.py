"""The micro-batching dispatcher — the serving hot path.

Every ``/predict`` (and ``/compare``, ``/ablate``, ``/bounds``) request
is first probed against a keyed **LRU** on arrival, on the event loop:
a previously answered key resolves at once and never meets the batching
window.  Only misses go further:

1. **single-flight**: a miss whose key is already queued or being
   evaluated joins that evaluation instead of starting another, across
   batches as well as within one;
2. a collector task coalesces the remaining misses that arrive within a
   small window (default 2 ms) or until ``max_batch`` are waiting, then
   dispatches them at once — the serve-side analogue of the
   master-worker batching in the BSF pipeline literature, pointed at
   the cost oracle;
3. each batch goes to one of ``workers`` sharded worker tasks, which
   runs the oracle's batched evaluator
   (:func:`repro.service.oracle.evaluate_batch`) inside a thread-pool
   executor so the event loop never blocks on a simulation.

BSF's cost analysis says batching pays only when the work a batch
shares outweighs the wait.  A hit shares no work, so it never waits,
and ``repro_batch_size`` measures the coalescing of misses alone.

All bookkeeping (LRU, in-flight map, metrics, futures) happens on the
event-loop thread; executor threads only ever see immutable job lists.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

from ..core.errors import FaultInjected
from ..faults import RetryPolicy, fault_flag

__all__ = ["LRUCache", "MicroBatcher"]


class LRUCache:
    """A plain ordered-dict LRU with hit/miss counters."""

    def __init__(self, maxsize: int = 4096):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key):
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (the ``lru-storm`` fault's eviction storm)."""
        self._data.clear()


class MicroBatcher:
    """LRU-first dispatch, window-based coalescing of the misses over a
    sharded worker pool.

    ``evaluate`` is a plain function ``list[(kind, key, payload)] ->
    {key: result | Exception}`` run inside the executor; per-key
    exceptions are re-raised from :meth:`submit` for that caller only.
    """

    def __init__(self, evaluate, *, window_s: float = 0.002,
                 max_batch: int = 256, workers: int = 2,
                 lru_size: int = 4096, metrics=None,
                 retry: RetryPolicy | None = None,
                 saturation_limit: int = 2048, sleep=None):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if window_s < 0:
            raise ValueError(f"window_s must be >= 0, got {window_s}")
        if saturation_limit < 1:
            raise ValueError(
                f"saturation_limit must be >= 1, got {saturation_limit}")
        self._evaluate = evaluate
        self.window_s = window_s
        self.max_batch = max_batch
        self.workers = workers
        self.cache = LRUCache(lru_size)
        self.metrics = metrics
        #: bounded backoff for transient (injected) evaluator failures.
        self.retry = retry or RetryPolicy(max_attempts=2, base_delay_s=0.01,
                                          max_delay_s=0.1)
        #: in-flight futures past this → the router sheds load with 503.
        self.saturation_limit = saturation_limit
        self._sleep = sleep or asyncio.sleep
        self._in_q: asyncio.Queue = asyncio.Queue()
        self._job_q: asyncio.Queue = asyncio.Queue()
        self._tasks: list[asyncio.Task] = []
        self._pending: set[asyncio.Future] = set()
        #: missed key -> the futures of every caller waiting for it, from
        #: its first miss until its evaluation resolves them
        self._inflight: dict[tuple, list[asyncio.Future]] = {}
        self._executor: ThreadPoolExecutor | None = None
        self._started = False

    @property
    def saturated(self) -> bool:
        """True when the dispatcher holds more in-flight requests than
        ``saturation_limit`` — the graceful-degradation signal."""
        return len(self._pending) >= self.saturation_limit

    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-batch")
        self._tasks = [asyncio.create_task(self._collect(),
                                           name="batcher-collector")]
        self._tasks += [asyncio.create_task(self._work(),
                                            name=f"batcher-worker-{i}")
                        for i in range(self.workers)]

    async def stop(self) -> None:
        """Drain in-flight requests, then tear the tasks down."""
        if not self._started:
            return
        while self._pending:
            await asyncio.wait(list(self._pending))
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._started = False

    # ------------------------------------------------------------------
    def probe(self, kind: str, key: tuple):
        """The arrival-time LRU lookup: the cached answer or ``None``.

        Each request is counted once here, as a hit or a miss; the
        ``lru-storm`` fault empties the LRU just before the lookup.
        """
        if fault_flag("lru-storm"):
            # simulated eviction storm: every cached answer vanishes at
            # once, so this request recomputes (bit-identically)
            self.cache.clear()
        hit = self.cache.get(key)
        if self.metrics is not None:
            counter = (self.metrics.lru_hits if hit is not None
                       else self.metrics.lru_misses)
            counter.inc(kind=kind)
        return hit

    async def submit(self, kind: str, key: tuple, payload):
        """Answer one request; resolves to its result (or raises).

        A hit returns at once.  A miss joins its key's evaluation if one
        is queued or running, and otherwise enqueues one.  Nothing
        awaits between the probe and the in-flight check, so a key
        cannot complete in between.
        """
        if not self._started:
            raise RuntimeError("MicroBatcher.submit() before start()")
        hit = self.probe(kind, key)
        if hit is not None:
            return hit
        fut = asyncio.get_running_loop().create_future()
        self._pending.add(fut)
        fut.add_done_callback(self._pending.discard)
        waiters = self._inflight.get(key)
        if waiters is not None:
            waiters.append(fut)
        else:
            self._inflight[key] = [fut]
            self._in_q.put_nowait((kind, key, payload))
        return await fut

    # ------------------------------------------------------------------
    async def _collect(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._in_q.get()]
            deadline = loop.time() + self.window_s
            while len(batch) < self.max_batch:
                timeout = deadline - loop.time()
                if timeout <= 0:
                    break
                try:
                    batch.append(await asyncio.wait_for(
                        self._in_q.get(), timeout))
                except asyncio.TimeoutError:
                    break
            self._dispatch(batch)

    def _dispatch(self, batch: list) -> None:
        if self.metrics is not None:
            self.metrics.batch_size.observe(len(batch))
            self.metrics.batches.inc()
        items = []
        for kind, key, payload in batch:
            if all(fut.cancelled() for fut in self._inflight[key]):
                # every waiter gave up before dispatch: drop the key
                del self._inflight[key]
            else:
                items.append((kind, key, payload))
        if items:
            self._job_q.put_nowait(items)

    async def _work(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            items = await self._job_q.get()
            results = await self._evaluate_resilient(loop, items)
            for _, key, _ in items:
                got = results.get(
                    key, KeyError(f"evaluator returned nothing for {key!r}"))
                if not isinstance(got, Exception):
                    self.cache.put(key, got)
                for fut in self._inflight.pop(key):
                    if fut.cancelled():
                        continue
                    if isinstance(got, Exception):
                        fut.set_exception(got)
                    else:
                        fut.set_result(got)

    async def _evaluate_resilient(self, loop, items: list) -> dict:
        """Run the evaluator, retrying *transient* failures boundedly.

        Only injected faults (:class:`FaultInjected` — the chaos suite's
        stand-in for a died batch worker) are retried, under the
        batcher's :class:`~repro.faults.RetryPolicy` with backoff via
        the injectable ``sleep``; deterministic evaluator errors fail
        the whole batch at once, exactly as before.  Attempt counts are
        therefore bounded by construction — no retry storms.
        """
        delays = self.retry.delays()
        for attempt in range(self.retry.max_attempts):
            try:
                return await loop.run_in_executor(
                    self._executor, self._evaluate, items)
            except FaultInjected as exc:
                last: Exception = exc
                if attempt < len(delays):
                    if self.metrics is not None:
                        self.metrics.retries.inc(site="dispatch")
                    await self._sleep(delays[attempt])
            except Exception as exc:  # noqa: BLE001 — whole-batch failure
                return {key: exc for _, key, _ in items}
        return {key: last for _, key, _ in items}
