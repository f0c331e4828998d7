"""Server assembly and lifecycle: ``repro serve``.

:class:`ReproService` owns the listening socket, the per-connection
keep-alive loops, the micro-batcher and the metrics registry.  Shutdown
is graceful: on SIGINT/SIGTERM the listener closes first, connection
loops finish the response they are writing, the batcher drains every
in-flight future, and only then does the process exit — a load balancer
doing a rolling restart never sees a dropped request.

:class:`ServiceThread` runs the same server on a private event loop in a
daemon thread — what the tests and the in-process loadtest fixture use.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .. import __version__
from ..faults import (CircuitBreaker, FaultPlan, RetryPolicy, deactivate,
                      fault_flag, fault_point, install)
from .batcher import MicroBatcher
from .httpd import HttpError, Response, encode_response, read_request
from .metrics import ServiceMetrics
from .oracle import evaluate_batch
from .router import default_router, service_error_response

__all__ = ["ServiceConfig", "ServiceApp", "ReproService", "ServiceThread",
           "run_service"]

#: seconds an idle keep-alive connection may sit before we close it.
IDLE_TIMEOUT = 60.0


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 2
    window_ms: float = 2.0
    max_batch: int = 256
    lru_size: int = 4096
    cache_dir: str | None = None
    warm: bool = True
    drain_timeout_s: float = 10.0
    #: worker processes; > 1 boots the pre-fork fleet supervisor
    #: (:mod:`repro.service.fleet`).
    processes: int = 1
    #: set in fleet workers: this process's index in [0, processes).
    worker_index: int | None = None
    #: fault plan text (``repro serve --faults``), installed at boot.
    faults: str | None = None
    #: per-request deadline on /predict and /compare; past it the client
    #: gets 503 + Retry-After instead of waiting forever.
    request_timeout_s: float = 30.0
    #: in-flight requests past this → immediate 503 + Retry-After.
    saturation_limit: int = 2048
    #: Retry-After seconds suggested on saturation/deadline rejections.
    retry_after_s: float = 1.0
    #: per-key circuit breaker: consecutive failures to trip, seconds
    #: before a half-open probe.
    breaker_threshold: int = 5
    breaker_reset_s: float = 30.0


class ServiceApp:
    """Shared handler state (what :mod:`.router` handlers see as ``app``)."""

    def __init__(self, config: ServiceConfig, *, board=None):
        self.config = config
        self.board = board
        self.metrics = ServiceMetrics(version=__version__)
        self._injector = None
        if config.faults:
            self._injector = install(FaultPlan.parse(config.faults))
            self._injector.on_fire = \
                lambda point: self.metrics.faults.inc(point=point)
        self.batcher = MicroBatcher(
            self._evaluate,
            window_s=config.window_ms / 1000.0,
            max_batch=config.max_batch,
            workers=config.workers,
            lru_size=config.lru_size,
            metrics=self.metrics,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.01,
                              max_delay_s=0.1),
            saturation_limit=config.saturation_limit)
        self.router = default_router()
        #: per-prediction-key circuit breakers (fault isolation: one
        #: poisoned key never takes down its neighbours).
        self.breakers: dict[tuple, CircuitBreaker] = {}
        # experiment runs are rarer and heavier than predictions: one
        # executor thread keeps them off both the loop and the batcher
        self.executor = ThreadPoolExecutor(
            max_workers=max(1, config.workers // 2),
            thread_name_prefix="repro-exp")
        #: experiment key -> [its single-flight lock, requests holding
        #: or awaiting it]; an entry goes when its count reaches zero.
        self.experiment_locks: dict[tuple, list] = {}
        self._started_at = time.monotonic()

        from ..experiments import all_experiments
        from ..runner import ResultCache
        self.experiments = all_experiments()
        self.result_cache = ResultCache(config.cache_dir)

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started_at

    def metrics_snapshot(self) -> list[dict]:
        """This worker's registry snapshot (fleet aggregation unit)."""
        return self.metrics.snapshot()

    def _evaluate(self, items):
        """The batch evaluator, instrumented with dispatch fault points.

        Runs on an executor thread.  ``dispatch-slow`` sleeps (a stuck
        batch worker), ``dispatch-error`` raises (a died one); the
        batcher's bounded retry absorbs both.
        """
        fault_point("dispatch-slow")
        fault_point("dispatch-error")
        return evaluate_batch(items)

    def breaker_for(self, key: tuple) -> CircuitBreaker:
        """The circuit breaker isolating one prediction key.

        The map is pruned of healthy (closed, no-failure) breakers when
        it grows past 4096 entries, bounding memory under key churn.
        """
        breaker = self.breakers.get(key)
        if breaker is None:
            if len(self.breakers) >= 4096:
                self.breakers = {
                    k: b for k, b in self.breakers.items()
                    if b.state != "closed" or b.failures > 0}
            breaker = self.breakers[key] = CircuitBreaker(
                threshold=self.config.breaker_threshold,
                reset_s=self.config.breaker_reset_s)
        return breaker

    def close(self) -> None:
        """Release process-global state installed at boot: the fault
        plan."""
        if self._injector is not None:
            deactivate()
            self._injector = None

    def run_experiment(self, exp_id: str, scale: float, seed: int):
        """Blocking experiment run (executor thread), via the runner cache."""
        from ..runner import run_experiments

        return run_experiments([exp_id], scale=scale, seed=seed, jobs=1,
                               cache=self.result_cache)[0]

    @staticmethod
    def warm() -> None:
        """Pre-fit the three paper calibrations (blocking; boot time).

        A staticmethod so the fleet supervisor can warm the process-wide
        memo *before* forking — every worker inherits the fits for free.
        """
        from ..calibration.table1 import calibration_for

        for name, P in (("maspar", 1024), ("gcel", 64), ("cm5", 64)):
            calibration_for(name, P=P, machine_seed=1000, seed=0)


class ReproService:
    """The asyncio HTTP server around one :class:`ServiceApp`.

    In fleet mode each worker process runs one of these over a shared
    metrics board (``board=``) and either its own SO_REUSEPORT socket
    or an inherited shared listener (``listen_sock=``).
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 board=None, listen_sock=None):
        self.config = config or ServiceConfig()
        self.app = ServiceApp(self.config, board=board)
        self._listen_sock = listen_sock
        self._server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._publish_task: asyncio.Task | None = None
        self._stopping = asyncio.Event()
        self.port: int | None = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self.config.warm:
            # calibrations are memoised process-wide; fitting them before
            # accepting traffic keeps first-request latency flat
            await asyncio.get_running_loop().run_in_executor(
                self.app.executor, self.app.warm)
        await self.app.batcher.start()
        if self._listen_sock is not None:
            self._server = await asyncio.start_server(
                self._on_connection, sock=self._listen_sock)
        else:
            self._server = await asyncio.start_server(
                self._on_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.app.board is not None:
            self._publish_task = asyncio.create_task(
                self._publish_metrics(), name="metrics-publisher")

    async def _publish_metrics(self) -> None:
        """Periodically publish this worker's snapshot to the board."""
        index = self.config.worker_index or 0
        while True:
            self.app.board.publish(index, {
                "worker": index,
                "metrics": self.app.metrics_snapshot()})
            await asyncio.sleep(0.5)

    def request_stop(self) -> None:
        """Ask the serve loop to shut down (signal-handler safe)."""
        self._stopping.set()

    async def stop(self) -> None:
        """Graceful: stop accepting, drain in-flight, then tear down."""
        self._stopping.set()
        if self._publish_task is not None:
            self._publish_task.cancel()
            await asyncio.gather(self._publish_task, return_exceptions=True)
            self._publish_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._conn_tasks:
            done, pending = await asyncio.wait(
                list(self._conn_tasks),
                timeout=self.config.drain_timeout_s)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        await self.app.batcher.stop()
        self.app.executor.shutdown(wait=True)
        self.app.close()

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` (usually via a signal handler)."""
        await self._stopping.wait()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                # only *request* the stop: the serve loop's finally
                # performs the one real teardown
                loop.add_signal_handler(sig, self.request_stop)

    # ------------------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        try:
            if fault_flag("handoff-loss"):
                # the accepted connection is dropped before any request
                # is read — clients see a reset and retry elsewhere
                return
            await self._serve_connection(reader, writer)
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _serve_connection(self, reader, writer) -> None:
        while not self._stopping.is_set():
            try:
                request = await asyncio.wait_for(read_request(reader),
                                                 IDLE_TIMEOUT)
            except asyncio.TimeoutError:
                return
            except HttpError as exc:
                writer.write(encode_response(
                    Response.error(exc.status, exc.message),
                    keep_alive=False))
                await writer.drain()
                return
            except ConnectionError:
                return
            if request is None:  # clean EOF
                return

            if self.config.worker_index is not None \
                    and fault_flag("worker-exit"):
                # a fleet worker dying mid-request: the supervisor
                # respawns it, the client sees a reset and retries.
                # Guarded to fleet workers so in-process test servers
                # never take the test runner down with them.
                os._exit(23)

            endpoint = self.app.router.endpoint_of(request.method,
                                                   request.path)
            self.app.metrics.inflight.inc()
            t0 = time.perf_counter()
            try:
                handler, params = self.app.router.match(request.method,
                                                        request.path)
                response = await handler(self.app, request, **params)
            except Exception as exc:  # noqa: BLE001 — mapped to a status
                response = service_error_response(exc)
            finally:
                self.app.metrics.inflight.dec()
            self.app.metrics.latency.observe(time.perf_counter() - t0,
                                             endpoint=endpoint)
            self.app.metrics.requests.inc(endpoint=endpoint,
                                          status=str(response.status))

            keep = request.keep_alive and not self._stopping.is_set()
            try:
                writer.write(encode_response(response, keep_alive=keep,
                                             version=request.version))
                await writer.drain()
            except ConnectionError:
                return
            if not keep:
                return


async def _amain(config: ServiceConfig, *, ready=None) -> None:
    service = ReproService(config)
    await service.start()
    service.install_signal_handlers()
    banner = (f"repro.service {__version__} listening on "
              f"http://{config.host}:{service.port} "
              f"(workers={config.workers} window={config.window_ms}ms "
              f"max-batch={config.max_batch} lru={config.lru_size})")
    print(banner, flush=True)
    if ready is not None:
        ready(service)
    try:
        await service.serve_forever()
    finally:
        await service.stop()


def run_service(config: ServiceConfig | None = None) -> int:
    """Blocking entry point for ``repro serve``."""
    config = config or ServiceConfig()
    if config.processes > 1:
        from .fleet import run_fleet

        return run_fleet(config)
    try:
        asyncio.run(_amain(config))
    except KeyboardInterrupt:
        pass
    return 0


class ServiceThread:
    """A server on a daemon thread + private loop (tests, fixtures).

    Usage::

        with ServiceThread(ServiceConfig(port=0)) as svc:
            urllib.request.urlopen(f"http://127.0.0.1:{svc.port}/healthz")
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 board=None):
        self.config = config or ServiceConfig(port=0)
        self.board = board
        self.service: ReproService | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-service")

    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # noqa: BLE001 — surfaced in start()
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.service = ReproService(self.config, board=self.board)
        await self.service.start()
        self._ready.set()
        try:
            await self.service.serve_forever()
        finally:
            await self.service.stop()

    # ------------------------------------------------------------------
    def start(self, timeout: float = 60.0) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("service did not start in time")
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error
        return self

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self.service is not None \
                and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.service.request_stop)
        self._thread.join(timeout)

    @property
    def port(self) -> int:
        assert self.service is not None and self.service.port is not None
        return self.service.port

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(run_service())
