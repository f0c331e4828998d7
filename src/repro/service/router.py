"""Route table and endpoint handlers.

A route maps ``METHOD /path/{param}`` onto an async handler
``handler(app, request, **params) -> Response``; ``app`` is the
:class:`repro.service.server.ServiceApp` carrying the batcher, metrics,
result cache and registries.  Handlers never run simulations on the
event loop: predictions go through the micro-batcher, experiment runs
through an executor.  Repeats of either are answered from the
batcher's LRU on arrival.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import time

from .. import __version__
from ..ablation import AblateRequest, COMPONENTS
from ..bounds import BoundsRequest, DEFAULT_CELLS, DEFAULT_THRESHOLD, \
    SCOREBOARD_CELLS
from ..core.errors import AblationError, BoundsError, ExperimentError, \
    FaultInjected, ReproError
from ..machines import machine_catalog
from .httpd import HttpError, Request, Response
from .oracle import ALGORITHMS, MODELS, OracleError, PredictRequest

__all__ = ["Router", "default_router"]


class Router:
    """Literal-and-``{param}`` path matching over a method table."""

    def __init__(self):
        self._routes: list[tuple[str, tuple[str, ...], object]] = []

    def add(self, method: str, pattern: str, handler) -> None:
        self._routes.append((method.upper(),
                             tuple(pattern.strip("/").split("/")), handler))

    def match(self, method: str, path: str):
        """Return ``(handler, params)`` or raise 404/405."""
        segments = tuple(path.strip("/").split("/"))
        seen_path = False
        for verb, pattern, handler in self._routes:
            if len(pattern) != len(segments):
                continue
            params = {}
            for pat, seg in zip(pattern, segments):
                if pat.startswith("{") and pat.endswith("}"):
                    params[pat[1:-1]] = seg
                elif pat != seg:
                    break
            else:
                seen_path = True
                if verb == method:
                    return handler, params
        if seen_path:
            raise HttpError(405, f"method {method} not allowed for {path}")
        raise HttpError(404, f"no route for {path}")

    def endpoint_of(self, method: str, path: str) -> str:
        """The *pattern* a path matched (metrics label, bounded
        cardinality) — ``/experiments/{id}``, not ``/experiments/fig12``."""
        try:
            handler, _ = self.match(method, path)
        except HttpError:
            return "(unmatched)"
        for verb, pattern, h in self._routes:
            if h is handler and verb == method.upper():
                return "/" + "/".join(pattern)
        return "(unmatched)"


# ----------------------------------------------------------------------
# Handlers
# ----------------------------------------------------------------------

async def healthz(app, request: Request) -> Response:
    return Response.json({
        "status": "ok",
        "version": __version__,
        "uptime_s": round(app.uptime_s, 3),
        "lru_entries": len(app.batcher.cache),
        "processes": app.config.processes,
        "workers": app.config.workers,
        "worker_index": app.config.worker_index,
    })


async def machines(app, request: Request) -> Response:
    return Response.json({"machines": machine_catalog()})


async def experiments_index(app, request: Request) -> Response:
    return Response.json({"experiments": [
        {"id": exp.id, "title": exp.title, "paper_ref": exp.paper_ref}
        for exp in app.experiments.values()
    ]})


async def capabilities(app, request: Request) -> Response:
    """What /predict accepts — lets clients build forms without docs."""
    return Response.json({
        "machines": sorted(m["name"] for m in machine_catalog()),
        "models": list(MODELS),
        "algorithms": {name: {"default_size": size}
                       for name, (size, _) in ALGORITHMS.items()},
        "ablation": {
            "components": [c.to_dict() for c in COMPONENTS.values()],
            "cells": list(SCOREBOARD_CELLS),
        },
        "bounds": {
            "cells": list(DEFAULT_CELLS),
            "default_threshold": DEFAULT_THRESHOLD,
        },
    })


def _float_param(request: Request, name: str, default: float) -> float:
    raw = request.query.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise HttpError(400, f"query parameter {name}={raw!r} is not a "
                        "number") from None


def _seed_param(request: Request) -> int:
    """``?seed=``: like ``/predict``'s seed, an int in ``[0, 2**31)``."""
    raw = request.query.get("seed", "0")
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if not 0 <= seed < 2 ** 31:
        raise HttpError(400, f"query parameter seed={raw!r} is not a "
                        "non-negative integer below 2**31")
    return seed


async def _run_experiment(app, key: tuple):
    """Run ``key``'s experiment on the experiment executor.

    Single-flight per key: concurrent identical requests queue on one
    lock instead of stampeding the executor, and the lock's entry goes
    when its last user leaves.
    """
    locks = app.experiment_locks
    entry = locks.setdefault(key, [asyncio.Lock(), 0])
    entry[1] += 1
    try:
        async with entry[0]:
            return await asyncio.get_running_loop().run_in_executor(
                app.executor, app.run_experiment, *key[1:])
    except ExperimentError as exc:
        raise HttpError(422, str(exc)) from exc
    finally:
        entry[1] -= 1
        if not entry[1]:
            del locks[key]


async def experiment_detail(app, request: Request, id: str) -> Response:
    """Run one registered experiment through the runner's result cache.

    A repeat is answered from the batcher's LRU on the event loop; its
    ``elapsed_s`` is that read's duration, as for any cache hit.
    """
    if id not in app.experiments:
        raise HttpError(404, f"unknown experiment {id!r}")
    scale = _float_param(request, "scale", 1.0)
    seed = _seed_param(request)
    if not 0 < scale <= 1:
        raise HttpError(400, f"scale must be in (0, 1], got {scale}")

    key = ("experiment", id, scale, seed)
    t0 = time.perf_counter()
    result = app.batcher.probe("experiment", key)
    if result is not None:
        cached, elapsed_s = True, time.perf_counter() - t0
    else:
        outcome = await _run_experiment(app, key)
        result = outcome.result.to_dict()
        app.batcher.cache.put(key, result)
        cached, elapsed_s = outcome.cached, outcome.elapsed_s
    return Response.json({
        "id": id,
        "scale": scale,
        "seed": seed,
        "cached": cached,
        "elapsed_s": round(elapsed_s, 6),
        "result": result,
    })


def _retry_later(reason: str, after_s: float) -> Response:
    """A 503 with ``Retry-After`` — the graceful-degradation answer."""
    return Response.error(
        503, reason,
        headers={"Retry-After": str(max(1, math.ceil(after_s)))})


async def _submit_guarded(app, kind: str, key: tuple, req) -> Response:
    """Dispatch one prediction with the full degradation ladder.

    1. the key's circuit breaker: an open circuit fails fast (503 +
       Retry-After sized to the remaining cool-down) without burning a
       batch worker on a key that keeps failing;
    2. dispatcher saturation: too many in-flight futures → shed load
       immediately rather than queue unboundedly;
    3. per-request deadline: a submit that outlives
       ``request_timeout_s`` is abandoned (only its own future is
       cancelled; the key's evaluation goes on for any other waiter)
       and answered 503 + Retry-After.

    An LRU hit passes the same ladder and is answered inside the
    submit, without waiting for a batch.

    Successes and failures feed the breaker, so repeated evaluator
    faults on one key trip it while other keys keep flowing.
    """
    cfg = app.config
    breaker = app.breaker_for(key)
    if not breaker.allow():
        app.metrics.rejected.inc(reason="breaker")
        return _retry_later(
            f"circuit open for this {kind} key", breaker.retry_after_s())
    if app.batcher.saturated:
        app.metrics.rejected.inc(reason="saturated")
        return _retry_later("dispatcher saturated", cfg.retry_after_s)
    try:
        result = await asyncio.wait_for(
            app.batcher.submit(kind, key, req), cfg.request_timeout_s)
    except asyncio.TimeoutError:
        breaker.record_failure()
        app.metrics.rejected.inc(reason="deadline")
        return _retry_later(
            f"deadline of {cfg.request_timeout_s:g}s exceeded",
            cfg.retry_after_s)
    except Exception:
        breaker.record_failure()
        raise
    breaker.record_success()
    return Response.json(result)


async def predict(app, request: Request) -> Response:
    try:
        req = PredictRequest.from_json(request.json())
    except OracleError as exc:
        raise HttpError(422, str(exc)) from exc
    key = ("predict",) + (req.machine, req.model, req.algorithm,
                          req.size, req.seed)
    return await _submit_guarded(app, "predict", key, req)


async def compare(app, request: Request) -> Response:
    try:
        req = PredictRequest.from_json(request.json(), need_model=False)
    except OracleError as exc:
        raise HttpError(422, str(exc)) from exc
    key = ("compare",) + req.sim_key
    return await _submit_guarded(app, "compare", key, req)


async def ablate(app, request: Request) -> Response:
    """Run a component ablation through the batching dispatcher.

    The LRU/batcher key excludes execution knobs (the cache directory
    below), so identical logical requests dedupe and repeat requests
    are LRU hits; the per-cell result cache additionally makes cold
    evaluations of overlapping matrices incremental.
    """
    try:
        req = AblateRequest.from_json(request.json())
    except AblationError as exc:
        raise HttpError(422, str(exc)) from exc
    req = dataclasses.replace(req, cache_dir=app.config.cache_dir)
    key = ("ablate",) + req.key
    return await _submit_guarded(app, "ablate", key, req)


async def bounds(app, request: Request) -> Response:
    """Run the optimality scoreboard through the batching dispatcher.

    Same key discipline as /ablate: execution knobs stay out of the
    LRU/batcher key, the threshold stays in (it changes the report's
    headroom flags), and the per-cell result cache makes cold
    measurements of overlapping matrices incremental.
    """
    try:
        req = BoundsRequest.from_json(request.json())
    except BoundsError as exc:
        raise HttpError(422, str(exc)) from exc
    req = dataclasses.replace(req, cache_dir=app.config.cache_dir)
    key = ("bounds",) + req.key
    return await _submit_guarded(app, "bounds", key, req)


async def metrics(app, request: Request) -> Response:
    """Prometheus exposition; fleet-aggregated when a board is shared.

    Under SO_REUSEPORT the scrape lands on *one* worker, so that worker
    publishes its own fresh snapshot, reads every live sibling's from
    the shared board (the supervisor's fleet gauges included), and
    renders the merged totals — any worker answers for the whole fleet.
    """
    if app.board is None:
        return Response.text(app.metrics.render())
    from .metrics import merge_snapshots, render_snapshot

    index = app.config.worker_index or 0
    app.board.publish(index, {"worker": index,
                              "metrics": app.metrics.snapshot()})
    snaps = [doc["metrics"] for doc in app.board.read_all()
             if isinstance(doc, dict) and "metrics" in doc]
    return Response.text(render_snapshot(merge_snapshots(snaps)))


def default_router() -> Router:
    router = Router()
    router.add("GET", "/healthz", healthz)
    router.add("GET", "/machines", machines)
    router.add("GET", "/experiments", experiments_index)
    router.add("GET", "/experiments/{id}", experiment_detail)
    router.add("GET", "/capabilities", capabilities)
    router.add("POST", "/predict", predict)
    router.add("POST", "/compare", compare)
    router.add("POST", "/ablate", ablate)
    router.add("POST", "/bounds", bounds)
    router.add("GET", "/metrics", metrics)
    return router


def service_error_response(exc: Exception) -> Response:
    """Map handler exceptions onto HTTP statuses."""
    if isinstance(exc, HttpError):
        return Response.error(exc.status, exc.message)
    if isinstance(exc, FaultInjected):
        # a transient injected failure that outlived the bounded retries:
        # tell the client to come back, not that its request was bad
        return _retry_later(f"transient failure: {exc}", 1.0)
    if isinstance(exc, (OracleError, ReproError, ValueError)):
        return Response.error(422, str(exc))
    return Response.error(500, f"{type(exc).__name__}: {exc}")
