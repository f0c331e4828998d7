"""Cache-aware, fault-tolerant execution of content-addressed jobs.

:func:`run_jobs` is the one runner behind every matrix this package
evaluates: the registry experiments (:func:`run_experiments`), the
ablation cells (:func:`repro.ablation.ablate`) and the bounds cells
(:func:`repro.bounds.bounds`).  A :class:`Job` pairs a content-addressed
run ID with a picklable call that returns a JSON-safe document.  The
flow per batch:

1. drop repeated run IDs, keeping the first occurrence (fault schedules
   follow submission order);
2. probe the on-disk cache — hits are served in milliseconds;
3. run the misses inline (one worker, or one miss) or on ``workers``
   pool processes;
4. round-trip every fresh document through JSON once, so a fresh
   document equals a cached one byte for byte downstream, and store it.

Determinism: every job draws all randomness from generators seeded by
its arguments, so a document is a pure function of its run ID — parallel
and serial runs are bit-identical, and a cache hit equals a
recomputation.  Workers are separate processes, so per-process
memoisation (calibration fits) never leaks between runs.

Workers are *persistent*: one forked worker pool lives for the process
(:func:`warm_pool`), so the interpreter/NumPy import cost is paid once
per worker rather than once per batch.  Before the pool is built the
parent pre-fits the standard Table 1 calibrations (``calibration_for``
is memoised per process); forked workers inherit the warmed memo, so no
job pays the fit cost either (on platforms without ``fork`` a
per-worker initializer does the same warming).  A memo hit is
observationally identical to a recomputation — see
:mod:`repro.calibration.table1` — so pre-warming cannot change results.

Fault tolerance: the pool is instrumented with deterministic fault
points (:mod:`repro.faults`) at worker spawn (``spawn-crash``,
``spawn-slow``) and exec (``worker-crash``, ``worker-hang``, in every
pooled job).  A failed or timed-out worker task is retried under a
bounded :class:`~repro.faults.RetryPolicy` (respawning the pool when it
broke); once the attempts are exhausted the job falls back to
in-process execution.  Because documents are pure functions of their
run IDs, every recovery path is bit-identical to the fault-free run.
"""

from __future__ import annotations

import atexit
import functools
import json
import multiprocessing
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, NamedTuple

from ..core.errors import ExperimentError, FaultInjected
from ..faults import (
    Clock,
    FaultPlan,
    RetryExhausted,
    RetryPolicy,
    SYSTEM_CLOCK,
    active,
    fault_point,
    faults_active,
    install,
    retry_call,
)
from ..validation.series import ExperimentResult
from .cache import ResultCache
from .fingerprint import experiment_key, source_fingerprint

__all__ = ["Job", "JobResult", "RunOutcome", "resolve_ids", "run_experiments",
           "run_jobs", "warm_pool", "shutdown_pool"]

#: machine configurations the worker initializer pre-fits: the three
#: paper machines at their default partitions (what ``calibrated`` asks
#: for in every figure).
_WARM_CONFIGS = (("maspar", 1024), ("gcel", 64), ("cm5", 64))

#: failures worth a respawn/retry — injected faults, a broken pool and
#: per-task deadline overruns.  Real job errors (bad parameters) are
#: deterministic and propagate immediately.
_RETRYABLE = (FaultInjected, BrokenProcessPool, FutureTimeout)

_pool: ProcessPoolExecutor | None = None
_pool_key: tuple | None = None

# one process-wide atexit guard, registered at import: however the pool
# is (re)built later, interpreter exit always reaps it.
atexit.register(lambda: shutdown_pool())


def _fit_calibrations(seed: int) -> None:
    """Pre-fit the standard calibrations into the process-wide memo.

    The fits land with the exact keys ``calibrated`` uses
    (``machine_seed = seed + 1000``), so experiment code hits the memo
    instead of re-fitting.
    """
    from ..calibration.table1 import calibration_for

    for name, P in _WARM_CONFIGS:
        calibration_for(name, P=P, machine_seed=seed + 1000, seed=seed)


def _child_init(plan_text: str | None, seed: int, warm: bool) -> None:
    """Worker initializer: faults in, spawn fault points, optional warm.

    Runs once per worker process.  The fault plan is re-installed from
    its text so every worker replays a fresh per-point schedule; the
    ``spawn-*`` points then simulate crash/slow-start during pool
    bring-up (a crash marks the executor broken — the parent recovers
    by falling back to in-process execution).
    """
    if plan_text:
        install(FaultPlan.parse(plan_text))
    fault_point("spawn-slow")
    fault_point("spawn-crash")
    if warm:
        _fit_calibrations(seed)


def warm_pool(jobs: int, *, seed: int = 0) -> ProcessPoolExecutor:
    """The persistent worker pool, (re)built when ``jobs``, the active
    fault plan or the cache root (``$REPRO_CACHE_DIR``, which workers
    inherit) changes.

    Forked workers survive across batches; the parent's memo is warmed
    first so they inherit the fits.  A later call with a different
    ``seed`` reuses the running pool — workers then fit that seed's
    calibrations once each on demand (still memoised per worker
    process).
    """
    global _pool, _pool_key
    injector = active()
    plan_text = injector.plan.render() if injector is not None else None
    key = (jobs, plan_text, os.environ.get("REPRO_CACHE_DIR"))
    if _pool is not None and _pool_key == key:
        return _pool
    shutdown_pool()
    try:
        ctx = multiprocessing.get_context("fork")
        _fit_calibrations(seed)  # children fork off the warmed memo
        initargs = (plan_text, seed, False)
    except ValueError:  # no fork (e.g. Windows): warm each worker instead
        ctx = multiprocessing.get_context()
        initargs = (plan_text, seed, True)
    _pool = ProcessPoolExecutor(max_workers=jobs, mp_context=ctx,
                                initializer=_child_init, initargs=initargs)
    _pool_key = key
    return _pool


def shutdown_pool() -> None:
    """Stop the persistent pool (no-op when none is running)."""
    global _pool, _pool_key
    if _pool is not None:
        _pool.shutdown(wait=True, cancel_futures=True)
        _pool = None
        _pool_key = None


@dataclass(frozen=True)
class Job:
    """One content-addressed unit of work for :func:`run_jobs`.

    ``call`` returns the job's JSON-safe document, a pure function of
    ``run_id``; it must pickle (a :func:`functools.partial` of a
    module-level function) to run on the pool.  ``meta`` is the entry's
    metadata header; its ``"experiment"`` names the entry in
    ``repro cache info`` and in the cache statistics.
    """

    run_id: str
    meta: dict
    call: Callable[[], dict]


class JobResult(NamedTuple):
    """One job's document and how it was obtained: ``elapsed_s`` is the
    job's own run time when fresh, the cache read when ``cached``."""

    doc: dict
    cached: bool
    elapsed_s: float


def _timed(call: Callable[[], dict]) -> tuple[dict, float]:
    t0 = time.perf_counter()
    doc = call()
    return doc, time.perf_counter() - t0


def _pool_task(call: Callable[[], dict]) -> tuple[dict, float]:
    """One job in a worker process: the exec fault points, then the call
    (timed in the worker, so timings reflect compute, not queue wait)."""
    fault_point("worker-hang")
    fault_point("worker-crash")
    return _timed(call)


def _submit(ex: ProcessPoolExecutor, call: Callable[[], dict]) -> Future:
    """``ex.submit`` of one pool task that never raises a broken pool.

    A worker that dies while the batch is still being submitted breaks
    the pool, and every later ``submit`` raises at once.  That error is
    handed back as a failed future, so :func:`collect_resilient` rebuilds,
    retries and falls back exactly as for a task the break killed.
    """
    try:
        return ex.submit(_pool_task, call)
    except BrokenProcessPool as exc:
        fut: Future = Future()
        fut.set_exception(exc)
        return fut


def collect_resilient(call: Callable[[], dict], first_fut, *, workers: int,
                      seed: int, policy: RetryPolicy, clock: Clock,
                      timeout_s: float | None) -> tuple[dict, float]:
    """Await one pool task, retrying transient failures under ``policy``.

    Attempt 0 consumes the already-submitted future; later attempts
    resubmit ``call`` (rebuilding the pool first when it broke).  A
    timed-out task is cancelled and retried elsewhere.  Once the bounded
    attempts are spent, ``call`` runs in-process — same pure function,
    bit-identical result.
    """
    state = {"fut": first_fut}

    def attempt(i: int):
        if i > 0:
            state["fut"] = warm_pool(workers, seed=seed).submit(_pool_task,
                                                                call)
        fut = state["fut"]
        try:
            return fut.result(timeout=timeout_s)
        except FutureTimeout:
            fut.cancel()
            raise
        except BrokenProcessPool:
            shutdown_pool()  # the next attempt (or caller) rebuilds
            raise

    try:
        return retry_call(attempt, policy=policy, clock=clock,
                          retry_on=_RETRYABLE)
    except RetryExhausted:
        return _timed(call)


def run_jobs(jobs: list[Job], *, workers: int, seed: int,
             cache: ResultCache | None = None, force: bool = False,
             faults: FaultPlan | str | None = None,
             retry: RetryPolicy | None = None,
             exec_timeout_s: float | None = None,
             clock: Clock | None = None) -> dict[str, JobResult]:
    """Run ``jobs`` on ``workers`` processes; ``run_id -> JobResult``.

    ``cache=None`` disables caching; ``force=True`` recomputes even on a
    hit (refreshing the entry).  ``faults`` installs a
    :class:`~repro.faults.FaultPlan` for the batch (also active inside
    pool workers); ``retry``/``exec_timeout_s``/``clock`` tune the
    recovery path — bounded backoff attempts per worker task, a per-task
    deadline, and the clock the backoff sleeps against (a ``FakeClock``
    in tests).  ``seed`` seeds the default retry jitter and the pool's
    calibration warm-up.
    """
    if workers < 1:
        raise ExperimentError(f"jobs must be >= 1, got {workers}")
    clock = clock or SYSTEM_CLOCK
    policy = retry or RetryPolicy(max_attempts=3, base_delay_s=0.05,
                                  max_delay_s=1.0, seed=seed)
    uniq: dict[str, Job] = {}
    for job in jobs:
        uniq.setdefault(job.run_id, job)

    out: dict[str, JobResult] = {}
    with faults_active(faults):
        misses: list[Job] = []
        for job in uniq.values():
            if cache is not None and not force:
                t0 = time.perf_counter()
                doc = cache.get_doc(job.run_id, job.meta["experiment"])
                if doc is not None:
                    out[job.run_id] = JobResult(
                        doc, True, time.perf_counter() - t0)
                    continue
            misses.append(job)

        if workers == 1 or len(misses) < 2:
            fresh = [_timed(job.call) for job in misses]
        else:
            ex = warm_pool(workers, seed=seed)
            futures = [_submit(ex, job.call) for job in misses]
            try:
                fresh = [collect_resilient(
                    job.call, fut, workers=workers, seed=seed,
                    policy=policy, clock=clock, timeout_s=exec_timeout_s)
                    for job, fut in zip(misses, futures)]
            except BaseException:
                # never leak a busy pool past an unexpected failure:
                # cancel what has not started, reap the workers, and
                # let the error propagate (regression-tested)
                for pending in futures:
                    pending.cancel()
                shutdown_pool()
                raise
        for job, (doc, elapsed) in zip(misses, fresh):
            doc = json.loads(json.dumps(doc))
            if cache is not None:
                if force:
                    cache.stats.record(job.meta["experiment"], hit=False)
                cache.put_doc(job.run_id, doc, meta=job.meta)
            out[job.run_id] = JobResult(doc, False, elapsed)
    return out


@dataclass
class RunOutcome:
    """One experiment's result plus how it was obtained."""

    id: str
    result: ExperimentResult
    cached: bool
    elapsed_s: float


def resolve_ids(ids: list[str]) -> list[str]:
    """Expand ``all``, validate every id, drop duplicates (order kept).

    Raises :class:`ExperimentError` naming the valid ids on an unknown id.
    """
    from ..experiments import all_experiments

    known = all_experiments()
    if ids == ["all"]:
        return list(known)
    out: list[str] = []
    for exp_id in ids:
        if exp_id not in known:
            valid = ", ".join(known)
            raise ExperimentError(
                f"unknown experiment {exp_id!r}; valid ids: {valid}")
        if exp_id not in out:
            out.append(exp_id)
    return out


def _experiment_doc(exp_id: str, scale: float, seed: int) -> dict:
    """Run one registry experiment; its serialised result."""
    from ..experiments import get

    return get(exp_id).run(scale=scale, seed=seed).to_dict()


def run_experiments(ids: list[str], *, scale: float = 1.0, seed: int = 0,
                    jobs: int = 1, cache: ResultCache | None = None,
                    force: bool = False,
                    faults: FaultPlan | str | None = None,
                    retry: RetryPolicy | None = None,
                    exec_timeout_s: float | None = None,
                    clock: Clock | None = None) -> list[RunOutcome]:
    """Run a batch of experiments, using ``cache`` and ``jobs`` workers.

    Outcomes come back in the order of ``ids``; ``cache``, ``force``,
    ``faults``, ``retry``, ``exec_timeout_s`` and ``clock`` are
    :func:`run_jobs`'s.
    """
    from ..experiments import all_experiments

    ids = resolve_ids(ids)
    registry = all_experiments()
    fingerprint = source_fingerprint()
    keys = [experiment_key(exp_id, scale=scale, seed=seed,
                           fingerprint=fingerprint,
                           inputs=registry[exp_id].cache_inputs())
            for exp_id in ids]
    done = run_jobs(
        [Job(key, {"experiment": exp_id, "scale": scale, "seed": seed,
                   "code": fingerprint},
             functools.partial(_experiment_doc, exp_id, scale, seed))
         for exp_id, key in zip(ids, keys)],
        workers=jobs, seed=seed, cache=cache, force=force, faults=faults,
        retry=retry, exec_timeout_s=exec_timeout_s, clock=clock)
    return [RunOutcome(id=exp_id,
                       result=ExperimentResult.from_dict(done[key].doc),
                       cached=done[key].cached,
                       elapsed_s=done[key].elapsed_s)
            for exp_id, key in zip(ids, keys)]
