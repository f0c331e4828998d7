"""Parallel experiment execution with cache-aware scheduling.

:func:`run_experiments` fans a batch of registered experiments out across
a process pool.  The flow per experiment:

1. derive its content-addressed key (:mod:`repro.runner.fingerprint`);
2. probe the on-disk cache — hits are served in milliseconds;
3. dispatch the misses to ``jobs`` worker processes (or run them inline
   when ``jobs == 1``), then store each fresh result.

Determinism: every experiment draws all randomness from generators
seeded by its ``(seed, scale)`` arguments, so a result is a pure function
of its cache key — parallel and serial runs are bit-identical, and a
cache hit equals a recomputation.  Workers are separate processes, so
per-process memoisation (calibration fits) never leaks between runs.

Workers are *persistent*: one forked worker pool lives for the process
(:func:`warm_pool`), so the interpreter/NumPy import cost is paid once
per worker rather than once per batch.  Before the pool is built the
parent pre-fits the standard Table 1 calibrations (``calibration_for``
is memoised per process); forked workers inherit the warmed memo, so no
experiment pays the fit cost either (on platforms without ``fork`` a
per-worker initializer does the same warming).  A memo hit is
observationally identical to a recomputation — see
:mod:`repro.calibration.table1` — so pre-warming cannot change results.

Fault tolerance: the pool is instrumented with deterministic fault
points (:mod:`repro.faults`) at worker spawn (``spawn-crash``,
``spawn-slow``) and exec (``worker-crash``, ``worker-hang``).  A failed
or timed-out worker task is retried under a bounded
:class:`~repro.faults.RetryPolicy` (respawning the pool when it broke);
once the attempts are exhausted the experiment falls back to in-process
execution.  Because results are pure functions of their arguments,
every recovery path is bit-identical to the fault-free run.
"""

from __future__ import annotations

import atexit
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

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

__all__ = ["RunOutcome", "collect_resilient", "resolve_ids",
           "run_experiments", "warm_pool", "shutdown_pool"]

#: machine configurations the worker initializer pre-fits: the three
#: paper machines at their default partitions (what ``calibrated`` asks
#: for in every figure).
_WARM_CONFIGS = (("maspar", 1024), ("gcel", 64), ("cm5", 64))

#: failures worth a respawn/retry — injected faults, a broken pool and
#: per-task deadline overruns.  Real experiment errors (bad parameters)
#: are deterministic and propagate immediately.
_RETRYABLE = (FaultInjected, BrokenProcessPool, FutureTimeout)

_pool: ProcessPoolExecutor | None = None
_pool_workers: int | None = None
_pool_plan: str | None = None

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


def _plan_signature() -> str | None:
    """The active fault plan's canonical text (pool identity component)."""
    injector = active()
    return injector.plan.render() if injector is not None else None


def warm_pool(jobs: int, *, seed: int = 0) -> ProcessPoolExecutor:
    """The persistent worker pool, (re)built when ``jobs`` or the active
    fault plan changes.

    Forked workers survive across :func:`run_experiments` calls; the
    parent's memo is warmed first so they inherit the fits.  A later
    call with a different ``seed`` reuses the running pool — workers
    then fit that seed's calibrations once each on demand (still
    memoised per worker process).
    """
    global _pool, _pool_workers, _pool_plan
    plan_text = _plan_signature()
    if _pool is not None and _pool_workers == jobs \
            and _pool_plan == plan_text:
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
    _pool_workers = jobs
    _pool_plan = plan_text
    return _pool


def shutdown_pool() -> None:
    """Stop the persistent pool (no-op when none is running)."""
    global _pool, _pool_workers, _pool_plan
    if _pool is not None:
        _pool.shutdown(wait=True, cancel_futures=True)
        _pool = None
        _pool_workers = None
        _pool_plan = None


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


def _worker(exp_id: str, scale: float, seed: int) -> tuple[dict, float]:
    """Run one experiment in a worker process (dict result pickles small).

    Returns the serialised result plus the in-worker wall time, so the
    parent's timing summary reflects compute cost, not queue wait.
    """
    from ..experiments import get

    fault_point("worker-hang")
    fault_point("worker-crash")
    t0 = time.perf_counter()
    result = get(exp_id).run(scale=scale, seed=seed).to_dict()
    return result, time.perf_counter() - t0


def collect_resilient(fn, args: tuple, first_fut, *, fallback, jobs: int,
                      seed: int, policy: RetryPolicy, clock: Clock,
                      timeout_s: float | None):
    """Await one pool task, retrying transient failures under ``policy``.

    Attempt 0 consumes the already-submitted future; later attempts
    resubmit ``fn(*args)`` (rebuilding the pool first when it broke).  A
    timed-out task is cancelled and retried elsewhere.  Once the bounded
    attempts are spent, ``fallback()`` runs the task in-process — same
    arguments, same pure function, bit-identical result.  Shared by
    :func:`run_experiments` and the ablation evaluator
    (:mod:`repro.ablation.evaluate`).
    """
    state = {"fut": first_fut}

    def attempt(i: int):
        if i > 0:
            state["fut"] = warm_pool(jobs, seed=seed).submit(fn, *args)
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
        return fallback()


def _collect_resilient(exp_id: str, first_fut, *, registry, scale: float,
                       seed: int, jobs: int, policy: RetryPolicy,
                       clock: Clock,
                       timeout_s: float | None) -> tuple[dict, float]:
    """One experiment's :func:`collect_resilient`, in-process fallback
    included."""

    def fallback() -> tuple[dict, float]:
        t0 = time.perf_counter()
        result = registry[exp_id].run(scale=scale, seed=seed)
        return result.to_dict(), time.perf_counter() - t0

    return collect_resilient(_worker, (exp_id, scale, seed), first_fut,
                             fallback=fallback, jobs=jobs, seed=seed,
                             policy=policy, clock=clock, timeout_s=timeout_s)


def run_experiments(ids: list[str], *, scale: float = 1.0, seed: int = 0,
                    jobs: int = 1, cache: ResultCache | None = None,
                    force: bool = False,
                    faults: FaultPlan | str | None = None,
                    retry: RetryPolicy | None = None,
                    exec_timeout_s: float | None = None,
                    clock: Clock | None = None) -> list[RunOutcome]:
    """Run a batch of experiments, using ``cache`` and ``jobs`` workers.

    ``cache=None`` disables caching entirely; ``force=True`` recomputes
    even on a hit (and refreshes the stored entry).  Outcomes come back
    in the order of ``ids``.

    ``faults`` installs a :class:`~repro.faults.FaultPlan` for the
    duration of the batch (also active inside pool workers);
    ``retry``/``exec_timeout_s``/``clock`` tune the recovery path —
    bounded backoff attempts per worker task, a per-task deadline, and
    the clock the backoff sleeps against (a ``FakeClock`` in tests).
    """
    from ..experiments import all_experiments

    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    if isinstance(faults, str):
        faults = FaultPlan.parse(faults)
    ids = resolve_ids(ids)
    registry = all_experiments()
    clock = clock or SYSTEM_CLOCK
    policy = retry or RetryPolicy(max_attempts=3, base_delay_s=0.05,
                                  max_delay_s=1.0, seed=seed)

    with faults_active(faults):
        fingerprint = source_fingerprint()
        keys = {exp_id: experiment_key(
            exp_id, scale=scale, seed=seed, fingerprint=fingerprint,
            inputs=registry[exp_id].cache_inputs())
            for exp_id in ids}

        outcomes: dict[str, RunOutcome] = {}
        misses: list[str] = []
        for exp_id in ids:
            if cache is not None and not force:
                t0 = time.perf_counter()
                hit = cache.get(keys[exp_id], exp_id)
                if hit is not None:
                    outcomes[exp_id] = RunOutcome(
                        id=exp_id, result=hit, cached=True,
                        elapsed_s=time.perf_counter() - t0)
                    continue
            misses.append(exp_id)

        if misses:
            if jobs == 1 or len(misses) == 1:
                fresh = {}
                for exp_id in misses:
                    t0 = time.perf_counter()
                    result = registry[exp_id].run(scale=scale, seed=seed)
                    fresh[exp_id] = (result, time.perf_counter() - t0)
            else:
                fresh = {}
                ex = warm_pool(jobs, seed=seed)
                futures = {exp_id: ex.submit(_worker, exp_id, scale, seed)
                           for exp_id in misses}
                try:
                    for exp_id, fut in futures.items():
                        doc, elapsed = _collect_resilient(
                            exp_id, fut, registry=registry, scale=scale,
                            seed=seed, jobs=jobs, policy=policy,
                            clock=clock, timeout_s=exec_timeout_s)
                        fresh[exp_id] = (ExperimentResult.from_dict(doc),
                                         elapsed)
                except BaseException:
                    # never leak a busy pool past an unexpected failure:
                    # cancel what has not started, reap the workers, and
                    # let the error propagate (regression-tested)
                    for pending in futures.values():
                        pending.cancel()
                    shutdown_pool()
                    raise
            for exp_id, (result, elapsed) in fresh.items():
                if cache is not None:
                    if force:
                        cache.stats.record(exp_id, hit=False)
                    cache.put(keys[exp_id], result, meta={
                        "experiment": exp_id, "scale": scale, "seed": seed,
                        "code": fingerprint})
                outcomes[exp_id] = RunOutcome(id=exp_id, result=result,
                                              cached=False, elapsed_s=elapsed)

    return [outcomes[exp_id] for exp_id in ids]
