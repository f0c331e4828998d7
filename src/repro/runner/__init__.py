"""Parallel, cache-aware job execution: one runner for the experiments
(``repro run --jobs N``), the ablation cells and the bounds cells."""

from .bench import (
    BenchRecord,
    QUICK_IDS,
    append_trajectory,
    check_budgets,
    compare_last_runs,
    compare_last_service_runs,
    parse_budgets,
    render_bench,
    run_bench,
)
from .cache import CacheStats, ResultCache, default_cache_root
from .fingerprint import clear_fingerprint_memo, experiment_key, source_fingerprint
from .pool import RunOutcome, resolve_ids, run_experiments
from .profile import (profile_path, profiled_run, render_ir_phases,
                      render_profile)

__all__ = [
    "BenchRecord",
    "QUICK_IDS",
    "append_trajectory",
    "check_budgets",
    "compare_last_runs",
    "compare_last_service_runs",
    "parse_budgets",
    "render_bench",
    "run_bench",
    "CacheStats",
    "ResultCache",
    "default_cache_root",
    "experiment_key",
    "source_fingerprint",
    "clear_fingerprint_memo",
    "RunOutcome",
    "resolve_ids",
    "run_experiments",
    "profile_path",
    "profiled_run",
    "render_ir_phases",
    "render_profile",
]
