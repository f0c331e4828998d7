"""Per-experiment cProfile capture (``repro run --profile``).

This mechanises the workflow that found the engine hot spots: run one
experiment under cProfile, dump the raw ``pstats`` file where later
sessions can load it (``python -m pstats <file>``), and print the
top cumulative-time entries.  Dumps live under ``<cache-dir>/profiles``
so they ride along with the result cache instead of littering the tree.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path

from ..validation.series import ExperimentResult

__all__ = ["profile_path", "profiled_run", "render_profile",
           "render_ir_phases"]


def profile_path(profile_dir: str | Path, exp_id: str, *, scale: float,
                 seed: int) -> Path:
    tag = f"{exp_id}_s{scale:g}_r{seed}".replace("/", "_")
    return Path(profile_dir) / f"{tag}.pstats"


def profiled_run(exp_id: str, *, scale: float = 1.0, seed: int = 0,
                 profile_dir: str | Path) -> tuple[ExperimentResult, Path]:
    """Run one experiment under cProfile; dump stats, return both."""
    from ..experiments import get

    path = profile_path(profile_dir, exp_id, scale=scale, seed=seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = get(exp_id).run(scale=scale, seed=seed)
    finally:
        profiler.disable()
        profiler.dump_stats(path)
    return result, path


def render_profile(path: str | Path, *, top: int = 12) -> str:
    """The top cumulative-time lines of a dumped profile, as text."""
    import io

    buf = io.StringIO()
    stats = pstats.Stats(str(path), stream=buf)
    stats.sort_stats("cumulative").print_stats(top)
    return buf.getvalue()


#: IR engine phase attribution: (section title, filename regex restricting
#: the profile to that phase's module).
_IR_SECTIONS = (
    ("ir record (pass-1 execution + interning)", r"simulator[/\\]lower\.py"),
    ("ir replay (pricing)", r"simulator[/\\]replay\.py"),
)


def render_ir_phases(path: str | Path, *, top: int = 6) -> str:
    """Record-vs-replay attribution of an IR run's profile.

    Two cProfile sections restricted to the lowering and replay modules:
    the ``cumtime`` of ``run_lowered`` (record side: pass-1 program
    execution, interning, store traffic, data passes) and of ``replay``
    (pricing).  Regressions then point at a phase, not just a total.
    Empty sections simply mean the experiment never took the IR path.
    """
    import io

    buf = io.StringIO()
    stats = pstats.Stats(str(path), stream=buf)
    stats.sort_stats("cumulative")
    for title, pattern in _IR_SECTIONS:
        buf.write(f"--- {title} ---\n")
        stats.print_stats(pattern, top)
    return buf.getvalue()
