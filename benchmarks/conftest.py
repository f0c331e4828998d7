"""Benchmark configuration.

Each benchmark regenerates one paper table/figure (at a reduced scale so
the suite stays fast) and asserts its paper-claim checks still pass —
pytest-benchmark times the *simulation harness* (wall clock); the
scientific output is the virtual-time series inside the result.
"""

from __future__ import annotations

import pytest

from repro.experiments import get


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Point the result cache and IR store at a per-session directory.

    Keeps benchmarks hermetic: they never read warm entries from, or
    write results and step programs into, the user's ``~/.cache/repro``.
    One directory per session (not per test) so repeated rounds of one
    benchmark see the same warm state.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR",
                  str(tmp_path_factory.mktemp("repro-cache")))
        yield


@pytest.fixture
def run_experiment():
    """Run a registered experiment and assert its checks."""

    def _run(exp_id: str, *, scale: float, seed: int = 0):
        result = get(exp_id).run(scale=scale, seed=seed)
        failed = [c for c in result.checks if not c.passed]
        assert not failed, (
            f"{exp_id} checks failed: " + "; ".join(str(c) for c in failed))
        return result

    return _run
