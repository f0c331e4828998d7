"""Chaos tests for the result cache's self-healing read path.

Write-side faults mangle entries (corrupt bytes, truncation, stale
checksum); the read side must detect each one, quarantine the file,
report a miss, and let the recompute heal the slot — with the healed
entry bit-identical to a never-faulted one.
"""

import functools
import json

import pytest

from repro.experiments import get
from repro.faults import faults_active
from repro.runner import ResultCache, run_experiments
from repro.runner.pool import Job, run_jobs
from repro.validation.series import ExperimentResult

pytestmark = pytest.mark.chaos

KEY = "deadbeef" * 8  # any well-formed (hex) content address


@pytest.fixture(scope="module")
def result():
    """One real experiment result to store and mangle."""
    return get("fig14").run(scale=0.3, seed=0)


class TestQuarantineAndHeal:
    @pytest.mark.parametrize("point", ["cache-corrupt", "cache-truncate",
                                       "cache-stale"])
    def test_mangled_write_quarantined_then_healed(self, tmp_path, result,
                                                   point):
        cache = ResultCache(tmp_path)
        with faults_active(f"{point}:count=1"):
            cache.put_doc(KEY, result.to_dict())
            # the poisoned entry is detected, moved aside, and missed
            assert cache.get_doc(KEY) is None
            assert cache.stats.quarantined == 1
            assert cache.store.stats()["quarantined"]["count"] == 1
            # recompute-and-store heals the slot (count is exhausted)
            cache.put_doc(KEY, result.to_dict())
        healed = cache.get_doc(KEY)
        assert healed is not None
        assert ExperimentResult.from_dict(healed).identical(result)
        assert cache.stats.quarantined == 1  # no second quarantine

    @pytest.mark.parametrize("point", ["cache-corrupt", "cache-truncate",
                                       "cache-stale"])
    def test_program_writes_leave_the_points_to_results(self, tmp_path,
                                                        result, point):
        """The points fire on result writes only: a step-program write
        under the plan is stored intact and uses up none of its count."""
        from repro.algorithms import bitonic
        from repro.machines import CM5
        from repro.simulator.ir import IRStore, ir_store_scope

        with faults_active(f"{point}:count=1"):
            with ir_store_scope(IRStore(tmp_path)):
                bitonic.run(CM5(seed=3), 64, P=16, seed=1)
            ResultCache(tmp_path).put_doc(KEY, result.to_dict())
        store = IRStore(tmp_path)
        (blob,) = (tmp_path / "ir").rglob("*.blob")
        assert store.get(blob.stem) is not None
        assert store.quarantined == 0
        cache = ResultCache(tmp_path)
        assert cache.get_doc(KEY) is None
        assert cache.stats.quarantined == 1

    def test_healed_entry_is_byte_identical_to_clean(self, tmp_path, result):
        clean = ResultCache(tmp_path / "clean")
        faulted = ResultCache(tmp_path / "faulted")
        doc, meta = result.to_dict(), {"experiment": "fig14"}
        clean_path = clean.put_doc(KEY, doc, meta=meta)
        with faults_active("cache-corrupt:count=1"):
            faulted.put_doc(KEY, doc, meta=meta)
            faulted.get_doc(KEY)  # quarantine
            healed_path = faulted.put_doc(KEY, doc, meta=meta)
        assert healed_path.read_bytes() == clean_path.read_bytes()

    def test_clean_entries_verify_and_stay_put(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put_doc(KEY, result.to_dict())
        got = cache.get_doc(KEY)
        assert got is not None
        assert ExperimentResult.from_dict(got).identical(result)
        assert cache.stats.quarantined == 0
        assert cache.store.stats()["quarantined"]["count"] == 0

    def test_hand_flipped_byte_detected(self, tmp_path, result):
        """Checksum verification catches bit-rot, not just injected
        faults: flip one character on disk by hand."""
        cache = ResultCache(tmp_path)
        path = cache.put_doc(KEY, result.to_dict())
        raw = path.read_text()
        i = raw.index('"result"') + 20
        flipped = raw[:i] + ("1" if raw[i] != "1" else "2") + raw[i + 1:]
        # the payload after the envelope line is still valid JSON — only
        # the sum fails
        assert json.loads(flipped.partition("\n")[2])
        path.write_text(flipped)
        assert cache.get_doc(KEY) is None
        assert cache.stats.quarantined == 1


class TestRunnerEndToEnd:
    def test_corrupted_store_recomputed_bit_identically(self, tmp_path):
        """run → corrupt store → run again: quarantine + recompute →
        run a third time: a verified hit.  All three results identical."""
        cache = ResultCache(tmp_path)
        (first,) = run_experiments(["fig14"], scale=0.3, cache=cache,
                                   faults="cache-corrupt:count=1")
        assert not first.cached

        second_cache = ResultCache(tmp_path)
        (second,) = run_experiments(["fig14"], scale=0.3,
                                    cache=second_cache)
        assert not second.cached  # the poisoned entry did not serve
        assert second_cache.stats.quarantined == 1
        assert second.result.identical(first.result)

        third_cache = ResultCache(tmp_path)
        (third,) = run_experiments(["fig14"], scale=0.3, cache=third_cache)
        assert third.cached  # healed
        assert third_cache.stats.quarantined == 0
        assert third.result.identical(first.result)

    def test_unwritable_root_never_fails_a_run(self, tmp_path):
        """Disk persistence is best-effort for results too: a cache
        rooted at a plain file (mkdir/read both fail) still hands every
        job its fresh document, run after run."""
        bogus = tmp_path / "not-a-dir"
        bogus.write_text("occupied")
        jobs = [Job(f"{i:02x}" * 32, {"experiment": f"job{i}"},
                    functools.partial(dict, value=i)) for i in range(2)]
        cache = ResultCache(bogus)
        for _ in range(2):
            out = run_jobs(jobs, workers=1, seed=0, cache=cache)
            assert {k: (r.doc, r.cached) for k, r in out.items()} == {
                job.run_id: ({"value": i}, False)
                for i, job in enumerate(jobs)}
        assert (cache.stats.stores, cache.stats.misses) == (0, 4)

    def test_stats_summary_reports_quarantine(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        with faults_active("cache-truncate:count=1"):
            cache.put_doc(KEY, result.to_dict())
        cache.get_doc(KEY)
        assert "1 quarantined" in cache.stats.summary()
