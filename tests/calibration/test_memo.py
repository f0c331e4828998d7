"""Tests for the shared calibration-fit memoisation."""

import pytest

from repro.calibration import (
    calibrate_all,
    calibration_for,
    calibration_memo_stats,
    clear_calibration_memo,
)
from repro.experiments.common import calibrated, machine_for


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_calibration_memo()
    yield
    clear_calibration_memo()


class TestCalibrationFor:
    def test_second_call_is_a_hit(self):
        a = calibration_for("gcel", seed=3, trials=4)
        b = calibration_for("gcel", seed=3, trials=4)
        assert a is b
        stats = calibration_memo_stats()
        assert stats == {"hits": 1, "misses": 1}

    def test_key_includes_all_seeds_and_trials(self):
        calibration_for("gcel", seed=3, trials=4)
        calibration_for("gcel", seed=4, trials=4)          # cal seed
        calibration_for("gcel", machine_seed=1, seed=3, trials=4)
        calibration_for("gcel", seed=3, trials=5)          # trials
        calibration_for("cm5", seed=3, trials=4)           # machine
        assert calibration_memo_stats()["misses"] == 5

    def test_matches_unmemoised_calibration(self):
        from repro.calibration import calibrate
        from repro.machines import make_machine

        memo = calibration_for("cm5", machine_seed=2, seed=5, trials=4)
        direct = calibrate(make_machine("cm5", seed=2), seed=5, trials=4)
        assert memo.params == direct.params
        assert memo.g_fit == direct.g_fit
        assert memo.block_fit == direct.block_fit

    def test_clear_resets(self):
        calibration_for("gcel", seed=3, trials=4)
        clear_calibration_memo()
        assert calibration_memo_stats() == {"hits": 0, "misses": 0}
        calibration_for("gcel", seed=3, trials=4)
        assert calibration_memo_stats()["misses"] == 1


class TestSharedAcrossCallSites:
    def test_calibrate_all_computes_each_machine_once(self):
        calibrate_all(seed=0, trials=6)
        calibrate_all(seed=0, trials=6)
        stats = calibration_memo_stats()
        assert stats["misses"] == 3 and stats["hits"] == 3

    def test_figures_share_one_fit_per_machine(self):
        machine = machine_for("gcel", seed=0)
        a = calibrated(machine, seed=0)
        b = calibrated(machine_for("gcel", seed=0), seed=0)
        assert a is b
        assert calibration_memo_stats() == {"hits": 1, "misses": 1}

    def test_different_partitions_not_aliased(self):
        a = calibrated(machine_for("maspar", seed=0), seed=0)
        b = calibrated(machine_for("maspar", P=64, seed=0), seed=0)
        assert a is not b
        assert a.params.P == 1024 and b.params.P == 64


class TestBoundedMemo:
    """The memo keeps the most recently used fits up to a fixed bound, so
    a long-running server's fresh seeds cannot grow it without end."""

    def test_holds_the_bound_and_refits_identically(self, monkeypatch):
        from repro.calibration import table1

        monkeypatch.setattr(table1, "_MEMO_SIZE", 3)
        first = calibration_for("maspar", P=64, seed=0, trials=3)
        for seed in range(1, 6):
            calibration_for("maspar", P=64, seed=seed, trials=3)
        assert len(table1._MEMO) == 3
        refit = calibration_for("maspar", P=64, seed=0, trials=3)
        assert refit is not first  # evicted, then fitted again
        assert refit.params == first.params
        assert refit.g_fit == first.g_fit
        assert refit.block_fit == first.block_fit
        assert refit.unb == first.unb and refit.unb is not None
        assert refit.notes == first.notes
        assert calibration_memo_stats() == {"hits": 0, "misses": 7}

    def test_a_hit_is_recently_used(self, monkeypatch):
        from repro.calibration import table1

        monkeypatch.setattr(table1, "_MEMO_SIZE", 2)
        a = calibration_for("gcel", seed=0, trials=4)
        calibration_for("gcel", seed=1, trials=4)
        assert calibration_for("gcel", seed=0, trials=4) is a
        calibration_for("gcel", seed=2, trials=4)  # evicts seed 1
        assert calibration_for("gcel", seed=0, trials=4) is a
        assert calibration_memo_stats() == {"hits": 2, "misses": 3}
