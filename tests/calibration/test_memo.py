"""Tests for the calibration-fit memo.

:func:`~repro.calibration.calibrate` memoises each fit on the machine's
state (:func:`~repro.machines.base.state_key`), its RNG state, the
calibration seed and the trial count, and restores the RNG state the fit
left behind on a hit; :func:`~repro.calibration.calibration_for` is
``make_machine`` plus ``calibrate``.
"""

import pytest

from repro.calibration import (
    calibrate,
    calibrate_all,
    calibration_for,
    calibration_memo_stats,
    clear_calibration_memo,
)
from repro.calibration import table1
from repro.experiments.common import calibrated, machine_for
from repro.machines import MACHINES, make_machine
from repro.simulator.ir import clear_pricer_columns


@pytest.fixture(autouse=True)
def _fresh_caches():
    # some tests patch calibration code: no entry may outlive them
    clear_calibration_memo()
    clear_pricer_columns()
    yield
    clear_calibration_memo()
    clear_pricer_columns()


def _state(machine) -> tuple[dict, dict]:
    """Everything a fit can leave on ``machine``: its attributes but the
    RNG object, and the RNG's state."""
    attrs = {k: v for k, v in vars(machine).items() if k != "rng"}
    return attrs, machine.rng.bit_generator.state


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
        memo = calibration_for("cm5", machine_seed=2, seed=5, trials=4)
        clear_calibration_memo()
        direct = calibrate(make_machine("cm5", seed=2), seed=5, trials=4)
        # a fresh computation, not the memo's object
        assert calibration_memo_stats() == {"hits": 0, "misses": 1}
        assert direct is not memo
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

    def test_calibration_for_and_calibrate_share_entries(self):
        a = calibration_for("cm5", machine_seed=4, seed=1, trials=3)
        b = calibrate(make_machine("cm5", seed=4), seed=1, trials=3)
        assert a is b
        assert calibration_memo_stats() == {"hits": 1, "misses": 1}


#: every registered machine, unablated and with each one phenomenon off
CONFIGS = [(name, ()) for name in MACHINES] + [
    (name, (phen,)) for name, cls in MACHINES.items()
    for phen in cls.PHENOMENA]


class TestCalibrateMemo:
    """A hit is observationally identical to the miss it replaces."""

    @pytest.mark.parametrize("name,disable", CONFIGS,
                             ids=[f"{n}-{'-'.join(d) or 'full'}"
                                  for n, d in CONFIGS])
    def test_hit_leaves_the_machine_as_a_miss_does(self, name, disable):
        fresh = make_machine(name, seed=3, disable=disable)
        missed = make_machine(name, seed=3, disable=disable)
        hit = make_machine(name, seed=3, disable=disable)
        first = calibrate(missed, seed=1, trials=2)
        second = calibrate(hit, seed=1, trials=2)
        assert calibration_memo_stats() == {"hits": 1, "misses": 1}
        assert second == first
        # the fit drew noise, and the hit restored where that left off
        assert _state(missed)[1] != _state(fresh)[1]
        assert _state(hit) == _state(missed)
        assert hit.rng.random(4).tolist() == missed.rng.random(4).tolist()

    def test_rng_state_is_part_of_the_key(self):
        machine = make_machine("cm5", seed=3)
        calibrate(machine, seed=1, trials=2)
        # the same machine again: its RNG has moved on, so it misses
        calibrate(machine, seed=1, trials=2)
        assert calibration_memo_stats() == {"hits": 0, "misses": 2}

    def test_ablated_machine_is_not_aliased(self):
        calibrate(make_machine("maspar", P=64, seed=0), trials=2)
        calibrate(make_machine("maspar", P=64, seed=0,
                               disable=("cube-discount",)), trials=2)
        assert calibration_memo_stats() == {"hits": 0, "misses": 2}

    def test_unkeyable_machine_is_fitted_every_time(self, monkeypatch):
        fits = []
        fit = table1._fit
        monkeypatch.setattr(table1, "_fit",
                            lambda m, s, t: fits.append(m) or fit(m, s, t))
        machines = [make_machine("gcel", seed=0) for _ in range(2)]
        for m in machines:
            m.barrier_time = m.barrier_time  # an instance-level method
            calibrate(m, trials=2)
        assert fits == machines
        assert table1._MEMO == {}
        assert calibration_memo_stats() == {"hits": 0, "misses": 2}
        assert _state(machines[0])[1] == _state(machines[1])[1]


class TestBoundedMemo:
    """The memo keeps the most recently used fits up to a fixed bound, so
    a long-running server's fresh seeds cannot grow it without end."""

    def test_holds_the_bound_and_refits_identically(self, monkeypatch):
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
        monkeypatch.setattr(table1, "_MEMO_SIZE", 2)
        a = calibration_for("gcel", seed=0, trials=4)
        calibration_for("gcel", seed=1, trials=4)
        assert calibration_for("gcel", seed=0, trials=4) is a
        calibration_for("gcel", seed=2, trials=4)  # evicts seed 1
        assert calibration_for("gcel", seed=0, trials=4) is a
        assert calibration_memo_stats() == {"hits": 2, "misses": 3}

    def test_direct_calls_share_the_bound(self, monkeypatch):
        """``run_cell``'s direct ``calibrate`` calls fill the same memo."""
        monkeypatch.setattr(table1, "_MEMO_SIZE", 2)
        for phen in ("cube-discount", "partial-permutation",
                     "cluster-channels"):
            calibrate(make_machine("maspar", P=64, seed=0,
                                   disable=(phen,)), trials=2)
        assert len(table1._MEMO) == 2
        calibrate(make_machine("maspar", P=64, seed=0,
                               disable=("cube-discount",)), trials=2)
        assert calibration_memo_stats() == {"hits": 0, "misses": 4}
