"""Measurement: volumes read from recorded programs, checked against
the replayed trace, and the acceptance invariants (soundness on every
default cell; a warm matrix never re-simulates; a drifted IR key is an
error, not a silent re-run)."""

import json

import numpy as np
import pytest

from repro.bounds import (
    BOUND_CELLS,
    BoundsRequest,
    DEFAULT_CELLS,
    bounds,
    cell_ir_key,
    measure_cell,
)
from repro.bounds.cells import cell_run
from repro.core.errors import BoundsError
from repro.experiments.common import machine_for
from repro.simulator.ir import IRStore, ir_store_scope


def report_bytes(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True).encode()


@pytest.mark.fast
class TestSoundness:
    def test_every_default_cell_attains_at_least_the_bound(self):
        """Acceptance: measured volume never below the analytic bound,
        on every (algorithm, machine, P) cell of the default matrix."""
        report = bounds(BoundsRequest(use_cache=False))
        assert [e["cell"] for e in report["ranking"]] != []
        assert {e["cell"] for e in report["ranking"]} == set(DEFAULT_CELLS)
        for e in report["ranking"]:
            assert e["ratio"] >= 1.0, e
            assert e["measured_words"] >= e["bound_words"], e
            # traffic >= one-sided volumes by construction
            assert e["measured_total_words"] > 0
            assert e["headroom"] == (e["ratio"] > report["threshold"])

    def test_ranking_is_sorted_by_descending_ratio(self):
        report = bounds(BoundsRequest(use_cache=False))
        ratios = [e["ratio"] for e in report["ranking"]]
        assert ratios == sorted(ratios, reverse=True)


@pytest.mark.fast
class TestWarmPath:
    def test_warm_matrix_never_runs_a_simulation(self, monkeypatch):
        """Acceptance: with the IR store warm, `repro bounds` over the
        default matrix completes without re-running any simulation."""
        import repro.bounds.measure as measure_mod

        with ir_store_scope(IRStore(disk=False)):
            cold = bounds(BoundsRequest(use_cache=False))

            calls = []

            def spy(cell, machine, n, seed):
                calls.append(cell.name)
                raise AssertionError(
                    f"live simulation for {cell.name} on a warm IR store")

            monkeypatch.setattr(measure_mod, "cell_run", spy)
            warm = bounds(BoundsRequest(use_cache=False))
        assert calls == []
        assert report_bytes(warm) == report_bytes(cold)

    def test_cold_cell_runs_once_then_reads_its_program(self, monkeypatch):
        """A store miss runs the cell once; the volume is then read from
        the program that run recorded."""
        import repro.bounds.measure as measure_mod

        calls = []

        def counting_run(cell, machine, n, seed):
            calls.append(cell.name)
            return cell_run(cell, machine, n, seed)

        monkeypatch.setattr(measure_mod, "cell_run", counting_run)
        with ir_store_scope(IRStore(disk=False)) as store:
            cold = measure_cell(BOUND_CELLS["apsp/gcel"], scale=0.3, seed=0)
            assert calls == ["apsp/gcel"] and store.recorded == 1
            warm = measure_cell(BOUND_CELLS["apsp/gcel"], scale=0.3, seed=0)
        assert calls == ["apsp/gcel"] and store.recorded == 1
        assert warm == cold

    def test_drifted_ir_key_raises_naming_the_cell(self, monkeypatch):
        """When the run records under another key than the cell's (its
        key parameters drifted from run()'s), the miss is an error."""
        import repro.bounds.measure as measure_mod

        monkeypatch.setattr(measure_mod, "cell_ir_key",
                            lambda cell, machine, n, seed: "0" * 64)
        with ir_store_scope(IRStore(disk=False)) as store:
            with pytest.raises(BoundsError, match="apsp/gcel"):
                measure_cell(BOUND_CELLS["apsp/gcel"], scale=0.3, seed=0)
            assert store.recorded == 1

    def test_cold_measurement_records_under_the_cells_ir_key(self):
        """The key the measurement probes is the key run() records
        under — pins bounds/cells.py's calls to each algorithm module's
        own key_params against run()-signature drift, per cell."""
        for name in DEFAULT_CELLS:
            cell = BOUND_CELLS[name]
            n = cell.size(0.3)
            machine = machine_for(cell.machine, seed=0)
            with ir_store_scope(IRStore(disk=False)) as store:
                cell_run(cell, machine, n, 0)
                assert cell_ir_key(cell, machine, n, 0) in store.memory, \
                    f"key mismatch for {name}"


def trace_volume(trace, word_bytes: int) -> dict:
    """The volume doc of a replayed trace, its phases summed one by one:
    an independent reference for the program-table extraction."""
    sent = np.zeros(trace.P)
    recv = np.zeros(trace.P)
    messages = 0
    for step in trace:
        sent += step.phase.bytes_sent_per_proc
        recv += step.phase.bytes_recv_per_proc
        messages += step.phase.total_messages
    w = float(word_bytes)
    return {"P": trace.P, "word_bytes": word_bytes,
            "max_sent_words": float(sent.max() / w),
            "max_recv_words": float(recv.max() / w),
            "max_traffic_words": float((sent + recv).max() / w),
            "total_words": float(sent.sum() / w),
            "messages": messages, "supersteps": len(trace)}


@pytest.mark.fast
class TestVolumeParity:
    @pytest.mark.parametrize("name", list(BOUND_CELLS))
    def test_program_extraction_equals_live_trace(self, name):
        """The program numbers are the trace numbers: a live run records
        the program, then the extraction from its phase table must match
        that run's replayed trace, summed phase by phase."""
        cell = BOUND_CELLS[name]
        n = cell.size(0.3)
        machine = machine_for(cell.machine, seed=0)
        with ir_store_scope(IRStore(disk=False)):
            live = trace_volume(cell_run(cell, machine, n, 0).trace,
                                machine.nominal.w)
            warm = measure_cell(cell, scale=0.3, seed=0)
        assert warm["volume"] == live
        assert warm["n"] == n


@pytest.mark.fast
class TestCaching:
    def test_fresh_equals_cached_bytes(self, tmp_path):
        req = BoundsRequest(cells=("apsp/gcel", "bitonic/maspar"),
                            cache_dir=str(tmp_path / "cache"))
        fresh = bounds(req)
        cached = bounds(req)
        assert report_bytes(fresh) == report_bytes(cached)

    def test_force_recomputes_to_identical_bytes(self, tmp_path):
        req = BoundsRequest(cells=("apsp/gcel",),
                            cache_dir=str(tmp_path / "cache"))
        first = bounds(req)
        import dataclasses
        forced = bounds(dataclasses.replace(req, force=True))
        assert report_bytes(first) == report_bytes(forced)


@pytest.mark.fast
class TestScoreboardColumn:
    def test_scoreboard_optimality_matches_the_report(self):
        from repro.bounds import SCOREBOARD_BOUND_CELLS, \
            scoreboard_optimality

        report = bounds(BoundsRequest(use_cache=False))
        by_cell = {e["cell"]: e for e in report["ranking"]}
        column = scoreboard_optimality(scale=0.3, seed=0)
        assert set(column) == set(SCOREBOARD_BOUND_CELLS)
        for workload, entry in column.items():
            ref = by_cell[SCOREBOARD_BOUND_CELLS[workload]]
            assert entry["ratio"] == ref["ratio"]
            assert entry["bound_words"] == ref["bound_words"]
            assert entry["measured_words"] == ref["measured_words"]

    def test_render_scoreboard_shows_the_column(self):
        from repro.validation.scoreboard import Cell, Scoreboard, \
            render_scoreboard

        board = Scoreboard(cells=[Cell("apsp", "gcel", "bsp", 100.0, 120.0)],
                           optimality={"apsp": {"cell": "apsp/gcel",
                                                "family": "matmul-family",
                                                "n": 32,
                                                "bound_words": 160.0,
                                                "measured_words": 528.0,
                                                "ratio": 3.3}})
        text = render_scoreboard(board)
        assert "att/opt" in text
        assert "3.3x" in text

    def test_build_scoreboard_can_skip_the_column(self):
        from repro.validation.scoreboard import build_scoreboard

        board = build_scoreboard(scale=0.3, seed=0, optimality=False)
        assert board.optimality == {}


@pytest.mark.slow
class TestParallel:
    def test_parallel_equals_serial_bytes(self):
        serial = bounds(BoundsRequest(use_cache=False))
        parallel = bounds(BoundsRequest(jobs=2, use_cache=False))
        assert report_bytes(serial) == report_bytes(parallel)
