"""The perf-regression harness: budgets, trajectory file, CLI exit codes."""

import json

import pytest

from repro.cli import main
from repro.core.errors import ExperimentError
from repro.runner.bench import (BenchRecord, QUICK_IDS, append_trajectory,
                                check_budgets, compare_last_runs,
                                compare_last_service_runs, parse_budgets,
                                render_bench, run_bench)
from repro.runner.profile import profile_path, profiled_run, render_profile

# the cheapest registered experiment — keeps these tests out of the
# slow lane while still exercising the real registry path
FAST_ID = "ext-t800"


class TestParseBudgets:
    def test_parses_seconds(self):
        assert parse_budgets(["fig5=60", "fig12=2.5"]) == \
            {"fig5": 60.0, "fig12": 2.5}

    def test_empty(self):
        assert parse_budgets([]) == {}

    @pytest.mark.parametrize("spec", ["fig5", "fig5=", "fig5=abc", "fig5=0",
                                      "fig5=-3"])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ExperimentError, match="bad budget"):
            parse_budgets([spec])


class TestBenchRecord:
    def test_totals_and_slowest(self):
        rec = BenchRecord(label="x", scale=1.0, seed=0,
                          times_s={"a": 1.0, "b": 3.0, "c": 2.0})
        assert rec.total_s == pytest.approx(6.0)
        assert rec.slowest(2) == [("b", 3.0), ("c", 2.0)]

    def test_to_dict_round_trips_through_json(self):
        rec = BenchRecord(label="x", scale=0.5, seed=7,
                          times_s={"a": 1.23456}, errors={"b": "boom"})
        doc = json.loads(json.dumps(rec.to_dict()))
        assert doc["scale"] == 0.5
        assert doc["experiments"]["a"] == 1.2346
        assert doc["errors"] == {"b": "boom"}

    def test_environment_stamp(self):
        import os
        import platform

        import numpy as np

        doc = BenchRecord(label="", scale=1.0, seed=0).to_dict()
        assert doc["numpy"] == np.__version__
        assert doc["host"] == platform.node()
        assert doc["cpus"] == os.cpu_count()


class TestCheckBudgets:
    def test_within_budget(self):
        rec = BenchRecord(label="", scale=1.0, seed=0, times_s={"a": 1.0})
        assert check_budgets(rec, {"a": 2.0}) == []

    def test_exceeded(self):
        rec = BenchRecord(label="", scale=1.0, seed=0, times_s={"a": 3.0})
        (msg,) = check_budgets(rec, {"a": 2.0})
        assert "budget exceeded" in msg and "a" in msg

    def test_sub_second_budget_message_keeps_precision(self):
        rec = BenchRecord(label="", scale=1.0, seed=0, times_s={"a": 0.53})
        (msg,) = check_budgets(rec, {"a": 0.5})
        assert msg == "budget exceeded: a took 0.53s > 0.5s"

    def test_missing_experiment(self):
        rec = BenchRecord(label="", scale=1.0, seed=0)
        (msg,) = check_budgets(rec, {"a": 2.0})
        assert "not run" in msg

    def test_errored_experiment(self):
        rec = BenchRecord(label="", scale=1.0, seed=0,
                          times_s={"a": 0.1}, errors={"a": "boom"})
        (msg,) = check_budgets(rec, {"a": 2.0})
        assert "boom" in msg


class TestTrajectory:
    def test_creates_then_appends(self, tmp_path):
        out = tmp_path / "traj.json"
        rec = BenchRecord(label="first", scale=1.0, seed=0,
                          times_s={"a": 1.0})
        append_trajectory(rec, out)
        append_trajectory(rec, out)
        doc = json.loads(out.read_text())
        assert [r["label"] for r in doc["runs"]] == ["first", "first"]

    def test_recovers_from_corrupt_file(self, tmp_path):
        out = tmp_path / "traj.json"
        out.write_text("{not json")
        rec = BenchRecord(label="x", scale=1.0, seed=0)
        append_trajectory(rec, out)
        assert len(json.loads(out.read_text())["runs"]) == 1


class TestRunBench:
    def test_times_a_real_experiment(self):
        record = run_bench([FAST_ID], scale=0.3, seed=0, label="test")
        assert not record.errors
        assert record.times_s[FAST_ID] > 0

    def test_quick_ids_are_registered(self):
        from repro.experiments import get

        for exp_id in QUICK_IDS:
            assert get(exp_id) is not None

    def test_render_mentions_slowest(self):
        rec = BenchRecord(label="", scale=1.0, seed=0,
                          times_s={"a": 1.0, "b": 9.0})
        text = render_bench(rec, top=1)
        assert "total 10.0s" in text
        assert "b" in text and "90.0%" in text


class TestProfile:
    def test_profiled_run_dumps_pstats(self, tmp_path):
        result, path = profiled_run(FAST_ID, scale=0.3, seed=0,
                                    profile_dir=tmp_path)
        assert path == profile_path(tmp_path, FAST_ID, scale=0.3, seed=0)
        assert path.is_file() and path.stat().st_size > 0
        text = render_profile(path, top=5)
        assert "cumulative" in text


class TestBenchCli:
    def test_exit_zero_within_budget(self, tmp_path, capsys):
        out = tmp_path / "traj.json"
        code = main(["bench", FAST_ID, "--scale", "0.3",
                     "--out", str(out), "--budget", f"{FAST_ID}=300"])
        assert code == 0
        assert out.is_file()
        assert "slowest" in capsys.readouterr().out

    def test_exit_three_on_budget_violation(self, tmp_path, capsys):
        out = tmp_path / "traj.json"
        code = main(["bench", FAST_ID, "--scale", "0.3",
                     "--out", str(out), "--budget", f"{FAST_ID}=0.000001"])
        assert code == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_quick_conflicts_with_ids(self, tmp_path, capsys):
        code = main(["bench", "--quick", FAST_ID,
                     "--out", str(tmp_path / "t.json")])
        assert code == 2
        assert "either --quick" in capsys.readouterr().err


def _trajectory(tmp_path, prev, last, labels=("old", "new")):
    out = tmp_path / "traj.json"
    out.write_text(json.dumps({"runs": [
        {"label": labels[0], "experiments": prev,
         "total_s": sum(prev.values())},
        {"label": labels[1], "experiments": last,
         "total_s": sum(last.values())},
    ]}))
    return out


class TestCompareLastRuns:
    def test_speedup_table(self, tmp_path):
        out = _trajectory(tmp_path, {"fig1": 4.0, "fig4": 1.0},
                          {"fig1": 2.0, "fig4": 1.0})
        table, regressions = compare_last_runs(out)
        assert regressions == []
        assert "| fig1 | 4.00 | 2.00 | 2.00x |" in table
        assert "| **total** | 5.00 | 3.00 | 1.67x |" in table
        assert "| experiment | old (s) | new (s) | speedup |" in table

    def test_regression_flagged_past_tolerance(self, tmp_path):
        out = _trajectory(tmp_path, {"fig1": 1.0}, {"fig1": 2.0})
        table, regressions = compare_last_runs(out, tolerance=0.25)
        (msg,) = regressions
        assert "fig1" in msg and "+100%" in msg
        assert "⚠" in table

    def test_tolerance_suppresses_flag(self, tmp_path):
        out = _trajectory(tmp_path, {"fig1": 1.0}, {"fig1": 2.0})
        _, regressions = compare_last_runs(out, tolerance=1.5)
        assert regressions == []

    def test_noise_floor_exempts_tiny_times(self, tmp_path):
        # 3x slower but under 0.2s absolute: host-timer noise, not flagged
        out = _trajectory(tmp_path, {"fig1": 0.05}, {"fig1": 0.15})
        _, regressions = compare_last_runs(out)
        assert regressions == []

    def test_one_sided_experiments_get_dash_rows(self, tmp_path):
        out = _trajectory(tmp_path, {"gone": 1.0}, {"added": 1.0})
        table, regressions = compare_last_runs(out)
        assert regressions == []
        assert "| gone | 1.00 | - | - |" in table
        assert "| added | - | 1.00 | - |" in table

    def test_needs_two_runs(self, tmp_path):
        out = tmp_path / "traj.json"
        out.write_text(json.dumps({"runs": [{"experiments": {}}]}))
        with pytest.raises(ExperimentError, match="needs two"):
            compare_last_runs(out)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ExperimentError, match="no trajectory"):
            compare_last_runs(tmp_path / "nope.json")

    def test_negative_tolerance_rejected(self, tmp_path):
        with pytest.raises(ExperimentError, match="tolerance"):
            compare_last_runs(tmp_path / "t.json", tolerance=-0.1)


class TestCompareCli:
    def test_exit_zero_and_table_on_stdout(self, tmp_path, capsys):
        out = _trajectory(tmp_path, {"fig1": 2.0}, {"fig1": 1.0})
        code = main(["bench", "--compare", "--out", str(out)])
        assert code == 0
        assert "| fig1 | 2.00 | 1.00 | 2.00x |" in capsys.readouterr().out

    def test_exit_three_on_regression(self, tmp_path, capsys):
        out = _trajectory(tmp_path, {"fig1": 1.0}, {"fig1": 2.0})
        code = main(["bench", "--compare", "--out", str(out)])
        assert code == 3
        assert "regression" in capsys.readouterr().err

    def test_custom_tolerance(self, tmp_path, capsys):
        out = _trajectory(tmp_path, {"fig1": 1.0}, {"fig1": 2.0})
        code = main(["bench", "--compare", "--tolerance", "1.5",
                     "--out", str(out)])
        assert code == 0

    def test_compare_without_file_exits_two(self, tmp_path, capsys):
        code = main(["bench", "--compare",
                     "--out", str(tmp_path / "nope.json")])
        assert code == 2
        assert "no trajectory" in capsys.readouterr().err


def _service_run(label, *, rps, p95=10.0, processes=2, concurrency=16,
                 mix="8:1:1", **extra):
    run = {"kind": "service", "label": label, "rps": rps, "p50_ms": 1.0,
           "p95_ms": p95, "p99_ms": p95 * 2, "errors": 0, "mean_batch": 2.0,
           "lru_hit_ratio": 0.9, "processes": processes,
           "concurrency": concurrency, "mix": mix}
    run.update(extra)
    return run


def _service_trajectory(tmp_path, runs):
    out = tmp_path / "traj.json"
    out.write_text(json.dumps({"runs": runs}))
    return out


class TestCompareLastServiceRuns:
    def test_diffs_matching_topology_only(self, tmp_path):
        # the nearest earlier record has a different process count; the
        # diff must reach past it to the matching 2-process baseline
        out = _service_trajectory(tmp_path, [
            _service_run("old-2p", rps=1000.0),
            _service_run("1p", rps=400.0, processes=1),
            _service_run("new-2p", rps=1100.0),
        ])
        table, regressions = compare_last_service_runs(out)
        assert regressions == []
        assert "processes=2" in table
        assert "old-2p" in table and "new-2p" in table and "1p" not in table
        assert "+10.0%" in table

    def test_throughput_drop_past_tolerance_gates(self, tmp_path):
        out = _service_trajectory(tmp_path, [
            _service_run("before", rps=1000.0),
            _service_run("after", rps=500.0),
        ])
        table, regressions = compare_last_service_runs(out, tolerance=0.25)
        (msg,) = regressions
        assert "throughput" in msg and "-50%" in msg
        assert "⚠" in table

    def test_p95_increase_gates_with_noise_floor(self, tmp_path):
        # 3x worse p95 but only 0.4 ms absolute: under the 1 ms floor
        out = _service_trajectory(tmp_path, [
            _service_run("before", rps=1000.0, p95=0.2),
            _service_run("after", rps=1000.0, p95=0.6),
        ])
        _, regressions = compare_last_service_runs(out)
        assert regressions == []
        out = _service_trajectory(tmp_path, [
            _service_run("before", rps=1000.0, p95=10.0),
            _service_run("after", rps=1000.0, p95=25.0),
        ])
        _, regressions = compare_last_service_runs(out)
        assert len(regressions) == 1 and "p95" in regressions[0]

    def test_unstamped_records_count_as_single_process(self, tmp_path):
        # pre-topology-stamping baselines diff against processes=1 runs
        old = _service_run("legacy", rps=900.0, processes=1)
        del old["processes"]
        out = _service_trajectory(tmp_path, [
            old, _service_run("new-1p", rps=950.0, processes=1)])
        table, regressions = compare_last_service_runs(out)
        assert regressions == []
        assert "legacy" in table and "processes=1" in table

    def test_no_matching_baseline_raises(self, tmp_path):
        out = _service_trajectory(tmp_path, [
            _service_run("1p", rps=400.0, processes=1),
            _service_run("2p", rps=1000.0, processes=2),
        ])
        with pytest.raises(ExperimentError, match="matching the latest"):
            compare_last_service_runs(out)

    def test_ignores_experiment_records(self, tmp_path):
        out = tmp_path / "traj.json"
        out.write_text(json.dumps({"runs": [
            {"label": "bench", "experiments": {"fig1": 1.0}},
        ]}))
        with pytest.raises(ExperimentError, match="no service records"):
            compare_last_service_runs(out)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ExperimentError, match="no trajectory"):
            compare_last_service_runs(tmp_path / "nope.json")


class TestServiceCompareCli:
    def test_exit_zero_and_table(self, tmp_path, capsys):
        out = _service_trajectory(tmp_path, [
            _service_run("before", rps=1000.0),
            _service_run("after", rps=1200.0),
        ])
        code = main(["bench", "--compare", "--service", "--out", str(out)])
        assert code == 0
        assert "throughput (req/s)" in capsys.readouterr().out

    def test_exit_three_on_regression(self, tmp_path, capsys):
        out = _service_trajectory(tmp_path, [
            _service_run("before", rps=1000.0),
            _service_run("after", rps=100.0),
        ])
        code = main(["bench", "--compare", "--service", "--out", str(out)])
        assert code == 3
        assert "regression" in capsys.readouterr().err

    def test_service_without_compare_exits_two(self, tmp_path, capsys):
        code = main(["bench", "--service",
                     "--out", str(tmp_path / "t.json")])
        assert code == 2
        assert "--service" in capsys.readouterr().err
