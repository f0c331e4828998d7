"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.service.oracle import OracleError, predict_offline

pytestmark = pytest.mark.fast


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig14"])
        assert args.ids == ["fig14"]
        assert args.scale == 1.0
        assert args.seed == 0

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert capsys.readouterr().out.strip()


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "table1" in out and "abl-sync" in out

    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "MasParMP1" in out and "GCel" in out and "CM5" in out

    def test_run_small_experiment(self, capsys):
        code = main(["run", "fig14", "--scale", "0.3", "--no-plot"])
        out = capsys.readouterr().out
        assert "fig14" in out and "PASS" in out
        assert code == 0

    def test_run_with_plot(self, capsys):
        main(["run", "fig14", "--scale", "0.3"])
        out = capsys.readouterr().out
        assert "x:" in out  # plot footer

    def test_run_unknown_experiment(self, capsys):
        code = main(["run", "fig99"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'fig99'" in err
        # the error names every valid id instead of dumping a traceback
        assert "fig14" in err and "table1" in err and "abl-sync" in err

    def test_run_without_ids(self, capsys):
        code = main(["run"])
        assert code == 2
        assert "no experiment ids" in capsys.readouterr().err

    def test_run_reports_cache_outcomes(self, capsys):
        main(["run", "fig14", "--scale", "0.3", "--no-plot"])
        assert "cache: 0 hit(s), 1 miss(es)" in capsys.readouterr().out
        code = main(["run", "fig14", "--scale", "0.3", "--no-plot"])
        assert code == 0
        assert "cache: 1 hit(s), 0 miss(es)" in capsys.readouterr().out

    def test_run_no_cache_flag(self, capsys):
        main(["run", "fig14", "--scale", "0.3", "--no-plot", "--no-cache"])
        out = capsys.readouterr().out
        assert "cache:" not in out
        # nothing was stored either
        main(["cache", "info"])
        assert "0 cached result(s)" in capsys.readouterr().out

    def test_cache_info_and_clear(self, capsys):
        main(["run", "fig14", "--scale", "0.3", "--no-plot"])
        capsys.readouterr()
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "1 cached result(s)" in out and "fig14" in out
        assert main(["cache", "clear"]) == 0
        assert "removed 1 cached result(s)" in capsys.readouterr().out
        main(["cache", "info"])
        assert "0 cached result(s)" in capsys.readouterr().out

    def test_table1_command(self, capsys):
        assert main(["table1", "--trials", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "T_unb" in out and "g_mscat" in out


class TestJsonExport:
    def test_run_writes_json(self, tmp_path, capsys):
        out = tmp_path / "res.json"
        code = main(["run", "fig14", "--scale", "0.3", "--no-plot",
                     "--json", str(out)])
        assert code == 0
        import json

        data = json.loads(out.read_text())
        assert data["scale"] == 0.3
        assert data["results"][0]["experiment"] == "fig14"
        assert data["results"][0]["passed"] is True


class TestRoundtrip:
    def test_result_dict_roundtrip(self):
        from repro.experiments import get
        from repro.validation.series import ExperimentResult

        res = get("fig14").run(scale=0.3, seed=0)
        clone = ExperimentResult.from_dict(res.to_dict())
        assert clone.experiment == res.experiment
        assert clone.passed == res.passed
        assert [s.name for s in clone.series] == [s.name for s in res.series]
        assert (clone.series[0].ys == res.series[0].ys).all()


class TestVersion:
    def test_version_string_names_the_package(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_version_fallback_matches_pyproject(self):
        """The uninstalled fallback literal must track pyproject.toml."""
        import re
        from pathlib import Path

        from repro import __version__

        text = (Path(__file__).resolve().parents[1]
                / "pyproject.toml").read_text()
        match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.M)
        assert match is not None
        assert match.group(1) == __version__


class TestJsonOutputs:
    def test_machines_json(self, capsys):
        assert main(["machines", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = {m["name"] for m in doc["machines"]}
        assert {"maspar", "gcel", "cm5", "t800", "modern"} <= names
        maspar = next(m for m in doc["machines"] if m["name"] == "maspar")
        assert maspar["simd"] is True and maspar["default_P"] == 1024

    def test_cache_info_json(self, capsys):
        main(["run", "fig14", "--scale", "0.3", "--no-plot"])
        capsys.readouterr()
        assert main(["cache", "info", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 1
        assert doc["entries"][0]["experiment"] == "fig14"
        assert "root" in doc


class TestBenchCompare:
    @staticmethod
    def _trajectory(path, runs):
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    def test_regression_exits_3(self, tmp_path, capsys):
        out = self._trajectory(tmp_path / "traj.json", [
            {"label": "before", "total_s": 1.0,
             "experiments": {"fig14": 1.0}},
            {"label": "after", "total_s": 2.0,
             "experiments": {"fig14": 2.0}},
        ])
        assert main(["bench", "--compare", "--out", out]) == 3
        captured = capsys.readouterr()
        assert "regression: fig14" in captured.err
        assert "before" in captured.out and "after" in captured.out

    def test_speedup_exits_0(self, tmp_path, capsys):
        out = self._trajectory(tmp_path / "traj.json", [
            {"label": "before", "total_s": 2.0,
             "experiments": {"fig14": 2.0}},
            {"label": "after", "total_s": 1.0,
             "experiments": {"fig14": 1.0}},
        ])
        assert main(["bench", "--compare", "--out", out]) == 0
        assert "2.00x" in capsys.readouterr().out

    def test_service_records_are_skipped(self, tmp_path, capsys):
        # a loadtest record between two bench runs must not break the diff
        out = self._trajectory(tmp_path / "traj.json", [
            {"label": "before", "total_s": 2.0,
             "experiments": {"fig14": 2.0}},
            {"kind": "service", "label": "loadtest", "rps": 4000.0},
            {"label": "after", "total_s": 1.0,
             "experiments": {"fig14": 1.0}},
        ])
        assert main(["bench", "--compare", "--out", out]) == 0
        assert "before" in capsys.readouterr().out

    def test_too_few_comparable_runs_exits_2(self, tmp_path, capsys):
        out = self._trajectory(tmp_path / "traj.json", [
            {"label": "only", "total_s": 1.0, "experiments": {"fig14": 1.0}},
            {"kind": "service", "label": "loadtest", "rps": 4000.0},
        ])
        assert main(["bench", "--compare", "--out", out]) == 2
        assert "needs two" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["bench", "--compare", "--out", missing]) == 2
        assert "no trajectory file" in capsys.readouterr().err


class TestServeLoadtestArguments:
    @pytest.mark.parametrize("argv", [
        ["serve", "--port", "99999"],
        ["serve", "--port", "abc"],
        ["serve", "--workers", "0"],
        ["serve", "--window-ms", "-1"],
        ["serve", "--max-batch", "0"],
        ["serve", "--lru-size", "0"],
        ["loadtest", "--concurrency", "0"],
        ["loadtest", "--duration", "0"],
        ["loadtest", "--port", "-1"],
        ["loadtest", "--mix", "1:2"],
        ["loadtest", "--mix", "0:0:0"],
        ["loadtest", "--mix", "a:b:c"],
    ])
    def test_bad_arguments_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(argv)
        assert exc_info.value.code == 2

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.workers == 2
        assert args.window_ms == 2.0
        assert args.max_batch == 256
        assert not args.no_warm

    def test_loadtest_mix_is_parsed(self):
        args = build_parser().parse_args(["loadtest", "--mix", "4:2:1"])
        assert args.mix == (4, 2, 1)

    def test_loadtest_without_server_exits_2(self, capsys):
        code = main(["loadtest", "--port", "1", "--concurrency", "1",
                     "--duration", "0.1", "--no-record"])
        assert code == 2
        assert "repro serve" in capsys.readouterr().err


class TestAttributeCommand:
    @pytest.mark.parametrize("workload,machine,model", [
        ("apsp", "gcel", "bsp"),
        ("bitonic-blk", "gcel", "mp-bpram"),
        ("matmul-naive", "cm5", "bsp"),
        ("stencil", "t800", "bsp"),
        ("radix", "modern", "bsf"),
        ("radix", "gcel", "mp-bpram"),
        ("samplesort", "gcel", "bsp"),
        ("bitonic", "maspar", "e-bsp"),
    ])
    def test_runs_and_reports(self, capsys, workload, machine, model):
        code = main(["attribute", "--machine", machine, "--workload",
                     workload, "--model", model, "--size", "32",
                     "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Model-error attribution" in out
        assert "total" in out
        # the BSF scalability bound is a first-class prediction
        assert ("P_max" in out) == (model == "bsf")

    def test_bad_choice_rejected(self):
        with pytest.raises(SystemExit):
            main(["attribute", "--workload", "quantum-sort"])

    def test_total_row_is_the_predict_answer(self, capsys):
        """The rows add up to what ``/predict`` answers for the same
        request, rounded as the table prints them."""
        code = main(["attribute", "--machine", "cm5", "--workload",
                     "matmul", "--model", "bsp", "--size", "64",
                     "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        want = predict_offline({"machine": "cm5", "model": "bsp",
                                "algorithm": "matmul", "size": 64,
                                "seed": 0})
        total = next(line for line in out.splitlines()
                     if line.startswith("total")).split()
        assert total[1:3] == [f"{want['measured_us']:,.0f}",
                              f"{want['predicted_us']:,.0f}"]

    @pytest.mark.parametrize("machine,workload,size", [
        ("gcel", "apsp", -5),   # out of range
        ("gcel", "apsp", 30),   # sqrt(P) = 8 does not divide 30
    ])
    def test_bad_size_exits_2_with_the_oracle_message(self, capsys,
                                                      machine, workload,
                                                      size):
        doc = {"machine": machine, "algorithm": workload, "size": size}
        with pytest.raises(OracleError) as exc:
            predict_offline(doc)
        code = main(["attribute", "--machine", machine, "--workload",
                     workload, "--size", str(size)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"


class TestAblateCommand:
    ARGS = ["ablate", "--components", "sync-loss", "--cells", "apsp",
            "--scale", "0.3", "--no-cache"]

    def test_defaults(self):
        args = build_parser().parse_args(["ablate"])
        assert args.components is None and args.cells is None
        assert args.scale == 0.3 and args.seed == 0 and args.jobs == 1
        assert not args.no_cache and not args.force

    def test_renders_ranking_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Component importance" in out
        assert "sync-loss" in out and "gcel" in out
        assert "cells: apsp" in out

    def test_json_to_stdout_is_the_report(self, capsys):
        assert main(self.ARGS + ["--json", "-"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro-ablation-report/1"
        assert report["components"] == ["sync-loss"]
        assert report["cells"] == ["apsp"]
        assert {e["component"] for e in report["ranking"]} == {"sync-loss"}

    def test_json_to_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(self.ARGS + ["--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"wrote {path}" in out
        assert "Component importance" in out  # table still printed
        assert json.loads(path.read_text())["schema"] \
            == "repro-ablation-report/1"

    def test_unknown_component_exits_2(self, capsys):
        code = main(["ablate", "--components", "quantum-noise",
                     "--no-cache"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown component 'quantum-noise'" in err
        assert "sync-loss" in err  # the error lists the catalog

    def test_malformed_fault_plan_exits_2(self, capsys):
        code = main(self.ARGS + ["--faults", "no-such-point"])
        assert code == 2
        assert "no-such-point" in capsys.readouterr().err

    def test_cache_makes_second_run_identical(self, tmp_path, capsys):
        args = ["ablate", "--components", "sync-loss", "--cells", "apsp",
                "--scale", "0.3", "--cache-dir", str(tmp_path), "--json",
                "-"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestFleetArguments:
    def test_serve_fleet_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.processes == 1
        assert args.workers == 2

    def test_serve_fleet_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--processes", "4", "--workers", "3"])
        assert args.processes == 4
        assert args.workers == 3

    @pytest.mark.parametrize("flag", ["--arena-slots", "--arena-slot-kb"])
    def test_removed_arena_flags_are_unknown(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", flag, "8"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["serve", "--processes", "0"],
        ["serve", "--processes", "-2"],
        ["serve", "--workers", "0"],
        ["serve", "--max-batch", "0"],
    ])
    def test_non_positive_fleet_values_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "must be >= 1" in capsys.readouterr().err

    def test_bench_service_flag_parses(self):
        args = build_parser().parse_args(["bench", "--compare", "--service"])
        assert args.service is True and args.compare is True


class TestEngineFlag:
    @pytest.mark.parametrize("command", [["run", "fig14"], ["serve"],
                                         ["ablate"], ["bounds"]])
    def test_engine_flag_is_gone(self, command, capsys):
        """One engine runs every workload: no command takes ``--engine``."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(command + ["--engine", "ir"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_cache_clear_reports_step_programs(self, capsys):
        main(["run", "fig14", "--scale", "0.3", "--no-plot"])
        capsys.readouterr()
        assert main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "step program(s)" in out


class TestCacheDir:
    def test_cache_dir_roots_results_and_step_programs(self, tmp_path):
        """``--cache-dir A`` is the one root of a command's stores, pool
        workers included, even when ``$REPRO_CACHE_DIR`` names another;
        ``cache info`` and ``cache clear`` on ``A`` see its programs."""
        a, b = tmp_path / "A", tmp_path / "B"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, REPRO_CACHE_DIR=str(b), PYTHONPATH=src)

        def repro(*argv: str) -> str:
            return subprocess.run(
                [sys.executable, "-m", "repro", *argv], env=env,
                capture_output=True, text=True, check=True).stdout

        repro("run", "fig5", "--cache-dir", str(a), "--jobs", "2",
              "--no-plot")
        assert list((a / "results").rglob("*.blob"))
        assert list((a / "ir").rglob("*.blob"))
        assert not list(b.rglob("*.blob"))
        info = json.loads(repro("cache", "info", "--cache-dir", str(a),
                                "--json"))
        assert info["ir"]["count"] > 0
        repro("cache", "clear", "--cache-dir", str(a))
        assert not list((a / "ir").rglob("*.blob"))

    def test_in_process_command_moves_the_pool_and_restores(self,
                                                            tmp_path,
                                                            capsys):
        """In-process, ``--cache-dir`` also reaches a pool forked before
        the command (it is rebuilt under the new root), and the command
        leaves ``$REPRO_CACHE_DIR`` and the process-wide store as it
        found them."""
        from repro.runner.pool import shutdown_pool, warm_pool
        from repro.simulator.ir import ir_store

        before_env = os.environ["REPRO_CACHE_DIR"]
        before_store = ir_store()
        warm_pool(2).submit(int).result()  # workers forked here
        try:
            # two misses: both run on the pool, so only workers record
            assert main(["run", "fig5", "fig12", "--scale", "0.3",
                         "--jobs", "2", "--no-plot",
                         "--cache-dir", str(tmp_path / "A")]) == 0
        finally:
            shutdown_pool()
        assert os.environ["REPRO_CACHE_DIR"] == before_env
        assert ir_store() is before_store
        assert list((tmp_path / "A" / "ir").rglob("*.blob"))

    def test_former_result_quarantine_is_orphaned_until_clear(self, tmp_path,
                                                              capsys):
        """The layout before the blob store quarantined results into
        ``<root>/quarantine/``, outside every namespace: ``cache info``
        counts its files as orphaned results and ``cache clear`` removes
        the directory."""
        qdir = tmp_path / "quarantine"
        qdir.mkdir()
        (qdir / ("ab" * 32 + ".json")).write_bytes(b"a quarantined entry")
        assert main(["cache", "info", "--json", "--cache-dir",
                     str(tmp_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 0
        assert doc["orphaned"]["results"] == {
            "count": 1, "bytes": len(b"a quarantined entry")}
        assert doc["quarantined"]["results"]["count"] == 0
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 cached result(s)" in capsys.readouterr().out
        assert not qdir.exists()
