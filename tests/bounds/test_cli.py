"""``repro bounds`` and the ``cache info`` IR-store satellite."""

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.fast

SUBSET = ["--cells", "apsp/gcel", "bitonic/maspar", "--scale", "0.3"]


class TestBoundsCommand:
    def test_table_render(self, capsys):
        assert main(["bounds", *SUBSET, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Attained vs optimal" in out
        assert "bitonic/maspar" in out and "apsp/gcel" in out
        assert "HEADROOM" in out  # bitonic at 125x clears any default
        assert "scale=0.3" in out

    def test_json_to_stdout_matches_offline(self, capsys):
        from repro.service.oracle import bounds_offline

        assert main(["bounds", *SUBSET, "--no-cache", "--json", "-"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        offline = json.loads(json.dumps(bounds_offline(
            {"cells": ["apsp/gcel", "bitonic/maspar"], "scale": 0.3})))
        assert report == offline
        # acceptance: same canonical bytes as the service's reference
        assert json.dumps(report, sort_keys=True) \
            == json.dumps(offline, sort_keys=True)
        # --json - prints only JSON, no table
        assert "Attained vs optimal" not in out

    def test_json_to_file_plus_table(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["bounds", *SUBSET, "--no-cache",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"wrote {path}" in out
        assert "Attained vs optimal" in out
        report = json.loads(path.read_text())
        assert report["schema"] == "repro-bounds/1"
        assert {e["cell"] for e in report["ranking"]} \
            == {"apsp/gcel", "bitonic/maspar"}

    def test_threshold_changes_the_flags(self, capsys):
        assert main(["bounds", "--cells", "apsp/gcel", "--scale", "0.3",
                     "--threshold", "2", "--no-cache", "--json", "-"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["threshold"] == 2.0
        assert report["ranking"][0]["headroom"] is True

    def test_unknown_cell_exits_2(self, capsys):
        assert main(["bounds", "--cells", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown bound cell" in err and "apsp/gcel" in err

    def test_repeat_run_hits_the_result_cache(self, capsys):
        assert main(["bounds", "--cells", "apsp/gcel"]) == 0
        capsys.readouterr()
        assert main(["cache", "info"]) == 0
        assert "bounds:apsp/gcel" in capsys.readouterr().out


class TestCacheInfoIrStore:
    def test_info_reports_recorded_programs(self, capsys):
        # a bounds run records one step program per measured cell
        main(["bounds", "--cells", "apsp/gcel", "--no-cache"])
        capsys.readouterr()
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "1 recorded step program(s)" in out
        assert "0 cached result(s)" in out

    def test_info_json_reports_count_and_bytes(self, capsys):
        main(["bounds", "--cells", "apsp/gcel", "bitonic/maspar",
              "--no-cache"])
        capsys.readouterr()
        assert main(["cache", "info", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ir"]["count"] == 2
        assert doc["ir"]["bytes"] > 0

    def test_clear_resets_what_info_reports(self, capsys):
        main(["bounds", "--cells", "apsp/gcel", "--no-cache"])
        capsys.readouterr()
        assert main(["cache", "clear"]) == 0
        assert "1 step program(s)" in capsys.readouterr().out
        main(["cache", "info", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["ir"] == {"count": 0, "bytes": 0}

    def test_info_excludes_quarantined_blobs(self, capsys):
        from repro.runner import default_cache_root
        from repro.simulator.ir import IRStore

        main(["bounds", "--cells", "apsp/gcel", "--no-cache"])
        capsys.readouterr()
        root = default_cache_root()
        blobs = list((root / "ir").rglob("*.blob"))
        assert len(blobs) == 1
        blobs[0].write_bytes(b"garbage")  # corrupt the blob on disk
        store = IRStore(root)
        assert store.get(blobs[0].stem) is None  # read quarantines it
        assert store.blobs.stats()["live"] == {"count": 0, "bytes": 0}
        main(["cache", "info", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["ir"]["count"] == 0
        assert doc["quarantined"]["ir"]["count"] == 1
