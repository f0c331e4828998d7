"""Chaos tests for the CLI surface of the fault layer.

Exit-code contract: a run that *recovers* from injected faults exits 0
with results bit-identical to a fault-free sweep (compared at the byte
level via the content-addressed cache files); a malformed plan exits 2
with a parse error on stderr, never a traceback.
"""

import pytest

from repro.cli import main
from repro.faults import ENV_VAR


def cache_files(root):
    """``{relative path: bytes}`` of every stored result under ``root``."""
    results = root / "repro-cache" / "results"
    return {p.relative_to(results): p.read_bytes()
            for p in sorted(results.glob("*/*.blob"))}


@pytest.mark.chaos
class TestExitCodes:
    def test_malformed_flag_plan_exits_2(self, capsys):
        assert main(["run", "fig14", "--faults", "worker-vanish"]) == 2
        err = capsys.readouterr().err
        assert "unknown fault point" in err
        assert "Traceback" not in err

    def test_malformed_env_plan_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "worker-crash:p=lots")
        assert main(["run", "fig14", "--scale", "0.3", "--no-plot"]) == 2
        assert "not a number" in capsys.readouterr().err

    def test_serve_rejects_malformed_plan_without_binding(self, capsys):
        assert main(["serve", "--faults", "nope"]) == 2
        assert "unknown fault point" in capsys.readouterr().err

    def test_recovered_run_exits_0(self, capsys):
        code = main(["run", "fig14", "--scale", "0.3", "--no-plot",
                     "--no-cache", "--faults", "cache-corrupt"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out


@pytest.mark.chaos
class TestEnvPlanEndToEnd:
    def test_env_corruption_quarantined_and_healed(self, capsys, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
        monkeypatch.setenv(ENV_VAR, "cache-corrupt:count=1")
        assert main(["run", "fig14", "--scale", "0.3", "--no-plot"]) == 0
        monkeypatch.delenv(ENV_VAR)
        # second run hits the poisoned entry: quarantine, recompute, heal
        assert main(["run", "fig14", "--scale", "0.3", "--no-plot"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        quarantine = tmp_path / "repro-cache" / "results" / "quarantine"
        assert len(list(quarantine.glob("*.blob"))) == 1
        # third run serves the healed entry
        assert main(["run", "fig14", "--scale", "0.3", "--no-plot"]) == 0


@pytest.mark.chaos
@pytest.mark.slow
class TestAcceptanceSweep:
    def test_faulted_sweep_byte_identical_to_clean(self, tmp_path,
                                                   monkeypatch, capsys):
        """The issue's acceptance criterion: a multi-experiment sweep
        under ``worker-crash:p=0.2,seed=7`` stores byte-for-byte the
        same cache entries as the fault-free sweep."""
        ids = ["fig1", "fig14", "table1"]
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "clean"
                                                  / "repro-cache"))
        assert main(["run", *ids, "--scale", "0.3", "--jobs", "2",
                     "--no-plot"]) == 0
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "faulted"
                                                  / "repro-cache"))
        assert main(["run", *ids, "--scale", "0.3", "--jobs", "2",
                     "--no-plot", "--faults",
                     "worker-crash:p=0.2,seed=7"]) == 0
        capsys.readouterr()

        clean = cache_files(tmp_path / "clean")
        faulted = cache_files(tmp_path / "faulted")
        assert set(clean) == set(faulted) and len(clean) == len(ids)
        for name in clean:
            assert clean[name] == faulted[name], name
