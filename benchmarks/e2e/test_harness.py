"""Self-tests of the end-to-end benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q -o addopts=''

Everything here is fast except the two ``serve`` tests, which boot one
real server each for a 40-request schedule.
"""

from __future__ import annotations

import json
import re
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402
from stats import percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(sid, name, start, end, parent=0, thread=1, counts=None):
    return (sid, name, start, end, parent, thread, counts)


# ----------------------------------------------------------------------
# tracer: self time
# ----------------------------------------------------------------------
class TestSelfTime:
    def test_nested_children_are_subtracted(self):
        spans = [span(2, "b", 2, 5, parent=1), span(3, "c", 6, 7, parent=1),
                 span(1, "a", 0, 10)]
        self_s, calls, inclusive, _ = tracer.self_times([(spans, [(0, 10)])])
        assert self_s == {"a": 6, "b": 3, "c": 1}
        assert calls == {"a": 1, "b": 1, "c": 1}
        assert inclusive["a"] == 10

    def test_concurrent_threads_share_the_wall_clock(self):
        spans = [span(1, "a", 0, 10, thread=1),
                 span(1, "b", 5, 15, thread=2)]
        self_s, *_ = tracer.self_times([(spans, [(0, 15)])])
        assert self_s == {"a": 7.5, "b": 7.5}
        assert sum(self_s.values()) == 15

    def test_time_outside_windows_is_not_counted(self):
        spans = [span(1, "a", 0, 10, thread=1),
                 span(1, "b", 5, 15, thread=2)]
        self_s, calls, _, _ = tracer.self_times([(spans, [(2, 8)])])
        assert self_s == {"a": 4.5, "b": 1.5}
        assert calls == {"b": 1}  # counted where it starts

    def test_layer_metrics_sum_to_the_traced_wall(self):
        spans = [span(2, "replay", 1, 4, parent=1,
                      counts={"replay.supersteps": 30}),
                 span(1, "engine.ir", 0, 5)]
        values = tracer.layer_metrics([(spans, [(0, 6)])], untraced_rep_s=5)
        layered = sum(v for k, v in values.items() if k.endswith("self_s")
                      or k.endswith("prep_s") or k.endswith("step_s"))
        assert layered == pytest.approx(values["trace.wall_s"])
        assert values["experiment.self_s"] == pytest.approx(1)
        assert values["replay.us_per_superstep"] == pytest.approx(1e5)
        assert values["trace.overhead_ratio"] == pytest.approx(6 / 5)

    def test_wrapper_records_nesting_per_thread(self):
        ticks = iter(range(1000))
        t = tracer.Tracer(hooks=(), clock=lambda: next(ticks))
        inner = t.wrap(lambda: None, tracer.Hook("x:inner", "inner"))
        outer = t.wrap(lambda: inner(), tracer.Hook("x:outer", "outer"))
        same = t.wrap(lambda: outer(), tracer.Hook("x:again", "outer"))
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        same()
        by_name = {}
        for sid, name, start, end, parent, thread, _ in t.spans:
            by_name.setdefault(name, []).append((sid, parent, thread))
        # "outer" re-entered itself: one span, not two
        assert len(by_name["outer"]) == 1
        outer_id = by_name["outer"][0][0]
        parents = sorted(p for _, p, _ in by_name["inner"])
        assert parents == [0, outer_id]  # the thread's call has no parent


# ----------------------------------------------------------------------
# tracer: install / uninstall
# ----------------------------------------------------------------------
def _references() -> dict:
    """Every module attribute and class ``__dict__`` entry in repro."""
    refs = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            refs[(name, attr)] = value
            if isinstance(value, type):
                for key, member in list(vars(value).items()):
                    refs[(name, attr, key)] = member
    return refs


def test_install_then_uninstall_restores_every_reference():
    sys.path.insert(0, str(ROOT / "src"))
    tracer._import_all()
    import importlib

    lower = importlib.import_module("repro.simulator.lower")
    replay_mod = importlib.import_module("repro.simulator.replay")
    original = replay_mod.replay
    before = _references()
    t = tracer.Tracer().install()
    try:
        assert lower.replay is replay_mod.replay is not original
        assert lower.replay.__wrapped__ is original
    finally:
        t.uninstall()
    after = _references()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


# ----------------------------------------------------------------------
# metric names, percentiles
# ----------------------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def test_metric_names_match_benchmark_json():
    e2e = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert e2e == list(run.E2E_METRICS.items())
    assert layers == list(tracer.LAYER_METRICS.items())
    for name, _ in e2e + layers:
        assert NAME.match(name) and len(name) <= 64
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(100), 0.9) == 89  # 10 samples above
    assert percentile(range(99), 0.9) is None  # only 9
    assert percentile(range(1000), 0.99) == 989
    assert percentile(range(999), 0.99) is None


def test_schedule_is_a_pure_function_of_the_seed():
    a, b = W.serve_schedule(3), W.serve_schedule(3)
    assert a == b and a != W.serve_schedule(4)
    flat = [r for conn in a for r in conn]
    kinds = [r[0] for r in flat]
    assert kinds.count("miss") * 10 == len(flat)
    seeds = [json.loads(r[3])["seed"] for r in flat if r[0] == "miss"]
    assert len(set(seeds)) == len(seeds)


# ----------------------------------------------------------------------
# compare verdicts
# ----------------------------------------------------------------------
class TestVerdicts:
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]

    def test_within_bound(self):
        change = [v * 1.03 for v in self.base]
        assert compare.verdict(self.base, change, bound=0.1,
                               better="lower") == "within bound"

    def test_worse(self):
        change = [v * 1.2 for v in self.base]
        assert compare.verdict(self.base, change, bound=0.1,
                               better="lower") == "worse"
        assert compare.verdict(self.base, [v / 1.2 for v in self.base],
                               bound=0.1, better="higher") == "worse"

    def test_better_needs_nine_in_ten_pairs(self):
        change = [v * 0.9 for v in self.base]
        assert compare.pair_wins(self.base, change, "lower") == (10, 10)
        assert compare.verdict(self.base, change, bound=0.1,
                               better="lower") == "better"
        mixed = change[:8] + [v * 1.05 for v in self.base[8:]]
        assert compare.verdict(self.base, mixed, bound=0.1,
                               better="lower") == "within bound"

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        assert compare.verdict(self.base, noisy, bound=0.1,
                               better="lower") == "unresolved"
        assert compare.verdict(noisy, [1.0] * 10, bound=0.1,
                               better="lower") == "better"

    def test_compare_exits_nonzero_on_a_worse_metric(self, tmp_path):
        def results(scale):
            return {"runs": [{"workloads": {"record": {"metrics": {
                m["name"]: {"value": 10.0 * scale, "unit": m["unit"]}
                for m in SPEC["end_to_end"]}}}}]}

        parent, change = tmp_path / "p.json", tmp_path / "c.json"
        parent.write_text(json.dumps(results(1.0)))
        change.write_text(json.dumps(results(1.0)))
        assert compare.main([str(parent), str(change)]) == 0
        change.write_text(json.dumps(results(2.0)))
        assert compare.main([str(parent), str(change)]) == 1


# ----------------------------------------------------------------------
# correctness failures make the command exit non-zero
# ----------------------------------------------------------------------
def _fake_sweep_child(corrupt_call: int | None):
    calls = {"n": 0}

    def child(self, mode, cache_dir, *extra, trace_out=None):
        calls["n"] += 1
        exps = [{"id": i, "elapsed_s": 0.01, "passed": True,
                 "failed_checks": [], "digest": f"d-{i}"}
                for i in W.EXPERIMENT_IDS]
        if calls["n"] == corrupt_call:
            exps[5]["digest"] = "corrupted"
        return {"ready": 1.0, "spawned": 0.5, "exited": 3.0,
                "windows": [[1.0, 2.0]], "experiments": exps,
                "maxrss_kb": 1024}
    return child


@pytest.mark.parametrize("corrupt, code", [(None, 0), (3, 1)])
def test_replay_digest_mismatch_fails_the_run(monkeypatch, capsys,
                                              corrupt, code):
    monkeypatch.setattr(run.Bench, "child", _fake_sweep_child(corrupt))
    assert run.main(["--workload", "replay", "--seconds", "1"]) == code
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is (code == 0)
    assert result["failed"] == (0 if corrupt is None else 1)
    assert set(result["metrics"]) == set(run.E2E_METRICS)


@pytest.mark.parametrize("corrupt", [False, True])
def test_served_body_mismatch_fails_the_run(monkeypatch, capsys, tmp_path,
                                           corrupt):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(W, "REQUESTS_PER_CONNECTION", 20)
    monkeypatch.setitem(run.SESSIONS, "serve", (1, 1))
    real_drive = run._drive

    async def drive(port, schedule, keep):
        results, windows = await real_drive(port, schedule, keep)
        if corrupt:
            conn = results[0]
            i = next(i for i, r in enumerate(conn) if r[3] is not None)
            kind, secs, status, body = conn[i]
            conn[i] = (kind, secs, status, b"x" + body)
        return results, windows

    monkeypatch.setattr(run, "_drive", drive)
    code = run.main(["--workload", "serve", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == (1 if corrupt else 0)
    assert result["failed"] == (1 if corrupt else 0)
    assert result["attempted"] > 40
