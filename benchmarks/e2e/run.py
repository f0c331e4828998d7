#!/usr/bin/env python3
"""End-to-end benchmark of the repro simulator and its prediction service.

Run from the root of a repository checkout (no install needed)::

    python3 benchmarks/e2e/run.py --workload record --seed 0 --seconds 15
    python3 benchmarks/e2e/run.py --seed 0 --out results.json     # all four
    python3 benchmarks/e2e/run.py --seed 0 --trace 1 --out traced.json

Four workloads (``README.md`` says why each was chosen):

* ``record`` — the 35 registry experiments at scale 1.0, no result
  cache, each sweep in a fresh child with an empty step-program store;
* ``replay`` — the same sweep in fresh children whose on-disk store was
  written during set-up;
* ``whatif`` — the pinned ``ablate`` matrix plus the ``bounds`` cells,
  after one untimed warm-up matrix;
* ``serve`` — a fresh ``repro serve`` per session, driven by two
  closed-loop keep-alive connections over a fixed 8:1:1 schedule.

Every workload repeats whole sessions until ``--seconds`` is spent (and
at least its minimum), checks every output it gets, and prints each
metric by name with its unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics, or with ``--trace 1`` the per-layer metrics of
a separate traced pass.  The exit code is 1 when any output was wrong.
"""

from __future__ import annotations

import argparse
import asyncio
import compileall
import contextlib
import json
import os
import platform
import re
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"

import workloads as W  # noqa: E402  (HERE is sys.path[0])
from stats import percentile  # noqa: E402

SCHEMA = "repro-e2e-bench/1"
WORKLOADS = ("record", "replay", "whatif", "serve")

#: end-to-end metric -> unit, in the order ``BENCHMARK.json`` lists them.
E2E_METRICS = {"setup_s": "s", "wall_s": "s", "p50_ms": "ms",
               "peak_rss_mb": "MB"}

#: per workload: (minimum sessions, timed repetitions per session).
SESSIONS = {"record": (3, 1), "replay": (6, 1), "whatif": (2, 3),
            "serve": (3, 1)}

#: no new session starts once a pass has run this long, so a run on a
#: slow host still ends well inside three minutes.
PASS_CAP_S = 75.0
CHILD_TIMEOUT_S = 120.0

clock = time.perf_counter


@dataclass
class Pass:
    """What one (untraced or traced) pass of a workload observed."""

    setups: list[float] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    ops_ms: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: traced passes: one ``(spans, windows)`` pair per child process
    traces: list = field(default_factory=list)
    #: ``service.*`` per-layer numbers (``serve`` only)
    service: dict = field(default_factory=dict)
    #: one-time set-up added to every session's (``replay``'s store write)
    base_setup_s: float = 0.0

    def fail(self, message: str, n: int = 1) -> None:
        self.failures.extend([message] * n)

    def metrics(self) -> dict[str, float]:
        return {"setup_s": self.base_setup_s + statistics.median(self.setups),
                "wall_s": statistics.median(self.walls),
                "p50_ms": statistics.median(self.ops_ms),
                "peak_rss_mb": statistics.median(self.rss_mb)}


class Bench:
    """Child-process plumbing shared by the workloads of one run."""

    def __init__(self, seed: int, seconds: int, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self._n = 0

    def fresh_dir(self, tag: str) -> Path:
        self._n += 1
        path = self.work / f"{tag}-{self._n}"
        path.mkdir(parents=True)
        return path

    def env(self, cache_dir: Path) -> dict[str, str]:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(cache_dir),
                   TMPDIR=str(self.work))
        return env

    def command(self, mode: str, *extra: str, trace_out: Path | None = None
                ) -> list[str]:
        cmd = [sys.executable, str(HERE / "child.py"), mode,
               "--seed", str(self.seed), *extra]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        return cmd

    def child(self, mode: str, cache_dir: Path, *extra: str,
              trace_out: Path | None = None) -> dict:
        """Run one child to completion; its JSON line plus ``spawned``
        and ``exited`` times (``error`` on any failure)."""
        stderr = cache_dir / "stderr.txt"
        spawned = clock()
        with open(stderr, "w") as err:
            try:
                proc = subprocess.run(
                    self.command(mode, *extra, trace_out=trace_out),
                    cwd=ROOT, env=self.env(cache_dir), stdout=subprocess.PIPE,
                    stderr=err, text=True, timeout=CHILD_TIMEOUT_S)
                out = _last_json(proc.stdout)
            except subprocess.TimeoutExpired:
                out = {"error": f"{mode} child timed out"}
        out["spawned"], out["exited"] = spawned, clock()
        if "error" in out:
            out["error"] += "\n" + stderr.read_text()[-2000:]
        return out

    def sessions(self, run_one, workload: str) -> None:
        """Run sessions until the minimum is met and ``seconds`` spent."""
        minimum, _ = SESSIONS[workload]
        start, lengths = clock(), []
        while True:
            elapsed = clock() - start
            if len(lengths) >= minimum and (
                    elapsed + statistics.mean(lengths) > self.seconds
                    or elapsed > PASS_CAP_S):
                return
            t0 = clock()
            run_one()
            lengths.append(clock() - t0)


def _last_json(stdout: str) -> dict:
    for line in reversed(stdout.strip().splitlines()):
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict):
            return doc
    return {"error": "child printed no result"}


def _load_trace(path: Path, windows) -> tuple:
    return json.loads(path.read_text())["spans"], windows


# ----------------------------------------------------------------------
# record / replay
# ----------------------------------------------------------------------
def _sweep_session(bench: Bench, p: Pass, cache_dir: Path, traced: bool,
                   expect: dict[str, str]) -> dict:
    """One sweep child; checks every experiment against ``expect``
    (experiment id -> digest), filling it on first sight."""
    trace_out = cache_dir / "spans.json" if traced else None
    out = bench.child("sweep", cache_dir, trace_out=trace_out)
    n = len(W.EXPERIMENT_IDS)
    p.attempted += n
    if "error" in out:
        p.fail(out["error"], n)
        return out
    p.setups.append(out["ready"] - out["spawned"])
    p.walls.extend(hi - lo for lo, hi in out["windows"])
    p.rss_mb.append(out["maxrss_kb"] / 1024)
    for exp in out["experiments"]:
        p.ops_ms.append(exp["elapsed_s"] * 1000)
        if not exp["passed"]:
            p.fail(f"{exp['id']}: failing checks {exp['failed_checks']}")
        elif expect.setdefault(exp["id"], exp["digest"]) != exp["digest"]:
            p.fail(f"{exp['id']}: result digest differs from the recording")
    if traced:
        p.traces.append(_load_trace(trace_out, out["windows"]))
    return out


def run_record(bench: Bench, traced: bool) -> Pass:
    p, expect = Pass(), {}
    bench.sessions(lambda: _sweep_session(
        bench, p, bench.fresh_dir("record"), traced, expect), "record")
    return p


def run_replay(bench: Bench, traced: bool) -> Pass:
    p, expect = Pass(), {}
    store = bench.fresh_dir("replay")
    # set-up: record the sweep once, writing the on-disk IR store
    writer = Pass()
    out = _sweep_session(bench, writer, store, False, expect)
    p.attempted += writer.attempted
    p.failures += writer.failures
    p.base_setup_s = out["exited"] - out["spawned"]
    bench.sessions(lambda: _sweep_session(bench, p, store, traced, expect),
                   "replay")
    return p


# ----------------------------------------------------------------------
# whatif
# ----------------------------------------------------------------------
def _golden_digests() -> dict[str, str]:
    return {kind: W.digest(json.loads(
        (GOLDEN / f"{kind}.json").read_text())["report"])
        for kind in ("ablate", "bounds")}


def run_whatif(bench: Bench, traced: bool) -> Pass:
    p = Pass()
    _, reps = SESSIONS["whatif"]
    golden = _golden_digests() if bench.seed == 0 else None

    def check(matrix: dict, expect: dict) -> None:
        p.attempted += 2
        if "error" in matrix:
            p.fail(matrix["error"], 2)
            return
        if matrix["min_ratio"] < 1:
            p.fail(f"bounds ratio {matrix['min_ratio']} below 1")
        for kind in ("ablate", "bounds"):
            if expect.setdefault(kind, matrix[kind]) != matrix[kind]:
                p.fail(f"{kind} report differs from "
                       + ("tests/golden" if golden else "the warm-up"))

    def session() -> None:
        cache_dir = bench.fresh_dir("whatif")
        trace_out = cache_dir / "spans.json" if traced else None
        out = bench.child("whatif", cache_dir, "--reps", str(reps),
                          trace_out=trace_out)
        if "error" in out:
            p.attempted += 2 * (reps + 1)
            p.fail(out["error"], 2 * (reps + 1))
            return
        p.setups.append(out["ready"] - out["spawned"])
        p.rss_mb.append(out["maxrss_kb"] / 1024)
        expect = dict(golden or {})
        check(out["warm"], expect)
        for matrix, (lo, hi) in zip(out["reps"], out["windows"]):
            check(matrix, expect)
            p.walls.append(hi - lo)
            p.ops_ms.append((hi - lo) * 1000)
        if traced:
            p.traces.append(_load_trace(trace_out, out["windows"]))

    bench.sessions(session, "whatif")
    return p


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
async def _exchange(reader, writer, method: str, target: str,
                    body: bytes) -> tuple[int, bytes]:
    """One HTTP/1.1 request on a keep-alive connection."""
    writer.write(f"{method} {target} HTTP/1.1\r\nHost: bench\r\n"
                 f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    payload = await reader.readexactly(length) if length else b""
    return int(status_line.split()[1]), payload


async def _closed_loop(port: int, conn: list, reqs, first: int, keep,
                       out: list) -> None:
    """Send ``reqs`` one after another over ``conn`` (``[reader,
    writer]``, reopened after a failure), appending ``(kind, seconds,
    status, body-or-None)`` to ``out``.  ``keep(i, kind, target, body)``
    says which response bodies to retain for checking."""
    for i, (kind, method, target, body) in enumerate(reqs, first):
        t0 = clock()
        try:
            status, payload = await _exchange(*conn, method, target, body)
        except (OSError, asyncio.IncompleteReadError, ValueError):
            status, payload = 0, b""
            conn[1].close()
            conn[:] = await asyncio.open_connection("127.0.0.1", port)
        out.append((kind, clock() - t0, status,
                    payload if keep(i, kind, target, body) else None))


async def _drive(port: int, schedule, keep) -> tuple[list, list]:
    """The schedule over one keep-alive connection per request list, in
    rounds of ``W.ROUND`` requests per connection.  Returns each
    connection's results and each round's ``(start, end)``."""
    conns = [list(await asyncio.open_connection("127.0.0.1", port))
             for _ in schedule]
    results: list[list] = [[] for _ in schedule]
    windows = []
    try:
        for lo in range(0, len(schedule[0]), W.ROUND):
            t0 = clock()
            await asyncio.gather(*(
                _closed_loop(port, conn, reqs[lo:lo + W.ROUND], lo, keep, out)
                for conn, reqs, out in zip(conns, schedule, results)))
            windows.append((t0, clock()))
    finally:
        for _, writer in conns:
            writer.close()
    return results, windows


async def _request(port: int, method: str, target: str,
                   body: bytes) -> tuple[int, bytes]:
    """One request on its own connection (warm-up, scrapes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return await _exchange(reader, writer, method, target, body)
    finally:
        writer.close()


def _scrape(port: int) -> dict:
    """Counter and histogram series of ``/metrics`` that the service
    layer metrics are computed from."""
    status, body = asyncio.run(_request(port, "GET", "/metrics", b""))
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    out: dict = {}
    for line in body.decode().splitlines():
        if line.startswith("#") or " " not in line:
            continue
        series, value = line.rsplit(" ", 1)
        name = series.split("{", 1)[0]
        if name in ("repro_batches_total", "repro_batch_size_sum",
                    "repro_batch_size_count", "repro_lru_hits_total",
                    "repro_lru_misses_total"):
            out[name] = out.get(name, 0.0) + float(value)
        elif name == "repro_request_duration_seconds_bucket":
            le = re.search(r'le="([^"]+)"', series).group(1)
            buckets = out.setdefault("latency", {})
            buckets[le] = buckets.get(le, 0.0) + float(value)
    return out


def _histogram_p50_ms(before: dict, after: dict) -> float:
    """Median of the latency observations between two scrapes,
    interpolated inside its bucket."""
    edges = sorted((float(le), after["latency"][le]
                    - before.get("latency", {}).get(le, 0.0))
                   for le in after["latency"])
    total = edges[-1][1]
    lo, below = 0.0, 0.0
    for hi, cum in edges:
        if cum >= total / 2:
            if hi == float("inf"):
                return lo * 1000
            share = (total / 2 - below) / (cum - below) if cum > below else 0
            return (lo + share * (hi - lo)) * 1000
        lo, below = hi, cum
    return lo * 1000


class _Server:
    """One ``repro serve`` child on a free port."""

    def __init__(self, bench: Bench, cache_dir: Path,
                 trace_out: Path | None):
        self.spawned = clock()
        self.stderr = open(cache_dir / "stderr.txt", "w")
        self.proc = subprocess.Popen(
            bench.command("serve", trace_out=trace_out), cwd=ROOT,
            env=bench.env(cache_dir), stdout=subprocess.PIPE,
            stderr=self.stderr, text=True)

    def read_port(self, timeout: float = 60.0) -> int:
        """The port of the server's listening banner."""
        deadline = clock() + timeout
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            while clock() < deadline:
                if not sel.select(timeout=deadline - clock()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                m = re.search(r"listening on http://[^:]+:(\d+)", line)
                if m:
                    return int(m.group(1))
        finally:
            sel.close()
        raise RuntimeError("server printed no listening banner")

    def stop(self) -> dict:
        """Interrupt (graceful drain), wait, return its JSON line."""
        try:
            self.proc.send_signal(signal.SIGINT)
            stdout, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            stdout, _ = self.proc.communicate()
        finally:
            self.stderr.close()
        return _last_json(stdout)


def run_serve(bench: Bench, traced: bool) -> Pass:
    p = Pass()
    schedule = W.serve_schedule(bench.seed)
    n_requests = sum(len(reqs) for reqs in schedule)
    sampled: dict[tuple, list[bytes]] = {}
    hot_ms, miss_ms = [], []
    scrapes = []

    def session() -> None:
        cache_dir = bench.fresh_dir("serve")
        trace_out = cache_dir / "spans.json" if traced else None
        seen: set[tuple] = set()

        def keep(i, kind, target, body) -> bool:
            # each distinct hot predict/compare body once, the first misses
            if kind in ("hot", "compare") and (target, body) not in seen:
                seen.add((target, body))
                return True
            return kind == "miss" and i < 30

        server = _Server(bench, cache_dir, trace_out)
        try:
            port = server.read_port()
            for kind, method, target, body in W.warmup_requests():
                status, _ = asyncio.run(_request(port, method, target,
                                                 body))
                if status != 200:
                    raise RuntimeError(f"warm-up {target} answered {status}")
            p.setups.append(clock() - server.spawned)
            before = _scrape(port)
            results, windows = asyncio.run(_drive(port, schedule, keep))
            scrapes.append((before, _scrape(port)))
        except (OSError, RuntimeError) as exc:
            p.attempted += n_requests
            p.fail(f"serve session: {exc}", n_requests)
            server.stop()
            return
        out = server.stop()
        p.walls.extend(hi - lo for lo, hi in windows)
        if "maxrss_kb" not in out:
            p.fail(f"server exited without its result: {out}")
        else:
            p.rss_mb.append(out["maxrss_kb"] / 1024)
        for conn, reqs in zip(results, schedule):
            for (kind, secs, status, body), req in zip(conn, reqs):
                p.attempted += 1
                p.ops_ms.append(secs * 1000)
                (miss_ms if kind == "miss" else hot_ms).append(secs * 1000)
                if status != 200:
                    p.fail(f"{req[2]} answered {status}")
                elif body is not None:
                    sampled.setdefault((req[2], req[3]), []).append(body)
        if traced:
            p.traces.append(_load_trace(trace_out, windows))

    bench.sessions(session, "serve")
    _check_served(bench, p, sampled)
    if scrapes:
        total = {k: sum(after.get(k, 0.0) - before.get(k, 0.0)
                        for before, after in scrapes)
                 for k in ("repro_batches_total", "repro_batch_size_sum",
                           "repro_batch_size_count", "repro_lru_hits_total",
                           "repro_lru_misses_total")}
        lookups = total["repro_lru_hits_total"] \
            + total["repro_lru_misses_total"]
        p50s = [_histogram_p50_ms(b, a) for b, a in scrapes]
        p.service = {
            "service.batches": total["repro_batches_total"] / len(p.walls),
            "service.mean_batch": total["repro_batch_size_sum"]
            / max(1.0, total["repro_batch_size_count"]),
            "service.lru_hit_ratio": total["repro_lru_hits_total"]
            / max(1.0, lookups),
            "service.server_p50_ms": statistics.median(p50s),
            "service.hit_p99_ms": percentile(hot_ms, 0.99) or 0.0,
            "service.miss_p50_ms": statistics.median(miss_ms)
            if miss_ms else 0.0,
        }
    return p


def _check_served(bench: Bench, p: Pass,
                  sampled: dict[tuple, list[bytes]]) -> None:
    """Served bodies must equal the offline pipeline's, byte for byte."""
    os.environ["REPRO_CACHE_DIR"] = str(bench.fresh_dir("offline"))
    sys.path.insert(0, str(SRC))
    from repro.service.oracle import compare_offline, predict_offline

    for (target, body), served in sampled.items():
        doc = json.loads(body)
        offline = compare_offline(doc) if target == "/compare" \
            else predict_offline(doc)
        expected = (json.dumps(offline) + "\n").encode()
        for got in served:
            p.attempted += 1
            if got != expected:
                p.fail(f"served {target} {doc} differs from offline")


# ----------------------------------------------------------------------
RUNNERS = {"record": run_record, "replay": run_replay,
           "whatif": run_whatif, "serve": run_serve}


def run_workload(bench: Bench, name: str, trace: bool) -> dict:
    """The untraced pass (and with ``trace`` the traced one) of one
    workload, as a results-file entry."""
    p = RUNNERS[name](bench, False)
    entry = {"attempted": p.attempted, "failed": len(p.failures),
             "failures": p.failures[:20]}
    if p.walls:
        entry["metrics"] = {k: {"value": v, "unit": E2E_METRICS[k]}
                            for k, v in p.metrics().items()}
        entry["samples"] = {"setup_s": p.setups, "wall_s": p.walls}
    if trace:
        from tracer import LAYER_METRICS, layer_metrics

        t = RUNNERS[name](bench, True)
        entry["attempted"] += t.attempted
        entry["failed"] += len(t.failures)
        entry["failures"] += t.failures[:20]
        if p.walls and t.traces:
            values = layer_metrics(
                t.traces, untraced_rep_s=statistics.mean(p.walls),
                service=t.service)
            entry["layers"] = {k: {"value": v, "unit": LAYER_METRICS[k]}
                               for k, v in values.items()}
    entry["correct"] = entry["failed"] == 0
    return entry


def stamp(args) -> dict:
    import numpy

    return {"host": platform.node(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace),
            "utc": datetime.now(timezone.utc).isoformat(timespec="seconds")}


def _seed(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < 2 ** 31 - 2000:
        raise argparse.ArgumentTypeError("seed must be in [0, 2**31 - 2000)")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append this run to a results file")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    work = HERE / "_work" / str(os.getpid())
    work.mkdir(parents=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        bench = Bench(args.seed, args.seconds, work)
        results = {name: run_workload(bench, name, bool(args.trace))
                   for name in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()

    key = "layers" if args.trace else "metrics"
    metrics = {}
    for name, entry in results.items():
        for failure in entry["failures"]:
            print(f"FAIL {name}: {failure.strip().splitlines()[-1]}")
        for metric, m in entry.get(key, {}).items():
            print(f"{name:<7} {metric:<28} {m['value']:>14.6g} {m['unit']}")
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = m
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() \
            else {"schema": SCHEMA, "runs": []}
        doc["runs"].append({"stamp": stamp(args), "workloads": results})
        path.write_text(json.dumps(doc, indent=1) + "\n")
    correct = all(e["correct"] for e in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, sum(e["attempted"] for e in results.values())),
        "failed": sum(e["failed"] for e in results.values()),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
