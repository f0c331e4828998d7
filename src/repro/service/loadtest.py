"""Closed-loop load-test harness: ``repro loadtest``.

``concurrency`` workers each hold one keep-alive connection and fire
requests back-to-back for ``duration`` seconds, drawing endpoints from a
weighted ``predict:compare:experiment`` mix over a fixed pool of small
workloads (so the server's LRU warms within the first second and the
steady state measures the cached serving path: repeats are LRU hits,
answered on arrival without waiting for a batch).

The report combines client-side latency percentiles with the server's
own ``/metrics``: LRU hit ratio and the batch-size distribution, which
counts misses only, so one run shows how many requests reached the
micro-batcher and how well they coalesced.  ``--out`` appends a
``kind: "service"`` record to the bench trajectory file
(``BENCH_sweep.json``), tracking serving throughput across PRs the same
way the sweep tracks cold experiment times.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from .metrics import parse_histogram

__all__ = ["LoadtestReport", "run_loadtest", "parse_mix",
           "append_service_record", "render_report"]

#: request pool per mix slot.  Small sizes: the point is serving
#: behaviour, not simulator heft — every body is answered from the LRU
#: after its first miss.
PREDICT_POOL = [
    {"machine": "gcel", "model": "bsp", "algorithm": "bitonic", "size": 64},
    {"machine": "gcel", "model": "mp-bsp", "algorithm": "bitonic",
     "size": 64},
    {"machine": "gcel", "model": "mp-bpram", "algorithm": "apsp",
     "size": 32},
    {"machine": "cm5", "model": "bsp", "algorithm": "bitonic", "size": 64},
    {"machine": "cm5", "model": "loggp", "algorithm": "apsp", "size": 32},
    {"machine": "cm5", "model": "mp-bsp", "algorithm": "stencil",
     "size": 32},
    {"machine": "gcel", "model": "bsp", "algorithm": "lu", "size": 32},
    {"machine": "maspar", "model": "e-bsp", "algorithm": "bitonic",
     "size": 16},
]
COMPARE_POOL = [
    {"machine": "gcel", "algorithm": "apsp", "size": 32},
    {"machine": "cm5", "algorithm": "bitonic", "size": 64},
]
EXPERIMENT_POOL = ["/experiments/fig14?scale=0.3", "/experiments?list=1"]

KINDS = ("predict", "compare", "experiment")


def parse_mix(spec: str) -> tuple[int, int, int]:
    """Parse ``"8:1:1"`` into per-kind weights (>= 0, not all zero)."""
    parts = spec.split(":")
    try:
        weights = tuple(int(p) for p in parts)
    except ValueError:
        weights = ()
    if len(weights) != 3 or any(w < 0 for w in weights) \
            or not any(weights):
        raise ValueError(
            f"bad mix {spec!r}; expected predict:compare:experiment "
            "weights like 8:1:1 (non-negative, not all zero)")
    return weights  # type: ignore[return-value]


@dataclass
class LoadtestReport:
    """Everything one loadtest run observed."""

    concurrency: int
    duration_s: float
    mix: tuple[int, int, int]
    #: wall-clock latencies in seconds, per kind
    latencies: dict[str, list[float]] = field(default_factory=dict)
    errors: int = 0
    error_detail: dict[str, int] = field(default_factory=dict)
    #: server-side numbers scraped from /metrics after the run
    mean_batch: float = 0.0
    batch_count: int = 0
    batch_buckets: dict[str, int] = field(default_factory=dict)
    lru_hit_ratio: float = 0.0
    #: server topology from the /healthz probe: worker *processes* and
    #: per-process batch threads — stamped into the trajectory record so
    #: `bench --compare --service` never diffs mismatched fleets.
    processes: int = 1
    server_workers: int = 0

    @property
    def total(self) -> int:
        return sum(len(v) for v in self.latencies.values())

    @property
    def rps(self) -> float:
        return self.total / self.duration_s if self.duration_s else 0.0

    def percentile_ms(self, q: float, kind: str | None = None) -> float:
        if kind is None:
            values = sorted(v for vs in self.latencies.values() for v in vs)
        else:
            values = sorted(self.latencies.get(kind, []))
        if not values:
            return 0.0
        idx = min(len(values) - 1, int(q * len(values)))
        return values[idx] * 1000.0

    def to_record(self, label: str = "") -> dict:
        """The trajectory entry (``kind: "service"`` so ``bench
        --compare`` skips it)."""
        import os
        import platform
        from datetime import datetime, timezone

        return {
            "kind": "service",
            "label": label or "service loadtest",
            "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "python": platform.python_version(),
            "host": platform.node(),
            "cpus": os.cpu_count(),
            "concurrency": self.concurrency,
            "processes": self.processes,
            "workers": self.server_workers,
            "duration_s": round(self.duration_s, 3),
            "mix": ":".join(str(w) for w in self.mix),
            "requests": self.total,
            "errors": self.errors,
            "rps": round(self.rps, 1),
            "p50_ms": round(self.percentile_ms(0.50), 3),
            "p95_ms": round(self.percentile_ms(0.95), 3),
            "p99_ms": round(self.percentile_ms(0.99), 3),
            "mean_batch": round(self.mean_batch, 2),
            "lru_hit_ratio": round(self.lru_hit_ratio, 4),
        }


async def _request(reader, writer, method: str, target: str,
                   body: bytes = b"") -> tuple[int, bytes]:
    """One HTTP/1.1 exchange on an existing keep-alive connection."""
    head = (f"{method} {target} HTTP/1.1\r\nHost: loadtest\r\n"
            f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n"
            "\r\n")
    writer.write(head.encode() + body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    payload = await reader.readexactly(length) if length else b""
    return status, payload


async def _fetch_text(host: str, port: int, target: str) -> str:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        _, payload = await _request(reader, writer, "GET", target)
        return payload.decode()
    finally:
        writer.close()
        await writer.wait_closed()


async def _worker(host: str, port: int, schedule: list[tuple[str, str, str,
                                                             bytes]],
                  stop_at: float, report: LoadtestReport,
                  lock: asyncio.Lock) -> None:
    """One closed-loop client: request, record, repeat until the bell."""
    reader = writer = None
    i = 0
    loop = asyncio.get_running_loop()
    while loop.time() < stop_at:
        kind, method, target, body = schedule[i % len(schedule)]
        i += 1
        t0 = loop.time()
        try:
            if writer is None:
                reader, writer = await asyncio.open_connection(host, port)
            status, _ = await _request(reader, writer, method, target, body)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            if writer is not None:
                writer.close()
                writer = None
            async with lock:
                report.errors += 1
                key = "connection"
                report.error_detail[key] = \
                    report.error_detail.get(key, 0) + 1
            continue
        elapsed = loop.time() - t0
        async with lock:
            if status == 200:
                report.latencies.setdefault(kind, []).append(elapsed)
            else:
                report.errors += 1
                key = f"http {status}"
                report.error_detail[key] = \
                    report.error_detail.get(key, 0) + 1
    if writer is not None:
        writer.close()


def _schedule_for(worker_idx: int, mix: tuple[int, int, int],
                  seed: int) -> list[tuple[str, str, str, bytes]]:
    """A deterministic weighted request schedule for one worker."""
    rng = random.Random(10_000 * seed + worker_idx)
    schedule = []
    for _ in range(64):
        kind = rng.choices(KINDS, weights=mix)[0]
        if kind == "predict":
            doc = rng.choice(PREDICT_POOL)
            schedule.append((kind, "POST", "/predict",
                             json.dumps(doc).encode()))
        elif kind == "compare":
            doc = rng.choice(COMPARE_POOL)
            schedule.append((kind, "POST", "/compare",
                             json.dumps(doc).encode()))
        else:
            target = rng.choice(EXPERIMENT_POOL)
            schedule.append((kind, "GET", target, b""))
    return schedule


async def run_loadtest(host: str, port: int, *, concurrency: int = 16,
                       duration_s: float = 10.0,
                       mix: tuple[int, int, int] = (8, 1, 1),
                       seed: int = 0) -> LoadtestReport:
    """Drive the server for ``duration_s`` seconds; scrape /metrics after."""
    report = LoadtestReport(concurrency=concurrency, duration_s=duration_s,
                            mix=mix)
    # sanity probe first: a connection error here is a clean failure
    # instead of `concurrency x duration` buried ones; its body also
    # carries the server's process topology for the trajectory record
    health = await _fetch_text(host, port, "/healthz")
    try:
        doc = json.loads(health)
        report.processes = int(doc.get("processes", 1) or 1)
        report.server_workers = int(doc.get("workers", 0) or 0)
    except (ValueError, TypeError):
        pass

    lock = asyncio.Lock()
    loop = asyncio.get_running_loop()
    stop_at = loop.time() + duration_s
    workers = [
        asyncio.create_task(_worker(host, port,
                                    _schedule_for(i, mix, seed),
                                    stop_at, report, lock))
        for i in range(concurrency)
    ]
    await asyncio.gather(*workers)

    metrics_text = await _fetch_text(host, port, "/metrics")
    buckets, total, count = parse_histogram(metrics_text, "repro_batch_size")
    report.batch_buckets = buckets
    report.batch_count = count
    report.mean_batch = total / count if count else 0.0
    for line in metrics_text.splitlines():
        if line.startswith("repro_lru_hit_ratio "):
            report.lru_hit_ratio = float(line.rsplit(" ", 1)[1])
    return report


def render_report(report: LoadtestReport) -> str:
    """Markdown-friendly summary table (also what CI posts)."""
    lines = [
        f"loadtest: {report.total} requests in {report.duration_s:.1f}s "
        f"at concurrency {report.concurrency} "
        f"against {report.processes} server process(es) "
        f"(mix predict:compare:experiment = "
        f"{':'.join(str(w) for w in report.mix)})",
        "",
        "| metric | value |",
        "|---|---:|",
        f"| throughput | {report.rps:,.0f} req/s |",
        f"| p50 latency | {report.percentile_ms(0.50):.2f} ms |",
        f"| p95 latency | {report.percentile_ms(0.95):.2f} ms |",
        f"| p99 latency | {report.percentile_ms(0.99):.2f} ms |",
        f"| errors | {report.errors} |",
        f"| mean batch size | {report.mean_batch:.2f} |",
        f"| batches dispatched | {report.batch_count} |",
        f"| LRU hit ratio | {report.lru_hit_ratio:.1%} |",
    ]
    for kind in KINDS:
        n = len(report.latencies.get(kind, []))
        if n:
            lines.append(f"| {kind} p95 ({n} reqs) "
                         f"| {report.percentile_ms(0.95, kind):.2f} ms |")
    if report.error_detail:
        detail = ", ".join(f"{k}: {v}"
                           for k, v in sorted(report.error_detail.items()))
        lines.append(f"| error detail | {detail} |")
    if report.batch_buckets:
        dist = " ".join(f"<= {le}: {n}" for le, n in
                        report.batch_buckets.items())
        lines += ["", f"batch-size distribution (cumulative): {dist}"]
    return "\n".join(lines)


def append_service_record(report: LoadtestReport, out: str | Path, *,
                          label: str = "") -> Path:
    """Append the run to the bench trajectory file (same doc shape)."""
    path = Path(out)
    doc = {"runs": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, dict) and isinstance(loaded.get("runs"),
                                                       list):
                doc = loaded
        except json.JSONDecodeError:
            pass
    doc["runs"].append(report.to_record(label))
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path
