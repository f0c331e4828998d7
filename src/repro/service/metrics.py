"""Hand-rolled Prometheus instrumentation (text exposition format 0.0.4).

No client library dependency: the service only needs counters, gauges
and histograms, all updated from the event-loop thread, so a few dozen
lines of dict bookkeeping suffice.  ``GET /metrics`` renders the
registry; the loadtest harness parses the same text back to report the
server-side batch-size distribution.

Catalogue (all prefixed ``repro_``):

========================================  =========  ======================
metric                                    type       labels
========================================  =========  ======================
``repro_requests_total``                  counter    ``endpoint, status``
``repro_request_duration_seconds``        histogram  ``endpoint``
``repro_batch_size``                      histogram  —
``repro_batches_total``                   counter    —
``repro_lru_hits_total``                  counter    ``kind``
``repro_lru_misses_total``                counter    ``kind``
``repro_lru_hit_ratio``                   gauge      —
``repro_inflight_requests``               gauge      —
``repro_service_info``                    gauge      ``version``
``repro_faults_injected_total``           counter    ``point``
``repro_retries_total``                   counter    ``site``
``repro_rejected_total``                  counter    ``reason``
========================================  =========  ======================

``repro_faults_injected_total`` / ``repro_retries_total`` /
``repro_rejected_total`` instrument the fault-injection/recovery layer
(:mod:`repro.faults`): how often each fault point fired, how many
bounded retries the dispatcher spent, and why requests were shed
(``breaker`` | ``saturated`` | ``deadline``).

Fleet aggregation: every metric can dump a structural
:meth:`~_Metric.snapshot`; :func:`merge_snapshots` folds the snapshots
of N worker processes into fleet-wide totals (counters and histograms
sum, gauges follow per-metric rules) and :func:`render_snapshot` turns
a snapshot back into exposition text — for one worker's own snapshot,
byte-identical to its ``render()``.
"""

from __future__ import annotations

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "ServiceMetrics", "parse_histogram", "merge_snapshots",
           "render_snapshot"]

#: default latency buckets, in seconds (1 ms ... 10 s).
LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                   0.5, 1.0, 2.5, 5.0, 10.0)
#: batch-size buckets (powers of two up to the default max batch).
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


def _escape(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _labelstr(names: tuple[str, ...], values: tuple) -> str:
    if not names:
        return ""
    inner = ",".join(f'{n}="{_escape(v)}"' for n, v in zip(names, values))
    return "{" + inner + "}"


def _fmt(v: float) -> str:
    """Prometheus float formatting: integers without the trailing .0."""
    f = float(v)
    return str(int(f)) if f.is_integer() else repr(f)


class _Metric:
    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)

    def header(self) -> list[str]:
        return [f"# HELP {self.name} {self.help}",
                f"# TYPE {self.name} {self.kind}"]

    def _snapshot_head(self) -> dict:
        return {"name": self.name, "kind": self.kind, "help": self.help,
                "labels": list(self.labelnames)}


class Counter(_Metric):
    kind = "counter"

    def __init__(self, name, help, labelnames=()):
        super().__init__(name, help, labelnames)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = tuple(str(labels[n]) for n in self.labelnames)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = tuple(str(labels[n]) for n in self.labelnames)
        return self._values.get(key, 0.0)

    def total(self) -> float:
        return sum(self._values.values())

    def render(self) -> list[str]:
        lines = self.header()
        for key in sorted(self._values):
            lines.append(f"{self.name}{_labelstr(self.labelnames, key)} "
                         f"{_fmt(self._values[key])}")
        if not self._values and not self.labelnames:
            lines.append(f"{self.name} 0")
        return lines

    def snapshot(self) -> dict:
        return {**self._snapshot_head(),
                "values": [[list(k), v] for k, v in self._values.items()]}


class Gauge(_Metric):
    kind = "gauge"

    def __init__(self, name, help, labelnames=()):
        super().__init__(name, help, labelnames)
        self._values: dict[tuple, float] = {}
        #: optional zero-arg callback rendered instead of stored values
        self.callback = None

    def set(self, value: float, **labels) -> None:
        key = tuple(str(labels[n]) for n in self.labelnames)
        self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = tuple(str(labels[n]) for n in self.labelnames)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        key = tuple(str(labels[n]) for n in self.labelnames)
        return self._values.get(key, 0.0)

    def render(self) -> list[str]:
        lines = self.header()
        values = self._values
        if self.callback is not None:
            values = {(): float(self.callback())}
        for key in sorted(values):
            lines.append(f"{self.name}{_labelstr(self.labelnames, key)} "
                         f"{_fmt(values[key])}")
        if not values and not self.labelnames:
            lines.append(f"{self.name} 0")
        return lines

    def snapshot(self) -> dict:
        values = self._values
        if self.callback is not None:
            values = {(): float(self.callback())}
        return {**self._snapshot_head(),
                "values": [[list(k), v] for k, v in values.items()]}


class Histogram(_Metric):
    kind = "histogram"

    def __init__(self, name, help, buckets, labelnames=()):
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        # per label-value tuple: (bucket counts, sum, count)
        self._series: dict[tuple, list] = {}

    def _row(self, labels: dict) -> list:
        key = tuple(str(labels[n]) for n in self.labelnames)
        row = self._series.get(key)
        if row is None:
            row = self._series[key] = [[0] * len(self.buckets), 0.0, 0]
        return row

    def observe(self, value: float, **labels) -> None:
        counts, _, _ = row = self._row(labels)
        for i, b in enumerate(self.buckets):
            if value <= b:
                counts[i] += 1
        row[1] += value
        row[2] += 1

    def count(self, **labels) -> int:
        key = tuple(str(labels[n]) for n in self.labelnames)
        return self._series.get(key, [[], 0.0, 0])[2]

    def mean(self, **labels) -> float:
        key = tuple(str(labels[n]) for n in self.labelnames)
        _, total, n = self._series.get(key, [[], 0.0, 0])
        return total / n if n else 0.0

    def render(self) -> list[str]:
        lines = self.header()
        series = self._series or ({(): [[0] * len(self.buckets), 0.0, 0]}
                                  if not self.labelnames else {})
        for key in sorted(series):
            counts, total, n = series[key]
            names = self.labelnames + ("le",)
            for i, b in enumerate(self.buckets):
                lines.append(
                    f"{self.name}_bucket"
                    f"{_labelstr(names, key + (_fmt(b),))} {counts[i]}")
            lines.append(f"{self.name}_bucket"
                         f"{_labelstr(names, key + ('+Inf',))} {n}")
            lines.append(f"{self.name}_sum{_labelstr(self.labelnames, key)} "
                         f"{_fmt(total)}")
            lines.append(f"{self.name}_count"
                         f"{_labelstr(self.labelnames, key)} {n}")
        return lines

    def snapshot(self) -> dict:
        return {**self._snapshot_head(), "buckets": list(self.buckets),
                "series": [[list(k), counts, total, n]
                           for k, (counts, total, n) in self._series.items()]}


class MetricsRegistry:
    """An ordered collection of metrics with one ``render()``."""

    def __init__(self):
        self._metrics: list[_Metric] = []

    def register(self, metric: _Metric) -> _Metric:
        self._metrics.append(metric)
        return metric

    def render(self) -> str:
        lines: list[str] = []
        for m in self._metrics:
            lines.extend(m.render())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> list[dict]:
        return [m.snapshot() for m in self._metrics]


class ServiceMetrics:
    """The service's full instrument panel (see module catalogue)."""

    def __init__(self, version: str = "0"):
        r = self.registry = MetricsRegistry()
        self.requests = r.register(Counter(
            "repro_requests_total", "HTTP requests served.",
            ("endpoint", "status")))
        self.latency = r.register(Histogram(
            "repro_request_duration_seconds",
            "Request handling latency.", LATENCY_BUCKETS, ("endpoint",)))
        self.batch_size = r.register(Histogram(
            "repro_batch_size",
            "Requests coalesced per micro-batch.", BATCH_BUCKETS))
        self.batches = r.register(Counter(
            "repro_batches_total", "Micro-batches dispatched."))
        self.lru_hits = r.register(Counter(
            "repro_lru_hits_total", "Prediction LRU hits.", ("kind",)))
        self.lru_misses = r.register(Counter(
            "repro_lru_misses_total", "Prediction LRU misses.", ("kind",)))
        ratio = r.register(Gauge(
            "repro_lru_hit_ratio",
            "Prediction LRU hit ratio since boot."))
        ratio.callback = self.hit_ratio
        self.inflight = r.register(Gauge(
            "repro_inflight_requests", "Requests currently being handled."))
        self.faults = r.register(Counter(
            "repro_faults_injected_total",
            "Deterministic fault-point fires.", ("point",)))
        self.retries = r.register(Counter(
            "repro_retries_total", "Bounded recovery retries.", ("site",)))
        self.rejected = r.register(Counter(
            "repro_rejected_total",
            "Requests shed for graceful degradation.", ("reason",)))
        info = r.register(Gauge(
            "repro_service_info", "Service metadata.", ("version",)))
        info.set(1, version=version)

    def hit_ratio(self) -> float:
        hits = self.lru_hits.total()
        total = hits + self.lru_misses.total()
        return hits / total if total else 0.0

    def render(self) -> str:
        return self.registry.render()

    def snapshot(self) -> list[dict]:
        return self.registry.snapshot()


#: gauges merged by max rather than sum (identical on every worker).
_GAUGE_MAX = {"repro_service_info"}


def merge_snapshots(snaps: list[list[dict]]) -> list[dict]:
    """Fold per-worker registry snapshots into fleet-wide totals.

    Counters and histograms sum per label key; gauges sum too (inflight
    requests, etc.) except ``repro_service_info`` (max — every worker
    reports the same build) and ``repro_lru_hit_ratio``, which is
    recomputed from the merged hit/miss counters instead of averaging
    per-worker ratios.  Metric order follows first appearance, so a
    single-worker merge renders byte-identical to that worker.
    """
    order: list[str] = []
    merged: dict[str, dict] = {}
    for snap in snaps:
        for metric in snap:
            name = metric["name"]
            slot = merged.get(name)
            if slot is None:
                order.append(name)
                slot = merged[name] = {
                    "name": name, "kind": metric["kind"],
                    "help": metric["help"],
                    "labels": list(metric["labels"])}
                if metric["kind"] == "histogram":
                    slot["buckets"] = list(metric["buckets"])
                    slot["_series"] = {}
                else:
                    slot["_values"] = {}
            if metric["kind"] == "histogram":
                series = slot["_series"]
                for key, counts, total, n in metric["series"]:
                    k = tuple(key)
                    row = series.get(k)
                    if row is None:
                        series[k] = [list(counts), total, n]
                    else:
                        row[0] = [a + b for a, b in zip(row[0], counts)]
                        row[1] += total
                        row[2] += n
            else:
                values = slot["_values"]
                use_max = name in _GAUGE_MAX
                for key, value in metric["values"]:
                    k = tuple(key)
                    if use_max and k in values:
                        values[k] = max(values[k], value)
                    else:
                        values[k] = values.get(k, 0.0) + value

    def _total(name: str) -> float:
        slot = merged.get(name)
        return sum(slot["_values"].values()) if slot else 0.0

    if "repro_lru_hit_ratio" in merged:
        hits = _total("repro_lru_hits_total")
        total = hits + _total("repro_lru_misses_total")
        merged["repro_lru_hit_ratio"]["_values"] = {
            (): hits / total if total else 0.0}

    out: list[dict] = []
    for name in order:
        slot = merged[name]
        doc = {k: slot[k] for k in ("name", "kind", "help", "labels")}
        if slot["kind"] == "histogram":
            doc["buckets"] = slot["buckets"]
            doc["series"] = [[list(k), counts, total, n]
                             for k, (counts, total, n)
                             in slot["_series"].items()]
        else:
            doc["values"] = [[list(k), v]
                             for k, v in slot["_values"].items()]
        out.append(doc)
    return out


def render_snapshot(metrics: list[dict]) -> str:
    """Render a (merged) snapshot as Prometheus exposition text.

    Mirrors the per-metric ``render()`` methods exactly so that a
    single worker's snapshot renders byte-identical to its own
    ``/metrics`` output.
    """
    lines: list[str] = []
    for m in metrics:
        name, labelnames = m["name"], tuple(m["labels"])
        lines.append(f"# HELP {name} {m['help']}")
        lines.append(f"# TYPE {name} {m['kind']}")
        if m["kind"] == "histogram":
            buckets = m["buckets"]
            series = {tuple(k): (counts, total, n)
                      for k, counts, total, n in m["series"]}
            if not series and not labelnames:
                series = {(): ([0] * len(buckets), 0.0, 0)}
            names = labelnames + ("le",)
            for key in sorted(series):
                counts, total, n = series[key]
                for i, b in enumerate(buckets):
                    lines.append(f"{name}_bucket"
                                 f"{_labelstr(names, key + (_fmt(b),))} "
                                 f"{counts[i]}")
                lines.append(f"{name}_bucket"
                             f"{_labelstr(names, key + ('+Inf',))} {n}")
                lines.append(f"{name}_sum{_labelstr(labelnames, key)} "
                             f"{_fmt(total)}")
                lines.append(f"{name}_count{_labelstr(labelnames, key)} {n}")
        else:
            values = {tuple(k): v for k, v in m["values"]}
            for key in sorted(values):
                lines.append(f"{name}{_labelstr(labelnames, key)} "
                             f"{_fmt(values[key])}")
            if not values and not labelnames:
                lines.append(f"{name} 0")
    return "\n".join(lines) + "\n"


def parse_histogram(text: str, name: str) -> tuple[dict[str, int], float, int]:
    """Extract one unlabelled histogram from Prometheus text.

    Returns ``(bucket counts by le, sum, count)`` — what the loadtest
    needs to report the server's batch-size distribution.
    """
    buckets: dict[str, int] = {}
    total, count = 0.0, 0
    for line in text.splitlines():
        if line.startswith(f"{name}_bucket{{le="):
            le = line.split('le="', 1)[1].split('"', 1)[0]
            buckets[le] = int(float(line.rsplit(" ", 1)[1]))
        elif line.startswith(f"{name}_sum"):
            total = float(line.rsplit(" ", 1)[1])
        elif line.startswith(f"{name}_count"):
            count = int(float(line.rsplit(" ", 1)[1]))
    return buckets, total, count
