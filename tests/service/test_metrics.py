"""Prometheus text-format rendering and parsing."""

from repro.service.metrics import (Counter, Gauge, Histogram,
                                   MetricsRegistry, ServiceMetrics,
                                   parse_histogram)


class TestCounter:
    def test_labelled_increments(self):
        c = Counter("x_total", "help text", ("endpoint", "status"))
        c.inc(endpoint="/predict", status="200")
        c.inc(2, endpoint="/predict", status="200")
        c.inc(endpoint="/compare", status="422")
        assert c.value(endpoint="/predict", status="200") == 3
        assert c.total() == 4
        text = "\n".join(c.render())
        assert "# TYPE x_total counter" in text
        assert 'x_total{endpoint="/predict",status="200"} 3' in text

    def test_unlabelled_renders_zero_by_default(self):
        assert "x_total 0" in "\n".join(Counter("x_total", "h").render())

    def test_label_escaping(self):
        c = Counter("x_total", "h", ("msg",))
        c.inc(msg='bad "quote"\nnewline')
        text = "\n".join(c.render())
        assert '\\"quote\\"' in text and "\\n" in text


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("inflight", "h")
        g.inc()
        g.inc()
        g.dec()
        assert g.value() == 1
        assert "inflight 1" in "\n".join(g.render())

    def test_callback_gauge(self):
        g = Gauge("ratio", "h")
        g.callback = lambda: 0.5
        assert "ratio 0.5" in "\n".join(g.render())


class TestHistogram:
    def test_cumulative_buckets(self):
        h = Histogram("lat", "h", (0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        text = "\n".join(h.render())
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="10"} 3' in text
        assert 'lat_bucket{le="+Inf"} 4' in text
        assert "lat_count 4" in text
        assert h.count() == 4
        assert h.mean() == (0.05 + 0.5 + 5.0 + 50.0) / 4

    def test_labelled_series(self):
        h = Histogram("lat", "h", (1.0,), ("endpoint",))
        h.observe(0.5, endpoint="/predict")
        h.observe(2.0, endpoint="/predict")
        text = "\n".join(h.render())
        assert 'lat_bucket{endpoint="/predict",le="1"} 1' in text
        assert 'lat_count{endpoint="/predict"} 2' in text
        assert h.count(endpoint="/predict") == 2

    def test_roundtrip_through_parser(self):
        h = Histogram("repro_batch_size", "h", (1.0, 2.0, 4.0))
        for v in (1, 1, 3, 9):
            h.observe(v)
        buckets, total, count = parse_histogram(
            "\n".join(h.render()), "repro_batch_size")
        assert buckets == {"1": 2, "2": 2, "4": 3, "+Inf": 4}
        assert total == 14
        assert count == 4


class TestServiceMetrics:
    def test_render_contains_catalogue(self):
        m = ServiceMetrics(version="9.9.9")
        m.requests.inc(endpoint="/predict", status="200")
        m.latency.observe(0.004, endpoint="/predict")
        m.batch_size.observe(3)
        m.lru_hits.inc(kind="predict")
        m.lru_misses.inc(kind="predict")
        text = m.render()
        for name in ("repro_requests_total", "repro_request_duration_seconds",
                     "repro_batch_size", "repro_lru_hits_total",
                     "repro_lru_hit_ratio", "repro_inflight_requests",
                     "repro_service_info"):
            assert name in text, name
        assert 'version="9.9.9"' in text
        assert "repro_lru_hit_ratio 0.5" in text

    def test_hit_ratio_zero_when_idle(self):
        assert ServiceMetrics().hit_ratio() == 0.0


class TestRegistry:
    def test_render_joins_all_metrics(self):
        r = MetricsRegistry()
        r.register(Counter("a_total", "ha"))
        r.register(Gauge("b", "hb"))
        text = r.render()
        assert text.index("a_total") < text.index("# HELP b hb")
        assert text.endswith("\n")


class TestFleetAggregation:
    """snapshot() / merge_snapshots() / render_snapshot() — the
    fleet-wide /metrics pipeline."""

    @staticmethod
    def _worker_metrics(hits=1, misses=1):
        m = ServiceMetrics(version="9.9.9")
        m.requests.inc(endpoint="/predict", status="200")
        m.latency.observe(0.002, endpoint="/predict")
        m.batch_size.observe(3)
        m.batches.inc()
        for _ in range(hits):
            m.lru_hits.inc(kind="predict")
        for _ in range(misses):
            m.lru_misses.inc(kind="predict")
        m.inflight.set(2)
        m.retries.inc(5, site="dispatch")
        return m

    def test_single_snapshot_renders_byte_identical(self):
        from repro.service.metrics import merge_snapshots, render_snapshot

        m = self._worker_metrics()
        assert render_snapshot(m.snapshot()) == m.render()
        # and merging a fleet of one changes nothing either
        assert render_snapshot(merge_snapshots([m.snapshot()])) == m.render()

    def test_merge_sums_counters_and_histograms(self):
        from repro.service.metrics import merge_snapshots, render_snapshot

        a = self._worker_metrics()
        b = self._worker_metrics()
        text = render_snapshot(merge_snapshots([a.snapshot(), b.snapshot()]))
        assert 'repro_requests_total{endpoint="/predict",status="200"} 2' \
            in text
        assert "repro_batches_total 2" in text
        assert "repro_batch_size_count 2" in text
        assert 'repro_retries_total{site="dispatch"} 10' in text
        # plain gauges sum (2 in-flight on each worker = 4 fleet-wide)
        assert "repro_inflight_requests 4" in text

    def test_info_gauge_merges_by_max(self):
        from repro.service.metrics import merge_snapshots, render_snapshot

        a = self._worker_metrics()
        b = self._worker_metrics()
        text = render_snapshot(merge_snapshots([a.snapshot(), b.snapshot()]))
        assert 'repro_service_info{version="9.9.9"} 1' in text

    def test_hit_ratio_recomputed_from_merged_totals(self):
        from repro.service.metrics import merge_snapshots

        a = self._worker_metrics(hits=3, misses=1)   # 0.75 locally
        b = self._worker_metrics(hits=0, misses=4)   # 0.0 locally
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        ratio = next(m for m in merged
                     if m["name"] == "repro_lru_hit_ratio")
        # 3 hits / 8 lookups — not the 0.375 average of the two ratios
        assert ratio["values"] == [[[], 3 / 8]]

    def test_callback_gauge_snapshot_captures_value(self):
        m = self._worker_metrics(hits=1, misses=0)
        snap = next(s for s in m.snapshot()
                    if s["name"] == "repro_lru_hit_ratio")
        assert snap["values"] == [[[], 1.0]]

    def test_merge_keeps_first_appearance_order(self):
        from repro.service.metrics import merge_snapshots

        a = self._worker_metrics()
        b = self._worker_metrics()
        names_a = [m["name"] for m in a.snapshot()]
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert [m["name"] for m in merged] == names_a

    def test_supervisor_style_snapshot_merges_in(self):
        """The fleet supervisor publishes hand-built snapshot docs for
        its own gauges/counters; they merge like any worker's."""
        from repro.service.metrics import merge_snapshots, render_snapshot

        sup = [{"name": "repro_fleet_workers", "kind": "gauge",
                "help": "Live fleet workers.", "labels": [],
                "values": [[[], 2]]}]
        m = self._worker_metrics()
        text = render_snapshot(merge_snapshots([m.snapshot(), sup]))
        assert "repro_fleet_workers 2" in text
        assert "# TYPE repro_fleet_workers gauge" in text
