"""End-to-end HTTP tests against a live server on a daemon thread."""

import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import ServiceConfig, ServiceThread
from repro.service.oracle import compare_offline, predict_offline

from .conftest import http


class TestHealthAndCatalogues:
    def test_healthz(self, service_thread):
        status, doc, _ = http(service_thread.port, "GET", "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["uptime_s"] >= 0
        assert "version" in doc and "lru_entries" in doc

    def test_machines(self, service_thread):
        status, doc, _ = http(service_thread.port, "GET", "/machines")
        assert status == 200
        names = {m["name"] for m in doc["machines"]}
        assert {"maspar", "gcel", "cm5", "t800", "modern"} <= names
        for m in doc["machines"]:
            assert m["default_P"] > 0
            assert isinstance(m["simd"], bool)

    def test_capabilities(self, service_thread):
        status, doc, _ = http(service_thread.port, "GET", "/capabilities")
        assert status == 200
        assert "bsp" in doc["models"] and "e-bsp" in doc["models"]
        assert "bsf" in doc["models"]
        assert doc["algorithms"]["bitonic"]["default_size"] > 0
        assert doc["algorithms"]["radix"]["default_size"] > 0
        assert "engines" not in doc  # one engine: nothing to choose

    def test_experiments_index(self, service_thread):
        status, doc, _ = http(service_thread.port, "GET", "/experiments")
        assert status == 200
        assert doc["experiments"], "registry must not be empty"
        assert all("id" in e and "title" in e for e in doc["experiments"])


class TestExperimentDetail:
    def test_unknown_id_is_404(self, service_thread):
        status, doc, _ = http(service_thread.port, "GET",
                              "/experiments/fig99")
        assert status == 404
        assert "fig99" in doc["error"]

    def test_bad_scale_is_400(self, service_thread):
        status, doc, _ = http(service_thread.port, "GET",
                              "/experiments/fig14?scale=2.0")
        assert status == 400
        assert "scale" in doc["error"]

    def test_run_then_cache_hit(self, service_thread):
        port = service_thread.port
        path = "/experiments/fig14?scale=0.25&seed=3"
        status, first, _ = http(port, "GET", path, timeout=300.0)
        assert status == 200
        assert first["id"] == "fig14"
        assert first["result"]
        status, second, _ = http(port, "GET", path, timeout=300.0)
        assert status == 200
        assert second["cached"] is True
        assert second["result"] == first["result"]


class TestPredict:
    def test_bit_identical_to_offline(self, service_thread):
        doc = {"machine": "gcel", "model": "bsp", "algorithm": "bitonic",
               "size": 64}
        status, served, _ = http(service_thread.port, "POST", "/predict",
                                 doc, timeout=300.0)
        assert status == 200
        assert served == json.loads(json.dumps(predict_offline(doc)))

    def test_concurrent_requests_stay_bit_identical(self, service_thread):
        """Concurrent distinct bodies force real batches through the
        collector; every response must still match the scalar path."""
        docs = [{"machine": "gcel", "model": m, "algorithm": a, "size": s}
                for m, a, s in [("bsp", "bitonic", 32),
                                ("mp-bsp", "bitonic", 32),
                                ("mp-bpram", "apsp", 16),
                                ("pram", "lu", 16),
                                ("loggp", "stencil", 16),
                                ("bsp", "lu", 16)]]
        with ThreadPoolExecutor(len(docs)) as pool:
            served = list(pool.map(
                lambda d: http(service_thread.port, "POST", "/predict", d,
                               timeout=300.0),
                docs))
        for doc, (status, body, _) in zip(docs, served):
            assert status == 200, body
            assert body == json.loads(json.dumps(predict_offline(doc))), doc

    def test_new_scenario_axes_bit_identical_to_offline(self,
                                                        service_thread):
        """All three new axes through one request: the radix workload on
        the modern profile priced by BSF must serve the offline bytes."""
        doc = {"machine": "modern", "model": "bsf", "algorithm": "radix",
               "size": 128}
        status, served, _ = http(service_thread.port, "POST", "/predict",
                                 doc, timeout=300.0)
        assert status == 200
        assert served == json.loads(json.dumps(predict_offline(doc)))

    def test_bad_json_is_400(self, service_thread):
        req = urllib.request.Request(
            f"http://127.0.0.1:{service_thread.port}/predict",
            method="POST", data=b"{not json")
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req, timeout=30)
        assert exc_info.value.code == 400

    @pytest.mark.parametrize("doc,fragment", [
        ({"machine": "vax", "algorithm": "bitonic"}, "unknown machine"),
        ({"machine": "gcel", "model": "e-bsp", "algorithm": "bitonic",
          "size": 32}, "e-bsp"),
        ({"machine": "gcel", "model": "bsp", "algorithm": "apsp",
          "size": 33}, "cannot run"),
    ])
    def test_unservable_requests_are_422(self, service_thread, doc,
                                         fragment):
        status, body, _ = http(service_thread.port, "POST", "/predict",
                               doc, timeout=300.0)
        assert status == 422
        assert fragment in body["error"]


class TestCompare:
    def test_matches_offline_ranking(self, service_thread):
        doc = {"machine": "gcel", "algorithm": "apsp", "size": 32}
        status, served, _ = http(service_thread.port, "POST", "/compare",
                                 doc, timeout=300.0)
        assert status == 200
        assert served == json.loads(json.dumps(compare_offline(doc)))
        errors = [abs(c["error"]) for c in served["ranking"]]
        assert errors == sorted(errors)

    def test_radix_on_modern_includes_bsf(self, service_thread):
        doc = {"machine": "modern", "algorithm": "radix", "size": 128}
        status, served, _ = http(service_thread.port, "POST", "/compare",
                                 doc, timeout=300.0)
        assert status == 200
        assert served == json.loads(json.dumps(compare_offline(doc)))
        assert "bsf" in [c["model"] for c in served["ranking"]]


class TestProtocol:
    def test_unknown_path_is_404(self, service_thread):
        status, _, _ = http(service_thread.port, "GET", "/nope")
        assert status == 404

    def test_wrong_method_is_405(self, service_thread):
        status, _, _ = http(service_thread.port, "POST", "/healthz", {})
        assert status == 405

    def test_metrics_exposition(self, service_thread):
        # at least one request has hit the server by now
        http(service_thread.port, "GET", "/healthz")
        status, text, ctype = http(service_thread.port, "GET", "/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        for name in ("repro_requests_total", "repro_request_duration_seconds",
                     "repro_batch_size", "repro_lru_hit_ratio",
                     "repro_service_info"):
            assert name in text, name
        assert 'endpoint="/healthz"' in text
        # path parameters must not explode label cardinality
        http(service_thread.port, "GET", "/experiments/fig99")
        _, text, _ = http(service_thread.port, "GET", "/metrics")
        assert 'endpoint="/experiments/{id}"' in text
        assert "fig99" not in text


class TestLifecycle:
    def test_start_serve_stop(self, tmp_path):
        config = ServiceConfig(port=0, workers=1, warm=False,
                               cache_dir=str(tmp_path / "cache"))
        thread = ServiceThread(config).start()
        port = thread.port
        status, doc, _ = http(port, "GET", "/healthz")
        assert status == 200 and doc["status"] == "ok"
        thread.stop()
        assert not thread._thread.is_alive()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=5)

    def test_stop_is_idempotent(self, tmp_path):
        config = ServiceConfig(port=0, workers=1, warm=False,
                               cache_dir=str(tmp_path / "cache"))
        with ServiceThread(config) as thread:
            pass
        thread.stop()  # second stop must be harmless

