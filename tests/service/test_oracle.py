"""Oracle tests: request validation, offline pricing, batch equivalence."""

import json

import pytest

from repro.algorithms import apsp, bitonic, matmul, radix
from repro.core.bpram import MPBPRAM
from repro.core.bsf import BSF
from repro.core.bsp import BSP
from repro.core.ebsp import EBSP
from repro.experiments.common import calibrated, machine_for
from repro.service.oracle import (ALGORITHMS, MODELS, OracleError,
                                  PredictRequest, compare_offline,
                                  default_size, evaluate_batch,
                                  predict_offline)


class TestPredictRequest:
    def test_minimal_body(self):
        req = PredictRequest.from_json(
            {"machine": "gcel", "algorithm": "bitonic"})
        assert req.model == "bsp"
        assert req.size == default_size("bitonic")
        assert req.seed == 0

    def test_scale_shrinks_default_size(self):
        req = PredictRequest.from_json(
            {"machine": "gcel", "algorithm": "bitonic", "scale": 0.5})
        assert req.size == default_size("bitonic") // 2

    @pytest.mark.parametrize("doc,fragment", [
        ({"machine": "vax", "algorithm": "bitonic"}, "unknown machine"),
        ({"machine": "gcel", "algorithm": "quicksort"},
         "unknown algorithm"),
        ({"machine": "gcel", "algorithm": "bitonic", "model": "csp"},
         "unknown model"),
        ({"machine": "gcel", "algorithm": "bitonic", "size": -4},
         "size must be"),
        ({"machine": "gcel", "algorithm": "bitonic", "size": 2.5},
         "size must be"),
        ({"machine": "gcel", "algorithm": "bitonic", "size": True},
         "size must be"),
        ({"machine": "gcel", "algorithm": "bitonic", "scale": 0.0},
         "scale must be"),
        ({"machine": "gcel", "algorithm": "bitonic", "seed": -1},
         "seed must be"),
        ("not a dict", "JSON object"),
    ])
    def test_rejects_bad_bodies(self, doc, fragment):
        with pytest.raises(OracleError, match=fragment):
            PredictRequest.from_json(doc)


class TestPredictOffline:
    def test_breakdown_sums_to_prediction(self):
        out = predict_offline({"machine": "gcel", "model": "bsp",
                               "algorithm": "bitonic", "size": 64})
        b = out["breakdown"]
        # comp + comm must reproduce the total bit-for-bit (same
        # accumulation as CostModel.trace_cost, asserted inside the
        # oracle too)
        assert out["predicted_us"] > 0
        assert out["measured_us"] > 0
        assert b["comp_us"] > 0 and b["comm_us"] > 0
        assert out["supersteps"] >= out["syncs"] > 0

    def test_ebsp_needs_maspar(self):
        with pytest.raises(OracleError, match="e-bsp"):
            predict_offline({"machine": "gcel", "model": "e-bsp",
                             "algorithm": "bitonic", "size": 64})

    def test_ebsp_on_maspar(self):
        out = predict_offline({"machine": "maspar", "model": "e-bsp",
                               "algorithm": "bitonic", "size": 16})
        assert out["predicted_us"] > 0

    def test_impossible_size_is_client_error(self):
        # APSP needs sqrt(P) | N; 33 on a 64-node machine cannot run
        with pytest.raises(OracleError, match="cannot run"):
            predict_offline({"machine": "gcel", "model": "bsp",
                             "algorithm": "apsp", "size": 33})


class TestExperimentConvention:
    """``/predict`` runs a workload as the experiments do: a fresh
    ``machine_for`` machine, ``calibrated`` parameters, the algorithm's
    own ``run()``, and the model's ``trace_cost``."""

    CASES = [
        ("cm5", "matmul", 64, 0,
         lambda m, n, s: matmul.run(m, n, variant="bsp-staggered", P=64,
                                    seed=s),
         lambda cal: BSP(cal.params)),
        ("gcel", "apsp", 32, 3,
         lambda m, n, s: apsp.run(m, n, seed=s),
         lambda cal: MPBPRAM(cal.params)),
        ("maspar", "bitonic", 16, 1,
         lambda m, n, s: bitonic.run(m, n, variant="bsp", seed=s),
         lambda cal: EBSP(cal.params, cal.unb)),
        ("modern", "radix", 256, 2,
         lambda m, n, s: radix.run(m, n, variant="bpram", seed=s),
         lambda cal: BSF(cal.params)),
    ]

    @pytest.mark.parametrize("machine,algorithm,size,seed,run,model", CASES,
                             ids=[c[1] for c in CASES])
    def test_predict_is_the_experiment_pipeline(self, machine, algorithm,
                                                size, seed, run, model):
        m = machine_for(machine, seed=seed)
        expected = model(calibrated(m, seed=seed))
        res = run(m, size, seed)
        out = predict_offline({"machine": machine, "model": expected.name,
                               "algorithm": algorithm, "size": size,
                               "seed": seed})
        assert out["measured_us"] == res.time_us
        assert out["predicted_us"] == expected.trace_cost(res.trace)


class TestCompareOffline:
    def test_ranked_by_abs_error(self):
        out = compare_offline({"machine": "gcel", "algorithm": "apsp",
                               "size": 32})
        errors = [abs(c["error"]) for c in out["ranking"]]
        assert errors == sorted(errors)
        assert out["best_model"] == out["ranking"][0]["model"]
        # e-bsp is maspar-only, so 6 models price the gcel
        assert len(out["ranking"]) == 6
        assert out["measured_us"] > 0

    def test_maspar_includes_ebsp(self):
        out = compare_offline({"machine": "maspar", "algorithm": "bitonic",
                               "size": 16})
        assert "e-bsp" in [c["model"] for c in out["ranking"]]


def _req(machine, model, algorithm, size, seed=0):
    return PredictRequest(machine=machine, model=model,
                          algorithm=algorithm, size=size, seed=seed)


class TestEvaluateBatchEquivalence:
    """The acceptance gate: batching must never change a single bit."""

    # every algorithm once, several models, two MIMD machines + maspar
    MATRIX = [
        ("gcel", "bsp", "bitonic", 64),
        ("gcel", "mp-bsp", "bitonic-blk", 256),
        ("gcel", "mp-bpram", "apsp", 32),
        ("gcel", "pram", "lu", 32),
        ("gcel", "loggp", "samplesort", 128),
        ("cm5", "bsp", "matmul", 64),
        ("cm5", "mp-bsp", "matmul-naive", 64),
        ("cm5", "mp-bpram", "stencil", 32),
        ("maspar", "e-bsp", "bitonic", 16),
        ("modern", "bsf", "radix", 256),
        ("gcel", "bsf", "radix", 64),
    ]

    def test_mixed_batch_bit_identical_to_offline(self):
        reqs = [_req(*row) for row in self.MATRIX]
        items = [("predict", ("k", i), req) for i, req in enumerate(reqs)]
        # duplicate keys exercise simulation dedup inside the batch
        items.append(("predict", ("dup",), reqs[0]))
        out = evaluate_batch(items)
        for i, req in enumerate(reqs):
            offline = predict_offline(req)
            batched = out[("k", i)]
            assert batched == offline, (req, batched, offline)
        assert out[("dup",)] == out[("k", 0)]

    def test_same_model_group_coalesces_without_drift(self):
        # three workloads of one (machine, model, seed), each priced
        # alone as predict_offline prices it
        reqs = [_req("gcel", "bsp", "bitonic", 64),
                _req("gcel", "bsp", "apsp", 32),
                _req("gcel", "bsp", "lu", 32)]
        out = evaluate_batch([("predict", (i,), r)
                              for i, r in enumerate(reqs)])
        for i, req in enumerate(reqs):
            assert out[(i,)] == predict_offline(req)

    def test_batch_with_compare_jobs(self):
        req = _req("gcel", "bsp", "apsp", 32)
        out = evaluate_batch([
            ("predict", ("p",), req),
            ("compare", ("c",), req),
        ])
        assert out[("c",)] == compare_offline(req)
        assert out[("p",)] == predict_offline(req)

    def test_compare_shares_the_batch_simulation(self, monkeypatch):
        """A predict and a compare of one workload simulate it once, and
        each answer is the offline one, byte for byte."""
        from repro.service import oracle

        req = _req("gcel", "bsp", "apsp", 32)
        calls = []
        simulate = oracle._simulate

        def spy(r):
            calls.append(r.sim_key)
            return simulate(r)

        monkeypatch.setattr(oracle, "_simulate", spy)
        out = evaluate_batch([("predict", ("p",), req),
                              ("compare", ("c",), req)])
        assert calls == [req.sim_key]
        monkeypatch.undo()

        def raw(doc):
            return json.dumps(doc, sort_keys=True).encode()

        assert raw(out[("p",)]) == raw(predict_offline(req))
        assert raw(out[("c",)]) == raw(compare_offline(req))

    def test_bad_job_does_not_poison_batch(self):
        good = _req("gcel", "bsp", "bitonic", 64)
        bad = _req("gcel", "e-bsp", "bitonic", 64)   # e-bsp needs maspar
        worse = _req("gcel", "bsp", "apsp", 33)      # sqrt(P) does not divide
        out = evaluate_batch([
            ("predict", ("good",), good),
            ("predict", ("bad",), bad),
            ("predict", ("worse",), worse),
        ])
        assert out[("good",)] == predict_offline(good)
        assert isinstance(out[("bad",)], OracleError)
        assert isinstance(out[("worse",)], OracleError)


class TestRegistries:
    def test_every_algorithm_has_a_positive_default(self):
        for name in ALGORITHMS:
            assert default_size(name) > 0

    def test_model_list_is_stable(self):
        assert set(MODELS) == {"bsp", "mp-bsp", "mp-bpram", "pram",
                               "loggp", "bsf", "e-bsp"}
