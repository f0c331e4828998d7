"""Request validation: every malformed ``POST /bounds`` body is a 422's
``BoundsError`` here, never a traceback deeper in the stack."""

import pytest

from repro.bounds import BoundsRequest, DEFAULT_THRESHOLD, bound_run_id, \
    bounds
from repro.core.errors import BoundsError

pytestmark = pytest.mark.fast


class TestFromJson:
    def test_defaults(self):
        req = BoundsRequest.from_json({})
        assert req == BoundsRequest()
        assert req.cells is None
        assert (req.scale, req.seed) == (0.3, 0)
        assert req.threshold == DEFAULT_THRESHOLD

    def test_explicit_selection(self):
        req = BoundsRequest.from_json({
            "cells": ["apsp/gcel", "matmul/cm5"], "scale": 0.5,
            "seed": 3, "threshold": 4})
        assert req.cells == ("apsp/gcel", "matmul/cm5")
        assert (req.scale, req.seed, req.threshold) == (0.5, 3, 4.0)

    @pytest.mark.parametrize("doc", [[], "x", 7, None])
    def test_non_object_body(self, doc):
        with pytest.raises(BoundsError, match="JSON object"):
            BoundsRequest.from_json(doc)

    @pytest.mark.parametrize("bad", [[], "apsp/gcel", [3], ["a", 3], {}])
    def test_malformed_cell_lists(self, bad):
        with pytest.raises(BoundsError, match="non-empty list"):
            BoundsRequest.from_json({"cells": bad})

    def test_unknown_cells_fail_at_validation_time(self):
        with pytest.raises(BoundsError, match="unknown bound cell"):
            BoundsRequest.from_json({"cells": ["bogus"]})

    @pytest.mark.parametrize("scale", [0, 0.0, -0.3, 1.5, "0.3", True,
                                       None])
    def test_bad_scale(self, scale):
        with pytest.raises(BoundsError, match="scale"):
            BoundsRequest.from_json({"scale": scale})

    @pytest.mark.parametrize("seed", [-1, 2 ** 31, 0.5, "0", True, None])
    def test_bad_seed(self, seed):
        with pytest.raises(BoundsError, match="seed"):
            BoundsRequest.from_json({"seed": seed})

    @pytest.mark.parametrize("threshold", [0, -2, float("inf"),
                                           float("nan"), "8", True, None])
    def test_bad_threshold(self, threshold):
        with pytest.raises(BoundsError, match="threshold"):
            BoundsRequest.from_json({"threshold": threshold})

    @pytest.mark.parametrize("engine", ["turbo", 3, None, ["ir"]])
    def test_bad_engine(self, engine):
        """An old body's ``engine`` key, whatever its value, is ignored
        like any other unknown key."""
        assert BoundsRequest.from_json({"engine": engine}) \
            == BoundsRequest.from_json({})


class TestKey:
    def test_engine_accepted_but_not_in_key(self):
        a = BoundsRequest.from_json({"engine": "ir"})
        b = BoundsRequest.from_json({"engine": "generator"})
        assert a == b == BoundsRequest.from_json({})
        assert a.key == b.key

    def test_cell_order_is_canonicalised(self):
        a = BoundsRequest(cells=("apsp/gcel", "matmul/cm5"))
        b = BoundsRequest(cells=("matmul/cm5", "apsp/gcel",
                                 "matmul/cm5"))
        assert a.key == b.key

    def test_threshold_is_part_of_the_key(self):
        # the threshold changes the report's headroom flags, so two
        # requests differing only in it must not share an LRU entry
        a = BoundsRequest(threshold=8.0)
        b = BoundsRequest(threshold=2.0)
        assert a.key != b.key

    def test_run_id_depends_on_everything_named(self):
        base = dict(scale=0.3, seed=0, fingerprint="f")
        rid = bound_run_id("apsp/gcel", **base)
        assert rid != bound_run_id("lu/gcel", **base)
        assert rid != bound_run_id("apsp/gcel", scale=0.5, seed=0,
                                   fingerprint="f")
        assert rid != bound_run_id("apsp/gcel", scale=0.3, seed=1,
                                   fingerprint="f")
        assert rid != bound_run_id("apsp/gcel", scale=0.3, seed=0,
                                   fingerprint="g")
        assert rid == bound_run_id("apsp/gcel", **base)


class TestBoundsEntry:
    def test_unknown_cell_raises_before_any_run(self):
        with pytest.raises(BoundsError, match="unknown bound cell"):
            bounds(BoundsRequest(cells=("bogus",), use_cache=False))

    def test_bad_jobs_rejected(self):
        with pytest.raises(BoundsError, match="jobs"):
            bounds(BoundsRequest(cells=("apsp/gcel",), jobs=0,
                                 use_cache=False))

    def test_bad_engine_rejected(self):
        """There is one engine: a request has no engine field to set."""
        with pytest.raises(TypeError, match="engine"):
            BoundsRequest(cells=("apsp/gcel",), engine="turbo",
                          use_cache=False)
