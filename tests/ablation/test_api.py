"""Request validation: every malformed ``POST /ablate`` body is a 422's
``AblationError`` here, never a traceback deeper in the stack."""

import pytest

from repro.ablation import AblateRequest, ablate
from repro.core.errors import AblationError

pytestmark = pytest.mark.fast


class TestFromJson:
    def test_defaults(self):
        req = AblateRequest.from_json({})
        assert req == AblateRequest()
        assert req.components is None and req.cells is None
        assert (req.scale, req.seed) == (0.3, 0)

    def test_explicit_selection(self):
        req = AblateRequest.from_json({
            "components": ["sync-loss"], "cells": ["apsp"],
            "scale": 0.5, "seed": 3})
        assert req.components == ("sync-loss",)
        assert req.cells == ("apsp",)
        assert (req.scale, req.seed) == (0.5, 3)

    @pytest.mark.parametrize("doc", [[], "x", 7, None])
    def test_non_object_body(self, doc):
        with pytest.raises(AblationError, match="JSON object"):
            AblateRequest.from_json(doc)

    @pytest.mark.parametrize("bad", [[], "sync-loss", [3], ["a", 3], {}])
    def test_malformed_name_lists(self, bad):
        with pytest.raises(AblationError, match="non-empty list"):
            AblateRequest.from_json({"components": bad})

    def test_unknown_names_fail_at_validation_time(self):
        with pytest.raises(AblationError, match="unknown component"):
            AblateRequest.from_json({"components": ["bogus"]})
        with pytest.raises(AblationError, match="unknown cell"):
            AblateRequest.from_json({"cells": ["bogus"]})

    @pytest.mark.parametrize("scale", [0, 0.0, -0.3, 1.5, "0.3", True,
                                       None])
    def test_bad_scale(self, scale):
        with pytest.raises(AblationError, match="scale"):
            AblateRequest.from_json({"scale": scale})

    @pytest.mark.parametrize("seed", [-1, 2 ** 31, 0.5, "0", True, None])
    def test_bad_seed(self, seed):
        with pytest.raises(AblationError, match="seed"):
            AblateRequest.from_json({"seed": seed})

    @pytest.mark.parametrize("engine", ["turbo", 3, None, ["ir"]])
    def test_bad_engine(self, engine):
        """An old body's ``engine`` key, whatever its value, is ignored
        like any other unknown key."""
        assert AblateRequest.from_json({"engine": engine}) \
            == AblateRequest.from_json({})

    def test_engine_accepted_but_not_in_key(self):
        a = AblateRequest.from_json({"engine": "ir"})
        b = AblateRequest.from_json({"engine": "generator"})
        assert a == b == AblateRequest.from_json({})
        assert a.key == b.key


class TestAblateEntry:
    def test_unknown_component_raises_before_any_run(self):
        with pytest.raises(AblationError, match="unknown component"):
            ablate(AblateRequest(components=("bogus",), use_cache=False))

    def test_bad_jobs_rejected(self):
        from repro.core.errors import ExperimentError
        with pytest.raises(ExperimentError, match="jobs"):
            ablate(AblateRequest(components=("sync-loss",),
                                 cells=("apsp",), jobs=0, use_cache=False))
