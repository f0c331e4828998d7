"""Tests for the content-addressed result cache."""

import json

import numpy as np
import pytest

from repro.core.errors import ExperimentError
from repro.runner import ResultCache, default_cache_root
from repro.validation.series import ExperimentResult, Series

KEY = "ab" * 32
KEY2 = "cd" * 32


def _result() -> ExperimentResult:
    res = ExperimentResult(experiment="figX", title="t", x_label="x",
                           y_label="y")
    # awkward floats: round-tripping these exactly is the whole point
    res.series.append(Series("s", [1.0, 2.0, 3.0],
                             [0.1, 1 / 3, np.pi * 1e6]))
    res.check("c", True, "detail")
    res.notes.append("n")
    return res


class TestDefaultRoot:
    def test_env_var_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "x"))
        assert default_cache_root() == tmp_path / "x"

    def test_home_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_root().name == "repro"


class TestRoundTrip:
    def test_put_get_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        res = _result()
        cache.put_doc(KEY, res.to_dict(), meta={"experiment": "figX"})
        doc = cache.get_doc(KEY)
        assert doc is not None
        got = ExperimentResult.from_dict(doc)
        assert got.identical(res)
        # bitwise, not approximately
        assert got.series[0].ys.tobytes() == res.series[0].ys.tobytes()

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get_doc(KEY) is None
        assert cache.stats.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put_doc(KEY, _result().to_dict())
        path.write_text("{ truncated")
        assert cache.get_doc(KEY) is None

    def test_unknown_format_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put_doc(KEY, _result().to_dict())
        doc = json.loads(path.read_text())
        doc["format"] = 999
        path.write_text(json.dumps(doc))
        assert cache.get_doc(KEY) is None

    def test_malformed_key_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ExperimentError, match="malformed"):
            cache.get_doc("../../../etc/passwd")


class TestStatsAndListing:
    def test_stats_track_outcomes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_doc(KEY, _result().to_dict())
        cache.get_doc(KEY, "figX")
        cache.get_doc(KEY2, "figY")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.outcomes == {"figX": "hit", "figY": "miss"}
        assert "1 hit(s), 1 miss(es)" == cache.stats.summary()

    def test_entries_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_doc(KEY, _result().to_dict(),
                      meta={"experiment": "figX", "seed": 0})
        cache.put_doc(KEY2, _result().to_dict(),
                      meta={"experiment": "figY", "seed": 1})
        entries = cache.entries()
        assert [e["experiment"] for e in entries] == ["figX", "figY"]
        assert all(e["bytes"] > 0 for e in entries)
        assert cache.clear() == 2
        assert cache.entries() == []
        assert cache.clear() == 0
