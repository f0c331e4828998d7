"""Golden-figure regression tests.

Each snapshot under ``tests/golden/`` is the full serialised
:class:`~repro.validation.series.ExperimentResult` of one fast
experiment at a fixed (scale, seed).  Every stochastic element of the
simulators draws from an explicitly seeded generator, so reproduction
must be *bit-identical* — any diff is a determinism or behaviour
regression.  Regenerate intentionally with
``PYTHONPATH=src python scripts/update_golden.py``.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import get
from repro.runner import ResultCache, experiment_key
from repro.validation.series import ExperimentResult

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_IDS = ["fig1", "fig4", "fig14", "table1", "ext-radix"]
#: snapshots owned by other golden suites
#: (tests/ablation/test_golden.py, tests/bounds/test_golden.py)
EXTRA_SNAPSHOTS = ["ablate", "bounds"]

pytestmark = pytest.mark.golden


def _load(exp_id: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{exp_id}.json").read_text())


class TestGoldenFigures:
    def test_snapshots_exist(self):
        assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) \
            == sorted(GOLDEN_IDS + EXTRA_SNAPSHOTS)

    @pytest.mark.parametrize("exp_id", GOLDEN_IDS)
    def test_bit_identical_reproduction(self, exp_id):
        doc = _load(exp_id)
        fresh = get(exp_id).run(scale=doc["scale"], seed=doc["seed"])
        golden = ExperimentResult.from_dict(doc["result"])
        assert fresh.identical(golden), (
            f"{exp_id} diverged from tests/golden/{exp_id}.json — if the "
            "change is intentional, rerun scripts/update_golden.py")
        # the serialised form matches too (names, checks, notes, floats)
        assert fresh.to_dict() == doc["result"]

    @pytest.mark.parametrize("exp_id", GOLDEN_IDS)
    def test_golden_checks_all_pass(self, exp_id):
        golden = ExperimentResult.from_dict(_load(exp_id)["result"])
        assert golden.passed


class TestGoldenCacheRoundTrip:
    @pytest.mark.parametrize("exp_id", GOLDEN_IDS)
    def test_cache_hit_equals_cache_miss(self, exp_id, tmp_path):
        """A result served from the runner's disk cache is bit-identical
        to the freshly computed (golden) one."""
        doc = _load(exp_id)
        cache = ResultCache(tmp_path)
        fresh = get(exp_id).run(scale=doc["scale"], seed=doc["seed"])
        key = experiment_key(exp_id, scale=doc["scale"], seed=doc["seed"],
                             fingerprint="golden-test")
        cache.put_doc(key, fresh.to_dict())
        hit_doc = cache.get_doc(key)
        assert hit_doc is not None
        hit = ExperimentResult.from_dict(hit_doc)
        assert hit.identical(fresh)
        assert hit.to_dict() == doc["result"]
