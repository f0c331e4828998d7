"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import Phase, settings

from repro.core.params import paper_params
from repro.machines import CM5, GCel, MasParMP1

#: ``--hypothesis-profile=mutants``, which ``scripts/mutants.py`` passes:
#: a planted fault only has to fail a test, so a failing example is not
#: shrunk, and no example database is read or written
settings.register_profile(
    "mutants", database=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the runner's result cache at a per-test directory.

    Keeps tests hermetic: CLI invocations never read or pollute the
    user's ``~/.cache/repro``.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def maspar() -> MasParMP1:
    return MasParMP1(seed=7)


@pytest.fixture
def maspar_small() -> MasParMP1:
    """A 64-PE MasPar partition — fast enough for unit tests."""
    return MasParMP1(P=64, seed=7)


@pytest.fixture
def gcel() -> GCel:
    return GCel(seed=7)


@pytest.fixture
def cm5() -> CM5:
    return CM5(seed=7)


@pytest.fixture(params=["maspar", "gcel", "cm5"])
def any_machine(request):
    """One of the three platforms (MasPar shrunk to 64 PEs for speed)."""
    if request.param == "maspar":
        return MasParMP1(P=64, seed=11)
    if request.param == "gcel":
        return GCel(seed=11)
    return CM5(seed=11)


@pytest.fixture
def maspar_params():
    return paper_params("maspar")


@pytest.fixture
def gcel_params():
    return paper_params("gcel")


@pytest.fixture
def cm5_params():
    return paper_params("cm5")
