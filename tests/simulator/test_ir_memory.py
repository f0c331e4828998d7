"""The IR store's memory tier: least recently used programs go first once
the tier passes :data:`~repro.simulator.ir.MEMORY_BUDGET` bytes.

An evicted program comes back from disk byte-identically, or is
re-recorded when the disk tier is off, and every replay stays
bit-identical either way.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.algorithms import bitonic, radix
from repro.core.relations import CommPhase
from repro.core.work import Flops, WorkBatch
from repro.machines import CM5
from repro.simulator import ir
from repro.simulator.ir import (IRStore, build_program, encode_program,
                                ir_store_scope)

KEYS = [f"{i:02x}" * 32 for i in range(6)]


def _program(n: int):
    """A one-step program whose size grows with ``n``."""
    ranks = np.arange(n) % 4
    return build_program(P=4, word_bytes=4, simd=False, steps=[
        (CommPhase.permutation(np.roll(np.arange(4), 1), 8),
         [WorkBatch(Flops, {"n": np.arange(n)}, ranks)], True, "s")])


PROG = _program(64)


@pytest.fixture
def budget(monkeypatch):
    """A budget of three :data:`PROG`s."""
    monkeypatch.setattr(ir, "MEMORY_BUDGET", 3 * PROG.nbytes)
    return 3 * PROG.nbytes


def test_program_size_counts_its_columns():
    small, large = _program(8), _program(1000)
    assert large.nbytes - small.nbytes == 992 * 2 * 8


def test_least_recently_used_goes_first(budget):
    store = IRStore(disk=False)
    for key in KEYS[:3]:
        store.put(key, PROG)
    assert store.get(KEYS[0]) is PROG  # now the most recent
    store.put(KEYS[3], PROG)
    assert list(store.memory) == [KEYS[2], KEYS[0], KEYS[3]]
    assert store.nbytes == 3 * PROG.nbytes <= budget


def test_membership_neither_hits_nor_reorders(budget):
    store = IRStore(disk=False)
    for key in KEYS[:3]:
        store.put(key, PROG)
    assert KEYS[0] in store.memory
    assert store.memory_hits == 0
    store.put(KEYS[3], PROG)
    assert KEYS[0] not in store.memory  # still the least recent


def test_program_over_the_budget_is_not_kept(budget):
    store = IRStore(disk=False)
    store.put(KEYS[0], PROG)
    big = _program(4096)
    assert big.nbytes > budget
    store.put(KEYS[1], big)
    assert store.nbytes <= budget
    assert KEYS[1] not in store.memory


def run_bitonic():
    return bitonic.run(CM5(seed=3), 64, P=16, seed=1)


def run_radix():
    return radix.run(CM5(seed=3), 256, P=16, seed=1)


@pytest.mark.parametrize("disk", [True, False])
def test_evicted_program_comes_back_identically(tmp_path, monkeypatch,
                                                disk):
    """Evicted, a program is read back from disk byte-identically, or
    re-recorded when the disk tier is off; the replay is unchanged."""
    monkeypatch.setattr(ir, "MEMORY_BUDGET", 1)  # keeps nothing
    with ir_store_scope(IRStore(tmp_path, disk=disk)) as store:
        first = run_bitonic()
        run_radix()
        again = run_bitonic()
        assert store.memory_hits == 0
        if disk:
            assert (store.recorded, store.disk_hits) == (2, 1)
        else:
            assert (store.recorded, store.disk_hits) == (3, 0)
    assert again.time_us == first.time_us
    assert np.array_equal(again.clocks, first.clocks)
    if disk:
        for path in (tmp_path / "ir").rglob("*.blob"):
            prog = IRStore(tmp_path).get(path.stem)
            assert IRStore(tmp_path).blobs.get(path.stem) \
                == encode_program(prog)


def test_tier_is_consistent_under_threads(budget):
    """The service replays on two batch-worker threads: the tier's byte
    count always matches its entries and stays within the budget."""
    store = IRStore(disk=False)
    progs = [_program(16 * (i + 1)) for i in range(len(KEYS))]
    errors = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(20000):
                i = int(rng.integers(len(KEYS)))
                if store.get(KEYS[i]) is None:
                    store.put(KEYS[i], progs[i])
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(s,)) for s in (1, 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert store.nbytes == sum(p.nbytes for p in store.memory.values())
    assert store.nbytes <= budget


@pytest.mark.slow
def test_fresh_seed_predicts_stay_under_the_default_budget():
    """Soak: sample sort and radix sort key their programs by the data
    seed, so every fresh-seed predict records one more program; 500 of
    them outgrow the default budget, and the tier stays under it."""
    from repro.service.oracle import predict_offline

    with ir_store_scope(IRStore(disk=False)) as store:
        for i in range(500):
            predict_offline({"machine": "gcel", "model": "bsp",
                             "algorithm": ("samplesort", "radix")[i % 2],
                             "seed": 10_000 + i})
            assert store.nbytes <= ir.MEMORY_BUDGET
        assert store.recorded == 500
        assert len(store.memory) < 500  # the budget was reached
        assert store.nbytes == sum(p.nbytes for p in store.memory.values())
