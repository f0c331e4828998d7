"""Pricer columns kept on a step program, by machine state.

A pricer built over :meth:`~repro.simulator.ir.StepProgram.stack` keeps
the deterministic columns it derives in the program's
:class:`~repro.simulator.ir.PricerColumns`, under the machine's
:func:`~repro.machines.base.state_key`; a later replay under the same
state reuses them.  The columns are read-only, count in the program's
``nbytes`` and so against the IR memory tier's budget, and a replay on
them is bit-identical to one that derives them afresh, on one thread or
two.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.algorithms import bitonic
from repro.machines import MACHINES, make_machine
from repro.simulator import ir
from repro.simulator.ir import (IRStore, clear_pricer_columns,
                                decode_program, encode_program,
                                ir_store_scope)
from repro.simulator.replay import replay


@pytest.fixture(autouse=True)
def _fresh_columns():
    clear_pricer_columns()
    yield
    clear_pricer_columns()


def _recorded(name: str, **kw):
    """``(store, program, result)`` of one bitonic run on a fresh
    memory-only store."""
    store = IRStore(disk=False)
    with ir_store_scope(store):
        res = bitonic.run(make_machine(name, seed=3, **kw), 64, P=16,
                          seed=1)
    (prog,) = store.memory.values()
    return store, prog, res


def _signature(res) -> tuple:
    return (res.time_us, res.clocks.tolist(),
            [s.measured_us for s in res.trace])


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_a_hit_replays_as_a_miss_does(name):
    store, prog, first = _recorded(name)
    assert len(prog.columns.entries) == 1
    kept = next(iter(prog.columns.entries.values()))
    again = replay(make_machine(name, seed=3), prog)
    assert next(iter(prog.columns.entries.values())) is kept
    afresh = replay(make_machine(name, seed=3),
                    decode_program(encode_program(prog)))
    assert _signature(again) == _signature(first) == _signature(afresh)


@pytest.mark.parametrize("name", ["maspar", "gcel", "cm5"])
def test_kept_columns_are_read_only(name):
    _, prog, _ = _recorded(name)
    (cols,) = prog.columns.entries.values()
    assert cols
    for col in cols.values():
        assert not col.flags.writeable
        with pytest.raises(ValueError):
            col[...] = 0


def test_each_machine_state_keeps_its_own_columns():
    _, prog, _ = _recorded("maspar", P=64)
    replay(make_machine("maspar", seed=8, P=64), prog)  # another seed
    assert len(prog.columns.entries) == 1
    replay(make_machine("maspar", seed=3, P=64,
                        disable=("cube-discount",)), prog)
    assert len(prog.columns.entries) == 2


def test_columns_count_against_the_memory_budget(monkeypatch):
    store, prog, _ = _recorded("gcel")
    grown = prog.columns.nbytes
    assert grown > 0
    assert prog.nbytes == prog._structure_nbytes + grown
    assert store.nbytes == prog.nbytes
    # room for one more set of columns less one byte: the next machine
    # state's columns push the program out of the tier
    monkeypatch.setattr(ir, "MEMORY_BUDGET", prog.nbytes + grown - 1)
    replay(make_machine("gcel", seed=3, disable=("sync-loss",)), prog)
    assert prog.columns.nbytes == 2 * grown
    assert store.memory == {} and store.nbytes == 0


def test_clear_drops_every_programs_columns():
    store, prog, _ = _recorded("cm5")
    assert prog.columns.nbytes > 0
    clear_pricer_columns()
    assert prog.columns.entries == {} and prog.columns.nbytes == 0
    assert store.nbytes == prog.nbytes == prog._structure_nbytes


def test_concurrent_replays_share_one_set_of_columns():
    """The service replays on two batch-worker threads: concurrent
    pricers of one program and state (three threads here, more than the
    cores) keep one set of columns, and every replay matches a
    single-threaded one."""
    configs = [("maspar", ()), ("maspar", ("cluster-channels",)),
               ("gcel", ()), ("cm5", ("comm-staggering",))]
    progs, expect = {}, {}
    for name, disable in configs:
        if name not in progs:
            progs[name] = _recorded(name)[1]
        fresh = decode_program(encode_program(progs[name]))
        expect[name, disable] = _signature(replay(
            make_machine(name, seed=3, disable=disable), fresh))
    store = IRStore(disk=False)
    for name, prog in progs.items():
        store.put(name, prog)
    errors, mismatches = [], []

    def worker(seed, start):
        rng = np.random.default_rng(seed)
        start.wait(timeout=60)  # the threads miss the first states at once
        try:
            for _ in range(20):
                name, disable = configs[int(rng.integers(len(configs)))]
                res = replay(make_machine(name, seed=3, disable=disable),
                             store.get(name))
                if _signature(res) != expect[name, disable]:
                    mismatches.append((name, disable))
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for rnd in range(5):
            clear_pricer_columns()
            start = threading.Barrier(3)
            threads = [threading.Thread(target=worker, args=(3 * rnd + k,
                                                             start))
                       for k in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and mismatches == []
    assert sum(len(p.columns.entries) for p in progs.values()) \
        <= len(configs)
    for prog in progs.values():
        assert prog.columns.nbytes == sum(
            col.nbytes for cols in prog.columns.entries.values()
            for col in cols.values())
    assert store.nbytes == sum(p.nbytes for p in store.memory.values())
