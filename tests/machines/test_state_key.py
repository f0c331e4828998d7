"""The machine state key, and the two per-process caches keyed by it.

:func:`~repro.machines.base.state_key` is a machine's class plus every
instance attribute except the RNG.  Changing any one attribute, or any
one field of its nominal :class:`~repro.core.params.ModelParams`, must
miss both the calibration memo and a step program's pricer columns, and
a machine the key cannot encode must be computed, never cached.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.calibration import (calibrate, calibration_memo_stats,
                               clear_calibration_memo)
from repro.calibration import table1
from repro.core.relations import CommPhase
from repro.machines import MACHINES, make_machine
from repro.machines.base import state_key
from repro.simulator.ir import build_program, clear_pricer_columns

#: small partitions, so the pricer builds stay cheap
SMALL_P = {"maspar": 64, "gcel": 16, "cm5": 16, "t800": 16, "modern": 16}


@pytest.fixture(autouse=True)
def _fresh_caches():
    # the calibration tests below patch the fit: no entry may outlive them
    clear_calibration_memo()
    clear_pricer_columns()
    yield
    clear_calibration_memo()
    clear_pricer_columns()


def _machine(name: str):
    return make_machine(name, seed=5, P=SMALL_P[name])


def _program(P: int, w: int):
    """Three phases on ``P`` ranks: a word permutation, a cube exchange
    of blocks and a many-to-one gather."""
    rng = np.random.default_rng(0)
    ranks = np.arange(P)
    steps = [
        (CommPhase.permutation(rng.permutation(P), w), [], True, "perm"),
        (CommPhase.permutation(ranks ^ 1, 64 * w), [], False, "cube"),
        (CommPhase(P=P, src=ranks[1:], dst=np.zeros(P - 1, dtype=np.int64),
                   count=np.full(P - 1, 2), msg_bytes=np.full(P - 1, w)),
         [], True, "gather"),
    ]
    return build_program(P=P, word_bytes=w, simd=False, steps=steps)


def _changed(value):
    """``value`` changed, keeping its type and a machine usable."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 1.5 + 1.0
    if isinstance(value, str):
        return value + "-x"
    if isinstance(value, frozenset):
        return value ^ {"no-such-phenomenon"}
    raise TypeError(type(value))


def _variants(name: str):
    """``(label, machine)`` with one instance attribute, or one field of
    a dataclass attribute, changed."""
    for attr, value in vars(_machine(name)).items():
        if attr == "rng":
            continue
        if dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                m = _machine(name)
                setattr(m, attr, dataclasses.replace(
                    value, **{f.name: _changed(getattr(value, f.name))}))
                yield f"{attr}.{f.name}", m
        else:
            m = _machine(name)
            setattr(m, attr, _changed(value))
            yield attr, m


def _stub_fit(machine, seed, trials):
    """A fit in miniature: it advances the machine's RNG."""
    machine.rng.random(3)
    return table1.Calibration(machine=machine.name,
                              params=machine.nominal, g_fit=None,
                              block_fit=None)


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_every_registered_machine_is_keyable(name):
    machine = make_machine(name, seed=0)
    key = state_key(machine)
    assert key is not None and key[0] is MACHINES[name]
    assert state_key(machine, rng=True) is not None
    assert state_key(make_machine(name, seed=9)) == key  # RNG left out
    hash(key)


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_each_attribute_misses_the_calibration_memo(name, monkeypatch):
    monkeypatch.setattr(table1, "_fit", _stub_fit)
    calibrate(_machine(name))
    calibrate(_machine(name))
    assert calibration_memo_stats() == {"hits": 1, "misses": 1}
    labels = []
    for label, machine in _variants(name):
        calibrate(machine)
        labels.append(label)
        assert calibration_memo_stats()["misses"] == len(labels) + 1, label
    assert {"disabled", "P", "nominal.alpha", "nominal.w"} <= set(labels)
    assert len(labels) >= len(vars(_machine(name))) + 10


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_each_attribute_misses_the_pricer_columns(name):
    base = _machine(name)
    prog = _program(base.P, base.nominal.w)
    costs = base.comm_time_batch(prog.stack(), prog.phase_idx)
    again = _machine(name).comm_time_batch(prog.stack(), prog.phase_idx)
    assert len(prog.columns.entries) == 1
    for col in type(costs)._COLUMNS:
        assert getattr(again, col) is getattr(costs, col)  # a hit
    n = 1
    for label, machine in _variants(name):
        machine.comm_time_batch(prog.stack(), prog.phase_idx)
        n += 1
        assert len(prog.columns.entries) == n, label


def test_unkeyable_machine_is_computed_not_cached():
    machine = _machine("cm5")
    machine.phase_cost_batch = machine.phase_cost_batch  # a patched method
    assert state_key(machine) is None
    assert state_key(machine, rng=True) is None
    prog = _program(machine.P, machine.nominal.w)
    pricers = [machine.comm_time_batch(prog.stack(), prog.phase_idx)
               for _ in range(2)]
    assert prog.columns.entries == {} and prog.columns.nbytes == 0
    assert pricers[0]._det is not pricers[1]._det
    assert np.array_equal(pricers[0]._det, pricers[1]._det)


def test_machine_without_a_generator_has_no_rng_key():
    machine = _machine("gcel")
    machine.rng = np.random.RandomState(0)
    assert state_key(machine, rng=True) is None
    assert state_key(machine) == state_key(_machine("gcel"))


def test_key_tells_types_and_signed_zeros_apart():
    def key_with(attr, value):
        m = _machine("modern")
        setattr(m, attr, value)
        return state_key(m)

    assert key_with("noise", 0.0) != key_with("noise", -0.0)
    assert key_with("barrier_us", 5.0) != key_with("barrier_us", 5)
    assert key_with("noise", 0.002 * 2) == key_with("noise", 0.004)
    # a type the key does not encode leaves the machine uncached
    assert key_with("noise", np.float64(0.004)) is None
    assert key_with("disabled", {"incast-collapse"}) is None
