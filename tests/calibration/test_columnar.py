"""Columnar calibration sweeps against independent per-phase references.

A sweep draws all of its patterns into one set of group columns, then
prices them in blocks of whole phases of at most ``BLOCK_ROWS`` rows,
one pricer per block (the h-h sweep prices one stack).  These tests
hold it to what the sweep stands for: for every machine and every
Section 3 pattern, drawing each trial's phases on their own with the
plain generators below, then timing them with the scalar oracle's
``comm_time`` (``tests/machines/scalar_reference.py``) from zero clocks,
must give the same times and leave both RNG streams in the same state,
at the default budget and at one that splits the sweep at arbitrary
phase boundaries.  A trial is one phase, except in the h-h sweep, whose
chunks advance the same clocks.  They also pin the NumPy behaviour the
h-relation generator relies on and the ``PhaseStack`` column
constructor.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.calibration import microbench
from repro.calibration.microbench import (
    block_permutation_experiment,
    full_h_relation_experiment,
    hh_permutation_experiment,
    multinode_scatter,
    multinode_scatter_experiment,
    one_h_relation,
    one_h_relation_experiment,
    partial_permutation_experiment,
    random_h_relation,
    random_partial_permutation,
    random_permutation,
)
from repro.core.relations import CommPhase, PhaseStack
from repro.machines import CM5, GCel, MasParMP1, ModernCluster, T800Grid
from tests.machines import scalar_reference as ref

MACHINES = {
    "maspar": MasParMP1,
    "gcel": GCel,
    "cm5": CM5,
    "t800": T800Grid,
    "modern": ModernCluster,
}


# ----------------------------------------------------------------------
# Reference generators: one phase per call, in the pattern RNG order
# ----------------------------------------------------------------------

def _unit_groups(P, src, dst, msg_bytes):
    n = len(src)
    return CommPhase(P=P, src=src, dst=dst, count=np.ones(n, dtype=np.int64),
                     msg_bytes=np.full(n, msg_bytes, dtype=np.int64))


def ref_one_h(P, h, rng, msg_bytes):
    dests = rng.choice(P, size=-(-P // h), replace=False)
    return _unit_groups(P, np.arange(P), np.repeat(dests, h)[:P], msg_bytes)


def ref_partial(P, active, rng, msg_bytes):
    senders = rng.choice(P, size=active, replace=False)
    recipients = rng.choice(P, size=active, replace=False)
    return _unit_groups(P, senders, recipients, msg_bytes)


def ref_h_relation(P, h, rng, msg_bytes):
    dst = np.concatenate([rng.permutation(P) for _ in range(h)])
    return _unit_groups(P, np.tile(np.arange(P), h), dst, msg_bytes)


def ref_block(P, size, rng, msg_bytes):
    perm = rng.permutation(P)
    fixed = [i for i in range(P) if perm[i] == i]
    if len(fixed) == 1:
        # a lone fixed point swaps targets with its neighbour
        i = fixed[0]
        j = (i + 1) % P
        perm[i], perm[j] = perm[j], i
    else:
        # several: each sends to the previous one, cyclically
        for k, i in enumerate(fixed):
            perm[i] = fixed[k - 1]
    return CommPhase.permutation(perm, size)


def ref_scatter(P, h, rng, msg_bytes):
    root = int(round(P ** 0.5))
    receivers = np.arange(root, P)
    offset = int(rng.integers(0, receivers.size))
    dst = receivers[(np.arange(root * h) + offset) % receivers.size]
    return _unit_groups(P, np.repeat(np.arange(root), h), dst, msg_bytes)


def ref_hh(sync_every):
    """The h-h trial: ``h`` messages from every PE under one permutation,
    ``sync_every`` at a time (all at once without it)."""
    def chunks(P, h, rng, msg_bytes):
        perm = rng.permutation(P)
        every = h if sync_every is None else sync_every
        return [CommPhase(P=P, src=np.arange(P), dst=perm,
                          count=np.full(P, min(every, h - sent)),
                          msg_bytes=np.full(P, msg_bytes))
                for sent in range(0, h, every)]
    return chunks


def one_phase(reference):
    """A one-phase trial of a per-phase reference generator."""
    return lambda *args: [reference(*args)]


#: sweep -> (experiment, reference trial (its phases in order), x
#: strategy given P, barrier)
SWEEPS = {
    "one-h": (one_h_relation_experiment, one_phase(ref_one_h),
              lambda P: st.integers(1, P), True),
    "partial": (partial_permutation_experiment, one_phase(ref_partial),
                lambda P: st.integers(1, P), True),
    "full-h": (full_h_relation_experiment, one_phase(ref_h_relation),
               lambda P: st.integers(1, 6), True),
    "block": (functools.partial(block_permutation_experiment, barrier=True),
              one_phase(ref_block),
              lambda P: st.sampled_from([4, 8, 64, 200, 1024, 5000]), True),
    "block-no-barrier": (
        functools.partial(block_permutation_experiment, barrier=False),
        one_phase(ref_block),
        lambda P: st.sampled_from([4, 8, 64, 200, 1024, 5000]), False),
    "scatter": (multinode_scatter_experiment, one_phase(ref_scatter),
                lambda P: st.integers(1, 20), True),
    "hh": (hh_permutation_experiment, ref_hh(None),
           lambda P: st.sampled_from([1, 5, 13, 40, 350]), False),
    "hh-sync": (functools.partial(hh_permutation_experiment, sync_every=6),
                ref_hh(6), lambda P: st.sampled_from([1, 5, 13, 40, 350]),
                True),
}


def trial_time(machine, phases, barrier):
    """A trial timed by the oracle from zero clocks, the clocks carried
    from phase to phase."""
    clocks = np.zeros(phases[0].P)
    for ph in phases:
        clocks = ref.comm_time(machine, ph, clocks, barrier=barrier)
    return float(clocks.max())


class TestSweepsAgainstScalarLoop:
    @pytest.mark.parametrize("sweep", list(SWEEPS))
    @pytest.mark.parametrize("machine", list(MACHINES))
    @given(data=st.data())
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sweep_equals_scalar_loop(self, machine, sweep, data):
        experiment, reference, x_values, barrier = SWEEPS[sweep]
        P = data.draw(st.sampled_from([16, 64]))
        seed = data.draw(st.integers(0, 2 ** 16))
        trials = data.draw(st.integers(1, 3))
        xs = data.draw(st.lists(x_values(P), min_size=1, max_size=4))

        m_sweep = MACHINES[machine](P=P, seed=seed)
        r_sweep = np.random.default_rng(seed + 1)
        series = experiment(m_sweep, xs, trials=trials, rng=r_sweep)

        m_loop = MACHINES[machine](P=P, seed=seed)
        r_loop = np.random.default_rng(seed + 1)
        mb = m_loop.nominal.w
        times = [trial_time(m_loop, reference(P, x, r_loop, mb), barrier)
                 for x in xs for _ in range(trials)]
        rows = np.array(times).reshape(len(xs), trials)

        assert series.xs.tolist() == [float(x) for x in xs]
        assert series.lo.tolist() == rows.min(axis=1).tolist()
        assert series.hi.tolist() == rows.max(axis=1).tolist()
        assert series.mean.tolist() == [float(np.mean(r)) for r in rows]
        assert r_sweep.bit_generator.state == r_loop.bit_generator.state
        assert m_sweep.rng.bit_generator.state == \
            m_loop.rng.bit_generator.state


#: the sweeps priced in row blocks (an h-h sweep is one stack)
BLOCKED = [name for name in SWEEPS if not name.startswith("hh")]


class TestSweepBlocksAgainstScalarLoop:
    """A sweep priced in blocks split at arbitrary phase boundaries: the
    row budget is drawn between one row (every phase alone) and the
    sweep's row count (one block)."""

    @pytest.mark.parametrize("sweep", BLOCKED)
    @pytest.mark.parametrize("machine", list(MACHINES))
    @given(data=st.data())
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_blocks_equal_scalar_loop(self, machine, sweep, data):
        experiment, reference, x_values, barrier = SWEEPS[sweep]
        P = data.draw(st.sampled_from([16, 64]))
        seed = data.draw(st.integers(0, 2 ** 16))
        trials = data.draw(st.integers(1, 3))
        xs = data.draw(st.lists(x_values(P), min_size=1, max_size=4))

        m_loop = MACHINES[machine](P=P, seed=seed)
        r_loop = np.random.default_rng(seed + 1)
        mb = m_loop.nominal.w
        drawn = [reference(P, x, r_loop, mb)
                 for x in xs for _ in range(trials)]
        rows = np.array([trial_time(m_loop, phases, barrier)
                         for phases in drawn]).reshape(len(xs), trials)
        budget = data.draw(st.integers(
            1, sum(ph.n_groups for phases in drawn for ph in phases)))

        m_sweep = MACHINES[machine](P=P, seed=seed)
        r_sweep = np.random.default_rng(seed + 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(microbench, "BLOCK_ROWS", budget)
            series = experiment(m_sweep, xs, trials=trials, rng=r_sweep)

        assert series.lo.tolist() == rows.min(axis=1).tolist()
        assert series.hi.tolist() == rows.max(axis=1).tolist()
        assert series.mean.tolist() == [float(np.mean(r)) for r in rows]
        assert r_sweep.bit_generator.state == r_loop.bit_generator.state
        assert m_sweep.rng.bit_generator.state == \
            m_loop.rng.bit_generator.state


class TestPublicGenerators:
    """Each public per-phase generator is the one-phase case of its
    pattern's column code: the same phase and the same draws as the
    plain reference (small ``P`` makes several fixed points common)."""

    @pytest.mark.parametrize("pattern", [
        (random_permutation, ref_block, lambda P: st.sampled_from([4, 300])),
        (random_partial_permutation, ref_partial, lambda P: st.integers(1, P)),
        (random_h_relation, ref_h_relation, lambda P: st.integers(1, 4)),
        (one_h_relation, ref_one_h, lambda P: st.integers(1, P)),
        (multinode_scatter, ref_scatter, lambda P: st.integers(1, 9)),
    ], ids=lambda p: p[0].__name__)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_one_phase_equals_reference(self, pattern, data):
        generate, reference, x_values = pattern
        P = data.draw(st.integers(2, 12))
        x = data.draw(x_values(P))
        seed = data.draw(st.integers(0, 2 ** 16))
        r_gen = np.random.default_rng(seed)
        r_ref = np.random.default_rng(seed)
        if generate is random_permutation:
            got = generate(P, r_gen, x)
        else:
            got = generate(P, x, r_gen, 8)
        want = reference(P, x, r_ref, 8)
        for name in ("src", "dst", "count", "msg_bytes", "step"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert got.P == want.P and got.stagger and want.stagger
        assert r_gen.bit_generator.state == r_ref.bit_generator.state

    def test_permutations_with_many_fixed_points(self):
        """Draws with two, three and more fixed points, which random
        examples rarely reach: each is re-routed as the reference does."""
        many = 0
        for P in (3, 5, 8):
            for seed in range(150):
                draw = np.random.default_rng(seed).permutation(P)
                many += int((draw == np.arange(P)).sum() >= 3)
                got = random_permutation(P, np.random.default_rng(seed), 8)
                want = ref_block(P, 8, np.random.default_rng(seed), 8)
                assert np.array_equal(got.dst, want.dst), (P, seed)
        assert many >= 10


class TestPermutedRows:
    """``Generator.permuted`` over a tiled ``arange`` is the h-relation
    generator's way of drawing ``h`` permutations in one call."""

    @given(P=st.integers(1, 300), h=st.integers(1, 40),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_sequential_permutations(self, P, h, seed):
        one_call = np.random.default_rng(seed)
        sequential = np.random.default_rng(seed)
        rows = one_call.permuted(np.tile(np.arange(P), (h, 1)), axis=1)
        expected = np.stack([sequential.permutation(P) for _ in range(h)])
        assert np.array_equal(rows, expected)
        assert one_call.bit_generator.state == \
            sequential.bit_generator.state


def _draw_phase(draw, P):
    if draw(st.integers(0, 4)) == 0:
        return CommPhase.empty(P)
    n = draw(st.integers(1, 8))
    column = functools.partial(st.lists, min_size=n, max_size=n)
    return CommPhase(
        P=P,
        src=np.array(draw(column(st.integers(0, P - 1)))),
        dst=np.array(draw(column(st.integers(0, P - 1)))),
        count=np.array(draw(column(st.integers(1, 5)))),
        msg_bytes=np.array(draw(column(st.sampled_from([4, 8, 512])))),
        step=np.array(draw(column(st.sampled_from([-1, 0, 1, 2])))))


class TestStackFromColumns:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_stack_of_phases(self, data):
        P = data.draw(st.sampled_from([1, 4, 16]))
        phases = [_draw_phase(data.draw, P)
                  for _ in range(data.draw(st.integers(1, 6)))]
        names = ("src", "dst", "count", "msg_bytes", "step")
        cols = [np.concatenate([np.zeros(0, dtype=np.int64)]
                               + [getattr(ph, name) for ph in phases])
                for name in names]
        built = PhaseStack.from_columns(
            P, [ph.n_groups for ph in phases], *cols)
        stacked = PhaseStack(phases)

        for name in names + ("pid", "live"):
            a, b = getattr(built, name), getattr(stacked, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        # both constructors share one builder: check it independently too
        assert built.live.tolist() == [not ph.is_empty for ph in phases]
        assert built.pid.tolist() == [i for i, ph in enumerate(phases)
                                      for _ in range(ph.n_groups)]
        assert built.P == stacked.P
        assert len(built) == len(stacked) == len(phases)
        for a, b in zip(built.substeps, stacked.substeps):
            assert np.array_equal(a, b)
        for view, ph in zip(built.phases, phases):
            assert view.P == ph.P and view.is_empty == ph.is_empty
            for name in names:
                assert np.array_equal(getattr(view, name),
                                      getattr(ph, name))
