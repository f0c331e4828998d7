"""Batched pricing vs the scalar reference: exact agreement (hypothesis).

Each machine has one columnar batch path, and these tests hold it bit
for bit to an independent scalar formulation.  Each cost model has one
law, ``comm_cost(phase)``, which ``CostModel.comm_cost_batch`` applies
once per distinct phase:

* for cost models, the tests check ``comm_cost_batch`` around the law:
  the identity dedup, the mapping of costs back to list positions, and
  lists that mix processor counts (one model prices several requests in
  one batch).  The laws themselves are checked independently, against
  closed forms and metamorphic laws under ``tests/core`` (and
  ``tests/machines/test_t800.py`` for ``LocalityAwareBSP``);
* machines price phase sequences through the pricer
  ``Machine.comm_time_batch`` returns, and single phases through its
  one-phase view ``Machine.comm_time``.  The reference is the scalar
  oracle in ``tests/machines/scalar_reference.py``, phase by phase; on
  the MasPar and the bulk-synchronous machines it is also the reference
  for the fused whole-sequence ``sequence_costs`` that replay and the
  calibration sweeps use.

These sweeps draw random phase sequences — repeated objects included,
since the vector engine interns recurring patterns — and require clocks,
costs and the machine RNG stream to agree exactly.  Cost models
deduplicate a sequence by identity themselves; a machine pricer is
handed the distinct phases as one stack plus the sequence as positions
in it, as a replay hands over its program's phase table and
``phase_idx``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (BSF, BSP, EBSP, LocalityAwareBSP, MPBPRAM, MPBSP,
                        ScatterAwareBSP, paper_params)
from repro.core.params import UnbalancedCost
from repro.core.relations import CommPhase, PhaseStack, unique_phases
from repro.machines import CM5, GCel, MasParMP1, ModernCluster, T800Grid
from tests.machines import scalar_reference as ref

MACHINES = {
    "maspar": MasParMP1,
    "gcel": GCel,
    "cm5": CM5,
    "t800": T800Grid,
    "modern": ModernCluster,
}


def draw_phase(draw, P):
    """One random CommPhase: arbitrary fan-in/out, steps, stagger."""
    n = draw(st.integers(1, 10))
    src = draw(st.lists(st.integers(0, P - 1), min_size=n, max_size=n))
    dst = draw(st.lists(st.integers(0, P - 1), min_size=n, max_size=n))
    count = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    size = draw(st.lists(st.sampled_from([4, 8, 64, 1024]),
                         min_size=n, max_size=n))
    step = draw(st.lists(st.sampled_from([-1, 0, 1, 2, 3]),
                         min_size=n, max_size=n))
    stagger = draw(st.booleans())
    return CommPhase(P=P, src=np.array(src), dst=np.array(dst),
                     count=np.array(count), msg_bytes=np.array(size),
                     step=np.array(step), stagger=stagger)


def draw_sequence(draw, P, max_phases=6, second_P=None):
    """A phase sequence with identity repeats (interned patterns).

    With ``second_P``, phases drawn at that processor count join the
    pool: ``comm_cost_batch`` accepts phases of several processor
    counts in one call.
    """
    phases = [draw_phase(draw, P)
              for _ in range(draw(st.integers(1, max_phases)))]
    if second_P is not None:
        phases += [draw_phase(draw, second_P)
                   for _ in range(draw(st.integers(1, max_phases)))]
    # repeat some objects, as the vector engine's interning does
    picks = draw(st.lists(st.integers(0, len(phases) - 1),
                          min_size=1, max_size=2 * max_phases))
    seq = [phases[i] for i in picks]
    if draw(st.booleans()):
        seq.append(CommPhase.empty(P))
    return seq


def pricer_for(machine, seq):
    """The machine's pricer for a phase sequence, handed over as a
    replay hands a program's: the distinct phases (by identity) as one
    stack, and the sequence as positions in it."""
    uniq, idx = unique_phases(seq)
    return machine.comm_time_batch(PhaseStack(uniq), idx)


def assert_three_way(cls, P, seed, seq, barriers, disable=()):
    """The pricer and the one-phase ``Machine.comm_time`` view against
    the scalar oracle, phase by phase: the same clocks after every
    phase, and the three machines' noise streams in the same state."""
    m_scalar = cls(P=P, seed=seed, disable=disable)
    m_batch = cls(P=P, seed=seed, disable=disable)
    m_view = cls(P=P, seed=seed, disable=disable)
    pricer = pricer_for(m_batch, seq)

    cs = np.zeros(P)
    cb = np.zeros(P)
    cv = np.zeros(P)
    for i, (ph, barrier) in enumerate(zip(seq, barriers)):
        cs = ref.comm_time(m_scalar, ph, cs, barrier=barrier)
        cb = pricer.comm_time(i, cb, barrier=barrier)
        cv = m_view.comm_time(ph, cv, barrier=barrier)
        assert np.array_equal(cs, cb), \
            f"{cls.name} (disable={disable}) pricer diverged at phase {i}"
        assert np.array_equal(cs, cv), \
            f"{cls.name} (disable={disable}) view diverged at phase {i}"
    # identical draws: the noise streams must end in the same state
    assert m_scalar.rng.bit_generator.state == \
        m_batch.rng.bit_generator.state == m_view.rng.bit_generator.state


def assert_fused_costs_match(cls, P, seed, seq, disable=()):
    """MasPar's fused ``sequence_costs`` against the scalar oracle.

    With a barrier on every phase, scanning the costs as the fused replay
    does (``T = T + cost``) must reach every clock the oracle's
    ``comm_time`` loop reaches, and draw the same noise.
    """
    m_scalar = cls(P=P, seed=seed, disable=disable)
    m_fused = cls(P=P, seed=seed, disable=disable)
    costs = pricer_for(m_fused, seq).sequence_costs()
    assert costs.shape == (len(seq),)
    clocks = np.zeros(P)
    T = 0.0
    for i, (ph, cost) in enumerate(zip(seq, costs.tolist())):
        clocks = ref.comm_time(m_scalar, ph, clocks, barrier=True)
        T = T + cost
        assert T == clocks.max(), f"fused cost diverged at phase {i}"
    assert m_scalar.rng.bit_generator.state == \
        m_fused.rng.bit_generator.state


def all_models(params):
    # MasPar MP-1 T_unb coefficients (paper §3.1) for E-BSP; the grid
    # side / bandwidth knobs just need plausible values here — only
    # batch-vs-scalar agreement is under test, not the prices themselves
    import math

    unb = UnbalancedCost(a=0.84, b=11.8, c=73.3)
    side = math.isqrt(params.P)
    models = [BSP(params), MPBSP(params), MPBPRAM(params),
              EBSP(params, unb), BSF(params),
              ScatterAwareBSP(params, g_scatter=params.g / 2)]
    if side * side == params.P:
        models.append(LocalityAwareBSP(params, side=side, g0=0.1,
                                       g_hop=0.05))
    return models


class TestModelBatchAgreement:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_comm_cost_batch_equals_scalar_loop(self, data):
        """Pricing each distinct phase object once and mapping the costs
        back by position gives the per-phase law's cost at every entry,
        also for repeated objects and for lists of two processor
        counts."""
        P = data.draw(st.sampled_from([4, 16, 64]))
        second_P = data.draw(st.sampled_from([4, 16, 64]))
        seq = draw_sequence(data.draw, P, second_P=second_P)
        for params in (paper_params("gcel").with_updates(P=P),
                       paper_params("cm5").with_updates(P=P)):
            for model in all_models(params):
                batch = model.comm_cost_batch(seq)
                scalar = [model.comm_cost(ph) for ph in seq]
                assert batch == scalar, \
                    f"{model.name} batch pricing diverged"

    def test_batch_of_nothing(self):
        for model in all_models(paper_params("gcel")):
            assert model.comm_cost_batch([]) == []


class TestMachineBatchAgreement:
    @pytest.mark.parametrize("machine", list(MACHINES))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_pricer_equals_scalar_loop(self, machine, data):
        P = data.draw(st.sampled_from([16, 64]))
        seed = data.draw(st.integers(0, 2 ** 16))
        seq = draw_sequence(data.draw, P)
        barriers = [data.draw(st.booleans()) for _ in seq]
        assert_three_way(MACHINES[machine], P, seed, seq, barriers)
        if machine == "maspar":
            assert_fused_costs_match(MACHINES[machine], P, seed, seq)

    @pytest.mark.parametrize("steps", [150, 400, 900])
    @pytest.mark.parametrize("disable", [(), ("sync-loss",)])
    def test_gcel_drift_equals_scalar_loop(self, steps, disable):
        """Long barrier-free exchanges reach the GCel's drift collapse,
        which random sequences of a few messages per node never do."""
        perm = np.roll(np.arange(64), 1)
        ph = CommPhase(P=64, src=np.arange(64), dst=perm,
                       count=np.full(64, steps, dtype=np.int64),
                       msg_bytes=np.full(64, 4, dtype=np.int64))
        assert_three_way(GCel, 64, steps, [ph, ph, ph],
                         [False, False, True], disable)


class TestAblatedMachineBatchAgreement:
    """The bit-identity contract survives ablation: with any subset of a
    machine's phenomena disabled, the batched pricer and the one-phase
    view must still return byte-for-byte what the ablated scalar oracle
    returns (the ablation harness prices whole traces through the batch
    path)."""

    @pytest.mark.parametrize("machine",
                             [m for m in MACHINES
                              if MACHINES[m].PHENOMENA])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_pricer_equals_scalar_loop_under_ablation(self, machine, data):
        cls = MACHINES[machine]
        disable = tuple(data.draw(st.sets(
            st.sampled_from(sorted(cls.PHENOMENA)), min_size=1)))
        P = data.draw(st.sampled_from([16, 64]))
        seed = data.draw(st.integers(0, 2 ** 16))
        seq = draw_sequence(data.draw, P)
        barriers = [data.draw(st.booleans()) for _ in seq]
        assert_three_way(cls, P, seed, seq, barriers, disable)
        if machine == "maspar":
            assert_fused_costs_match(cls, P, seed, seq, disable)


def assert_base_sequence_costs_match(cls, P, seed, seq, disable=()):
    """The base pricer's one-draw ``sequence_costs`` against the scalar
    oracle: with a barrier on every phase, ``T = (T + cost) + barrier``
    must reach every clock the oracle's ``comm_time`` loop reaches, and
    the two machines must draw the same noise."""
    m_scalar = cls(P=P, seed=seed, disable=disable)
    m_fused = cls(P=P, seed=seed, disable=disable)
    costs = pricer_for(m_fused, seq).sequence_costs()
    assert costs.shape == (len(seq),)
    barrier = m_scalar.barrier_time()
    clocks = np.zeros(P)
    T = 0.0
    for i, (ph, cost) in enumerate(zip(seq, costs.tolist())):
        clocks = ref.comm_time(m_scalar, ph, clocks, barrier=True)
        T = (T + cost) + barrier
        assert T == clocks.max(), f"fused cost diverged at phase {i}"
    assert m_scalar.rng.bit_generator.state == \
        m_fused.rng.bit_generator.state


class TestBaseSequenceCosts:
    """The bulk-synchronous pricer (CM-5, T800, modern cluster) prices a
    whole sequence from one noise draw, which calibration sweeps use."""

    @pytest.mark.parametrize("machine", ["cm5", "t800", "modern"])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sequence_costs_equal_scalar_loop(self, machine, data):
        cls = MACHINES[machine]
        P = data.draw(st.sampled_from([16, 64]))
        seed = data.draw(st.integers(0, 2 ** 16))
        disable = tuple(data.draw(st.sets(
            st.sampled_from(sorted(cls.PHENOMENA))))) if cls.PHENOMENA else ()
        seq = draw_sequence(data.draw, P)
        # empty phases draw no noise, wherever they sit in the sequence
        for _ in range(data.draw(st.integers(1, 3))):
            seq.insert(data.draw(st.integers(0, len(seq))),
                       CommPhase.empty(P))
        assert_base_sequence_costs_match(cls, P, seed, seq, disable)

    def test_gcel_pricer_has_no_sequence_costs(self):
        """A barrier-free GCel advance draws per-node noise and drift, so
        its pricer must not inherit the one-draw costs."""
        pricer = GCel(P=16, seed=0).comm_time_batch(
            PhaseStack([CommPhase.empty(16)]))
        assert getattr(pricer, "sequence_costs", None) is None
