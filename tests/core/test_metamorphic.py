"""Metamorphic properties of the cost models (hypothesis, derandomized).

Rather than asserting absolute costs, these tests pin *relations between
runs* — the invariants a cost model must satisfy for the paper's
comparisons to mean anything:

* monotonicity: more communication (larger h) never gets cheaper, and
  raising any machine parameter never lowers a prediction;
* scaling laws: doubling ``g`` doubles exactly the bandwidth term,
  doubling ``L`` adds exactly one latency, and MP-BPRAM cost decomposes
  exactly into its ``n_steps * ell`` and ``sigma * bytes`` terms;
* permutation invariance: the order in which a phase's message groups
  (or a batch's phases) are listed is bookkeeping, not physics — costs
  must be bit-identical under reordering.

All draws are derandomized: the examples are a pure function of the test
source, so a failure reproduces from its printed example alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bpram import MPBPRAM
from repro.core.bsf import BSF
from repro.core.bsp import BSP
from repro.core.ebsp import EBSP
from repro.core.params import (
    PAPER_UNBALANCED,
    UnbalancedCost,
    paper_params,
)
from repro.core.relations import CommPhase

PARAMS = paper_params("maspar")
UNB = PAPER_UNBALANCED["maspar"]

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None)

#: (P, groups) — each group is (src, dst, count, msg_bytes); sizes are
#: kept >= 1 so every drawn phase actually communicates.
send_sets = st.integers(min_value=2, max_value=32).flatmap(
    lambda P: st.tuples(
        st.just(P),
        st.lists(
            st.tuples(st.integers(0, P - 1), st.integers(0, P - 1),
                      st.integers(1, 6), st.integers(1, 64)),
            min_size=1, max_size=24)))


def phase_of(P, groups, k=1) -> CommPhase:
    """Build a phase, with every group count scaled by ``k``."""
    src, dst, count, nbytes = (np.array(col, dtype=np.int64)
                               for col in zip(*groups))
    return CommPhase(P=P, src=src, dst=dst, count=count * k,
                     msg_bytes=nbytes)


def models(params=PARAMS):
    return [BSP(params), EBSP(params, UNB), MPBPRAM(params), BSF(params)]


class TestMonotonicity:
    @given(send_sets)
    @SETTINGS
    def test_doubling_message_counts_never_cheaper(self, case):
        """h-monotonicity: the same pattern at twice the multiplicity
        costs at least as much under every model."""
        P, groups = case
        base, doubled = phase_of(P, groups), phase_of(P, groups, k=2)
        for model in models():
            assert model.comm_cost(doubled) >= model.comm_cost(base), \
                model.name

    @given(send_sets)
    @SETTINGS
    def test_adding_messages_never_cheaper(self, case):
        """Superset-monotonicity for the max-based models."""
        P, groups = case
        whole = phase_of(P, groups)
        prefix = phase_of(P, groups[: max(1, len(groups) // 2)])
        for model in (BSP(PARAMS), MPBPRAM(PARAMS)):
            assert model.comm_cost(whole) >= model.comm_cost(prefix), \
                model.name

    @given(send_sets)
    @SETTINGS
    def test_raising_any_parameter_never_cheaper(self, case):
        """Predictions are monotone in g, L, sigma and ell."""
        phase = phase_of(*case)
        worse = PARAMS.with_updates(g=PARAMS.g * 2, L=PARAMS.L * 2,
                                    sigma=PARAMS.sigma * 2,
                                    ell=PARAMS.ell * 2)
        for cheap, dear in zip(models(PARAMS), models(worse)):
            assert dear.comm_cost(phase) >= cheap.comm_cost(phase), \
                cheap.name

    @given(st.integers(0, 4096), st.integers(0, 4096))
    @SETTINGS
    def test_unbalanced_law_monotone_in_active_processors(self, a, b):
        """E-BSP's T_unb(P'): more active processors never cost less —
        the whole premise of charging partial permutations less."""
        lo, hi = sorted((a, b))
        assert UNB(hi) >= UNB(lo)
        assert UNB(0) == 0.0


class TestScalingLaws:
    @given(send_sets)
    @SETTINGS
    def test_bsp_doubling_g_doubles_the_bandwidth_term(self, case):
        """cost(2g) - L == 2 * (cost(g) - L): only the g h term scales."""
        phase = phase_of(*case)
        cost = BSP(PARAMS).comm_cost(phase)
        cost2g = BSP(PARAMS.with_updates(g=PARAMS.g * 2)).comm_cost(phase)
        assert math.isclose(cost2g - PARAMS.L, 2 * (cost - PARAMS.L),
                            rel_tol=1e-12)

    @given(send_sets)
    @SETTINGS
    def test_bsp_doubling_l_adds_exactly_one_latency(self, case):
        phase = phase_of(*case)
        cost = BSP(PARAMS).comm_cost(phase)
        cost2l = BSP(PARAMS.with_updates(L=PARAMS.L * 2)).comm_cost(phase)
        assert math.isclose(cost2l, cost + PARAMS.L, rel_tol=1e-12)

    @given(send_sets)
    @SETTINGS
    def test_bpram_cost_decomposes_into_its_two_terms(self, case):
        """cost == n_steps * ell + sigma * max bytes, recovered from
        runs with one term zeroed — the model has no cross terms."""
        phase = phase_of(*case)
        full = MPBPRAM(PARAMS).comm_cost(phase)
        only_ell = MPBPRAM(PARAMS.with_updates(sigma=0.0)).comm_cost(phase)
        only_sigma = MPBPRAM(PARAMS.with_updates(ell=0.0)).comm_cost(phase)
        assert math.isclose(full, only_ell + only_sigma, rel_tol=1e-12)
        # and the startup term counts whole steps of the ell charge
        n_steps = only_ell / PARAMS.ell
        assert n_steps == int(n_steps) >= 1

    @given(send_sets)
    @SETTINGS
    def test_bpram_is_homogeneous_in_message_multiplicity(self, case):
        """k-fold multiplicity costs exactly k-fold (k a power of two):
        block transfers have no economy of scale across messages."""
        P, groups = case
        base = MPBPRAM(PARAMS).comm_cost(phase_of(P, groups))
        quad = MPBPRAM(PARAMS).comm_cost(phase_of(P, groups, k=4))
        assert math.isclose(quad, 4 * base, rel_tol=1e-12)

    @given(st.integers(1, 2048))
    @SETTINGS
    def test_unbalanced_law_matches_its_closed_form(self, active):
        law = UnbalancedCost(a=0.84, b=11.8, c=73.3)
        assert law(active) == 0.84 * active + 11.8 * math.sqrt(active) \
            + 73.3


class TestBSFLaws:
    """The master-worker model's own metamorphic signature."""

    @given(send_sets)
    @SETTINGS
    def test_doubling_g_doubles_everything_but_latency(self, case):
        """o_master defaults to g, so the whole relay term scales with
        g: cost(2g) - L == 2 * (cost(g) - L)."""
        phase = phase_of(*case)
        cost = BSF(PARAMS).comm_cost(phase)
        cost2g = BSF(PARAMS.with_updates(g=PARAMS.g * 2)).comm_cost(phase)
        assert math.isclose(cost2g - PARAMS.L, 2 * (cost - PARAMS.L),
                            rel_tol=1e-12)

    @given(send_sets)
    @SETTINGS
    def test_relay_is_homogeneous_in_multiplicity(self, case):
        """k-fold multiplicity scales both words and message handling
        k-fold: the master has no economy of scale."""
        P, groups = case
        base = BSF(PARAMS).comm_cost(phase_of(P, groups))
        quad = BSF(PARAMS).comm_cost(phase_of(P, groups, k=4))
        assert math.isclose(quad - PARAMS.L, 4 * (base - PARAMS.L),
                            rel_tol=1e-12)

    @given(send_sets)
    @SETTINGS
    def test_pattern_blindness(self, case):
        """BSF's defining property: every transfer crosses the star
        through the master, so rewriting all destinations to one hot
        receiver changes nothing — unlike every direct-network model."""
        P, groups = case
        incast = [(s, 0, c, b) for s, d, c, b in groups]
        assert BSF(PARAMS).comm_cost(phase_of(P, groups)) \
            == BSF(PARAMS).comm_cost(phase_of(P, incast))

    @given(send_sets)
    @SETTINGS
    def test_separate_o_master_decomposes(self, case):
        """cost - L splits exactly into the word term (o_master=0) and
        the handling term (the o_master share alone)."""
        phase = phase_of(*case)
        full = BSF(PARAMS).comm_cost(phase)
        words_only = BSF(PARAMS, o_master=0.0).comm_cost(phase)
        handling = 2.0 * PARAMS.g * float(phase.count.sum())
        assert math.isclose(full - PARAMS.L,
                            (words_only - PARAMS.L) + handling,
                            rel_tol=1e-12)


class TestPermutationInvariance:
    @given(send_sets, st.randoms(use_true_random=False))
    @SETTINGS
    def test_group_order_is_bookkeeping(self, case, rnd):
        """Shuffling the message groups changes nothing, bit for bit."""
        P, groups = case
        shuffled = list(groups)
        rnd.shuffle(shuffled)
        for model in models():
            assert model.comm_cost(phase_of(P, groups)) \
                == model.comm_cost(phase_of(P, shuffled)), model.name

    @given(st.lists(send_sets, min_size=1, max_size=6))
    @SETTINGS
    def test_batch_pricing_is_order_invariant(self, cases):
        """comm_cost_batch prices each phase independently of its
        neighbours and of its position: its identity dedup and index
        mapping put the law's cost of each phase at the phase's entry,
        whatever the list order."""
        P = max(c[0] for c in cases)
        phases = [phase_of(P, groups) for _, groups in cases]
        for model in models():
            forward = model.comm_cost_batch(phases)
            backward = model.comm_cost_batch(phases[::-1])
            assert forward == backward[::-1], model.name
            assert forward == [model.comm_cost(ph) for ph in phases], \
                model.name


@pytest.mark.parametrize("machine", ["maspar", "gcel", "cm5"])
class TestCrossMachine:
    @given(case=send_sets)
    @SETTINGS
    def test_invariants_hold_for_every_table1_machine(self, machine, case):
        """The relations above are model properties, not artifacts of
        one parameter set."""
        params = paper_params(machine)
        phase = phase_of(*case)
        doubled = phase_of(case[0], case[1], k=2)
        for model in (BSP(params), MPBPRAM(params)):
            assert model.comm_cost(doubled) >= model.comm_cost(phase)
        cost = BSP(params).comm_cost(phase)
        cost2g = BSP(params.with_updates(g=params.g * 2)).comm_cost(phase)
        assert math.isclose(cost2g - params.L, 2 * (cost - params.L),
                            rel_tol=1e-12)
