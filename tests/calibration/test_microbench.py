"""Tests for the microbenchmark drivers."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.calibration import microbench
from repro.calibration.microbench import (
    TimingSeries,
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
    time_phase,
)
from repro.core.errors import CalibrationError
from repro.machines import CM5, GCel, MasParMP1, ModernCluster, T800Grid


class TestPatternGenerators:
    def test_random_permutation_no_fixed_points(self, rng):
        for _ in range(20):
            ph = random_permutation(64, rng)
            assert ph.total_messages == 64
            assert ph.is_partial_permutation
            assert not np.any(ph.src == ph.dst)

    def test_partial_permutation_counts(self, rng):
        ph = random_partial_permutation(64, 10, rng)
        assert ph.total_messages == 10
        assert ph.h_s <= 1 and ph.h_r <= 1

    def test_partial_permutation_bounds(self, rng):
        with pytest.raises(CalibrationError):
            random_partial_permutation(64, 0, rng)
        with pytest.raises(CalibrationError):
            random_partial_permutation(64, 65, rng)

    def test_h_relation_is_full(self, rng):
        ph = random_h_relation(64, 5, rng)
        rel = ph.relation()
        assert rel.is_full_h_relation(64)
        assert rel.h == 5

    def test_one_h_relation_shape(self, rng):
        ph = one_h_relation(1024, 8, rng)
        assert ph.h_s == 1
        assert ph.h_r == 8
        assert ph.total_messages == 1024

    def test_one_h_relation_uneven_tail(self, rng):
        # h that does not divide P: the last destination gets fewer
        ph = one_h_relation(1024, 3, rng)
        assert ph.total_messages == 1024
        assert ph.h_r == 3

    def test_multinode_scatter_balanced(self, rng):
        ph = multinode_scatter(64, 32, rng)
        assert ph.senders == 8
        assert ph.h_s == 32
        # receivers exclude the senders and are balanced
        assert ph.recvs_per_proc[:8].sum() == 0
        assert ph.h_r <= -(-8 * 32 // 56) + 1

    @given(st.integers(1, 64))
    @settings(max_examples=20, deadline=None)
    def test_one_h_relation_any_h(self, h):
        rng = np.random.default_rng(h)
        ph = one_h_relation(1024, h, rng)
        assert ph.total_messages == 1024


class TestExperiments:
    def test_series_shape(self, rng):
        m = GCel(seed=0)
        s = full_h_relation_experiment(m, [1, 2, 4], trials=2, rng=rng)
        assert s.xs.tolist() == [1, 2, 4]
        assert np.all(s.lo <= s.mean) and np.all(s.mean <= s.hi)

    def test_one_h_series_increasing(self, rng):
        m = MasParMP1(seed=0)
        s = one_h_relation_experiment(m, [1, 8, 32], trials=5, rng=rng)
        assert s.mean[0] < s.mean[1] < s.mean[2]

    def test_hh_sync_variant_includes_barriers(self, rng):
        plain = hh_permutation_experiment(GCel(seed=1), [100], rng=rng,
                                          sync_every=None, trials=2)
        rng2 = np.random.default_rng(1)
        synced = hh_permutation_experiment(GCel(seed=1), [100], rng=rng2,
                                           sync_every=10, trials=2)
        # below the drift window, barriers only add overhead (10 barriers
        # = 51 ms, far above the per-run timing jitter)
        assert synced.mean[0] > plain.mean[0] + 5 * 5100

    @pytest.mark.parametrize("sync_every", [None, 64])
    def test_hh_sweep_builds_one_pricer(self, rng, monkeypatch, sync_every):
        """Every chunk of every trial is priced by one pricer."""
        m = GCel(seed=0)
        calls = []
        build = m.comm_time_batch

        def spy(phases):
            calls.append(len(phases))
            return build(phases)

        monkeypatch.setattr(m, "comm_time_batch", spy)
        hh_permutation_experiment(m, [100, 300], rng=rng,
                                  sync_every=sync_every, trials=2)
        assert calls == [4 if sync_every is None else 2 * (2 + 5)]

    def test_time_phase_positive(self, rng):
        m = GCel(seed=0)
        assert time_phase(m, random_permutation(64, rng)) > 0

    def test_timing_series_validation(self):
        with pytest.raises(CalibrationError):
            TimingSeries(name="x", xs=np.array([1.0, 2.0]),
                         mean=np.array([1.0]))


#: every Section 3 sweep with an out-of-range argument, as (sweep, xs,
#: extra keyword arguments; ``trials`` defaults to 2); a bad x may
#: follow good ones
BAD_SWEEPS = [
    (one_h_relation_experiment, [4, 0], {}),
    (one_h_relation_experiment, [-3], {}),
    (partial_permutation_experiment, [8, 0], {}),
    (partial_permutation_experiment, [65], {}),
    (full_h_relation_experiment, [2, 0], {}),
    (full_h_relation_experiment, [-1], {}),
    (block_permutation_experiment, [64, -1], {}),
    (block_permutation_experiment, [-8], {"barrier": False}),
    (multinode_scatter_experiment, [4, 0], {}),
    (hh_permutation_experiment, [0], {}),
    (hh_permutation_experiment, [4, 0], {"sync_every": 4}),
    (hh_permutation_experiment, [8], {"sync_every": 0}),
] + [
    (sweep, [4], {"trials": trials})
    for sweep in (one_h_relation_experiment, partial_permutation_experiment,
                  full_h_relation_experiment, block_permutation_experiment,
                  multinode_scatter_experiment, hh_permutation_experiment)
    for trials in (0, -1)
]


class TestInputChecks:
    """Out-of-range sweep arguments are rejected before any draw."""

    @pytest.mark.parametrize(
        "sweep, xs, kwargs", BAD_SWEEPS,
        ids=[f"{f.__name__}-{xs}-{kw}" for f, xs, kw in BAD_SWEEPS])
    def test_sweep_rejects_bad_input(self, sweep, xs, kwargs):
        m = CM5(seed=0)
        rng = np.random.default_rng(0)
        pattern_state = rng.bit_generator.state
        machine_state = m.rng.bit_generator.state
        with pytest.raises(CalibrationError):
            sweep(m, xs, rng=rng, **{"trials": 2, **kwargs})
        assert rng.bit_generator.state == pattern_state
        assert m.rng.bit_generator.state == machine_state

    @pytest.mark.parametrize("generate", [
        lambda rng: random_permutation(64, rng, -4),
        lambda rng: random_h_relation(64, 0, rng),
        lambda rng: one_h_relation(64, 0, rng),
        lambda rng: multinode_scatter(64, 0, rng),
        lambda rng: random_partial_permutation(64, 8, rng, -4),
    ], ids=["permutation", "h-relation", "one-h", "scatter", "partial"])
    def test_public_generators_inherit_the_checks(self, generate):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(CalibrationError):
            generate(rng)
        assert rng.bit_generator.state == state


SWEEPS = (one_h_relation_experiment, partial_permutation_experiment,
          full_h_relation_experiment, block_permutation_experiment,
          multinode_scatter_experiment, hh_permutation_experiment)

MACHINES = (MasParMP1, GCel, CM5, T800Grid, ModernCluster)


class TestEmptySweeps:
    """A sweep over no x values returns an empty series and draws
    nothing from either the pattern RNG or the machine RNG."""

    @pytest.mark.parametrize("machine", MACHINES,
                             ids=[m.name for m in MACHINES])
    @pytest.mark.parametrize("sweep", SWEEPS,
                             ids=[f.__name__ for f in SWEEPS])
    def test_empty_xs(self, sweep, machine):
        m = machine(seed=0)
        rng = np.random.default_rng(0)
        pattern_state = rng.bit_generator.state
        machine_state = m.rng.bit_generator.state
        series = sweep(m, [], rng=rng, trials=2)
        assert series.xs.size == series.mean.size == 0
        assert series.lo.size == series.hi.size == 0
        assert rng.bit_generator.state == pattern_state
        assert m.rng.bit_generator.state == machine_state


class TestSweepBlocks:
    """A sweep prices its phases in blocks of at most ``BLOCK_ROWS``
    rows, one pricer per block, and its result does not depend on
    where the blocks split."""

    def _spy(self, monkeypatch, m):
        built = []
        build = m.comm_time_batch

        def spy(stack, idx=None):
            built.append((len(stack), stack.size))
            return build(stack, idx)

        monkeypatch.setattr(m, "comm_time_batch", spy)
        return built

    def test_each_pricer_takes_at_most_the_budget(self, monkeypatch):
        m = CM5(P=64, seed=0)
        built = self._spy(monkeypatch, m)
        monkeypatch.setattr(microbench, "BLOCK_ROWS", 200)
        full_h_relation_experiment(m, [1, 2, 3, 5], trials=3,
                                   rng=np.random.default_rng(0))
        # phases of 64, 128, 192 and 320 rows, three of each: blocks are
        # filled greedily, and a phase over the budget is priced alone
        assert built == [(3, 192)] + [(1, 128)] * 3 + [(1, 192)] * 3 \
            + [(1, 320)] * 3
        assert all(rows <= 200 or n == 1 for n, rows in built)

    @pytest.mark.parametrize("budget", [1, 64, 150, 1 << 16])
    def test_result_does_not_depend_on_the_budget(self, monkeypatch,
                                                  budget):
        """Block permutations of two sizes: a block must price its own
        rows, and every phase once."""
        def sweep():
            m = T800Grid(P=16, seed=3)
            rng = np.random.default_rng(4)
            s = block_permutation_experiment(m, [8, 4096, 64], trials=3,
                                             rng=rng)
            return (s.mean.tolist(), s.lo.tolist(), s.hi.tolist(),
                    rng.bit_generator.state, m.rng.bit_generator.state)

        whole = sweep()
        monkeypatch.setattr(microbench, "BLOCK_ROWS", budget)
        assert sweep() == whole

    def test_empty_and_invalid_sweeps_build_no_pricer(self, monkeypatch):
        m = MasParMP1(P=64, seed=0)
        built = self._spy(monkeypatch, m)
        monkeypatch.setattr(microbench, "BLOCK_ROWS", 1)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        series = one_h_relation_experiment(m, [], trials=3, rng=rng)
        assert series.xs.size == series.mean.size == 0
        with pytest.raises(CalibrationError):
            one_h_relation_experiment(m, [1, 2], trials=0, rng=rng)
        assert rng.bit_generator.state == state
        assert built == []

    def test_fig1_sweep_peak_memory(self):
        """Fig. 1's sweep (614,400 rows) stays far below the 100 MiB it
        traced as one stack."""
        m = MasParMP1(seed=0)
        rng = np.random.default_rng(0)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            one_h_relation_experiment(m, [1, 2, 4, 8, 16, 32], trials=100,
                                      rng=rng)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 40 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"
