"""Run-matrix properties: ID stability, permutation invariance, pruning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ablation import (AblateRequest, canonical_disabled, cell_run_id,
                            resolve_cells, resolve_components, run_matrix)
from repro.ablation.components import COMPONENTS
from repro.ablation.runs import BASELINE
from repro.bounds.cells import SCOREBOARD_CELLS

pytestmark = pytest.mark.fast

component_names = st.sampled_from(sorted(COMPONENTS))
cell_names = st.sampled_from(sorted(SCOREBOARD_CELLS))


def matrix_ids(components, cells, *, scale=0.3, seed=0, fp="fp"):
    runs = run_matrix(resolve_components(components), resolve_cells(cells),
                      scale=scale, seed=seed, fingerprint=fp)
    return {run.run_id for run in runs}


class TestRunIds:
    @given(st.lists(component_names, min_size=1, max_size=8),
           st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_run_id_invariant_under_disable_permutation(self, names, rnd):
        shuffled = list(names)
        rnd.shuffle(shuffled)
        ref = cell_run_id("apsp", names, scale=0.3, seed=0, fingerprint="f")
        assert cell_run_id("apsp", shuffled, scale=0.3, seed=0,
                           fingerprint="f") == ref
        # ...and under duplication: the set is what is hashed
        assert cell_run_id("apsp", list(names) + [names[0]], scale=0.3,
                           seed=0, fingerprint="f") == ref

    @given(st.lists(component_names, min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_canonical_disabled_is_sorted_and_unique(self, names):
        canon = canonical_disabled(names)
        assert list(canon) == sorted(set(names))
        assert canonical_disabled(canon) == canon

    def test_run_id_depends_on_every_identity_field(self):
        base = dict(scale=0.3, seed=0, fingerprint="f")
        ref = cell_run_id("apsp", ("sync-loss",), **base)
        assert cell_run_id("bitonic", ("sync-loss",), **base) != ref
        assert cell_run_id("apsp", (), **base) != ref
        assert cell_run_id("apsp", ("sync-loss",), scale=0.4, seed=0,
                           fingerprint="f") != ref
        assert cell_run_id("apsp", ("sync-loss",), scale=0.3, seed=1,
                           fingerprint="f") != ref
        assert cell_run_id("apsp", ("sync-loss",), scale=0.3, seed=0,
                           fingerprint="g") != ref


class TestMatrix:
    @given(st.lists(component_names, min_size=1, max_size=8, unique=True),
           st.lists(cell_names, min_size=1, max_size=5, unique=True),
           st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_matrix_ids_invariant_under_list_permutation(self, comps,
                                                         cells, rnd):
        """The ISSUE's headline property: naming components or cells in
        a different order selects the *same* run IDs."""
        comps2, cells2 = list(comps), list(cells)
        rnd.shuffle(comps2)
        rnd.shuffle(cells2)
        assert matrix_ids(comps, cells) == matrix_ids(comps2, cells2)

    @given(st.lists(component_names, min_size=1, max_size=8, unique=True),
           st.lists(cell_names, min_size=1, max_size=5, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_matrix_is_pruned_to_same_machine_cells(self, comps, cells):
        runs = run_matrix(resolve_components(comps), resolve_cells(cells),
                          scale=0.3, seed=0, fingerprint="f")
        baseline = [r for r in runs if r.config == BASELINE]
        assert [r.cell for r in baseline] == resolve_cells(cells)
        for run in runs:
            if run.config == BASELINE:
                assert run.disable == ()
            else:
                assert run.disable == (run.config,)
                assert SCOREBOARD_CELLS[run.cell].machine \
                    == COMPONENTS[run.config].machine

    def test_full_matrix_size_is_pruned(self):
        """8 components x 5 cells would be 45 runs dense; pruning leaves
        baseline (5) plus one run per (component, same-machine cell)."""
        runs = run_matrix(resolve_components(None), resolve_cells(None),
                          scale=0.3, seed=0, fingerprint="f")
        expected = len(SCOREBOARD_CELLS) + sum(
            1 for c in COMPONENTS.values() for s in SCOREBOARD_CELLS.values()
            if s.machine == c.machine)
        assert len(runs) == expected \
            < (len(COMPONENTS) + 1) * len(SCOREBOARD_CELLS)


class TestRequestKey:
    @given(st.lists(component_names, min_size=1, max_size=8),
           st.lists(cell_names, min_size=1, max_size=5),
           st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_key_invariant_under_permutation_and_duplication(self, comps,
                                                             cells, rnd):
        comps2, cells2 = list(comps) + [comps[0]], list(cells) + [cells[0]]
        rnd.shuffle(comps2)
        rnd.shuffle(cells2)
        a = AblateRequest(components=tuple(comps), cells=tuple(cells))
        b = AblateRequest(components=tuple(comps2), cells=tuple(cells2))
        assert a.key == b.key

    def test_key_excludes_execution_knobs(self):
        a = AblateRequest()
        b = AblateRequest(jobs=8, cache_dir="/tmp/x", use_cache=False,
                          force=True)
        assert a.key == b.key
