"""Bit-identity anchors of the ablation harness.

Two properties make every importance number trustworthy:

* **all-ON is the scoreboard** — with nothing disabled, ``run_cell`` and
  the ablation baseline reproduce the un-ablated validation scoreboard
  byte for byte, so `importance` deltas are measured against the real
  thing, not a parallel implementation; and each cell still measures
  and prices what ``tests/golden/ablate.json`` pinned for it;
* **non-touch** — running ablated work for one machine perturbs no
  other cell's bytes (no shared RNG, memo or module state), which is
  what licenses the run-matrix pruning.
"""

import json
from pathlib import Path

import pytest

from repro.ablation.api import _cell_doc
from repro.bounds.cells import SCOREBOARD_CELLS
from repro.core.errors import SimulationError
from repro.machines import make_machine
from repro.validation.scoreboard import build_scoreboard, run_cell

SCALE, SEED = 0.3, 0
GOLDEN = Path(__file__).parents[1] / "golden" / "ablate.json"


@pytest.fixture(scope="module")
def fresh():
    """Scoreboard cell name -> its un-ablated ``run_cell`` result."""
    return {name: run_cell(name, scale=SCALE, seed=SEED, disable=())
            for name in SCOREBOARD_CELLS}


class TestAllPhenomenaOn:
    def test_baseline_reproduces_unablated_scoreboard(self, fresh):
        """disable=() is bit-identical to build_scoreboard, cell by cell."""
        board = build_scoreboard(scale=SCALE, seed=SEED)
        assert [c.to_dict() for cells in fresh.values() for c in cells] \
            == [c.to_dict() for c in board.cells]

    def test_each_cell_matches_the_ablation_golden(self, fresh):
        """Each cell runs the workload, machine and size the golden
        baseline measured: the same measured time and per-model errors,
        so a cell bound to the wrong run fails here in tier 1."""
        golden = json.loads(GOLDEN.read_text())
        assert (golden["scale"], golden["seed"]) == (SCALE, SEED)
        per_cell = golden["report"]["baseline"]["per_cell"]
        assert set(per_cell) == set(fresh)
        for name, cells in fresh.items():
            assert cells[0].measured_us == per_cell[name]["measured_us"], \
                name
            assert {c.model: c.error for c in cells} \
                == per_cell[name]["errors"], name

    def test_ablated_run_differs_on_its_cell(self):
        base = _cell_doc("apsp", (), SCALE, SEED)
        ablated = _cell_doc("apsp", ("sync-loss",), SCALE, SEED)
        assert base != ablated
        assert base["disable"] == [] and ablated["disable"] == ["sync-loss"]


class TestNonTouch:
    def test_ablated_cm5_run_leaves_other_machines_untouched(self):
        """Cells the component provably does not touch keep their exact
        bytes even when ablated runs execute in the same process."""
        before = {cell: _cell_doc(cell, (), SCALE, SEED)
                  for cell in ("bitonic", "apsp")}
        _cell_doc("matmul", ("cache-effects", "endpoint-contention"),
                  SCALE, SEED)
        after = {cell: _cell_doc(cell, (), SCALE, SEED)
                 for cell in ("bitonic", "apsp")}
        assert before == after

    def test_foreign_phenomenon_is_rejected_not_ignored(self):
        """A disable that names another machine's phenomenon is an error
        — silently ignoring it would make the pruning unsound."""
        with pytest.raises(SimulationError, match="sync-loss"):
            run_cell("matmul", scale=SCALE, seed=SEED,
                     disable=("sync-loss",))


class TestAblatedCalibration:
    def test_unknown_phenomenon_rejected_at_construction(self):
        with pytest.raises(SimulationError, match="bogus"):
            make_machine("gcel", disable=("bogus",))

    def test_partial_permutation_ablation_drops_ebsp(self):
        """With the T_unb law off, the unbalanced fit becomes unphysical;
        the calibration degrades gracefully and the scoreboard simply
        loses E-BSP for that configuration instead of crashing."""
        base_models = {c.model for c in
                       run_cell("bitonic", scale=SCALE, seed=SEED)}
        abl_models = {c.model for c in
                      run_cell("bitonic", scale=SCALE, seed=SEED,
                               disable=("partial-permutation",))}
        assert "e-bsp" in base_models
        assert abl_models == base_models - {"e-bsp"}
