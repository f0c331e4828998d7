"""Model-accuracy scoreboard: Section 5's verdict in one table.

Runs a fixed matrix of (workload, machine) cells, prices each execution
trace under every applicable cost model with *calibrated* parameters,
and tabulates signed errors.  This is the cross-cutting summary the
paper delivers in prose ("the models do not accurately predict the
actual running time ... in the following circumstances"): one glance
shows which model breaks on which machine and why.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..algorithms import apsp, bitonic, matmul, radix
from ..calibration.table1 import Calibration, calibrate
from ..core.base import CostModel
from ..core.bpram import MPBPRAM
from ..core.bsf import BSF
from ..core.bsp import BSP
from ..core.ebsp import EBSP
from ..core.logp import LogGP, logp_from_table1
from ..core.mp_bsp import MPBSP
from ..core.pram import PRAM
from ..machines import make_machine

__all__ = ["Cell", "CellSpec", "CELL_SPECS", "Scoreboard",
           "build_scoreboard", "render_scoreboard", "run_cell"]


@dataclass
class Cell:
    """One (workload, machine, model) measurement."""

    workload: str
    machine: str
    model: str
    measured_us: float
    predicted_us: float

    @property
    def error(self) -> float:
        """Signed relative error (positive = model overestimates)."""
        return (self.predicted_us - self.measured_us) / self.measured_us

    def to_dict(self) -> dict:
        """JSON-safe form (used by the service's ``POST /compare``)."""
        return {"workload": self.workload, "machine": self.machine,
                "model": self.model, "measured_us": self.measured_us,
                "predicted_us": self.predicted_us, "error": self.error}


@dataclass
class Scoreboard:
    cells: list[Cell] = field(default_factory=list)
    #: workload -> attained-vs-optimal entry from :mod:`repro.bounds`
    #: (empty when the board was built without the optimality column).
    optimality: dict[str, dict] = field(default_factory=dict)

    def models(self) -> list[str]:
        seen: list[str] = []
        for c in self.cells:
            if c.model not in seen:
                seen.append(c.model)
        return seen

    def rows(self) -> list[tuple[str, str]]:
        seen: list[tuple[str, str]] = []
        for c in self.cells:
            key = (c.workload, c.machine)
            if key not in seen:
                seen.append(key)
        return seen

    def error(self, workload: str, machine: str, model: str) -> float | None:
        for c in self.cells:
            if (c.workload, c.machine, c.model) == (workload, machine, model):
                return c.error
        return None

    def worst_model(self) -> str:
        """The model with the largest mean |error|.

        Instructively, this is *not* PRAM: applying a more restrictive
        communication abstraction to the wrong machine overcharges far
        worse than ignoring communication altogether — MP-BSP on the
        block-transfer GCel by two orders of magnitude, and BSF (which
        relays every transfer through a master) by four to six on every
        direct-network machine.
        """
        means = {m: np.mean([abs(c.error) for c in self.cells
                             if c.model == m]) for m in self.models()}
        return max(means, key=means.get)  # type: ignore[arg-type]


def _models_for(cal: Calibration) -> list[CostModel]:
    params = cal.params
    out: list[CostModel] = [PRAM(params), BSP(params), MPBSP(params),
                            MPBPRAM(params),
                            LogGP(params, logp_from_table1(params)),
                            BSF(params)]
    if cal.unb is not None:
        out.append(EBSP(params, cal.unb))
    return out


@dataclass(frozen=True)
class CellSpec:
    """One (workload, machine) cell of the scoreboard matrix.

    ``runner(machine, scale, seed)`` executes the workload on an
    already-constructed machine; keeping machine construction out of the
    spec lets :func:`run_cell` build the machine with phenomena switched
    off (the ablation harness, :mod:`repro.ablation`).
    """

    name: str
    machine: str
    runner: Callable  # (machine, scale, seed) -> RunResult


#: the scoreboard's workload matrix, in render order.
CELL_SPECS: dict[str, CellSpec] = {spec.name: spec for spec in [
    CellSpec("matmul", "cm5",
             lambda m, scale, seed: matmul.run(
                 m, max(64, int(256 * scale) // 16 * 16),
                 variant="bsp-staggered", seed=seed)),
    CellSpec("matmul-blk", "cm5",
             lambda m, scale, seed: matmul.run(
                 m, max(64, int(256 * scale) // 16 * 16),
                 variant="bpram", seed=seed)),
    CellSpec("bitonic", "maspar",
             lambda m, scale, seed: bitonic.run(
                 m, max(8, int(32 * scale) // 8 * 8),
                 variant="bsp", seed=seed)),
    CellSpec("bitonic-blk", "gcel",
             lambda m, scale, seed: bitonic.run(
                 m, max(256, int(1024 * scale) // 256 * 256),
                 variant="bpram", seed=seed)),
    CellSpec("apsp", "gcel",
             lambda m, scale, seed: apsp.run(
                 m, max(32, int(128 * scale) // 32 * 32), seed=seed)),
    CellSpec("radix", "modern",
             lambda m, scale, seed: radix.run(
                 m, max(256, int(1024 * scale) // 256 * 256),
                 variant="bpram", seed=seed)),
]}


def run_cell(name: str, *, scale: float = 1.0, seed: int = 0,
             disable: tuple[str, ...] = ()) -> list[Cell]:
    """Run one scoreboard cell and price its trace under every model.

    ``disable`` switches machine phenomena off (they must belong to the
    cell's machine — see ``Machine.PHENOMENA``).  Calibration runs on
    the *ablated* machine: removing a phenomenon changes the measured
    world, and the models are re-fitted to it just as they were fitted
    to the real one.  The fit is memoised per machine state
    (:func:`~repro.calibration.table1.calibrate`): each cell of one
    (machine, ``disable``, ``seed``) configuration after the first
    reuses it, and the memo restores the RNG state the fit left, so the
    run draws what it would after fitting afresh.  With ``disable=()``
    this is bit-identical to the cell's slice of
    :func:`build_scoreboard`.
    """
    spec = CELL_SPECS[name]
    machine = make_machine(spec.machine, seed=seed, disable=tuple(disable))
    cal = calibrate(machine, seed=seed)
    res = spec.runner(machine, scale, seed)
    return [Cell(workload=spec.name, machine=spec.machine, model=model.name,
                 measured_us=res.time_us,
                 predicted_us=model.trace_cost(res.trace))
            for model in _models_for(cal)]


def build_scoreboard(*, scale: float = 1.0, seed: int = 0,
                     optimality: bool = True) -> Scoreboard:
    """Run the workload matrix and price every trace under every model.

    ``optimality=True`` additionally fills the attained-vs-optimal
    column from :mod:`repro.bounds`.  Under the default IR engine the
    cell runs above have just recorded their step programs, so the
    column is a pure structure extraction — no extra simulation.
    """
    board = Scoreboard()
    for name in CELL_SPECS:
        board.cells.extend(run_cell(name, scale=scale, seed=seed))
    if optimality:
        # imported lazily: repro.bounds imports the algorithm modules,
        # and the scoreboard must stay importable on its own.
        from ..bounds import scoreboard_optimality
        board.optimality = scoreboard_optimality(scale=scale, seed=seed)
    return board


def render_scoreboard(board: Scoreboard) -> str:
    """Text table: rows = (workload, machine), columns = models.

    The trailing ``att/opt`` column reports the workload's measured
    communication volume over its analytic lower bound (the optimality
    scoreboard, ``repro bounds``); ``-`` where no bound cell matches.
    """
    models = board.models()
    head = f"{'workload':<14}{'machine':<9}" + "".join(
        f"{m:>11}" for m in models) + f"{'att/opt':>10}"
    lines = ["Signed prediction error (positive = model overestimates)",
             head, "-" * len(head)]
    for workload, machine in board.rows():
        row = f"{workload:<14}{machine:<9}"
        for model in models:
            err = board.error(workload, machine, model)
            row += f"{'-':>11}" if err is None else f"{err:>+10.0%} "
        opt = board.optimality.get(workload)
        row += f"{'-':>10}" if opt is None else f"{opt['ratio']:>9.1f}x"
        lines.append(row)
    lines.append("")
    lines.append(f"least faithful model overall: {board.worst_model()}")
    return "\n".join(lines)
