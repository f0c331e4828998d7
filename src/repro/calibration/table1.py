"""Re-derive Table 1 from simulated microbenchmarks.

This reproduces the paper's Section 3 end-to-end: the (MP-)BSP parameters
``(g, L)`` are fitted from 1-h relations (MasPar) or random full
h-relations (GCel, CM-5), the MP-BPRAM parameters ``(sigma, ell)`` from
full block permutations, the MasPar ``T_unb`` law from partial
permutations, and the GCel ``g_mscat`` from multinode scatters.  The
fitted values — not the published ones — are what the experiment modules
feed into the predictions, so the whole validation pipeline runs the way
the paper ran it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..core.errors import CalibrationError
from ..core.params import ModelParams, UnbalancedCost, paper_params
from ..machines import make_machine
from ..machines.base import Machine, state_key
from .fitting import LineFit, fit_line, fit_unbalanced
from .microbench import (
    block_permutation_experiment,
    full_h_relation_experiment,
    multinode_scatter_experiment,
    one_h_relation_experiment,
    partial_permutation_experiment,
)

__all__ = [
    "Calibration",
    "calibrate",
    "calibration_for",
    "calibrate_all",
    "calibration_memo_stats",
    "clear_calibration_memo",
    "render_table1",
]


@dataclass
class Calibration:
    """Everything a machine calibration produced."""

    machine: str
    params: ModelParams           # fitted g, L, sigma, ell (alpha etc. nominal)
    g_fit: LineFit
    block_fit: LineFit
    unb: UnbalancedCost | None = None
    unb_r2: float | None = None
    g_scatter: float | None = None
    notes: dict = field(default_factory=dict)

    def summary_row(self) -> tuple:
        p = self.params
        return (self.machine, p.P, round(p.g, 1), round(p.L, 0),
                round(p.sigma, 2), round(p.ell, 0))


def _h_sweep(machine: Machine) -> np.ndarray:
    if machine.name == "maspar":
        return np.array([1, 2, 4, 8, 16, 32])
    return np.array([1, 2, 4, 8, 16, 32, 64])


def _block_sweep(machine: Machine) -> np.ndarray:
    # a moderate size range keeps the intercept (ell) well conditioned:
    # with multiplicative timing noise, one huge point would dominate the
    # unweighted fit and swing the intercept by far more than ell itself
    if machine.name == "cm5":
        return np.array([256, 512, 1024, 2048, 4096, 8192])
    if machine.name == "maspar":
        return np.array([192, 256, 384, 512, 768, 1024, 2048])
    return np.array([192, 256, 512, 1024, 2048, 4096])


def _fit(machine: Machine, seed: int, trials: int) -> Calibration:
    """Run the Section 3 microbenchmarks on ``machine`` and fit Table 1."""
    rng = np.random.default_rng(seed)

    # (g, L): the MasPar is single-port, so the paper times 1-h relations
    # there; the MIMD machines get random full h-relations.
    if machine.simd:
        series_g = one_h_relation_experiment(machine, _h_sweep(machine),
                                             trials=trials, rng=rng)
    else:
        series_g = full_h_relation_experiment(machine, _h_sweep(machine),
                                              trials=max(3, trials // 2),
                                              rng=rng)
    g_fit = fit_line(series_g)

    # (sigma, ell): full block permutations.  On the MIMD machines a
    # pairwise block exchange synchronises through its matching receive,
    # so no barrier is timed (the paper's ell has no L component).
    series_b = block_permutation_experiment(machine, _block_sweep(machine),
                                            trials=max(3, trials // 2),
                                            rng=rng,
                                            barrier=machine.simd)
    block_fit = fit_line(series_b)

    nominal = machine.nominal
    params = nominal.with_updates(
        g=g_fit.slope, L=max(0.0, g_fit.intercept),
        sigma=block_fit.slope, ell=max(0.0, block_fit.intercept))

    cal = Calibration(machine=machine.name, params=params, g_fit=g_fit,
                      block_fit=block_fit)

    if machine.simd:
        actives = np.unique(np.geomspace(8, machine.P, 12).astype(int))
        series_u = partial_permutation_experiment(machine, actives,
                                                  trials=trials, rng=rng)
        try:
            cal.unb, cal.unb_r2 = fit_unbalanced(series_u)
        except CalibrationError:
            if not machine.disabled:
                raise
            # An ablated router can flatten T_unb(P') below fittability
            # (e.g. the partial-permutation law switched off makes every
            # step cost the full-permutation price, so the linear term
            # fits slightly negative).  E-BSP then simply has no
            # calibration on this configuration — the scoreboard drops
            # it, mirroring the machines where unb never fits.
            cal.notes["unb_fit"] = "unfittable on ablated machine"

    if machine.name == "gcel":
        hs = np.array([16, 32, 64, 128, 256])
        series_s = multinode_scatter_experiment(machine, hs, trials=5,
                                                rng=rng)
        cal.g_scatter = fit_line(series_s).slope

    cal.notes["g_r2"] = g_fit.r2
    cal.notes["block_r2"] = block_fit.r2
    return cal


# ----------------------------------------------------------------------
# Fit memoisation.  One whole-paper sweep asks for the same Table 1 fits
# dozens of times (every figure calibrates its machine), and an ablation
# matrix re-fits each ablated machine for every cell run on it; the memo
# computes each (machine state, RNG state, seed, trials) combination once
# per process.  The machine state is `state_key`: its class and every
# instance attribute but the RNG, so an ablated machine never aliases the
# full one.  Returned objects are shared: treat them as frozen.
#
# The memo keeps the _MEMO_SIZE most recently used fits.  A seed-0
# `repro run --all` uses 8 keys and a `repro ablate` matrix 14; a server
# adds one per fresh-seed predict and would otherwise grow for its whole
# life.  An eviction costs only a re-fit, which is observationally
# identical to the hit it replaces.
# ----------------------------------------------------------------------

_MEMO_SIZE = 64
#: key -> (fit, the machine's RNG state after the fit)
_MEMO: "OrderedDict[tuple, tuple[Calibration, dict]]" = OrderedDict()
_MEMO_STATS = {"hits": 0, "misses": 0}
# the service calibrates on several executor threads at once
_MEMO_LOCK = threading.Lock()


def calibrate(machine: Machine, *, seed: int = 0,
              trials: int = 10) -> Calibration:
    """Run the Section 3 microbenchmarks on ``machine`` and fit Table 1.

    Memoised per process.  A fit depends on the machine's state
    (:func:`~repro.machines.base.state_key`), its RNG state, ``seed``
    and ``trials`` alone, and the memo keeps it together with the RNG
    state it leaves behind.  A hit restores that state, so the machine
    goes on to draw exactly what it would after fitting afresh.  A
    machine without a state key is fitted on every call.
    """
    key = state_key(machine, rng=True)
    if key is not None:
        key = (key, seed, trials)
        with _MEMO_LOCK:
            entry = _MEMO.get(key)
            if entry is not None:
                _MEMO.move_to_end(key)
                _MEMO_STATS["hits"] += 1
        if entry is not None:
            cal, rng_state = entry
            machine.rng.bit_generator.state = rng_state
            return cal
    with _MEMO_LOCK:
        _MEMO_STATS["misses"] += 1
    cal = _fit(machine, seed, trials)
    if key is not None:
        with _MEMO_LOCK:
            _MEMO[key] = (cal, machine.rng.bit_generator.state)
            if len(_MEMO) > _MEMO_SIZE:
                _MEMO.popitem(last=False)
    return cal


def calibration_for(name: str, *, P: int | None = None, machine_seed: int = 0,
                    seed: int = 0, trials: int = 10) -> Calibration:
    """Calibration of a freshly constructed machine: :func:`make_machine`
    (``seed=machine_seed``, at partition ``P`` if given), then
    :func:`calibrate`, whose memo makes a repeat a hit."""
    kwargs = {} if P is None else {"P": P}
    return calibrate(make_machine(name, seed=machine_seed, **kwargs),
                     seed=seed, trials=trials)


def calibration_memo_stats() -> dict[str, int]:
    """Copy of the process-wide memo hit/miss counters (a machine
    without a state key counts a miss per fit)."""
    with _MEMO_LOCK:
        return dict(_MEMO_STATS)


def clear_calibration_memo() -> None:
    """Drop every memoised calibration and reset the counters."""
    with _MEMO_LOCK:
        _MEMO.clear()
        _MEMO_STATS["hits"] = _MEMO_STATS["misses"] = 0


def calibrate_all(*, seed: int = 0, trials: int = 10) -> dict[str, Calibration]:
    """Calibrate the three paper machines (memoised per process)."""
    return {name: calibration_for(name, machine_seed=seed + i, seed=seed,
                                  trials=trials)
            for i, name in enumerate(("maspar", "gcel", "cm5"))}


def render_table1(cals: dict[str, Calibration]) -> str:
    """Text rendering of Table 1: fitted vs published parameters."""
    header = (f"{'Architecture':<14}{'P':>6}{'g':>10}{'L':>10}"
              f"{'sigma':>10}{'ell':>10}")
    lines = ["Table 1 — (MP-)BSP and MP-BPRAM parameters (microseconds)",
             header, "-" * len(header)]
    for name, cal in cals.items():
        p = cal.params
        lines.append(f"{name:<14}{p.P:>6}{p.g:>10.1f}{p.L:>10.0f}"
                     f"{p.sigma:>10.2f}{p.ell:>10.0f}")
        pub = paper_params(name)
        lines.append(f"{'  (paper)':<14}{pub.P:>6}{pub.g:>10.1f}"
                     f"{pub.L:>10.0f}{pub.sigma:>10.2f}{pub.ell:>10.0f}")
    return "\n".join(lines)
