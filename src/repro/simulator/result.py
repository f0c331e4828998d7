"""Result of one SPMD simulation run."""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.trace import Trace

__all__ = ["RunResult"]


class RunResult:
    """What :func:`repro.simulator.run_spmd` returns.

    ``time_us`` is the virtual wall-clock of the run (maximum final
    processor clock); ``clocks`` the per-processor finish times;
    ``returns`` the per-processor return values of the SPMD program
    (used for end-to-end correctness checks); ``inputs`` the data the
    algorithm drew for the run (``None`` when it draws none); ``trace``
    the superstep trace that cost models can re-price.

    ``returns`` and ``inputs`` may each be set to a zero-argument
    callable: it is then materialised on first access.
    The IR engine uses this so a replayed run only draws its inputs and
    pays its (pricing-free) data pass when someone actually reads them —
    most experiments never do.  Program return values are per-rank data
    lists and inputs are arrays, never bare callables, so the two cases
    cannot collide.
    """

    def __init__(self, time_us: float, clocks: np.ndarray, trace: Trace,
                 returns: Any = None):
        self.time_us = time_us
        self.clocks = clocks
        self.trace = trace
        self._returns = [] if returns is None else returns
        self._inputs: Any = None

    @property
    def returns(self) -> list[Any]:
        if callable(self._returns):
            self._returns = self._returns()
        return self._returns

    @returns.setter
    def returns(self, value: Any) -> None:
        self._returns = [] if value is None else value

    @property
    def inputs(self) -> Any:
        if callable(self._inputs):
            self._inputs = self._inputs()
        return self._inputs

    @inputs.setter
    def inputs(self, value: Any) -> None:
        self._inputs = value

    @property
    def P(self) -> int:
        return self.trace.P

    @property
    def time_ms(self) -> float:
        return self.time_us / 1e3

    @property
    def time_s(self) -> float:
        return self.time_us / 1e6

    def profile(self) -> dict[str, float]:
        """Virtual time by superstep-label family (largest first).

        The guides' first rule — no optimisation without measuring —
        applied to virtual time; see
        :mod:`repro.validation.attribution` for the model-error variant.
        """
        from ..validation.attribution import time_by_label

        return time_by_label(self.trace)
