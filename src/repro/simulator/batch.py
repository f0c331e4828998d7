"""Machine pricing of recorded work, shared by every engine.

The inner loop the paper's big sweeps used to pay for —
``sum(machine.compute_time(w, rank) for w in items)`` per processor per
superstep — is replaced here by array pricing of a superstep's
:class:`~repro.core.work.StepWork` record: each same-kind batch is priced
through :meth:`Machine.compute_time_batch` as parameter vectors, the
prices are gathered into rank-major order, jittered with *one* vectorised
noise draw, and accumulated into the clocks.

Bit-identity contract (the golden figures depend on it):

* per-item deterministic prices are the same IEEE operations whichever
  engine recorded the batch (:meth:`Machine.compute_time` is the
  one-item view of the same function);
* the noise stream is consumed in flat ``(rank, charge-order)`` item
  order — ``rng.normal(size=n)`` draws the same sequence as ``n``
  scalar ``rng.normal()`` calls;
* per-rank totals are summed left-to-right over a rank's items, then
  added to the clock once, exactly like the scalar
  ``clocks[rank] += sum(...)``.
"""

from __future__ import annotations

import numpy as np

from ..core.work import StepWork, _accumulate

__all__ = ["charge_batches", "price_batches"]


def price_batches(machine, work: StepWork) -> np.ndarray:
    """Deterministic per-item prices of ``work``, in rank-major order."""
    return work.prices(
        lambda b: machine.compute_time_batch(b.kind, b.params, b.ranks))


def charge_batches(machine, work: StepWork, clocks: np.ndarray) -> None:
    """Charge one superstep's work to ``clocks``, noise included.

    The generator engine charges through here; replay applies the same
    prices, noise draw and clock update to the prices it caches per
    batch list, so the work costs the same whichever program emitted it.
    """
    if not work:
        return
    times = price_batches(machine, work)
    if machine.compute_noise:
        times = times * (1.0 + machine.rng.normal(
            0.0, machine.compute_noise, size=times.size))
    _accumulate(clocks, work.ranks, times)
