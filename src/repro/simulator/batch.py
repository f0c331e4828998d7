"""Machine pricing of recorded work, for replay.

The inner loop the paper's big sweeps used to pay for —
``sum(machine.compute_time(w, rank) for w in items)`` per processor per
superstep — is replaced here by array pricing of a superstep's
:class:`~repro.core.work.StepWork` record in two steps.
:func:`price_batches` prices each same-kind batch through
:meth:`Machine.compute_time_batch` as parameter vectors and gathers the
prices into rank-major order; replay runs it once per distinct batch
list and caches the result.  :func:`charge_batches` then turns those
cached prices into clock time at each superstep that charges the batch
list: it jitters them with *one* vectorised noise draw and accumulates
them into the clocks.  It is the one place a run's work noise is drawn.

Bit-identity contract (the golden figures depend on it):

* per-item deterministic prices are the same IEEE operations whichever
  batches carry the items (:meth:`Machine.compute_time` is the one-item
  view of the same function);
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


def charge_batches(machine, work: StepWork, times: np.ndarray,
                   clocks: np.ndarray) -> None:
    """Charge one superstep's ``work`` to ``clocks``, noise included.

    ``times`` are the work's deterministic prices
    (:func:`price_batches`); they are jittered with one draw per item,
    in rank-major order, and summed into each rank's clock.
    """
    if machine.compute_noise:
        times = times * (1.0 + machine.rng.normal(
            0.0, machine.compute_noise, size=times.size))
    _accumulate(clocks, work.ranks, times)
