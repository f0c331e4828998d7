"""Communication-layer benchmarks: phase analysis and batched pricing.

Not a paper artifact — these guard the columnar CommPhase analysis and
the machines' ``comm_time_batch`` pricers, the two layers the vector
engine leans on.  A regression here inflates every figure sweep.
"""

import numpy as np

from repro.calibration.microbench import random_h_relation
from repro.core.relations import CommPhase, PhaseStack, merge_phases
from repro.machines import CM5, GCel, MasParMP1


def _fresh_phase(ph: CommPhase) -> CommPhase:
    """Copy a phase so cached_property analysis runs again."""
    return CommPhase(P=ph.P, src=ph.src, dst=ph.dst, count=ph.count,
                     msg_bytes=ph.msg_bytes, step=ph.step,
                     stagger=ph.stagger)


def test_phase_analysis_columnar(benchmark):
    """The full per-phase summary battery on a P=1024 8-relation."""
    rng = np.random.default_rng(0)
    base = random_h_relation(1024, 8, rng)

    def analyse():
        ph = _fresh_phase(base)
        return (ph.h, ph.active_procs, ph.is_partial_permutation,
                ph.cube_bit, ph.max_fan_in, ph.relation)

    benchmark(analyse)


def test_phase_step_split(benchmark):
    """Splitting a 32-step schedule into sub-phases (single-port route)."""
    rng = np.random.default_rng(1)
    P, steps = 1024, 32
    src = np.tile(np.arange(P), steps)
    dst = np.concatenate([rng.permutation(P) for _ in range(steps)])
    step = np.repeat(np.arange(steps), P)
    n = P * steps
    base = CommPhase(P=P, src=src, dst=dst,
                     count=np.ones(n, dtype=np.int64),
                     msg_bytes=np.full(n, 8, dtype=np.int64), step=step)
    benchmark(lambda: len(_fresh_phase(base).split_steps()))


def test_merge_phases_columnar(benchmark):
    rng = np.random.default_rng(2)
    parts = [random_h_relation(1024, 2, rng) for _ in range(16)]
    benchmark(lambda: merge_phases(parts).total_messages)


def _price_batch(machine_cls, P, h, seed):
    """Price 64 phases (8 distinct) through one pricer, as a replay hands
    over its program's phase table and ``phase_idx``."""
    rng = np.random.default_rng(seed)
    uniq = [random_h_relation(P, h, rng) for _ in range(8)]
    idx = [i % len(uniq) for i in range(64)]

    def price():
        pricer = machine_cls(seed=0).comm_time_batch(PhaseStack(uniq), idx)
        clocks = np.zeros(P)
        for i in range(len(idx)):
            clocks = pricer.comm_time(i, clocks)
        return clocks

    return price


def test_maspar_comm_time_batch(benchmark):
    """Batched pricing of 64 P=1024 phases (8 distinct, interned)."""
    benchmark(_price_batch(MasParMP1, 1024, 4, 3))


def test_gcel_comm_time_batch(benchmark):
    benchmark(_price_batch(GCel, 64, 16, 4))


def test_cm5_comm_time_batch(benchmark):
    benchmark(_price_batch(CM5, 64, 16, 5))
