"""Engine-level benchmarks: raw simulator throughput.

Not a paper artifact — these guard the harness itself against
performance regressions (pattern analysis, machine pricing, SPMD
scheduling), which directly bound how large the figure sweeps can be.
"""

import numpy as np

from repro.algorithms import apsp, bitonic, matmul, samplesort
from repro.calibration.microbench import random_h_relation, time_phase
from repro.calibration.table1 import calibration_for
from repro.machines import CM5, GCel, MasParMP1
from repro.simulator import run_spmd
from repro.simulator.ir import IRStore, ir_store_scope
from repro.validation.scoreboard import _models_for


def test_engine_superstep_throughput(benchmark):
    machine = CM5(seed=0)

    def prog(ctx):
        for step in range(50):
            ctx.put((ctx.rank + 1) % ctx.P, step, nbytes=8, tag=step)
            yield ctx.sync()
            ctx.get(tag=step)

    benchmark(lambda: run_spmd(machine, prog))


def test_maspar_phase_pricing(benchmark):
    machine = MasParMP1(seed=0)
    rng = np.random.default_rng(0)
    phases = [random_h_relation(1024, 4, rng) for _ in range(10)]
    benchmark(lambda: [time_phase(machine, ph) for ph in phases])


def test_gcel_phase_pricing(benchmark):
    machine = GCel(seed=0)
    rng = np.random.default_rng(0)
    phases = [random_h_relation(64, 64, rng) for _ in range(10)]
    benchmark(lambda: [time_phase(machine, ph) for ph in phases])


def test_matmul_end_to_end(benchmark):
    machine = CM5(seed=0)
    benchmark(lambda: matmul.run(machine, 64, variant="bpram", seed=0))


def test_bitonic_end_to_end(benchmark):
    machine = GCel(seed=0)
    benchmark(lambda: bitonic.run(machine, 256, variant="bpram", seed=0))


def _record(run):
    """Run with a fresh memory-only IR store, so every round records."""
    with ir_store_scope(IRStore(disk=False)) as store:
        run()
    assert store.recorded == 1


def test_bitonic_record(benchmark):
    """Recording layer: bitonic ``bsp`` on the MasPar at M=256, the
    sweep's (1024 PEs, 256 keys) shape."""
    machine = MasParMP1(seed=0)
    benchmark(_record, lambda: bitonic.run(machine, 256, variant="bsp",
                                           seed=0))


def test_apsp_record(benchmark):
    """Recording layer: APSP on the MasPar at N=512, the largest fig12
    shape (1024 PEs, M=16 < sqrt(P)) — a structure-only pass."""
    machine = MasParMP1(seed=0)
    benchmark(_record, lambda: apsp.run(machine, 512, seed=0))


def test_samplesort_record(benchmark):
    """Recording layer: sample sort on the GCel at M=1024."""
    machine = GCel(seed=0)
    benchmark(_record, lambda: samplesort.run(machine, 1024, seed=0))


def test_trace_cost_all_models(benchmark):
    """Model pricing: a replayed bitonic/MasPar trace (the scoreboard's
    ``bitonic`` cell) priced under every scoreboard model, as the
    ablation matrix does per cell."""
    with ir_store_scope(IRStore()):
        bitonic.run(MasParMP1(seed=0), 32, variant="bsp", seed=0)
        trace = bitonic.run(MasParMP1(seed=1), 32, variant="bsp",
                            seed=0).trace
    models = _models_for(calibration_for("maspar"))
    benchmark(lambda: [model.trace_cost(trace) for model in models])
