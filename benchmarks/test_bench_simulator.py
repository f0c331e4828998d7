"""Engine-level benchmarks: raw simulator throughput.

Not a paper artifact — these guard the harness itself against
performance regressions (pattern analysis, machine pricing, SPMD
scheduling), which directly bound how large the figure sweeps can be.
"""

import numpy as np

from repro.algorithms import bitonic, matmul
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
