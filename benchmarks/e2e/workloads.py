"""Frozen inputs of the end-to-end benchmark.

Everything a workload feeds the program is written down here rather
than imported from ``src/``, so a change to a default inside the
package can never change what the benchmark measures.  Whatever varies
between runs is drawn from the run's ``--seed`` by :func:`serve_schedule`
and the experiment seed, nothing else.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

#: the 35 registry experiments, in registry order (``record``, ``replay``).
EXPERIMENT_IDS = (
    "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
    "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "fig16", "fig17", "fig18", "fig19", "fig20", "abl-layout",
    "abl-msgsize", "abl-oversample", "abl-radix", "abl-stagger", "abl-sync",
    "ext-lu", "ext-misranking", "ext-models", "ext-modern",
    "ext-primitives", "ext-radix", "ext-sensitivity", "ext-t800",
)
SWEEP_SCALE = 1.0

#: Table 1 calibrations fitted before a sweep's first timed operation:
#: the three paper machines at their default partitions.
PREFIT = (("maspar", 1024), ("gcel", 64), ("cm5", 64))

#: ``whatif``: the ablation matrix and bounds cells as they stood when
#: the benchmark was defined (the golden reports pin the same selection).
WHATIF_SCALE = 0.3
ABLATE_COMPONENTS = (
    "cube-discount", "partial-permutation", "receiver-serialisation",
    "cluster-channels", "sync-loss", "endpoint-contention",
    "comm-staggering", "cache-effects", "incast-collapse", "adaptive-routing",
)
ABLATE_CELLS = ("matmul", "matmul-blk", "bitonic", "bitonic-blk", "apsp",
                "radix")
BOUNDS_CELLS = (
    "matmul/cm5", "matmul-blk/cm5", "lu/gcel", "apsp/gcel", "bitonic/maspar",
    "bitonic-blk/gcel", "samplesort/gcel", "radix/gcel", "radix/modern",
)

# ``serve``: request pools.  Hot bodies are answered from the server's
# LRU after the warm-up; miss bodies are sent with a seed the server has
# never seen, so calibration, recording and replay run on the request.
HOT_PREDICT = (
    {"machine": "gcel", "model": "bsp", "algorithm": "bitonic", "size": 64},
    {"machine": "gcel", "model": "mp-bsp", "algorithm": "bitonic",
     "size": 64},
    {"machine": "gcel", "model": "mp-bpram", "algorithm": "apsp", "size": 32},
    {"machine": "gcel", "model": "bsp", "algorithm": "lu", "size": 32},
    {"machine": "cm5", "model": "bsp", "algorithm": "bitonic", "size": 64},
    {"machine": "cm5", "model": "loggp", "algorithm": "apsp", "size": 32},
    {"machine": "cm5", "model": "mp-bsp", "algorithm": "stencil", "size": 32},
    {"machine": "maspar", "model": "e-bsp", "algorithm": "bitonic",
     "size": 16},
)
HOT_COMPARE = (
    {"machine": "gcel", "algorithm": "apsp", "size": 32},
    {"machine": "cm5", "algorithm": "bitonic", "size": 64},
)
HOT_EXPERIMENT = ("/experiments/fig14?scale=0.3", "/experiments/fig1?scale=0.3")
MISS_PREDICT = (
    {"machine": "gcel", "model": "bsp", "algorithm": "bitonic", "size": 64},
    {"machine": "gcel", "model": "mp-bpram", "algorithm": "lu", "size": 32},
    {"machine": "cm5", "model": "mp-bsp", "algorithm": "apsp", "size": 32},
    {"machine": "cm5", "model": "loggp", "algorithm": "bitonic", "size": 64},
)

#: two closed-loop keep-alive connections, each sending this many
#: requests per server session in rounds of ``ROUND`` (a round ends when
#: both connections are through it); every block of ten is 7 hot
#: predicts, 1 fresh-seed predict, 1 compare and 1 experiment (8:1:1 by
#: endpoint).
CONNECTIONS = 2
REQUESTS_PER_CONNECTION = 500
ROUND = 100
BLOCK = ("hot",) * 7 + ("miss", "compare", "experiment")

#: fresh seeds are drawn from here; the hot pool uses seed 0.
FRESH_SEEDS = range(1_000, 2 ** 31)


def digest(doc) -> str:
    """What outputs are compared by: SHA-256 of the sorted-key JSON."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()
                          ).hexdigest()


def request(kind: str, doc_or_target) -> tuple[str, str, str, bytes]:
    """``(kind, method, target, body)`` of one schedule entry."""
    if kind == "experiment":
        return kind, "GET", doc_or_target, b""
    path = "/compare" if kind == "compare" else "/predict"
    return kind, "POST", path, json.dumps(doc_or_target).encode()


def warmup_requests() -> list[tuple[str, str, str, bytes]]:
    """Every hot request once — sent before the timed schedule."""
    return ([request("hot", d) for d in HOT_PREDICT]
            + [request("compare", d) for d in HOT_COMPARE]
            + [request("experiment", t) for t in HOT_EXPERIMENT])


def serve_schedule(seed: int) -> list[list[tuple[str, str, str, bytes]]]:
    """One request list per connection, a pure function of ``seed``.

    Every schedule sends each pool entry equally often, so its work does
    not depend on the seed; the seed picks the order within each block
    and the never-seen seeds of the miss predicts.
    """
    rng = random.Random(seed)
    n_blocks = REQUESTS_PER_CONNECTION // len(BLOCK)
    fresh = iter(rng.sample(FRESH_SEEDS, CONNECTIONS * n_blocks))
    pools = {"hot": itertools.cycle(HOT_PREDICT),
             "miss": itertools.cycle(MISS_PREDICT),
             "compare": itertools.cycle(HOT_COMPARE),
             "experiment": itertools.cycle(HOT_EXPERIMENT)}
    schedule = []
    for _ in range(CONNECTIONS):
        reqs = []
        for _ in range(n_blocks):
            block = list(BLOCK)
            rng.shuffle(block)
            for kind in block:
                item = next(pools[kind])
                if kind == "miss":
                    item = dict(item, seed=next(fresh))
                reqs.append(request(kind, item))
        schedule.append(reqs)
    return schedule
