#!/usr/bin/env python
"""CI gate: record → serialise → replay parity for the step-program IR.

For a spread of (machine, algorithm) configurations this script

1. records the step program and prices it (the algorithm's ``run()``,
   fresh store), writing the canonical blob to disk,
2. reloads the blob in a second fresh store (the "new process" path,
   checksum verification included), re-serialises it and **diffs the
   bytes** — canonical encoding means any drift is a bug,
3. replays the reloaded program and compares clocks, trace and per-rank
   results **bit-for-bit** against the oracle: ``run_spmd`` on the
   configuration's generator program, fed the run's own inputs,
4. for the data-oblivious algorithms, whose recordings are keyed without
   the data seed, re-runs the configuration at a second seed against the
   same on-disk store: it must be a disk hit, write no new blob, and
   match the oracle at that seed bit for bit.

Exit code 0 only if every configuration passes all four.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.algorithms import (apsp, bitonic, collectives, lu,  # noqa: E402
                              matmul, radix, samplesort, stencil)
from repro.machines import CM5, GCel, MasParMP1, ModernCluster, T800Grid  # noqa: E402
from repro.simulator import run_spmd  # noqa: E402
from repro.simulator.ir import (IRStore, decode_program,  # noqa: E402
                                encode_program, ir_store_scope)

MACHINES = {"maspar": MasParMP1, "gcel": GCel, "cm5": CM5, "t800": T800Grid,
            "modern": ModernCluster}

#: (name, data seed, run(machine, seed), generator program, its
#: arguments after the inputs given the run's result and seed).
CASES = [
    ("matmul", 3, lambda m, s: matmul.run(m, 24, P=8, seed=s),
     matmul.matmul_program, lambda r, s: (r.setup, "bsp-staggered")),
    ("matmul-bsp-2d", 3,
     lambda m, s: matmul.run(m, 16, variant="bsp-2d", P=8, seed=s),
     matmul.matmul_program, lambda r, s: (r.setup, "bsp-2d")),
    ("matmul-bpram-2d", 3,
     lambda m, s: matmul.run(m, 16, variant="bpram-2d", P=8, seed=s),
     matmul.matmul_program, lambda r, s: (r.setup, "bpram-2d")),
    ("bitonic", 5, lambda m, s: bitonic.run(m, 256, P=16, seed=s),
     bitonic.bitonic_program, lambda r, s: ("bsp",)),
    ("lu", 7, lambda m, s: lu.run(m, 32, P=16, seed=s), lu.lu_program,
     lambda r, s: ()),
    ("apsp", 11, lambda m, s: apsp.run(m, 24, P=16, seed=s),
     apsp.apsp_program, lambda r, s: ()),
    ("samplesort", 13, lambda m, s: samplesort.run(m, 512, P=16, seed=s),
     samplesort.sample_sort_program, lambda r, s: ("bpram", 32, 32, s)),
    ("radix", 17, lambda m, s: radix.run(m, 256, P=16, seed=s),
     radix.radix_sort_program, lambda r, s: ("bpram",)),
    ("stencil", 19, lambda m, s: stencil.run(m, 32, 4, P=16, seed=s),
     stencil.stencil_program, lambda r, s: (4,)),
    ("broadcast-naive", 0,
     lambda m, s: collectives.run_broadcast(m, 64, strategy="naive", P=16),
     collectives.broadcast_program, lambda r, s: ("naive",)),
    ("broadcast-two-phase", 0,
     lambda m, s: collectives.run_broadcast(m, 64, strategy="two-phase",
                                            P=16),
     collectives.broadcast_program, lambda r, s: ("two-phase",)),
    ("row-broadcast-direct", 0,
     lambda m, s: collectives.run_row_broadcast(m, 16, strategy="direct",
                                                P=16),
     collectives.row_broadcast_program, lambda r, s: ("direct",)),
    ("row-broadcast-two-phase", 0,
     lambda m, s: collectives.run_row_broadcast(m, 16,
                                                strategy="two-phase", P=16),
     collectives.row_broadcast_program, lambda r, s: ("two-phase",)),
]

#: algorithms whose recordings every data seed shares.
OBLIVIOUS = {"matmul", "matmul-bsp-2d", "matmul-bpram-2d", "bitonic", "lu",
             "apsp", "stencil", "broadcast-naive", "broadcast-two-phase",
             "row-broadcast-direct", "row-broadcast-two-phase"}


def oracle(cls, program, args, res, seed):
    """``run_spmd`` on the generator program, fed ``res``'s inputs."""
    return run_spmd(cls(seed=1), program, res.inputs, *args(res, seed),
                    P=res.clocks.size)


def identical(a, b) -> bool:
    if a.time_us != b.time_us or not np.array_equal(a.clocks, b.clocks):
        return False
    if len(a.returns) != len(b.returns):
        return False
    for x, y in zip(a.returns, b.returns):
        if not np.array_equal(np.asarray(x), np.asarray(y)):
            return False
    if len(a.trace.supersteps) != len(b.trace.supersteps):
        return False
    for sa, sb in zip(a.trace.supersteps, b.trace.supersteps):
        if (sa.label != sb.label or sa.measured_us != sb.measured_us
                or sa.work.by_rank() != sb.work.by_rank()):
            return False
    return True


def _second_seed(tag: str, root: Path, raw: bytes, cls, case, program,
                 args, seed: int) -> int:
    """Failures of an oblivious case re-run at ``seed``: it must load the
    first seed's blob from disk, write none, and match the generator."""
    failures = 0
    with ir_store_scope(IRStore(root)) as store:
        other = case(cls(seed=1), seed)
        if store.disk_hits != 1 or store.recorded != 0:
            print(f"FAIL {tag}: seed {seed} did not hit the shared blob")
            failures += 1
    blobs = list(root.rglob("*.irp"))
    if len(blobs) != 1 or blobs[0].read_bytes() != raw:
        print(f"FAIL {tag}: seed {seed} wrote a blob")
        failures += 1
    if not identical(oracle(cls, program, args, other, seed), other):
        print(f"FAIL {tag}: seed {seed} differs from generator")
        failures += 1
    return failures


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "ir"
        for mname, cls in sorted(MACHINES.items()):
            for aname, seed, case, program, args in CASES:
                tag = f"{mname}/{aname}"
                with ir_store_scope(IRStore(root)) as store:
                    recorded = case(cls(seed=1), seed)
                    assert store.recorded == 1, tag
                reference = oracle(cls, program, args, recorded, seed)

                blobs = [p for p in root.rglob("*.irp")]
                if len(blobs) != 1:
                    print(f"FAIL {tag}: expected 1 blob, found {len(blobs)}")
                    failures += 1
                    continue
                raw = blobs[0].read_bytes()
                again = encode_program(decode_program(raw))
                if again != raw:
                    print(f"FAIL {tag}: reserialised blob differs "
                          f"({len(again)} vs {len(raw)} bytes)")
                    failures += 1

                with ir_store_scope(IRStore(root)) as store:
                    replayed = case(cls(seed=1), seed)
                    if store.disk_hits != 1:
                        print(f"FAIL {tag}: blob not loaded from disk")
                        failures += 1

                for other, what in ((recorded, "record"),
                                    (replayed, "disk replay")):
                    if not identical(reference, other):
                        print(f"FAIL {tag}: {what} differs from generator")
                        failures += 1

                if aname in OBLIVIOUS:
                    failures += _second_seed(tag, root, raw, cls, case,
                                             program, args, seed + 100)

                for p in blobs:
                    p.unlink()
                print(f"ok   {tag}  ({len(raw)} byte blob)")
    if failures:
        print(f"{failures} parity failure(s)")
        return 1
    print("ir-parity: all configurations bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
