#!/usr/bin/env python
"""CI gate: record → serialise → replay parity for the step-program IR.

For a spread of (machine, algorithm) configurations this script

1. records the step program and prices it (``engine="ir"``, fresh
   store), writing the canonical blob to disk,
2. reloads the blob in a second fresh store (the "new process" path,
   checksum verification included), re-serialises it and **diffs the
   bytes** — canonical encoding means any drift is a bug,
3. replays the reloaded program and compares clocks, trace and per-rank
   results **bit-for-bit** against the generator engine's run of the
   same configuration,
4. for the data-oblivious algorithms, whose recordings are keyed without
   the data seed, re-runs the configuration at a second seed against the
   same on-disk store: it must be a disk hit, write no new blob, and
   match the generator engine at that seed bit for bit.

Exit code 0 only if every configuration passes all four.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.algorithms import apsp, bitonic, lu, matmul, radix, samplesort  # noqa: E402
from repro.machines import CM5, GCel, MasParMP1, ModernCluster, T800Grid  # noqa: E402
from repro.simulator.ir import (IRStore, _decode_blob, _encode_blob,  # noqa: E402
                                StepProgram, ir_store_scope)

MACHINES = {"maspar": MasParMP1, "gcel": GCel, "cm5": CM5, "t800": T800Grid,
            "modern": ModernCluster}

#: (name, data seed, run(machine, engine, seed)).
CASES = [
    ("matmul", 3, lambda m, e, s: matmul.run(m, 24, P=8, seed=s, engine=e)),
    ("bitonic", 5, lambda m, e, s: bitonic.run(m, 256, P=16, seed=s,
                                               engine=e)),
    ("lu", 7, lambda m, e, s: lu.run(m, 32, P=16, seed=s, engine=e)),
    ("apsp", 11, lambda m, e, s: apsp.run(m, 24, P=16, seed=s, engine=e)),
    ("samplesort", 13, lambda m, e, s: samplesort.run(m, 512, P=16, seed=s,
                                                      engine=e)),
    ("radix", 17, lambda m, e, s: radix.run(m, 256, P=16, seed=s,
                                            engine=e)),
]

#: algorithms whose recordings every data seed shares.
OBLIVIOUS = {"matmul", "bitonic", "lu", "apsp"}


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
                or sa.work != sb.work):
            return False
    return True


def _second_seed(tag: str, root: Path, raw: bytes, cls, case,
                 seed: int) -> int:
    """Failures of an oblivious case re-run at ``seed``: it must load the
    first seed's blob from disk, write none, and match the generator."""
    failures = 0
    with ir_store_scope(IRStore(root)) as store:
        other = case(cls(seed=1), "ir", seed)
        if store.disk_hits != 1 or store.recorded != 0:
            print(f"FAIL {tag}: seed {seed} did not hit the shared blob")
            failures += 1
    blobs = list(root.rglob("*.irp"))
    if len(blobs) != 1 or blobs[0].read_bytes() != raw:
        print(f"FAIL {tag}: seed {seed} wrote a blob")
        failures += 1
    if not identical(case(cls(seed=1), "generator", seed), other):
        print(f"FAIL {tag}: seed {seed} differs from generator")
        failures += 1
    return failures


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "ir"
        for mname, cls in sorted(MACHINES.items()):
            for aname, seed, case in CASES:
                tag = f"{mname}/{aname}"
                oracle = case(cls(seed=1), "generator", seed)

                with ir_store_scope(IRStore(root)) as store:
                    recorded = case(cls(seed=1), "ir", seed)
                    assert store.recorded == 1, tag

                blobs = [p for p in root.rglob("*.irp")]
                if len(blobs) != 1:
                    print(f"FAIL {tag}: expected 1 blob, found {len(blobs)}")
                    failures += 1
                    continue
                raw = blobs[0].read_bytes()
                again = _encode_blob(
                    StepProgram.from_doc(_decode_blob(raw)).to_doc())
                if again != raw:
                    print(f"FAIL {tag}: reserialised blob differs "
                          f"({len(again)} vs {len(raw)} bytes)")
                    failures += 1

                with ir_store_scope(IRStore(root)) as store:
                    replayed = case(cls(seed=1), "ir", seed)
                    if store.disk_hits != 1:
                        print(f"FAIL {tag}: blob not loaded from disk")
                        failures += 1

                for other, what in ((recorded, "record"),
                                    (replayed, "disk replay")):
                    if not identical(oracle, other):
                        print(f"FAIL {tag}: {what} differs from generator")
                        failures += 1

                if aname in OBLIVIOUS:
                    failures += _second_seed(tag, root, raw, cls, case,
                                             seed + 100)

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
