#!/usr/bin/env python
"""CI gate: record → serialise → replay parity for the step-program IR.

For a spread of (machine, algorithm) configurations this script

1. records the step program and prices it (the algorithm's ``run()``,
   fresh store), writing the canonical blob to disk,
2. reloads the blob in a second fresh store (the "new process" path,
   checksum verification included), re-serialises it and **diffs the
   bytes** — canonical encoding means any drift is a bug,
3. replays the reloaded program and compares the clocks, trace and
   per-rank results of the recording and of the replay against the
   oracle snapshot ``tests/simulator/oracle.json`` (digests of what the
   former per-rank generator programs computed on the same inputs);
   matmul's blocks, which the snapshot does not pin, must equal between
   the two runs bit for bit and ``A @ B`` to rounding,
4. for the data-oblivious algorithms, whose recordings are keyed without
   the data seed, re-runs the configuration at a second seed against the
   same on-disk store: it must be a disk hit, write no new blob, and
   match the snapshot at that seed.

Exit code 0 only if every configuration passes all four.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.simulator.ir import (IRStore, decode_program,  # noqa: E402
                                encode_program, ir_store_scope)
from tests.simulator import oracle  # noqa: E402

#: algorithms whose recordings depend on the data seed.
DATA_DEPENDENT = {"samplesort", "radix"}

#: the second data seed of step 4 is the first plus this.
SECOND_SEED = 100


def differences(c, res, what: str, like=None) -> list[str]:
    """Step 3's failures of the run ``res`` of case ``c``."""
    out = [f"{what} differs from the oracle in {part}"
           for part in oracle.moved(c, res)]
    if not oracle.pins_returns(c):
        if like is not None and not all(
                np.array_equal(x, y)
                for x, y in zip(res.returns, like.returns)):
            out.append(f"{what} returns differ from the recording's")
        try:
            oracle.check_data(c, res)
        except AssertionError:
            out.append(f"{what} product differs from A @ B")
    return out


def _second_seed(tag: str, root: Path, raw: bytes, c) -> int:
    """Failures of an oblivious case re-run at its second seed: it must
    load the first seed's blob from disk, write none, and match the
    snapshot."""
    failures = 0
    with ir_store_scope(IRStore(root)) as store:
        other = oracle.run_ir(c)
        if store.disk_hits != 1 or store.recorded != 0:
            print(f"FAIL {tag}: seed {c.seed} did not hit the shared blob")
            failures += 1
    blobs = list(root.rglob("*.blob"))
    if len(blobs) != 1 or blobs[0].read_bytes() != raw:
        print(f"FAIL {tag}: seed {c.seed} wrote a blob")
        failures += 1
    for problem in differences(c, other, f"seed {c.seed}"):
        print(f"FAIL {tag}: {problem}")
        failures += 1
    return failures


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for mname in sorted(oracle.MACHINES):
            for c, c2 in zip(oracle.ir_parity_cases(mname),
                             oracle.ir_parity_cases(mname, SECOND_SEED)):
                tag = c.id
                with ir_store_scope(IRStore(root)) as store:
                    recorded = oracle.run_ir(c)
                    assert store.recorded == 1, tag

                blobs = [p for p in root.rglob("*.blob")]
                if len(blobs) != 1:
                    print(f"FAIL {tag}: expected 1 blob, found {len(blobs)}")
                    failures += 1
                    continue
                raw = blobs[0].read_bytes()
                payload = IRStore(root).blobs.get(blobs[0].stem)
                again = encode_program(decode_program(payload))
                if again != payload:
                    print(f"FAIL {tag}: reserialised blob differs "
                          f"({len(again)} vs {len(payload)} bytes)")
                    failures += 1

                with ir_store_scope(IRStore(root)) as store:
                    replayed = oracle.run_ir(c)
                    if store.disk_hits != 1:
                        print(f"FAIL {tag}: blob not loaded from disk")
                        failures += 1

                problems = (differences(c, recorded, "record")
                            + differences(c, replayed, "disk replay",
                                          like=recorded))
                for problem in problems:
                    print(f"FAIL {tag}: {problem}")
                failures += len(problems)

                if c.algorithm not in DATA_DEPENDENT:
                    failures += _second_seed(tag, root, raw, c2)

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
