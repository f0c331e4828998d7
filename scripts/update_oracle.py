#!/usr/bin/env python
"""Regenerate the oracle snapshot ``tests/simulator/oracle.json``.

The snapshot's entries were computed by ``run_spmd`` on the per-rank
generator programs, which have since been deleted; the tests hold the
vector programs to them.  Run this only after an *intentional* change to
what an algorithm sends, charges or returns, or to add a case:

    PYTHONPATH=src python scripts/update_oracle.py

and commit the resulting JSON together with the code change.  Entries
are then computed from each case's production paths: its ``run()``
(recording and memory hit) and ``run_spmd_vector`` must agree on every
digest and pass the numpy checks (``tests.simulator.oracle.check_data``),
or the script writes nothing.  It lists the cases that are new or
moved; the file is canonical (one entry per line, sorted by id), so
``git diff`` shows the same.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.simulator import oracle  # noqa: E402


def main() -> int:
    start = time.perf_counter()
    entries: dict[str, list] = {}
    failures = 0
    for cid, c in oracle.all_cases().items():
        runs = oracle.engines(c)
        pinned = oracle.pins_returns(c)
        digests = {name: oracle.digest(res, returns=pinned)
                   for name, res in runs.items()}
        if len({repr(d) for d in digests.values()}) != 1:
            print(f"FAIL {cid}: the production paths disagree: {digests}")
            failures += 1
            continue
        try:
            oracle.check_data(c, runs["vector"], runs.get("record"))
        except AssertionError as exc:
            print(f"FAIL {cid}: numpy check: {exc}")
            failures += 1
            continue
        entries[cid] = digests["vector"]
    if failures:
        print(f"{failures} failure(s); snapshot not written")
        return 1
    old = oracle.load() if oracle.SNAPSHOT.exists() else {}
    moved = sorted(cid for cid, e in entries.items() if old.get(cid) != e)
    oracle.SNAPSHOT.write_text(oracle.dump(entries))
    size = oracle.SNAPSHOT.stat().st_size
    print(f"wrote {oracle.SNAPSHOT.relative_to(ROOT)}: {len(entries)} "
          f"entries ({len(moved)} new or moved), {size} bytes, "
          f"{time.perf_counter() - start:.1f} s")
    for cid in moved:
        print(f"  {cid}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
