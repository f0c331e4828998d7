#!/usr/bin/env python
"""Mutant catalogue: plant known faults and check that the tests catch them.

Each mutant is one exact text edit — a file, an anchor that must occur
there exactly once, and its replacement — plus the tier-1 test paths
that must kill it.  The script copies a checkout into a temporary
directory, applies each mutant in turn to the copy, runs pytest on the
mutant's paths that exist in the checkout, restores the file, and
reports each mutant as ``killed`` (naming the test files that failed)
or ``survived``.  A mutant whose anchor is missing or ambiguous is
reported as ``stale``.

    python scripts/mutants.py [CHECKOUT]

``CHECKOUT`` defaults to this script's repository.  Stdlib only; a full
run takes a few minutes.  The exit code is 0 only if every mutant is
killed.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str            #: path relative to the checkout
    anchor: str          #: text that must occur exactly once in ``file``
    replacement: str
    tests: tuple         #: test paths, relative to the checkout


#: the tests that hold every run() and run_spmd_vector to the oracle
ORACLE = ("tests/simulator/test_ir.py",
          "tests/simulator/test_vector_equivalence.py",
          "tests/simulator/test_oracle.py")
PARITY = ("tests/simulator/test_engine_parity.py",)

CATALOGUE = [
    # ---- vector programs ----
    Mutant("bitonic-partner-bit", "src/repro/algorithms/bitonic.py",
           "partners = [ranks ^ (1 << j) for j in range(log_p)]",
           "partners = [ranks ^ (1 << (log_p - 1 - j)) "
           "for j in range(log_p)]",
           ORACLE + ("tests/algorithms/test_bitonic.py",)),
    Mutant("bitonic-dropped-merge-stage", "src/repro/algorithms/bitonic.py",
           "    mine = _radix_sort_rows(ctx, all_keys, bits=key_bits)\n\n"
           "    for d in range(1, log_p + 1):",
           "    mine = _radix_sort_rows(ctx, all_keys, bits=key_bits)\n\n"
           "    for d in range(2, log_p + 1):",
           ORACLE + ("tests/algorithms/test_bitonic.py",)),
    Mutant("apsp-broadcast-from-wrong-row", "src/repro/algorithms/apsp.py",
           'ctx, r_arr, lambda ll: ll * side + c_arr, kb, side, M, f"r{k}",',
           'ctx, r_arr, lambda ll: ll * side + c_arr, (kb + 1) % side, '
           'side, M, f"r{k}",',
           ORACLE + ("tests/algorithms/test_apsp.py",)),
    Mutant("lu-missing-barrier", "src/repro/algorithms/lu.py",
           "nbytes=cnt * w, count=cnt, step=step)\n"
           '        yield ctx.sync(f"col-bcast-{k}")',
           "nbytes=cnt * w, count=cnt, step=step)\n"
           '        yield ctx.sync(f"col-bcast-{k}", barrier=False)',
           ORACLE + ("tests/algorithms/test_lu.py",)),
    Mutant("matmul-stagger-flag", "src/repro/algorithms/matmul.py",
           '        yield ctx.sync("replicate", stagger=staggered)',
           '        yield ctx.sync("replicate")',
           ORACLE + ("tests/algorithms/test_matmul.py",)),
    Mutant("matmul-simd-self-sends", "src/repro/algorithms/matmul.py",
           "        if local and not ctx.simd:",
           "        if local:",
           ORACLE + ("tests/algorithms/test_matmul.py",)),
    Mutant("stencil-dropped-halo-direction",
           "src/repro/algorithms/stencil.py",
           "(c > 0, -1), (c < side - 1, 1))",
           "(c > 0, -1))",
           ORACLE + ("tests/algorithms/test_stencil.py",)),
    Mutant("radix-digit-bits", "src/repro/algorithms/radix.py",
           "    M = all_keys.shape[1]\n"
           "    log_p = _digit_bits(P, key_bits)\n"
           "    shift = key_bits - log_p\n",
           "    M = all_keys.shape[1]\n"
           "    log_p = _digit_bits(P, key_bits)\n"
           "    shift = key_bits - log_p + 1\n",
           ORACLE + ("tests/algorithms/test_radix.py",)),
    Mutant("samplesort-oversampling", "src/repro/algorithms/samplesort.py",
           "    M = all_keys.shape[1]\n    S = oversample\n",
           "    M = all_keys.shape[1]\n    S = max(1, oversample // 2)\n",
           ORACLE + ("tests/algorithms/test_samplesort.py",)),
    Mutant("grid-route-one-half", "src/repro/algorithms/samplesort.py",
           "return np.repeat(col.reshape(side, P), 2, axis=0).ravel()",
           "return col",
           ORACLE + ("tests/algorithms/test_samplesort.py",)),
    Mutant("broadcast-skipped-scatter-step",
           "src/repro/algorithms/collectives.py",
           '        yield ctx.sync("b-bcast-scatter")\n', "",
           ORACLE + ("tests/algorithms/test_collectives.py",)),
    Mutant("row-broadcast-wrong-row", "src/repro/algorithms/collectives.py",
           "for rr in r.tolist()]", "for rr in c.tolist()]",
           ORACLE),
    # ---- recording and replay ----
    Mutant("intern-phase-ignoring-stagger", "src/repro/simulator/vector.py",
           "cache_key = (tuple(map(id, groups)), stagger)",
           "cache_key = tuple(map(id, groups))",
           PARITY + ORACLE + ("tests/simulator/test_put_group.py",)),
    Mutant("intern-batch-ignoring-scalar-param",
           "src/repro/simulator/ir.py",
           'key.append(("s", col.dtype.kind, col.flat[0].item()))',
           'key.append(("s", col.dtype.kind))',
           PARITY + ORACLE),
    Mutant("generic-replay-work-noise-after-comm",
           "src/repro/simulator/replay.py",
           "        start_max = float(clocks.max())\n"
           "        j = batch_idx[i]\n",
           "        start_max = float(clocks.max())\n"
           "        clocks = pricer.comm_time(i, clocks, barrier=barriers[i])\n"
           "        j = batch_idx[i]\n",
           PARITY + ORACLE),
    Mutant("fused-replay-drops-work-maximum",
           "src/repro/simulator/replay.py",
           "            t1 = T + wmax[j]", "            t1 = T",
           PARITY + ORACLE),
    Mutant("charge-batches-skips-compute-noise",
           "src/repro/simulator/batch.py",
           "    if machine.compute_noise:\n",
           "    if False:\n",
           PARITY + ORACLE),
    Mutant("per-rank-recorder-groups-work-by-kind",
           "src/repro/simulator/engine.py",
           "                charges.append((rank, items))\n",
           "                charges.append((rank, sorted(\n"
           "                    items, key=lambda w: type(w).__name__)))\n",
           PARITY + ("tests/simulator/test_work_records.py",)),
    # ---- bounds ----
    Mutant("measure-cell-miss-skips-the-run", "src/repro/bounds/measure.py",
           "        cell_run(cell, machine, n, seed)\n", "",
           ("tests/bounds/test_measure.py",)),
    Mutant("measure-cell-miss-ignores-a-drifted-key",
           "src/repro/bounds/measure.py",
           "        if prog is None:\n            raise BoundsError(",
           "        if prog is None and False:\n            raise BoundsError(",
           ("tests/bounds/test_measure.py",)),
    # ---- calibration and the machine-state caches ----
    Mutant("fit-line-intercept-sign", "src/repro/calibration/fitting.py",
           "slope, intercept = float(coef[0]), float(coef[1])",
           "slope, intercept = float(coef[0]), -float(coef[1])",
           ("tests/calibration/test_fitting.py",
            "tests/calibration/test_table1.py")),
    Mutant("calibration-hit-skips-rng-restore",
           "src/repro/calibration/table1.py",
           "            machine.rng.bit_generator.state = rng_state\n", "",
           ("tests/calibration/test_memo.py",)),
    Mutant("state-key-drops-disabled", "src/repro/machines/base.py",
           'for name, value in sorted(attrs.items()) if name != "rng")',
           "for name, value in sorted(attrs.items())\n"
           '                    if name not in ("rng", "disabled"))',
           ("tests/machines/test_state_key.py",)),
    Mutant("state-key-drops-a-params-field", "src/repro/machines/base.py",
           "for f in dataclasses.fields(value))",
           "for f in dataclasses.fields(value)[:-1])",
           ("tests/machines/test_state_key.py",)),
    Mutant("pricer-columns-ignore-machine-state",
           "src/repro/machines/base.py",
           "key = None if memo is None else state_key(machine)",
           "key = None if memo is None else type(machine)",
           ("tests/machines/test_state_key.py",
            "tests/simulator/test_pricer_columns.py")),
]

_FAILED = re.compile(r"^(?:FAILED|ERROR) ([^\s:]+)")


def _copy(checkout: Path, into: Path) -> Path:
    dest = into / "checkout"
    shutil.copytree(checkout, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "_work",
        "*.egg-info"))
    return dest


def _pytest(copy: Path, paths: list[str]) -> tuple[int, list[str]]:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
         "no:cacheprovider", *paths],
        cwd=copy, env=env, capture_output=True, text=True)
    failed = sorted({m.group(1) for line in proc.stdout.splitlines()
                     if (m := _FAILED.match(line))})
    return proc.returncode, failed


def run_mutant(copy: Path, m: Mutant) -> tuple[str, str]:
    """``(verdict, detail)`` of one mutant on the checkout copy."""
    target = copy / m.file
    if not target.exists():
        return "stale", f"{m.file} missing"
    original = target.read_text()
    found = original.count(m.anchor)
    if found != 1:
        return "stale", f"anchor found {found} times in {m.file}"
    paths = [p for p in m.tests if (copy / p).exists()]
    if not paths:
        return "stale", "none of its test paths exist"
    target.write_text(original.replace(m.anchor, m.replacement))
    try:
        code, failed = _pytest(copy, paths)
    finally:
        target.write_text(original)
    if code == 0:
        return "survived", "ran " + " ".join(paths)
    if code in (1, 2) and failed:
        return "killed", " ".join(failed)
    return "stale", f"pytest exit code {code}"


def main(argv: list[str]) -> int:
    checkout = Path(argv[0] if argv else Path(__file__).parents[1]).resolve()
    verdicts: dict[str, list[str]] = {}
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = _copy(checkout, Path(tmp))
        code, _ = _pytest(copy, sorted({p for m in CATALOGUE for p in m.tests
                                        if (copy / p).exists()}))
        if code != 0:
            print(f"the unmutated checkout fails its tests (exit {code})")
            return 1
        for m in CATALOGUE:
            start = time.perf_counter()
            verdict, detail = run_mutant(copy, m)
            verdicts.setdefault(verdict, []).append(m.name)
            print(f"{verdict:9} {m.name:40} {time.perf_counter() - start:5.1f}"
                  f" s  {detail}", flush=True)
    print(", ".join(f"{len(names)} {v}" for v, names in verdicts.items()))
    return 0 if set(verdicts) == {"killed"} else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
