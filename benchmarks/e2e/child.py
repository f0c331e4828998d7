"""Worker process of the end-to-end benchmark.

``run.py`` starts one of these per session, with ``src/`` on
``PYTHONPATH`` and a private ``REPRO_CACHE_DIR``:

    child.py sweep  --seed N [--trace-out FILE]
    child.py whatif --seed N --reps K [--trace-out FILE]
    child.py serve  [--trace-out FILE]

``sweep`` and ``whatif`` set up (imports, Table 1 pre-fit, for
``whatif`` one untimed warm-up matrix), note the time they became ready,
time their repetitions and print one JSON line describing them.
``serve`` runs ``repro serve`` with default flags on a free port until
it is interrupted, then prints its JSON line.  With ``--trace-out`` the
bench tracer is installed before any timed work and its spans are
written to that file at the end; without it the tracer is never
imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import workloads as W
from workloads import digest


def prefit(seed: int) -> None:
    from repro.calibration.table1 import calibration_for

    for name, P in W.PREFIT:
        calibration_for(name, P=P, machine_seed=seed + 1000, seed=seed)


def sweep(args) -> dict:
    from repro.experiments import all_experiments
    from repro.runner import run_experiments

    missing = sorted(set(W.EXPERIMENT_IDS) - set(all_experiments()))
    if missing:
        raise SystemExit(f"experiments missing from the registry: {missing}")
    prefit(args.seed)
    ready = time.perf_counter()
    outcomes = run_experiments(list(W.EXPERIMENT_IDS), scale=W.SWEEP_SCALE,
                               seed=args.seed, jobs=1, cache=None)
    end = time.perf_counter()
    return {"ready": ready, "windows": [[ready, end]], "experiments": [
        {"id": o.id, "elapsed_s": o.elapsed_s, "passed": o.result.passed,
         "failed_checks": [c.name for c in o.result.checks if not c.passed],
         "digest": digest(o.result.to_dict())} for o in outcomes]}


def whatif(args) -> dict:
    from repro.ablation import AblateRequest, ablate
    from repro.bounds import BoundsRequest, bounds

    areq = AblateRequest(components=W.ABLATE_COMPONENTS,
                         cells=W.ABLATE_CELLS, scale=W.WHATIF_SCALE,
                         seed=args.seed, use_cache=False)
    breq = BoundsRequest(cells=W.BOUNDS_CELLS, scale=W.WHATIF_SCALE,
                         seed=args.seed, use_cache=False)

    def matrix() -> dict:
        try:
            a, b = ablate(areq), bounds(breq)
        except Exception:  # noqa: BLE001 — reported as a failed repetition
            return {"error": traceback.format_exc()}
        return {"ablate": digest(a), "bounds": digest(b),
                "min_ratio": min(e["ratio"] for e in b["ranking"])}

    prefit(args.seed)
    warm = matrix()
    ready = time.perf_counter()
    windows, reps = [], []
    for _ in range(args.reps):
        t0 = time.perf_counter()
        reps.append(matrix())
        windows.append([t0, time.perf_counter()])
    return {"ready": ready, "windows": windows, "warm": warm, "reps": reps}


def serve(args) -> dict:
    from repro.service.server import ServiceConfig, run_service

    # default `repro serve` flags, except a free port instead of 8080
    run_service(ServiceConfig(port=0))
    return {}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("sweep", "whatif", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer().install()
    try:
        out = {"sweep": sweep, "whatif": whatif, "serve": serve}[
            args.mode](args)
        code = 0
    except Exception:  # noqa: BLE001 — the parent counts the session failed
        out, code = {"error": traceback.format_exc()}, 1
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace_out)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
