"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Subcommands:

* ``list`` — every registered experiment (tables, figures, ablations,
  extensions);
* ``run <id> [...]`` — run experiments and print the data table, an ASCII
  plot and the paper-claim checks (``--json FILE`` dumps the results).
  ``--all`` sweeps the whole registry, ``--jobs N`` fans misses out over
  a process pool, and results are served from the content-addressed
  cache unless ``--no-cache``/``--force`` say otherwise;
* ``cache`` — inspect (``info``) or empty (``clear``) the result cache;
* ``table1`` — calibrate the three machines and print fitted-vs-paper
  parameters;
* ``scoreboard`` — price a workload matrix under six cost models and
  tabulate the signed errors;
* ``ablate`` — switch simulated machine phenomena off one by one,
  re-run the scoreboard per configuration and rank each component by
  how much modelling it buys in prediction accuracy (docs/ABLATION.md);
* ``bounds`` — compare measured communication volume against analytic
  lower bounds per matrix cell and rank the attained-vs-optimal
  ratios, flagging cells with algorithmic headroom (docs/BOUNDS.md);
* ``attribute`` — run one workload and attribute a model's error per
  superstep family (the paper's §5 diagnostics, mechanised);
* ``machines`` — the simulated platforms and their headline behaviours;
* ``serve`` — the prediction-serving HTTP subsystem (micro-batched
  ``/predict``, ``/compare``, experiment results, Prometheus
  ``/metrics``; see docs/SERVICE.md);
* ``loadtest`` — closed-loop client harness against a running server.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from . import __version__
from .calibration import calibrate_all, render_table1
from .experiments import all_experiments
from .machines import MACHINES, machine_catalog
from .service.oracle import ALGORITHMS, MODELS
from .validation.textfig import render_result

__all__ = ["main", "build_parser"]


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{raw!r} is not an integer") \
            from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{raw!r} is not a number") \
            from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _nonneg_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{raw!r} is not a number") \
            from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _port(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{raw!r} is not a port number") \
            from None
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"port must be in [0, 65535], got {value}")
    return value


def _mix(raw: str) -> tuple[int, int, int]:
    from .service.loadtest import parse_mix

    try:
        return parse_mix(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Quantitative Comparison of "
                    "Parallel Computation Models' (SPAA'96)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all experiments")

    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument("ids", nargs="*",
                     help="experiment ids (e.g. fig12), or 'all'")
    run.add_argument("--all", action="store_true", dest="run_all",
                     help="run every registered experiment")
    run.add_argument("--scale", type=float, default=1.0,
                     help="problem-size scale in (0, 1] (default 1.0)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="worker processes for uncached experiments "
                          "(default: os.cpu_count())")
    run.add_argument("--no-cache", action="store_true",
                     help="neither read nor write the result cache")
    run.add_argument("--force", action="store_true",
                     help="recompute even on a cache hit (refreshes the "
                          "stored entry)")
    run.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="cache root (default: $REPRO_CACHE_DIR or "
                          "~/.cache/repro)")
    run.add_argument("--no-plot", action="store_true",
                     help="omit the ASCII plot")
    run.add_argument("--json", metavar="FILE", default=None,
                     help="also dump all results as JSON to FILE")
    run.add_argument("--profile", action="store_true",
                     help="run in-process under cProfile and dump one "
                          "pstats file per experiment under "
                          "<cache-dir>/profiles (implies --no-cache, "
                          "--jobs 1)")
    run.add_argument("--faults", default=None, metavar="PLAN",
                     help="deterministic fault-injection plan, e.g. "
                          "'worker-crash:p=0.2,seed=7' (default: "
                          "$REPRO_FAULTS; see docs/TESTING.md)")

    bench = sub.add_parser(
        "bench",
        help="cold-run experiments, record wall times to a trajectory file")
    bench.add_argument("ids", nargs="*",
                       help="experiment ids (default: the whole registry)")
    bench.add_argument("--quick", action="store_true",
                       help="representative subset for CI smoke runs")
    bench.add_argument("--scale", type=float, default=1.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", default="BENCH_sweep.json", metavar="FILE",
                       help="trajectory file to append to "
                            "(default BENCH_sweep.json)")
    bench.add_argument("--label", default="", metavar="TEXT",
                       help="free-form tag stored with this bench record")
    bench.add_argument("--top", type=int, default=5, metavar="N",
                       help="rows in the slowest-experiments table")
    bench.add_argument("--budget", action="append", default=[],
                       metavar="ID=SECONDS",
                       help="fail (exit 3) if experiment ID exceeds its "
                            "budget; repeatable")
    bench.add_argument("--profile", action="store_true",
                       help="also dump cProfile pstats per experiment "
                            "under <cache-dir>/profiles")
    bench.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="only used to locate the profiles directory")
    bench.add_argument("--compare", action="store_true",
                       help="do not run anything: diff the last two runs "
                            "of the trajectory file (--out), print a "
                            "per-experiment speedup table, exit 3 on "
                            "regressions past --tolerance")
    bench.add_argument("--tolerance", type=float, default=0.25,
                       metavar="FRAC",
                       help="--compare regression threshold as a "
                            "fraction of the previous time (default "
                            "0.25 = 25%% slower)")
    bench.add_argument("--service", action="store_true",
                       help="with --compare: diff the last two "
                            "kind=service loadtest records with "
                            "matching process topology instead of "
                            "experiment sweeps")

    cache = sub.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument("action", choices=["info", "clear"])
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache root (default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro)")
    cache.add_argument("--json", action="store_true", dest="as_json",
                       help="machine-readable output (info only)")

    serve = sub.add_parser(
        "serve",
        help="serve predictions over HTTP (micro-batched; docs/SERVICE.md)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_port, default=8080,
                       help="TCP port (0 picks an ephemeral port; "
                            "default 8080)")
    serve.add_argument("--workers", type=_positive_int, default=2,
                       metavar="N",
                       help="batch-evaluation worker shards (default 2)")
    serve.add_argument("--processes", type=_positive_int, default=1,
                       metavar="N",
                       help="worker processes; > 1 boots the pre-fork "
                            "fleet (default 1)")
    serve.add_argument("--window-ms", type=_nonneg_float, default=2.0,
                       metavar="MS",
                       help="micro-batching window (default 2.0 ms)")
    serve.add_argument("--max-batch", type=_positive_int, default=256,
                       metavar="N",
                       help="largest coalesced batch (default 256)")
    serve.add_argument("--lru-size", type=_positive_int, default=4096,
                       metavar="N",
                       help="prediction LRU entries (default 4096)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="experiment result cache root")
    serve.add_argument("--no-warm", action="store_true",
                       help="skip pre-fitting the paper calibrations at "
                            "boot")
    serve.add_argument("--faults", default=None, metavar="PLAN",
                       help="deterministic fault-injection plan, e.g. "
                            "'dispatch-error:p=0.1,seed=3' (default: "
                            "$REPRO_FAULTS; see docs/TESTING.md)")
    serve.add_argument("--request-timeout", type=_positive_float,
                       default=30.0, metavar="S",
                       help="per-request deadline on /predict and "
                            "/compare; past it the client gets 503 + "
                            "Retry-After (default 30 s)")

    lt = sub.add_parser(
        "loadtest",
        help="closed-loop load test against a running `repro serve`")
    lt.add_argument("--host", default="127.0.0.1")
    lt.add_argument("--port", type=_port, default=8080)
    lt.add_argument("--concurrency", type=_positive_int, default=16,
                    metavar="C", help="concurrent client connections")
    lt.add_argument("--duration", type=_positive_float, default=10.0,
                    metavar="S", help="seconds to sustain load")
    lt.add_argument("--mix", type=_mix, default=(8, 1, 1),
                    metavar="P:C:E",
                    help="predict:compare:experiment weights "
                         "(default 8:1:1)")
    lt.add_argument("--seed", type=int, default=0)
    lt.add_argument("--label", default="", metavar="TEXT",
                    help="tag stored with the trajectory record")
    lt.add_argument("--out", default="BENCH_sweep.json", metavar="FILE",
                    help="trajectory file for the service record "
                         "(default BENCH_sweep.json)")
    lt.add_argument("--no-record", action="store_true",
                    help="do not append to the trajectory file")

    t1 = sub.add_parser("table1", help="calibrate machines, print Table 1")
    t1.add_argument("--seed", type=int, default=0)
    t1.add_argument("--trials", type=int, default=10)

    sb = sub.add_parser(
        "scoreboard",
        help="price a workload matrix under every model, tabulate errors")
    sb.add_argument("--scale", type=float, default=1.0)
    sb.add_argument("--seed", type=int, default=0)

    ab = sub.add_parser(
        "ablate",
        help="switch model components off one by one and rank how much "
             "each buys in prediction accuracy")
    ab.add_argument("--components", nargs="+", default=None, metavar="NAME",
                    help="components to ablate (default: all; see "
                         "`repro machines --json` for the per-machine "
                         "phenomena)")
    ab.add_argument("--cells", nargs="+", default=None, metavar="CELL",
                    help="scoreboard cells to re-run (default: all)")
    ab.add_argument("--scale", type=float, default=0.3,
                    help="problem-size scale in (0, 1] (default 0.3)")
    ab.add_argument("--seed", type=int, default=0)
    ab.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                    help="worker processes for uncached cell runs "
                         "(default 1)")
    ab.add_argument("--json", metavar="FILE", default=None, dest="json_path",
                    help="write the report as JSON ('-' = stdout)")
    ab.add_argument("--no-cache", action="store_true",
                    help="neither read nor write the result cache")
    ab.add_argument("--force", action="store_true",
                    help="recompute even on a cache hit (refreshes the "
                         "stored entries)")
    ab.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="cache root (default: $REPRO_CACHE_DIR or "
                         "~/.cache/repro)")
    ab.add_argument("--faults", default=None, metavar="PLAN",
                    help="fault plan for the run (also honours "
                         "$REPRO_FAULTS)")

    bo = sub.add_parser(
        "bounds",
        help="rank measured communication volume against analytic "
             "lower bounds and flag cells with headroom")
    bo.add_argument("--cells", nargs="+", default=None, metavar="CELL",
                    help="bound cells to measure (default: the full "
                         "matrix; e.g. matmul/cm5 bitonic/maspar)")
    bo.add_argument("--scale", type=float, default=0.3,
                    help="problem-size scale in (0, 1] (default 0.3)")
    bo.add_argument("--seed", type=int, default=0)
    bo.add_argument("--threshold", type=_positive_float, default=None,
                    metavar="X",
                    help="flag HEADROOM past this attained/optimal "
                         "ratio (default 8.0)")
    bo.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                    help="worker processes for uncached measurements "
                         "(default 1)")
    bo.add_argument("--json", metavar="FILE", default=None, dest="json_path",
                    help="write the report as JSON ('-' = stdout)")
    bo.add_argument("--no-cache", action="store_true",
                    help="neither read nor write the result cache")
    bo.add_argument("--force", action="store_true",
                    help="recompute even on a cache hit (refreshes the "
                         "stored entries)")
    bo.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="cache root (default: $REPRO_CACHE_DIR or "
                         "~/.cache/repro)")

    at = sub.add_parser(
        "attribute",
        help="run a workload and attribute a model's error per superstep")
    at.add_argument("--machine", default="gcel", choices=list(MACHINES))
    at.add_argument("--workload", default="apsp", choices=list(ALGORITHMS))
    at.add_argument("--model", default="bsp", choices=list(MODELS))
    at.add_argument("--size", type=int, default=None,
                    help="problem size (default: the workload's /predict "
                         "default)")
    at.add_argument("--seed", type=int, default=0)

    mach = sub.add_parser("machines",
                          help="describe the simulated platforms")
    mach.add_argument("--json", action="store_true", dest="as_json",
                      help="machine-readable output")
    return parser


def _cmd_list() -> int:
    for exp in all_experiments().values():
        print(f"{exp.id:<16} {exp.title}  [{exp.paper_ref}]")
    return 0


def _cmd_run(ids: list[str], scale: float, seed: int, plot: bool,
             json_path: str | None = None, *, jobs: int | None = None,
             use_cache: bool = True, force: bool = False,
             cache_dir: str | None = None, profile: bool = False,
             timing_summary: bool = False,
             faults: str | None = None) -> int:
    from .core.errors import ExperimentError, FaultError
    from .faults import FaultPlan, plan_from_env
    from .runner import ResultCache, run_experiments

    if not ids:
        print("error: no experiment ids given (or use --all)",
              file=sys.stderr)
        return 2
    if jobs is None:
        jobs = os.cpu_count() or 1
    cache = ResultCache(cache_dir) if use_cache and not profile else None
    try:
        plan = FaultPlan.parse(faults) if faults else plan_from_env()
        if profile:
            outcomes = _run_profiled(ids, scale=scale, seed=seed,
                                     cache_dir=cache_dir)
        else:
            outcomes = run_experiments(ids, scale=scale, seed=seed,
                                       jobs=jobs, cache=cache, force=force,
                                       faults=plan)
    except (ExperimentError, FaultError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = 0
    dumped = []
    for out in outcomes:
        print(render_result(out.result, plot=plot))
        print()
        dumped.append(out.result.to_dict())
        if not out.result.passed:
            failed += 1
    if cache is not None:
        print(f"cache: {cache.stats.summary()} — {cache.root}")
    if timing_summary and outcomes:
        print(_timing_summary(outcomes))
    if json_path:
        import json

        with open(json_path, "w") as fh:
            json.dump({"scale": scale, "seed": seed, "results": dumped},
                      fh, indent=1)
        print(f"wrote {json_path}")
    if failed:
        print(f"{failed} experiment(s) had failing checks", file=sys.stderr)
    return 1 if failed else 0


def _timing_summary(outcomes, top: int = 5) -> str:
    """Top-``top`` slowest experiments of a batch, one line each."""
    ranked = sorted(outcomes, key=lambda o: -o.elapsed_s)[:top]
    total = sum(o.elapsed_s for o in outcomes) or 1.0
    lines = [f"timing: {len(outcomes)} experiment(s) in "
             f"{sum(o.elapsed_s for o in outcomes):.1f}s; slowest:"]
    for out in ranked:
        src = "cache" if out.cached else "fresh"
        lines.append(f"  {out.id:<16} {out.elapsed_s:>8.2f}s  "
                     f"{out.elapsed_s / total:>5.1%}  ({src})")
    return "\n".join(lines)


def _run_profiled(ids: list[str], *, scale: float, seed: int,
                  cache_dir: str | None):
    """``repro run --profile``: in-process, cProfile dump per experiment."""
    import time

    from .runner import (RunOutcome, default_cache_root, profiled_run,
                         render_ir_phases, resolve_ids)

    profile_dir = os.path.join(str(cache_dir or default_cache_root()),
                               "profiles")
    outcomes = []
    for exp_id in resolve_ids(ids):
        t0 = time.perf_counter()
        result, path = profiled_run(exp_id, scale=scale, seed=seed,
                                    profile_dir=profile_dir)
        outcomes.append(RunOutcome(id=exp_id, result=result, cached=False,
                                   elapsed_s=time.perf_counter() - t0))
        print(f"profile: {path}", file=sys.stderr)
        print(render_ir_phases(path), file=sys.stderr)
    return outcomes


def _cmd_bench(ids: list[str], *, quick: bool, scale: float, seed: int,
               out: str, label: str, top: int, budgets: list[str],
               profile: bool, cache_dir: str | None, compare: bool = False,
               tolerance: float = 0.25, service: bool = False) -> int:
    from .core.errors import ExperimentError
    from .runner import (append_trajectory, check_budgets, compare_last_runs,
                         compare_last_service_runs, default_cache_root,
                         parse_budgets, render_bench, run_bench, QUICK_IDS)

    if service and not compare:
        print("error: --service only makes sense with --compare",
              file=sys.stderr)
        return 2
    if compare:
        differ = compare_last_service_runs if service else compare_last_runs
        try:
            table, regressions = differ(out, tolerance=tolerance)
        except ExperimentError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(table)
        for msg in regressions:
            print(msg, file=sys.stderr)
        return 3 if regressions else 0

    try:
        budget_map = parse_budgets(budgets)
        if quick and ids:
            raise ExperimentError("give either --quick or explicit ids")
        bench_ids = QUICK_IDS if quick else (ids or ["all"])
        profile_dir = None
        if profile:
            root = cache_dir or default_cache_root()
            profile_dir = os.path.join(str(root), "profiles")
        record = run_bench(bench_ids, scale=scale, seed=seed, label=label,
                           profile_dir=profile_dir,
                           progress=lambda msg: print(msg, file=sys.stderr))
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = append_trajectory(record, out)
    print(render_bench(record, top=top))
    print(f"wrote {path}")
    problems = check_budgets(record, budget_map)
    for problem in problems:
        print(problem, file=sys.stderr)
    if record.errors:
        return 1
    return 3 if problems else 0


def _cmd_cache(action: str, cache_dir: str | None,
               as_json: bool = False) -> int:
    from .blobstore import BlobStore
    from .runner import ResultCache
    from .simulator.ir import IR_SCHEMA

    cache = ResultCache(cache_dir)
    programs = BlobStore(cache.root, "ir", IR_SCHEMA)
    if action == "clear":
        removed = cache.clear()
        n_programs = programs.clear()
        print(f"removed {removed} cached result(s) and {n_programs} step "
              f"program(s) from {cache.root}")
        return 0
    entries = cache.entries()
    stats = {"results": cache.disk_stats(), "ir": programs.stats()}
    info = {"root": str(cache.root), "count": len(entries),
            "entries": entries, "ir": stats["ir"]["live"],
            **{kind: {ns: s[kind] for ns, s in stats.items()}
               for kind in ("orphaned", "quarantined")}}
    if as_json:
        import json

        print(json.dumps(info, indent=1))
        return 0
    print(f"cache root: {cache.root}")
    print(f"{len(entries)} cached result(s)")
    for e in entries:
        exp = e.get("experiment", "?")
        print(f"  {exp:<16} scale={e.get('scale', '?'):<6} "
              f"seed={e.get('seed', '?'):<4} {e['bytes']:>8} bytes  "
              f"{e['key'][:12]}")
    print(f"{info['ir']['count']} recorded step program(s), "
          f"{info['ir']['bytes']} bytes")
    for kind in ("orphaned", "quarantined"):
        print(f"{kind}: " + "; ".join(
            f"{ns} {s['count']} file(s), {s['bytes']} bytes"
            for ns, s in info[kind].items()))
    return 0


def _cmd_table1(seed: int, trials: int) -> int:
    cals = calibrate_all(seed=seed, trials=trials)
    print(render_table1(cals))
    mp = cals["maspar"]
    if mp.unb is not None:
        print(f"\nMasPar T_unb(P') = {mp.unb.a:.2f} P' + {mp.unb.b:.1f} "
              f"sqrt(P') + {mp.unb.c:.1f} us   (paper: 0.84 / 11.8 / 73.3)")
    if cals["gcel"].g_scatter is not None:
        print(f"GCel g_mscat = {cals['gcel'].g_scatter:.0f} us "
              "(paper: 492)")
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    """Run the component-ablation matrix and print the ranking."""
    from .ablation import AblateRequest, ablate, render_report
    from .core.errors import AblationError, FaultError
    from .faults import FaultPlan, plan_from_env

    try:
        plan = (FaultPlan.parse(args.faults) if args.faults
                else plan_from_env())
        req = AblateRequest(
            components=tuple(args.components) if args.components else None,
            cells=tuple(args.cells) if args.cells else None,
            scale=args.scale, seed=args.seed, jobs=args.jobs,
            cache_dir=args.cache_dir, use_cache=not args.no_cache,
            force=args.force)
        report = ablate(req, faults=plan)
    except (AblationError, FaultError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json_path:
        import json

        text = json.dumps(report, indent=1, sort_keys=True)
        if args.json_path == "-":
            print(text)
        else:
            with open(args.json_path, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.json_path}")
    if args.json_path != "-":
        print(render_report(report))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    """Measure the bound matrix and print the headroom ranking."""
    from .bounds import BoundsRequest, DEFAULT_THRESHOLD, bounds, \
        render_report
    from .core.errors import BoundsError

    try:
        req = BoundsRequest(
            cells=tuple(args.cells) if args.cells else None,
            scale=args.scale, seed=args.seed,
            threshold=(DEFAULT_THRESHOLD if args.threshold is None
                       else args.threshold),
            jobs=args.jobs, cache_dir=args.cache_dir,
            use_cache=not args.no_cache, force=args.force)
        report = bounds(req)
    except BoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json_path:
        import json

        text = json.dumps(report, indent=1, sort_keys=True)
        if args.json_path == "-":
            print(text)
        else:
            with open(args.json_path, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.json_path}")
    if args.json_path != "-":
        print(render_report(report))
    return 0


def _cmd_attribute(args: argparse.Namespace) -> int:
    """Run a workload and print the per-superstep error attribution.

    The run is the ``/predict`` request of the same machine, workload,
    model, size and seed, simulated, calibrated and priced by the
    oracle, so the ``total`` row is what ``/predict`` answers.
    """
    from .service.oracle import OracleError, PredictRequest, \
        _build_model, _simulate
    from .validation.attribution import attribute_error, render_attribution

    doc = {"machine": args.machine, "algorithm": args.workload,
           "model": args.model, "seed": args.seed}
    if args.size is not None:
        doc["size"] = args.size
    try:
        req = PredictRequest.from_json(doc)
        res, cal = _simulate(req)
        model = _build_model(req.model, cal)
    except OracleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = attribute_error(res.trace, model)
    print(f"{req.algorithm} on {req.machine}, priced by {req.model} "
          f"(calibrated parameters)\n")
    print(render_attribution(rows))
    if req.model == "bsf":
        p_max = model.p_max(res.trace)
        print(f"\nBSF scalability bound: P_max = "
              f"sqrt(t_comp/t_interact) = {p_max:,.1f} "
              f"(trace farm size P = {res.trace.P}) — beyond P_max "
              f"workers, adding hardware slows the farm down")
    return 0


def _cmd_machines(as_json: bool = False) -> int:
    catalog = machine_catalog()
    if as_json:
        import json

        print(json.dumps({"machines": catalog}, indent=1))
        return 0
    for entry in catalog:
        print(f"{entry['name']:<8} {entry['class']:<12} {entry['summary']}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .core.errors import FaultError
    from .faults import FaultPlan, plan_from_env
    from .service import ServiceConfig, run_service

    try:
        plan = (FaultPlan.parse(args.faults) if args.faults
                else plan_from_env())
    except FaultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_service(ServiceConfig(
        host=args.host, port=args.port, workers=args.workers,
        window_ms=args.window_ms, max_batch=args.max_batch,
        lru_size=args.lru_size, cache_dir=args.cache_dir,
        warm=not args.no_warm,
        faults=plan.render() if plan else None,
        request_timeout_s=args.request_timeout,
        processes=args.processes))


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import asyncio

    from .service import append_service_record, render_report, run_loadtest

    try:
        report = asyncio.run(run_loadtest(
            args.host, args.port, concurrency=args.concurrency,
            duration_s=args.duration, mix=args.mix, seed=args.seed))
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach http://{args.host}:{args.port} — "
              f"{exc}\n(is `repro serve` running?)", file=sys.stderr)
        return 2
    print(render_report(report))
    if not args.no_record:
        path = append_service_record(report, args.out, label=args.label)
        print(f"wrote {path}")
    if report.total == 0:
        print("error: no request completed", file=sys.stderr)
        return 1
    return 0


@contextmanager
def _cache_root(cache_dir: str | None):
    """Make ``--cache-dir`` the one cache root for a command.

    The result cache, the step-program store and every pool or fleet
    worker resolve their root from ``$REPRO_CACHE_DIR``, so the command
    exports it and installs a fresh process-wide step-program store
    (whose memory holds only what this root serves); both are restored
    afterwards.
    """
    if cache_dir is None:
        yield
        return
    from .simulator.ir import IRStore, ir_store_scope

    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    try:
        with ir_store_scope(IRStore()):
            yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with _cache_root(getattr(args, "cache_dir", None)):
            return _dispatch(args)
    except BrokenPipeError:
        # Reader of a `repro ... | head`-style pipe went away; exit with
        # the conventional SIGPIPE status instead of a traceback.  Point
        # stdout at devnull first so the interpreter's shutdown flush
        # does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 128 + 13


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        ids = ["all"] if args.run_all else args.ids
        return _cmd_run(ids, args.scale, args.seed, not args.no_plot,
                        args.json, jobs=args.jobs,
                        use_cache=not args.no_cache, force=args.force,
                        cache_dir=args.cache_dir, profile=args.profile,
                        timing_summary=args.run_all, faults=args.faults)
    if args.command == "bench":
        return _cmd_bench(args.ids, quick=args.quick, scale=args.scale,
                          seed=args.seed, out=args.out, label=args.label,
                          top=args.top, budgets=args.budget,
                          profile=args.profile, cache_dir=args.cache_dir,
                          compare=args.compare, tolerance=args.tolerance,
                          service=args.service)
    if args.command == "cache":
        return _cmd_cache(args.action, args.cache_dir, args.as_json)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadtest":
        return _cmd_loadtest(args)
    if args.command == "table1":
        return _cmd_table1(args.seed, args.trials)
    if args.command == "scoreboard":
        from .validation.scoreboard import build_scoreboard, render_scoreboard
        print(render_scoreboard(build_scoreboard(scale=args.scale,
                                                 seed=args.seed)))
        return 0
    if args.command == "ablate":
        return _cmd_ablate(args)
    if args.command == "bounds":
        return _cmd_bounds(args)
    if args.command == "attribute":
        return _cmd_attribute(args)
    if args.command == "machines":
        return _cmd_machines(args.as_json)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
