"""The prediction oracle behind ``POST /predict`` and ``POST /compare``.

A request names a machine, a cost model, an algorithm and a problem
size; the oracle runs the workload on the simulated machine (through the
IR store, like every experiment), prices the resulting trace under the
requested model with *calibrated* parameters, and returns the
measured/predicted times plus a comp/comm/sync breakdown.

One request is priced one way, by :func:`_price`: the trace's
:meth:`Trace.work_terms` plus one :meth:`CostModel.comm_cost_batch`
call.  :func:`predict_offline` prices one request and checks the sum
against :meth:`CostModel.trace_cost`, the call every experiment makes;
:func:`evaluate_batch`, the serving path, prices each request of a
micro-batch the same way, sharing only the simulations of requests that
name the same ``(machine, algorithm, size, seed)``.  ``repro
attribute`` runs its request through :func:`_simulate` and
:func:`_build_model` too, so its rows add up to the ``/predict`` answer.

Calibrations come from :func:`repro.experiments.common.calibrated`, i.e.
the process-wide ``calibration_for`` memo: the first request against a
machine configuration pays the Section 3 microbenchmark fit, every later
one hits the memo (the server pre-warms the three paper machines at
boot).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algorithms import apsp, bitonic, lu, matmul, radix, samplesort, stencil
from ..calibration.table1 import Calibration
from ..core.base import CostModel
from ..core.bpram import MPBPRAM
from ..core.bsf import BSF
from ..core.bsp import BSP
from ..core.ebsp import EBSP
from ..core.errors import ReproError
from ..core.logp import LogGP, logp_from_table1
from ..core.mp_bsp import MPBSP
from ..core.pram import PRAM
from ..experiments.common import calibrated, machine_for
from ..machines import MACHINES
from ..machines.base import Machine
from ..simulator.result import RunResult
from ..validation.scoreboard import Cell

__all__ = ["PredictRequest", "ALGORITHMS", "MODELS", "default_size",
           "predict_offline", "compare_offline", "ablate_offline",
           "bounds_offline", "evaluate_batch", "OracleError"]


class OracleError(ReproError):
    """A request the oracle cannot serve (unknown name, bad size...)."""


# ----------------------------------------------------------------------
# Workload and model registries
# ----------------------------------------------------------------------

def _run_matmul(machine: Machine, size: int, seed: int,
                variant: str) -> RunResult:
    q = 4 if machine.P >= 64 else 2
    return matmul.run(machine, size, variant=variant, P=q ** 3, seed=seed)


#: algorithm name -> (default size, runner(machine, size, seed)).
ALGORITHMS: dict[str, tuple[int, object]] = {
    "matmul": (128, lambda m, n, s: _run_matmul(m, n, s, "bsp-staggered")),
    "matmul-naive": (128, lambda m, n, s: _run_matmul(m, n, s, "bsp")),
    "bitonic": (64, lambda m, n, s: bitonic.run(m, n, variant="bsp",
                                                seed=s)),
    "bitonic-blk": (512, lambda m, n, s: bitonic.run(m, n, variant="bpram",
                                                     seed=s)),
    "samplesort": (256, lambda m, n, s: samplesort.run(m, n,
                                                       variant="bpram",
                                                       seed=s)),
    "radix": (256, lambda m, n, s: radix.run(m, n, variant="bpram",
                                             seed=s)),
    "apsp": (64, lambda m, n, s: apsp.run(m, n, seed=s)),
    "lu": (64, lambda m, n, s: lu.run(m, n, seed=s)),
    "stencil": (64, lambda m, n, s: stencil.run(m, n, 8, seed=s)),
}


def _build_model(name: str, cal: Calibration) -> CostModel:
    params = cal.params
    if name == "bsp":
        return BSP(params)
    if name == "mp-bsp":
        return MPBSP(params)
    if name == "mp-bpram":
        return MPBPRAM(params)
    if name == "pram":
        return PRAM(params)
    if name == "loggp":
        return LogGP(params, logp_from_table1(params))
    if name == "bsf":
        return BSF(params)
    if name == "e-bsp":
        if cal.unb is None:
            raise OracleError(
                "model 'e-bsp' needs the unbalanced-cost calibration, "
                "which only the maspar provides")
        return EBSP(params, cal.unb)
    raise OracleError(f"unknown model {name!r}; known: {', '.join(MODELS)}")


#: model names ``POST /predict`` accepts (e-bsp is maspar-only).
MODELS = ("bsp", "mp-bsp", "mp-bpram", "pram", "loggp", "bsf", "e-bsp")


def default_size(algorithm: str) -> int:
    try:
        return ALGORITHMS[algorithm][0]
    except KeyError:
        raise OracleError(f"unknown algorithm {algorithm!r}; known: "
                          f"{', '.join(ALGORITHMS)}") from None


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PredictRequest:
    """One fully validated ``/predict`` (or ``/compare``) workload."""

    machine: str
    model: str          # ignored by /compare, which prices every model
    algorithm: str
    size: int
    seed: int = 0

    @classmethod
    def from_json(cls, doc: dict, *, need_model: bool = True
                  ) -> "PredictRequest":
        """Validate a JSON body; raise :class:`OracleError` with a
        client-presentable message on any problem."""
        if not isinstance(doc, dict):
            raise OracleError("request body must be a JSON object")
        machine = doc.get("machine")
        if machine not in MACHINES:
            raise OracleError(f"unknown machine {machine!r}; known: "
                              f"{', '.join(MACHINES)}")
        algorithm = doc.get("algorithm")
        if algorithm not in ALGORITHMS:
            raise OracleError(f"unknown algorithm {algorithm!r}; known: "
                              f"{', '.join(ALGORITHMS)}")
        model = doc.get("model", "bsp")
        if need_model and model not in MODELS:
            raise OracleError(f"unknown model {model!r}; known: "
                              f"{', '.join(MODELS)}")
        size = doc.get("size")
        if size is None:
            scale = doc.get("scale", 1.0)
            if not isinstance(scale, (int, float)) or not 0 < scale <= 1:
                raise OracleError(f"scale must be in (0, 1], got {scale!r}")
            size = max(1, int(round(default_size(algorithm) * scale)))
        if not isinstance(size, int) or isinstance(size, bool) \
                or not 0 < size <= 65536:
            raise OracleError(f"size must be an int in [1, 65536], "
                              f"got {size!r}")
        seed = doc.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) \
                or not 0 <= seed < 2 ** 31:
            raise OracleError(f"seed must be a non-negative int, "
                              f"got {seed!r}")
        return cls(machine=machine, model=model, algorithm=algorithm,
                   size=size, seed=seed)

    @property
    def sim_key(self) -> tuple:
        """What determines the simulated trace (model excluded)."""
        return (self.machine, self.algorithm, self.size, self.seed)


def _simulate(req: PredictRequest) -> tuple[RunResult, Calibration]:
    """Run the workload on a fresh machine and calibrate it.

    Machine construction, seeding and calibration follow the exact
    conventions of the offline experiments (``machine_for`` +
    ``calibrated``, which fits a separate machine seeded ``seed + 1000``
    and leaves the run machine's RNG alone), so predictions agree with
    the figures.
    """
    machine = machine_for(req.machine, seed=req.seed)
    cal = calibrated(machine, seed=req.seed)
    _, runner = ALGORITHMS[req.algorithm]
    try:
        res = runner(machine, req.size, req.seed)
    except ReproError as exc:
        raise OracleError(f"cannot run {req.algorithm} at size "
                          f"{req.size} on {req.machine}: {exc}") from exc
    return res, cal


def _price(req: PredictRequest, res: RunResult, model: CostModel) -> dict:
    """The /predict response: ``req``'s run ``res`` priced by ``model``.

    The trace is priced through :meth:`Trace.work_terms` and one
    :meth:`CostModel.comm_cost_batch` call, and ``predicted_us`` is
    accumulated left-to-right exactly like :meth:`CostModel.trace_cost`
    (``sum(work + comm)`` per superstep).
    """
    trace = res.trace
    comp = trace.work_terms(model.params)
    comm = model.comm_cost_batch([s.phase for s in trace])
    predicted = sum(w + c for w, c in zip(comp, comm))
    n_sync = sum(1 for s in trace if not s.phase.is_empty)
    measured = res.time_us
    return {
        "machine": req.machine,
        "model": req.model,
        "algorithm": req.algorithm,
        "size": req.size,
        "seed": req.seed,
        "P": trace.P,
        "supersteps": len(trace),
        "syncs": n_sync,
        "messages": trace.total_messages,
        "bytes": trace.total_bytes,
        "measured_us": measured,
        "predicted_us": predicted,
        "relative_error": (predicted - measured) / measured
        if measured else 0.0,
        "breakdown": {
            # comp: the model's `c` term summed over supersteps; comm:
            # everything else (the model's communication charge,
            # latency included); sync_nominal: `L x syncs`, an
            # informational slice of comm for BSP-family models.
            "comp_us": sum(comp),
            "comm_us": sum(comm),
            "sync_nominal_us": model.params.L * n_sync,
        },
    }


# ----------------------------------------------------------------------
# Offline (one request) path
# ----------------------------------------------------------------------

def predict_offline(doc_or_req) -> dict:
    """One request through the plain offline pipeline.

    This is the reference a served answer must equal: the trace is
    priced by :func:`_price`, and the sum must equal
    :meth:`CostModel.trace_cost`, the call the experiments make.
    """
    req = (doc_or_req if isinstance(doc_or_req, PredictRequest)
           else PredictRequest.from_json(doc_or_req))
    res, cal = _simulate(req)
    model = _build_model(req.model, cal)
    out = _price(req, res, model)
    # cross-check: the breakdown must reproduce trace_cost exactly
    assert out["predicted_us"] == model.trace_cost(res.trace)
    return out


def compare_offline(doc_or_req) -> dict:
    """Price one workload under every applicable model, ranked by |error|."""
    req = (doc_or_req if isinstance(doc_or_req, PredictRequest)
           else PredictRequest.from_json(doc_or_req, need_model=False))
    res, cal = _simulate(req)
    measured = res.time_us
    cells = []
    for name in MODELS:
        if name == "e-bsp" and cal.unb is None:
            continue
        model = _build_model(name, cal)
        cells.append(Cell(workload=req.algorithm, machine=req.machine,
                          model=name, measured_us=measured,
                          predicted_us=model.trace_cost(res.trace)))
    cells.sort(key=lambda c: abs(c.error))
    return {
        "machine": req.machine,
        "algorithm": req.algorithm,
        "size": req.size,
        "seed": req.seed,
        "measured_us": measured,
        "best_model": cells[0].model if cells else None,
        "ranking": [c.to_dict() for c in cells],
    }


def ablate_offline(doc_or_req) -> dict:
    """One ablation request through the plain offline pipeline.

    The reference for ``POST /ablate``: a served report must be
    byte-identical to this (the ablation evaluator is deterministic and
    its execution knobs — jobs, cache state — never change the bytes).
    Runs with ``jobs=1``: inside a batch worker the matrix is evaluated
    inline rather than fanning out a process pool per HTTP request.
    """
    from ..ablation import AblateRequest, ablate

    req = (doc_or_req if isinstance(doc_or_req, AblateRequest)
           else AblateRequest.from_json(doc_or_req))
    return ablate(req)


def bounds_offline(doc_or_req) -> dict:
    """One optimality-bounds request through the offline pipeline.

    The reference for ``POST /bounds``: a served report must be
    byte-identical to this (measurement is deterministic and the
    execution knobs — jobs, cache/IR-store state — never change the
    bytes).  Runs with ``jobs=1`` inside a batch worker.
    """
    from ..bounds import BoundsRequest, bounds

    req = (doc_or_req if isinstance(doc_or_req, BoundsRequest)
           else BoundsRequest.from_json(doc_or_req))
    return bounds(req)


# ----------------------------------------------------------------------
# Batched (serving) path
# ----------------------------------------------------------------------

def evaluate_batch(items: list[tuple[str, tuple, PredictRequest]]
                   ) -> dict[tuple, object]:
    """Evaluate one micro-batch of ``(kind, key, request)`` jobs.

    ``kind`` is ``"predict"``, ``"compare"``, ``"ablate"`` or
    ``"bounds"``.  Returns
    ``key -> response dict`` (or ``key -> Exception`` for per-job
    failures — one bad request never poisons its batch-mates).

    Predict jobs share simulations: jobs with one ``req.sim_key`` — ten
    clients asking about the same workload — trigger one simulator run.
    Each predict job is then priced on its own by :func:`_price`, exactly
    as :func:`predict_offline` prices it.
    """
    out: dict[tuple, object] = {}
    sims: dict[tuple, tuple[RunResult, Calibration] | Exception] = {}

    def sim(req: PredictRequest):
        got = sims.get(req.sim_key)
        if got is None:
            try:
                got = _simulate(req)
            except Exception as exc:  # noqa: BLE001 — reported per job
                got = exc
            sims[req.sim_key] = got
        if isinstance(got, Exception):
            raise got
        return got

    for kind, key, req in items:
        try:
            if kind == "compare":
                out[key] = compare_offline(req)
            elif kind == "ablate":
                # heavyweight and self-caching (the result cache makes
                # repeats incremental); runs inline like compare
                out[key] = ablate_offline(req)
            elif kind == "bounds":
                # same discipline: self-caching via the result cache
                # and the IR store, inline in the batch worker
                out[key] = bounds_offline(req)
            else:
                res, cal = sim(req)
                out[key] = _price(req, res, _build_model(req.model, cal))
        except Exception as exc:  # noqa: BLE001
            out[key] = exc
    return out
