"""The oracle snapshot: digests of the runs the per-rank generator
programs made, frozen before those programs were deleted.

Every algorithm was once written twice, as a per-rank generator program
(run by ``run_spmd``) and as the lockstep vector program that every
``run()`` records.  The tests compared the two engine by engine.  Their
outputs over that comparison matrix are frozen in ``oracle.json``, one
entry per case, so the vector programs are now held to what the
generator programs computed rather than to a second implementation.

An entry maps a case id to the digests of four parts of a run plus two
readable numbers:

* ``clocks`` -- the final clocks and ``time_us``;
* ``structure`` -- each superstep's label, stagger flag, five phase
  columns and ``work.by_rank()``;
* ``measured`` -- each superstep's ``measured_us``;
* ``returns`` -- the per-rank results (``null`` for matmul, whose
  blocks come from BLAS and may differ in their last bits between
  hosts: its data is checked against ``A @ B`` instead);
* ``time_us`` and ``supersteps``, for a reader.

A case id names the algorithm, variant, machine and machine seed, P, the
size, the data seed and any extra keywords, e.g.
``samplesort/bsp/cm5#2/P16/n96/seed8/oversample=1``.
``scripts/update_oracle.py`` writes the snapshot; run it only on purpose.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.algorithms import (apsp, bitonic, collectives, lu, matmul, radix,
                              samplesort, stencil)
from repro.core.work import WORK_FIELDS
from repro.machines import CM5, GCel, MasParMP1, ModernCluster, T800Grid
from repro.simulator import run_spmd_vector
from repro.simulator.ir import IRStore, ir_store_scope

SNAPSHOT = Path(__file__).with_name("oracle.json")
_PHASE_FIELDS = ("src", "dst", "count", "msg_bytes", "step")
FORMAT = "repro-oracle/1"
PARTS = ("clocks", "structure", "measured", "returns")
FIELDS = PARTS + ("time_us", "supersteps")

MACHINES = {
    "maspar": MasParMP1,
    "gcel": GCel,
    "cm5": CM5,
    "t800": T800Grid,
    "modern": ModernCluster,
}


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------

class Algorithm(NamedTuple):
    run: Callable           #: (machine, case) -> RunResult
    vector: Callable        #: the vector program
    args: Callable          #: case -> program arguments after the inputs
    defaults: dict          #: extra keywords left out of ids at these values
    variant: str | None     #: the variant ``run()`` takes by default


def _kw(case: "Case", *names) -> dict:
    kw = case.keywords
    return {n: kw[n] for n in names if n in kw}


ALGORITHMS: dict[str, Algorithm] = {
    "matmul": Algorithm(
        lambda m, c: matmul.run(m, c.size, variant=c.variant, P=c.P,
                                seed=c.seed),
        matmul.matmul_vector_program,
        lambda c: (matmul.MatmulSetup.create(c.size, c.P), c.variant),
        {}, "bsp-staggered"),
    "bitonic": Algorithm(
        lambda m, c: bitonic.run(m, c.size, variant=c.variant, P=c.P,
                                 seed=c.seed, **_kw(c, "sync_every",
                                                    "key_bits",
                                                    "group_words")),
        bitonic.bitonic_vector_program,
        lambda c: (c.variant, c.keywords["sync_every"],
                   c.keywords["key_bits"], c.keywords["group_words"]),
        {"sync_every": 256, "key_bits": 32, "group_words": 1}, "bsp"),
    "lu": Algorithm(
        lambda m, c: lu.run(m, c.size, P=c.P, seed=c.seed),
        lu.lu_vector_program, lambda c: (), {}, None),
    "apsp": Algorithm(
        lambda m, c: apsp.run(m, c.size, P=c.P, seed=c.seed,
                              **_kw(c, "density")),
        apsp.apsp_vector_program, lambda c: (), {"density": 0.3}, None),
    "samplesort": Algorithm(
        lambda m, c: samplesort.run(m, c.size, variant=c.variant, P=c.P,
                                    seed=c.seed, **_kw(c, "oversample",
                                                       "key_bits")),
        samplesort.sample_sort_vector_program,
        lambda c: (c.variant, c.keywords["oversample"],
                   c.keywords["key_bits"],
                   c.keywords.get("sample_seed", c.seed)),
        {"oversample": 32, "key_bits": 32}, "bpram"),
    "radix": Algorithm(
        lambda m, c: radix.run(m, c.size, variant=c.variant, P=c.P,
                               seed=c.seed, **_kw(c, "key_bits")),
        radix.radix_sort_vector_program,
        lambda c: (c.variant, c.keywords["key_bits"]),
        {"key_bits": 32}, "bpram"),
    "stencil": Algorithm(
        lambda m, c: stencil.run(m, c.size, c.keywords["iters"], P=c.P,
                                 seed=c.seed),
        stencil.stencil_vector_program, lambda c: (c.keywords["iters"],),
        {}, None),
    "broadcast": Algorithm(
        lambda m, c: collectives.run_broadcast(m, c.size, strategy=c.variant,
                                               P=c.P),
        collectives.broadcast_vector_program, lambda c: (c.variant,),
        {}, None),
    "row-broadcast": Algorithm(
        lambda m, c: collectives.run_row_broadcast(m, c.size,
                                                   strategy=c.variant,
                                                   P=c.P),
        collectives.row_broadcast_vector_program, lambda c: (c.variant,),
        {}, None),
}

#: algorithms without a data seed: their inputs follow from the size.
SEEDLESS = {"broadcast", "row-broadcast"}


def _skewed(fill: int) -> Callable:
    def keys(P: int, M: int) -> np.ndarray:
        out = np.full((P, M), fill, dtype=np.uint64)
        out[0, :5] = [1, 2, 3, 4, 5]
        return out
    return keys


#: named key stacks for cases that run on chosen inputs instead of the
#: ones ``run()`` draws (the adversarial inputs).
INPUTS: dict[str, Callable[[int, int], np.ndarray]] = {
    "equal": lambda P, M: np.full((P, M), 42, dtype=np.uint64),
    "ascending": lambda P, M: np.arange(P * M, dtype=np.uint64)
    .reshape(P, M),
    "descending": lambda P, M: np.arange(P * M, dtype=np.uint64)[::-1]
    .reshape(P, M),
    "constant": lambda P, M: np.full((P, M), 7, dtype=np.uint64),
    "skewed": _skewed(7),
    "skewed-top": _skewed((7 << 28) + 1),
}


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return "+".join(value) or "none"
    return str(value)


@dataclass(frozen=True)
class Case:
    """One configuration of the oracle matrix.  Build it with
    :func:`case`, which fills the algorithm's defaults."""

    algorithm: str
    variant: str | None
    machine: str
    machine_seed: int
    P: int
    size: int
    seed: int | None
    extra: tuple = ()   #: sorted (keyword, value) pairs off their defaults

    @property
    def id(self) -> str:
        seed = "-" if self.seed is None else self.seed
        head = (f"{self.algorithm}/{self.variant or '-'}/{self.machine}"
                f"#{self.machine_seed}/P{self.P}/n{self.size}/seed{seed}")
        return head + "".join(f"/{k}={_fmt(v)}" for k, v in self.extra)

    @property
    def keywords(self) -> dict:
        """The extra keywords with the algorithm's defaults filled in."""
        return {**ALGORITHMS[self.algorithm].defaults, **dict(self.extra)}

    @property
    def chosen_inputs(self) -> bool:
        return "keys" in self.keywords

    def machine_instance(self):
        return MACHINES[self.machine](
            seed=self.machine_seed,
            disable=self.keywords.get("disable", ()))


def case(algorithm: str, machine: str, machine_seed: int, size: int, *,
         P: int | None = None, seed: int | None = 0,
         variant: str | None = None, **extra) -> Case:
    """The :class:`Case` of one ``run()`` call: ``P`` defaults to the
    whole machine, ``variant`` to the one ``run()`` takes by default,
    and keywords at their defaults are left out of the id."""
    alg = ALGORITHMS[algorithm]
    if P is None:
        P = MACHINES[machine]().P
    if algorithm in SEEDLESS or "keys" in extra:
        seed = None
    extra = {k: tuple(v) if isinstance(v, (list, tuple)) else v
             for k, v in extra.items()
             if alg.defaults.get(k, object()) != v and v != ()}
    return Case(algorithm, variant or alg.variant, machine, machine_seed, P,
                size, seed, tuple(sorted(extra.items())))


# ----------------------------------------------------------------------
# Running a case
# ----------------------------------------------------------------------

def run_ir(c: Case):
    """The case through its algorithm's ``run()`` on a fresh machine."""
    assert not c.chosen_inputs, c.id
    return ALGORITHMS[c.algorithm].run(c.machine_instance(), c)


def case_inputs(c: Case, like=None):
    """The case's inputs: its chosen key stack, or those of the
    ``run()`` result ``like``."""
    if c.chosen_inputs:
        return INPUTS[c.keywords["keys"]](c.P, c.size)
    return like.inputs


def run_vector(c: Case, like=None):
    """The case's vector program through ``run_spmd_vector`` on a fresh
    machine, fed :func:`case_inputs`."""
    alg = ALGORITHMS[c.algorithm]
    return run_spmd_vector(c.machine_instance(), alg.vector,
                           case_inputs(c, like), *alg.args(c), P=c.P)


def assert_runs_identical(a, b) -> None:
    """Every observable of two runs must match exactly: clocks, results,
    and each superstep's label, phase, work items and measured time."""
    assert a.time_us == b.time_us
    assert np.array_equal(a.clocks, b.clocks)
    assert len(a.returns) == len(b.returns)
    for x, y in zip(a.returns, b.returns):
        assert np.array_equal(np.asarray(x), np.asarray(y))
    assert len(a.trace.supersteps) == len(b.trace.supersteps)
    for x, y in zip(a.trace.supersteps, b.trace.supersteps):
        assert x.label == y.label
        assert x.measured_us == y.measured_us
        assert x.work.by_rank() == y.work.by_rank()
        assert x.phase.stagger == y.phase.stagger
        for field in _PHASE_FIELDS:
            assert np.array_equal(getattr(x.phase, field),
                                  getattr(y.phase, field)), \
                f"phase field {field} differs in superstep {x.label!r}"


def check_data(c: Case, res, like=None) -> None:
    """Check ``res``'s results against numpy, independently of the
    snapshot: the sequential references of Floyd, LU and Jacobi (exactly:
    they do the same arithmetic per element), ``A @ B`` (to rounding),
    sorts that are a sorted permutation of their inputs, and broadcasts
    that deliver their vectors.  The inputs are :func:`case_inputs` of
    ``like`` (default ``res`` itself, a ``run()`` result)."""
    returns = res.returns
    inputs = case_inputs(c, res if like is None else like)
    assert len(returns) == c.P, c.id
    if c.algorithm == "matmul":
        A, B = inputs
        setup = matmul.MatmulSetup.create(c.size, c.P)
        assert np.allclose(matmul.assemble(setup, returns), A @ B), c.id
    elif c.algorithm == "apsp":
        got = apsp.assemble(c.P, c.size, returns)
        assert np.array_equal(got, apsp.reference_apsp(inputs)), c.id
    elif c.algorithm == "lu":
        L, U = lu.reference_lu(inputs)
        got = lu.assemble(c.P, c.size, returns)
        assert np.array_equal(got, np.tril(L, -1) + U), c.id
    elif c.algorithm == "stencil":
        want = stencil.reference_jacobi(inputs, c.keywords["iters"])
        got = stencil.assemble(c.P, c.size, returns)
        assert np.array_equal(got, want), c.id
    elif c.algorithm == "broadcast":
        for out in returns:
            assert np.array_equal(out, inputs), c.id
    elif c.algorithm == "row-broadcast":
        side = int(np.sqrt(c.P))
        for rank, out in enumerate(returns):
            assert np.array_equal(out, inputs[rank // side]), c.id
    else:  # the sorts: a sorted permutation of the inputs, rank by rank
        flat = np.concatenate([np.asarray(r).ravel() for r in returns])
        assert np.array_equal(flat, np.sort(np.asarray(inputs).ravel())), \
            c.id


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------

def _hash(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def _array(a) -> bytes:
    a = np.ascontiguousarray(a)
    return f"{a.dtype.str}{a.shape}".encode() + a.tobytes()


def _phase_bytes(phase) -> bytes:
    return (b"s" if phase.stagger else b"u") + b"".join(
        _array(np.asarray(getattr(phase, f), dtype=np.int64))
        for f in _PHASE_FIELDS)


def _work_bytes(work) -> bytes:
    # work params compare as numbers whichever engine built them
    items = {rank: [(type(w).__name__,
                     *(float(getattr(w, f)) for f in WORK_FIELDS[type(w)]))
                    for w in ws]
             for rank, ws in work.by_rank().items()}
    return repr(sorted(items.items())).encode()


def _structure(trace):
    # replayed supersteps share their phase and work objects: encode
    # each object once (the trace keeps them alive, so ids are stable)
    seen: dict[int, bytes] = {}
    for s in trace:
        yield s.label.encode() + b"\0"
        for obj, encode in ((s.phase, _phase_bytes), (s.work, _work_bytes)):
            chunk = seen.get(id(obj))
            if chunk is None:
                chunk = seen[id(obj)] = encode(obj)
            yield chunk


def digest(result, *, returns: bool = True) -> list:
    """The snapshot entry of ``result``: the :data:`FIELDS` values."""
    trace = result.trace
    return [
        _hash([_array(result.clocks),
               _array(np.float64(result.time_us))]),
        _hash(_structure(trace)),
        _hash([_array(np.array([s.measured_us for s in trace],
                               dtype=np.float64))]),
        _hash(_array(np.asarray(r)) for r in result.returns)
        if returns else None,
        result.time_us,
        len(trace),
    ]


def pins_returns(c: Case) -> bool:
    """Matmul's blocks come from BLAS; every other result is pinned."""
    return c.algorithm != "matmul"


def load() -> dict[str, list]:
    """The snapshot's entries by case id."""
    doc = json.loads(SNAPSHOT.read_text())
    assert doc["format"] == FORMAT and doc["fields"] == list(FIELDS)
    return doc["entries"]


@functools.cache
def _entries() -> dict[str, list]:
    return load()


def entry(c: Case) -> list:
    return _entries()[c.id]


def moved(c: Case, result) -> list[str]:
    """The parts of ``result`` that differ from the case's entry."""
    want = entry(c)
    got = digest(result, returns=pins_returns(c))
    return [name for name, a, b in zip(FIELDS, got, want) if a != b]


def assert_matches(c: Case, result, what: str = "run") -> None:
    parts = moved(c, result)
    assert not parts, f"{c.id}: {what} moved from the oracle in {parts}"


def assert_engines_agree(c: Case, runs: dict) -> None:
    """Every run of ``runs`` (name -> result) matches the case's entry,
    so they match each other; where the snapshot does not pin the
    returns (matmul), the runs' returns must agree bit for bit."""
    for name, res in runs.items():
        assert_matches(c, res, name)
    if not pins_returns(c):
        first, *rest = runs.values()
        for res in rest:
            assert len(res.returns) == len(first.returns), c.id
            for x, y in zip(res.returns, first.returns):
                assert np.array_equal(x, y), c.id


def dump(entries: dict[str, list]) -> str:
    """The snapshot file's text: one entry per line, sorted by id."""
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}"
             for k, v in sorted(entries.items())]
    return ("{\n"
            f'  "format": {json.dumps(FORMAT)},\n'
            f'  "fields": {json.dumps(list(FIELDS))},\n'
            '  "entries": {\n  ' + ",\n  ".join(lines) + "\n  }\n}\n")


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------

def _test_ir_cases() -> list[Case]:
    """``tests/simulator/test_ir.py``'s case table on every machine,
    machine seed 1, plus its record-once ablation sweeps."""
    out = []
    for m in sorted(MACHINES):
        out += [
            case("matmul", m, 1, 12, P=8, seed=3),
            case("matmul", m, 1, 16, P=8, seed=3, variant="bsp-2d"),
            case("matmul", m, 1, 64, P=64, seed=3, variant="bsp-2d"),
            case("matmul", m, 1, 16, P=8, seed=3, variant="bpram-2d"),
            case("matmul", m, 1, 64, P=64, seed=3, variant="bpram-2d"),
            case("bitonic", m, 1, 128, P=16, seed=5),
            case("lu", m, 1, 16, P=16, seed=7),
            case("apsp", m, 1, 16, P=16, seed=11),
            case("samplesort", m, 1, 256, P=16, seed=13),
            case("radix", m, 1, 256, P=16, seed=17),
            case("stencil", m, 1, 16, P=16, seed=19, iters=4),
            case("broadcast", m, 1, 64, P=16, variant="naive"),
            case("broadcast", m, 1, 64, P=16, variant="two-phase"),
            case("row-broadcast", m, 1, 8, P=16, variant="direct"),
            case("row-broadcast", m, 1, 8, P=16, variant="two-phase"),
        ]
    for s in (0, 9):
        for disable in ((), ("endpoint-contention",),
                        ("comm-staggering", "cache-effects")):
            out.append(case("bitonic", "cm5", s, 128, P=16, seed=5,
                            disable=disable))
        for disable in ((), ("incast-collapse",), ("adaptive-routing",),
                        ("incast-collapse", "adaptive-routing")):
            out.append(case("radix", "modern", s, 256, P=16, seed=17,
                            disable=disable))
    return out


ALL5 = sorted(MACHINES)


def _equivalence_cases() -> list[Case]:
    """Every parametrized case of ``test_vector_equivalence.py``."""
    out = []
    for m in ALL5:
        out += [case("apsp", m, 3, 32, P=16, seed=1),
                case("apsp", m, 3, 16, P=64, seed=1),
                case("lu", m, 19, 32, P=16, seed=1),
                case("lu", m, 19, 16, P=64, seed=1)]
        out += [case("bitonic", m, 11, 24, P=64, seed=2, variant=v)
                for v in bitonic.VARIANTS]
        out += [case("samplesort", m, 17, 64, P=16, seed=5, variant=v,
                     oversample=8) for v in samplesort.VARIANTS]
        out += [case("radix", m, 11, 64, P=16, seed=2, variant=v)
                for v in radix.VARIANTS]
    for m in ("gcel", "cm5", "t800"):
        out += [case("matmul", m, 13, 48, P=64, seed=4, variant=v)
                for v in matmul.VARIANTS]
    for s in (0, 7):
        out += [case("apsp", "maspar", s, 32, P=64, seed=s),
                case("samplesort", "gcel", s, 48, P=16, seed=s,
                     variant="bpram", oversample=16),
                case("radix", "gcel", s, 96, P=16, seed=s, variant="bpram"),
                case("lu", "gcel", s, 24, P=16, seed=s)]
    out += [
        case("apsp", "cm5", 0, 32, P=16, seed=5),
        case("bitonic", "gcel", 5, 300, P=16, seed=3, variant="bsp-sync",
             sync_every=128),
        case("bitonic", "maspar", 1, 32, P=256, seed=0, group_words=4),
        case("bitonic", "maspar", 0, 16, P=64, seed=9),
        case("matmul", "maspar", 0, 100, P=1000, seed=0, variant="bsp"),
        case("matmul", "cm5", 0, 64, seed=6),
        case("samplesort", "cm5", 2, 96, P=16, seed=8, variant="bsp",
             oversample=1),
        case("samplesort", "maspar", 0, 64, P=16, seed=9, oversample=8),
        case("radix", "modern", 3, 64, P=256, seed=1),
        case("radix", "cm5", 5, 48, P=16, seed=4, variant="bsp", key_bits=6),
        case("radix", "maspar", 0, 64, P=16, seed=9),
        case("lu", "cm5", 0, 8, P=1, seed=2),
        case("lu", "cm5", 0, 32, P=16, seed=5),
    ]
    return out


SWEEP_SEEDS = (0, 4097, 65536)
SWEEP3 = ("maspar", "gcel", "cm5")


def _sweep_cases() -> list[Case]:
    """Each ``test_property_sweep`` domain of
    ``test_vector_equivalence.py`` as a fixed grid: its finite axes in
    full, its integer axes at a few points spread over the grid.  The
    machine seed is the data seed, as in the sweeps."""
    out = []
    i = 0
    for m in SWEEP3:
        for side in (2, 4):
            for mult in (1, 2, 4, 8):
                s = SWEEP_SEEDS[i % 3]
                i += 1
                out.append(case("apsp", m, s, side * mult, P=side * side,
                                seed=s))
    for k, m in enumerate(SWEEP3):
        for v in bitonic.VARIANTS:
            for log_p in range(1, 6):
                M = (1, 13, 48)[(k + log_p) % 3]
                s = SWEEP_SEEDS[log_p % 3]
                out.append(case("bitonic", m, s, M, P=1 << log_p, seed=s,
                                variant=v))
    for m in SWEEP3:
        for v in samplesort.VARIANTS:
            for P in (4, 16):
                for M, o, s in ((8, 1, 0), (33, 8, 77), (96, 3, 4096),
                                (57, 6, 65536)):
                    out.append(case("samplesort", m, s, M, P=P, seed=s,
                                    variant=v, oversample=o))
    for m in ("maspar", "gcel", "modern"):
        for v in radix.VARIANTS:
            for P in (4, 16, 64):
                for kb in (8, 16, 32):
                    for M, s in ((8, 0), (51, 4097), (96, 65536)):
                        out.append(case("radix", m, s, M, P=P, seed=s,
                                        variant=v, key_bits=kb))
    i = 0
    for m in SWEEP3:
        for side in (1, 2, 4):
            for mult in range(1, 9):
                s = SWEEP_SEEDS[i % 3]
                i += 1
                out.append(case("lu", m, s, side * mult, P=side * side,
                                seed=s))
    return out


def _cross_seed_cases() -> list[Case]:
    """``test_oblivious.py``'s cross-seed runs: seed 4 on a fresh
    recording, machine seed 0."""
    out = []
    for m in ("gcel", "maspar"):
        out += [case("apsp", m, 0, 16, P=16, seed=4),
                case("lu", m, 0, 16, P=16, seed=4),
                case("bitonic", m, 0, 64, P=16, seed=4, variant="bsp"),
                case("matmul", m, 0, 8, P=8, seed=4, variant="bsp"),
                case("stencil", m, 0, 16, P=16, seed=4, iters=1)]
    return out


def ir_parity_cases(machine: str, seed_offset: int = 0) -> list[Case]:
    """``scripts/ir_parity.py``'s configurations on ``machine`` (machine
    seed 1), at their data seeds plus ``seed_offset``."""
    o = seed_offset
    return [
        case("matmul", machine, 1, 24, P=8, seed=3 + o),
        case("matmul", machine, 1, 16, P=8, seed=3 + o, variant="bsp-2d"),
        case("matmul", machine, 1, 16, P=8, seed=3 + o, variant="bpram-2d"),
        case("bitonic", machine, 1, 256, P=16, seed=5 + o),
        case("lu", machine, 1, 32, P=16, seed=7 + o),
        case("apsp", machine, 1, 24, P=16, seed=11 + o),
        case("samplesort", machine, 1, 512, P=16, seed=13 + o),
        case("radix", machine, 1, 256, P=16, seed=17 + o),
        case("stencil", machine, 1, 32, P=16, seed=19 + o, iters=4),
        case("broadcast", machine, 1, 64, P=16, variant="naive"),
        case("broadcast", machine, 1, 64, P=16, variant="two-phase"),
        case("row-broadcast", machine, 1, 16, P=16, variant="direct"),
        case("row-broadcast", machine, 1, 16, P=16, variant="two-phase"),
    ]


def _ir_parity_cases() -> list[Case]:
    return [c for m in ALL5 for o in (0, 100) for c in ir_parity_cases(m, o)]


def _trace_cost_cases() -> list[Case]:
    """``tests/core/test_trace_cost_identity.py``'s runs."""
    return [case("bitonic", "maspar", 1, 128, P=16, seed=5),
            case("lu", "gcel", 1, 16, P=16, seed=7),
            case("radix", "modern", 1, 256, P=16, seed=17, variant="bpram")]


def adversarial_cases() -> list[Case]:
    """The sorts on chosen key stacks (``tests/test_edgecases.py``,
    ``tests/algorithms/test_{radix,samplesort}.py``)."""
    out = [case("bitonic", "cm5", 0, 8, P=16, keys="equal"),
           case("bitonic", "cm5", 0, 8, P=16, variant="bpram",
                keys="ascending"),
           case("bitonic", "cm5", 0, 8, P=16, variant="bpram",
                keys="descending"),
           case("samplesort", "cm5", 0, 32, P=16, oversample=8,
                keys="constant", sample_seed=0)]
    out += [case("radix", "cm5", 7, 32, P=16, variant=v, keys="skewed-top")
            for v in radix.VARIANTS]
    out += [case("samplesort", "cm5", 7, 32, P=64, variant=v, oversample=8,
                 keys="skewed", sample_seed=1) for v in samplesort.VARIANTS]
    return out


#: group -> its cases; every case id of the snapshot is in at least one.
GROUPS: dict[str, Callable[[], list[Case]]] = {
    "test-ir": _test_ir_cases,
    "equivalence": _equivalence_cases,
    "sweep": _sweep_cases,
    "cross-seed": _cross_seed_cases,
    "ir-parity": _ir_parity_cases,
    "trace-cost": _trace_cost_cases,
    "adversarial": adversarial_cases,
}


def all_cases() -> dict[str, Case]:
    """Every case of the matrix by id (a case in two groups once)."""
    out: dict[str, Case] = {}
    for cases in GROUPS.values():
        for c in cases():
            out.setdefault(c.id, c)
    return out


def engines(c: Case) -> dict[str, Any]:
    """The case through every production path: ``run()`` recording and
    its memory hit (in a fresh store), then ``run_spmd_vector`` on the
    recording's inputs.  A chosen-input case has only the last."""
    if c.chosen_inputs:
        return {"vector": run_vector(c)}
    with ir_store_scope(IRStore(disk=False)) as store:
        record = run_ir(c)
        hit = run_ir(c)
        assert store.recorded == 1 and store.memory_hits == 1, c.id
    return {"record": record, "memory hit": hit,
            "vector": run_vector(c, record)}
