"""Record-once lowering: turn an (algorithm, config) run into IR replay.

:func:`run_lowered` is the one engine every algorithm's ``run()`` calls.
It content-addresses the requested configuration
(:func:`~repro.simulator.ir.ir_key` over algorithm name, source
fingerprint, machine shape and the algorithm's ``key_params``), consults
the process-wide :func:`~repro.simulator.ir.ir_store`, records the step
program on a miss and replays it for pricing.

The source fingerprint hashes the module file that defines the vector
program plus the same-package kernel modules it binds from (sample sort
runs bitonic's kernels), so editing an algorithm or a kernel it shares
invalidates its recordings — the same staleness discipline as the result
cache's package fingerprint, but per-algorithm so unrelated edits keep
recordings warm.

A miss records in one of two ways:

* a **data-oblivious** program (matmul, bitonic sort, APSP, LU, the
  stencil and the broadcasts: what they send and charge depends on sizes
  alone, never on the values)
  records in a *structure-only* pass — a
  :class:`~repro.simulator.vector.VectorContext` with
  ``structure_only`` set, handed a shape-only stand-in for its data, so
  it draws no inputs and runs none of its numeric kernels.  Its key
  carries no data seed, so one recording serves every seed of a shape;
* a **data-dependent** program (sample sort, radix sort: bucket sizes
  follow the keys) records in a *full* pass over the run's real inputs
  and hands that pass's per-rank results to its own caller.

Step programs hold structure only, in memory as on disk.  A run's
inputs and results are its own: every replayed run gets ``inputs`` and
``returns`` as lazy per-call values — drawing the inputs, and a data
pass that re-executes the program against a :class:`_DataOnlyContext`
(a write-only context whose ``put_group``/``charge_batch`` are no-ops).
Vector programs move their data through numpy themselves and never
observe clocks, so this pass returns bit-identical results at none of
the bookkeeping cost, and only if someone reads them.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import types
from pathlib import Path
from typing import Any, Callable

from ..core.errors import SimulationError
from .ir import build_program, ir_key, ir_store
from .replay import replay
from .result import RunResult
from .vector import VectorContext, _execute

__all__ = ["run_lowered", "algorithm_fingerprint",
           "clear_algorithm_fingerprints"]

_FP_MEMO: dict[str, str] = {}


def _kernel_sources(mod) -> list[str]:
    """Source files of ``mod`` and, transitively, of every module in its
    directory that it binds a function, class or submodule from."""
    home = Path(mod.__file__).parent
    paths, todo = {mod.__file__}, [mod]
    while todo:
        for value in vars(todo.pop()).values():
            if inspect.isfunction(value) or inspect.isclass(value):
                value = sys.modules.get(value.__module__)
            if not isinstance(value, types.ModuleType):
                continue
            path = getattr(value, "__file__", None)
            if path and path not in paths and Path(path).parent == home:
                paths.add(path)
                todo.append(value)
    return sorted(paths)


def algorithm_fingerprint(program) -> str:
    """SHA-256 over the sources ``program`` runs (memoised): its defining
    module plus the same-package kernel modules it reaches through its
    globals, so editing a shared kernel invalidates every recording that
    uses it."""
    mod = sys.modules.get(getattr(program, "__module__", None))
    path = getattr(mod, "__file__", None)
    if path is None:  # exec'd / frozen code: no file to hash
        return f"module:{getattr(program, '__module__', '?')}"
    fp = _FP_MEMO.get(path)
    if fp is None:
        h = hashlib.sha256()
        for src in _kernel_sources(mod):
            h.update(hashlib.sha256(Path(src).read_bytes()).digest())
        fp = _FP_MEMO[path] = h.hexdigest()
    return fp


def clear_algorithm_fingerprints() -> None:
    """Forget hashed sources (tests that rewrite algorithm files)."""
    _FP_MEMO.clear()


class _DataOnlyContext(VectorContext):
    """Runs the program's data movement without any recording."""

    def put_group(self, src, dst, *, nbytes, count=1, step=-1) -> None:
        return None

    def charge_batch(self, kind, ranks, **params) -> None:
        return None


def run_lowered(machine, program, *args: Any, algorithm: str,
                key_params: dict, inputs: Callable[[], Any] | None = None,
                stand_in: Any = None, P: int | None = None, label: str = "",
                max_supersteps: int = 1_000_000, **kwargs: Any) -> RunResult:
    """Run ``program`` through the IR store: record on miss, then replay.

    ``key_params`` must determine the recorded structure — every
    ``run()`` keyword that reaches the program's messages or work
    (sizes, variant, ...), and the data seed only if the structure
    depends on the data.  ``inputs``, if given, draws the run's data:
    the program takes it as its first argument after the context, and
    the result carries it as ``inputs``.  It is drawn at most once per
    call, and only when a pass or a reader needs it.

    ``stand_in`` declares the program data-oblivious: it is a value
    shaped like the data (see :func:`~repro.simulator.vector.stand_in`),
    and a miss records from it in a structure-only pass.  Without it a
    miss records in a full pass, whose results this call returns.  Every
    other call's ``returns`` is a lazy per-call data pass.

    Bit-identical to :func:`~repro.simulator.run_spmd_vector` with the
    same arguments.
    """
    P = machine.P if P is None else P
    if not 0 < P <= machine.P:
        raise SimulationError(
            f"requested P={P} processors on a {machine.P}-processor machine")
    word_bytes = machine.nominal.w
    simd = machine.simd
    draw = None if inputs is None else functools.cache(inputs)

    def data_args():
        return args if draw is None else (draw(), *args)

    def data_pass():
        ctx = _DataOnlyContext(P, word_bytes, simd=simd)
        return _execute(ctx, program, data_args(), kwargs, max_supersteps)[1]

    returns: Any = data_pass
    store = ir_store()
    key = ir_key(algorithm=algorithm,
                 fingerprint=algorithm_fingerprint(program),
                 P=P, word_bytes=word_bytes, simd=simd, params=key_params)
    prog = store.get(key)
    if prog is None:
        if stand_in is None:
            ctx = VectorContext(P, word_bytes, simd=simd)
            steps, returns = _execute(ctx, program, data_args(), kwargs,
                                      max_supersteps)
        else:
            ctx = VectorContext(P, word_bytes, simd=simd, structure_only=True)
            steps, _ = _execute(ctx, program, (stand_in, *args), kwargs,
                                max_supersteps)
        prog = build_program(P=P, word_bytes=word_bytes, simd=simd,
                             steps=steps)
        store.put(key, prog)
    result = replay(machine, prog, label=label)
    result.inputs = draw
    result.returns = returns
    return result
