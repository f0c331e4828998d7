"""Record-once lowering: turn an (algorithm, config) run into IR replay.

:func:`run_lowered` is what an algorithm's ``run()`` calls for
``engine="ir"``.  It content-addresses the requested configuration
(:func:`~repro.simulator.ir.ir_key` over algorithm name, source
fingerprint, machine shape and structure parameters), consults the
process-wide :func:`~repro.simulator.ir.ir_store`, records the step
program on a miss (one pass-1 execution, identical to the vector
engine's collection pass) and replays it for pricing.

The source fingerprint hashes the module file that defines the vector
program plus the same-package kernel modules it binds from (sample sort
runs bitonic's kernels), so editing an algorithm or a kernel it shares
invalidates its recordings — the same staleness discipline as the result
cache's package fingerprint, but per-algorithm so unrelated edits keep
recordings warm.

On-disk IR blobs store structure only.  When a disk hit must also
produce per-rank *results* (the first run of a fresh process), the
program re-executes once against a :class:`_DataOnlyContext` — a
write-only :class:`~repro.simulator.vector.VectorContext` whose
``put_group``/``charge_batch`` are no-ops.  Vector programs move their
data through numpy themselves and never observe clocks, so this data
pass returns bit-identical results at none of the bookkeeping cost.
"""

from __future__ import annotations

import hashlib
import inspect
import sys
import types
from pathlib import Path
from typing import Any

from ..core.errors import SimulationError
from .ir import build_program, ir_key, ir_store
from .replay import replay
from .result import RunResult
from .vector import VectorContext, collect_steps

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


def _execute(ctx: VectorContext, program, args, kwargs,
             max_supersteps: int):
    gen = program(ctx, *args, **kwargs)
    if not hasattr(gen, "__next__"):
        raise SimulationError(
            "vector program must be a generator function (got "
            f"{type(gen).__name__}); did you forget a 'yield ctx.sync()'?")
    steps, returns = collect_steps(ctx, gen, max_supersteps=max_supersteps)
    if returns is not None and not isinstance(returns, list):
        returns = list(returns)
    return steps, returns


def run_lowered(machine, program, *args: Any, algorithm: str,
                key_params: dict, P: int | None = None, label: str = "",
                max_supersteps: int = 1_000_000, **kwargs: Any) -> RunResult:
    """Run ``program`` through the IR store: record on miss, then replay.

    ``key_params`` must determine the program's structure *and* data —
    every ``run()`` keyword that reaches the program or its input
    generation (sizes, variant, structure seed, ...) belongs in it.
    Bit-identical to :func:`~repro.simulator.run_spmd_vector` with the
    same arguments.
    """
    P = machine.P if P is None else P
    if not 0 < P <= machine.P:
        raise SimulationError(
            f"requested P={P} processors on a {machine.P}-processor machine")
    word_bytes = machine.nominal.w
    simd = machine.simd
    store = ir_store()
    key = ir_key(algorithm=algorithm,
                 fingerprint=algorithm_fingerprint(program),
                 P=P, word_bytes=word_bytes, simd=simd, params=key_params)
    prog = store.get(key)
    if prog is None:
        ctx = VectorContext(P, word_bytes, simd=simd)
        steps, returns = _execute(ctx, program, args, kwargs, max_supersteps)
        prog = build_program(P=P, word_bytes=word_bytes, simd=simd,
                             steps=steps, returns=returns)
        store.put(key, prog)
    if not prog.has_returns:
        # Structure came from disk; per-rank results are regenerated
        # lazily — the thunk lands in RunResult.returns and runs the
        # data pass only if someone reads it (most experiments never
        # do), backfilling the cached program so it runs at most once.
        this = prog

        def data_pass(prog=this):
            if callable(prog.returns):  # not yet forced by a sibling
                ctx = _DataOnlyContext(P, word_bytes, simd=simd)
                _, returns = _execute(ctx, program, args, kwargs,
                                      max_supersteps)
                prog.returns = returns
            return prog.returns

        prog.returns = data_pass
        prog.has_returns = True
    return replay(machine, prog, label=label)
