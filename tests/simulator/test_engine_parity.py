"""One program, two recorders: ``run_spmd`` and ``run_spmd_vector`` agree.

``repro.run_spmd`` runs a custom per-rank program (one generator per
processor, charging and sending as it goes); every algorithm's vector
program runs through ``run_spmd_vector``.  Both record the supersteps
into a step program and replay it, so the two share their pricing.
This law writes a random superstep script once and runs it both ways:
as a per-rank program whose ranks pick their own sends and charges out
of the script, and as a vector program that emits each superstep's
sends as one message group (the same arrays again for a repeated send
list) and its charges as one-item batches, in script order.  On every
machine both must give identical clocks, traces (phases, labels,
stagger flags, work items rank by rank, measured times), results and
machine RNG state.  That holds the per-rank recorder — its superstep
assembly, its stagger/barrier/label resolution and its batches, which
keep each rank's charge order — to the vector recorder and its
interning of repeated phases and batch lists.  Faults in the shared
replay move both sides alike; the oracle snapshot tests catch those.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.work import WORK_FIELDS
from repro.simulator import run_spmd, run_spmd_vector
from tests.simulator.oracle import MACHINES, assert_runs_identical

KINDS = sorted(WORK_FIELDS, key=lambda kind: kind.__name__)


class Step(NamedTuple):
    sends: list    #: (src, dst, count, nbytes, step tag), in emission order
    work: list     #: (rank, kind, params), in charge order
    label: str
    stagger: bool | None
    barrier: bool


class Script(NamedTuple):
    P: int
    steps: list
    trailing: list  #: work charged after the last sync


def _params(draw, kind) -> tuple:
    fields = WORK_FIELDS[kind]
    if kind.__name__ == "RadixSort":
        return (draw(st.integers(0, 300)), draw(st.sampled_from([16, 32])),
                draw(st.sampled_from([4, 8])))
    if kind.__name__ in ("Flops", "Generic"):
        return (draw(st.one_of(st.integers(0, 500),
                               st.floats(0.0, 500.0, allow_nan=False))),)
    return tuple(draw(st.integers(0, 64)) for _ in fields)


@st.composite
def scripts(draw) -> Script:
    """A random script.  Its supersteps draw their send lists and the
    (rank, kind) shapes of their charges from small pools, so a script
    repeats a message pattern under other flags and a work shape with
    other parameters, as iterative algorithms do."""
    P = draw(st.sampled_from([1, 2, 3, 4, 8]))
    rank = st.integers(0, P - 1)
    send_lists = draw(st.lists(
        st.lists(st.tuples(rank, rank, st.integers(1, 4),
                           st.integers(0, 512), st.integers(-1, 3)),
                 max_size=10),
        min_size=1, max_size=3))
    shapes = draw(st.lists(
        st.lists(st.tuples(rank, st.sampled_from(KINDS)), max_size=6),
        min_size=1, max_size=3))

    def work() -> list:
        return [(r, kind, _params(draw, kind))
                for r, kind in draw(st.sampled_from(shapes))]

    steps = [Step(draw(st.sampled_from(send_lists)), work(),
                  draw(st.sampled_from(["", "a", "b"])),
                  draw(st.sampled_from([None, True, False])),
                  draw(st.booleans()))
             for _ in range(draw(st.integers(0, 5)))]
    return Script(P, steps, work())


def per_rank_program(ctx, script: Script):
    for s in script.steps:
        for src, dst, count, nbytes, tag in s.sends:
            if src == ctx.rank:
                ctx.put(dst, None, nbytes=nbytes, count=count, step=tag)
        for rank, kind, params in s.work:
            if rank == ctx.rank:
                ctx.charge(kind(*params))
        yield ctx.sync(s.label, stagger=s.stagger, barrier=s.barrier)
    for rank, kind, params in script.trailing:
        if rank == ctx.rank:
            ctx.charge(kind(*params))
    return ctx.rank


def _charge(ctx, work: list) -> None:
    for rank, kind, params in work:
        ctx.charge_batch(kind, [rank], **dict(zip(WORK_FIELDS[kind], params)))


def vector_program(ctx, script: Script):
    groups: dict = {}  # one set of arrays per send list, re-emitted
    for s in script.steps:
        if s.sends:
            key = tuple(s.sends)
            if key not in groups:
                groups[key] = tuple(map(np.array, zip(*s.sends)))
            src, dst, count, nbytes, tag = groups[key]
            ctx.put_group(src, dst, nbytes=nbytes, count=count, step=tag)
        _charge(ctx, s.work)
        yield ctx.sync(s.label, stagger=s.stagger, barrier=s.barrier)
    _charge(ctx, script.trailing)
    return list(range(ctx.P))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=scripts(), machine=st.sampled_from(sorted(MACHINES)),
       seed=st.integers(0, 2 ** 16))
def test_per_rank_and_vector_engines_agree(script, machine, seed):
    m_gen, m_vec = MACHINES[machine](seed=seed), MACHINES[machine](seed=seed)
    g = run_spmd(m_gen, per_rank_program, script, P=script.P)
    v = run_spmd_vector(m_vec, vector_program, script, P=script.P)
    assert_runs_identical(g, v)
    assert m_gen.rng.bit_generator.state == m_vec.rng.bit_generator.state
