"""The 3D (``P = q^3``) matrix-multiplication algorithm of paper §4.1.

Processor ``<i,j,k>`` initially holds the subblocks ``A_ij^k`` and
``B_ij^k`` (rows ``k*N/q^2 .. (k+1)*N/q^2`` of the ``N/q x N/q``
submatrices ``A_ij``/``B_ij``) and finally holds ``C_ij^k``.

Supersteps:

1. replicate: ``A_ij^k`` to ``<i,j,*>`` and ``B_ij^k`` to ``<*,i,j>``,
   so that ``<i,j,k>`` assembles ``A_ij`` and ``B_jk``;
2. compute ``Chat_ijk = A_ij @ B_jk`` locally;
3. split ``Chat_ijk`` into ``q`` row blocks ``Chat_ijk^l`` and send each
   to ``<i,k,l>``;
4. sum the ``q`` received partial blocks into ``C_ik^l``.

Variants:

``"bsp"``
    fine-grain word-level messages, *unstaggered*: every processor walks
    its destination list in the same order, creating the transient
    many-to-one hot spots that cost 21% on the CM-5 (§5.1);
``"bsp-staggered"``
    fine-grain, destinations rotated by the sender's own coordinate —
    the paper's fix;
``"bpram"``
    one block message per destination (the MP-BPRAM version, §4.1),
    staggered.

Every variant is data-oblivious: what it sends and charges depends on
``N``, ``P`` and the variant alone, never on the matrix entries — the
reason §4.1 prices it in closed form.  Its IR recordings are therefore
keyed without the data seed and made in a structure-only pass
(:func:`repro.simulator.lower.run_lowered`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import ExperimentError
from ..core.predictions import cube_root_procs
from ..machines.base import Machine
from ..simulator import RunResult
from ..simulator.lower import run_lowered
from ..simulator.vector import VectorContext, stand_in

__all__ = ["run", "key_params", "matmul_vector_program",
           "MatmulSetup", "VARIANTS"]

VARIANTS = ("bsp", "bsp-staggered", "bpram")

#: variants starting from a row-strip ("2d") initial distribution —
#: paper §4.1: "the ability to use blocks of this size depends on the
#: initial distribution of the matrices. If the initial distribution is
#: different, an extra communication phase bringing the data in the
#: desired layout is required.  In the BSP model this is not an issue."
LAYOUT_VARIANTS = ("bsp-2d", "bpram-2d")


@dataclass(frozen=True)
class MatmulSetup:
    """Problem geometry shared by the driver and the SPMD program."""

    N: int
    P: int
    q: int

    @classmethod
    def create(cls, N: int, P: int) -> "MatmulSetup":
        q = cube_root_procs(P)
        if N % (q * q):
            raise ExperimentError(
                f"matrix size N={N} must be a multiple of q^2={q * q}")
        return cls(N=N, P=P, q=q)

    def coords(self, rank: int) -> tuple[int, int, int]:
        q = self.q
        return rank // (q * q), (rank // q) % q, rank % q

    def rank_of(self, i: int, j: int, k: int) -> int:
        return (i * self.q + j) * self.q + k

    @property
    def sub(self) -> int:
        """Side of a submatrix ``A_ij``."""
        return self.N // self.q

    @property
    def rows(self) -> int:
        """Rows of a subblock ``A_ij^k``."""
        return self.N // (self.q * self.q)


def matmul_vector_program(ctx: VectorContext, operands: tuple,
                          setup: MatmulSetup, variant: str):
    """SPMD matmul of the ``(A, B)`` pair ``operands`` (all ranks at
    once); returns every processor's ``C_ij^k`` block.

    One message group per superstep, its sends in step order.  On a MIMD
    machine a rank keeps its own replicated or partial block locally, so
    those self-sends are masked out; SIMD PEs execute the router
    operation anyway, so there the self-message is real.  The local
    products run per rank on contiguous ``A_ij`` and ``B_jk`` blocks.  A
    row-strip start (:data:`LAYOUT_VARIANTS`) emits its own first
    superstep and then runs as its native variant: either way every rank
    ends up holding ``A_ij`` and ``B_jk``.  A structure-only pass never
    reads the operands.
    """
    if variant not in VARIANTS + LAYOUT_VARIANTS:
        raise ExperimentError(f"unknown matmul variant {variant!r}")
    layout_2d = variant in LAYOUT_VARIANTS
    if layout_2d:
        variant = "bpram" if variant == "bpram-2d" else "bsp-staggered"
    fine = variant != "bpram"
    staggered = variant != "bsp"
    q, sub, rows = setup.q, setup.sub, setup.rows
    w = ctx.word_bytes
    P = ctx.P
    ranks = ctx.ranks()
    i_arr = ranks // (q * q)
    j_arr = (ranks // q) % q
    k_arr = ranks % q
    if layout_2d and setup.N % setup.P:
        raise ExperimentError(
            f"2d layout needs P | N (N={setup.N}, P={setup.P})")

    blk_words = rows * sub
    count = blk_words if fine else 1

    def rank_of(i, j, k):
        return (i * q + j) * q + k

    def emit(dsts: list, steps, *, words: int, count: int,
             local: bool) -> None:
        """One group: every rank sends ``words`` words to ``dsts[i]``
        at step ``steps[i]``, in list order.  ``local`` keeps a MIMD
        rank's own block local (no self-message)."""
        src = np.tile(ranks, len(dsts))
        dst = np.concatenate(dsts)
        step = np.repeat(steps, P)
        if local and not ctx.simd:
            m = dst != src
            src, dst, step = src[m], dst[m], step[m]
        ctx.put_group(src, dst, nbytes=words * w, count=count, step=step)

    if layout_2d:
        # rank p's strip (rows p*N/P.. of A and B) lies in the (i_s, k_s)
        # row band: i_s, k_s, s_s = i_arr, j_arr, k_arr.  Strip chunks
        # are always shipped, so self-sends are real on MIMD too.
        strip_words = setup.N // setup.P * sub
        dsts: list = []
        steps: list = []
        if fine:
            # BSP: every chunk straight to its final consumers
            for jj in range(q):
                for m in range(q):
                    mm = (k_arr + m) % q
                    dsts += [rank_of(i_arr, jj, mm), rank_of(mm, i_arr, jj)]
                    steps += [m * q + jj] * 2
            emit(dsts, steps, words=strip_words, count=strip_words,
                 local=False)
            yield ctx.sync("replicate-2d", stagger=staggered)
        else:
            # MP-BPRAM: an extra block superstep rebuilds the 3D layout
            for jj in range(q):
                dsts += [rank_of(i_arr, (k_arr + jj) % q, j_arr)] * 2
                steps += [jj, q + jj]
            emit(dsts, steps, words=strip_words, count=1, local=False)
            yield ctx.sync("redistribute")

    if not (layout_2d and fine):
        # ---- superstep 1: replicate A along k, B along i ----
        dsts = []
        for s in range(q):
            m = (k_arr + s) % q if staggered \
                else np.full(P, s, dtype=np.int64)
            dsts += [rank_of(i_arr, j_arr, m), rank_of(m, i_arr, j_arr)]
        emit(dsts, np.repeat(np.arange(q), 2), words=blk_words,
             count=count, local=True)
        yield ctx.sync("replicate", stagger=staggered)

    # every rank now holds A_ij and B_jk: one GEMM per rank on
    # contiguous copies of the blocks
    ctx.charge_matmul(ranks, sub, sub, sub)
    data = not ctx.structure_only
    if data:
        A, B = operands
        Chat = np.empty((P, sub, sub))
        for p in range(P):
            i, j, k = int(i_arr[p]), int(j_arr[p]), int(k_arr[p])
            A_ij = A[i * sub:(i + 1) * sub, j * sub:(j + 1) * sub].copy()
            B_jk = B[j * sub:(j + 1) * sub, k * sub:(k + 1) * sub].copy()
            Chat[p] = A_ij @ B_jk

    # ---- superstep 2: exchange partial result blocks ----
    emit([rank_of(i_arr, k_arr, (j_arr + s) % q if staggered
                  else np.full(P, s, dtype=np.int64)) for s in range(q)],
         np.arange(q), words=blk_words, count=count, local=True)
    yield ctx.sync("exchange-partials", stagger=staggered)

    # ---- sum the q partial blocks, jj ascending
    ctx.charge_copy(ranks, (q - 1) * rows * sub)
    if not data:
        return None
    Chat4 = Chat.reshape(P, q, rows, sub)
    total = np.zeros((P, rows, sub))
    for jj in range(q):
        senders = rank_of(i_arr, jj, j_arr)
        total += Chat4[senders, k_arr]
    return [total[p] for p in range(P)]


def key_params(N: int, *, variant: str = "bsp-staggered",
               seed: int = 0) -> dict:
    """The IR key params :func:`run` records under.

    The program is data-oblivious, so ``seed`` does not shape the
    recording and is left out: every seed of one shape shares it.
    """
    return {"N": N, "variant": variant}


def run(machine: Machine, N: int, *, variant: str = "bsp-staggered",
        P: int | None = None, seed: int = 0) -> RunResult:
    """Multiply two random ``N x N`` matrices on ``machine``.

    ``variant`` is one of :data:`VARIANTS` (3D-native initial layout) or
    :data:`LAYOUT_VARIANTS` (row-strip start — the §4.1 initial-
    distribution study).  Returns the :class:`RunResult`; ``returns[r]``
    holds processor ``r``'s ``C`` block.  Use :func:`assemble` to rebuild
    and verify the product.
    """
    P = P or machine.P
    setup = MatmulSetup.create(N, P)
    label = f"matmul-{variant}-N{N}"

    def inputs() -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((N, N))
        return A, rng.standard_normal((N, N))

    result = run_lowered(machine, matmul_vector_program, setup, variant,
                         P=P, label=label, algorithm="matmul",
                         key_params=key_params(N, variant=variant, seed=seed),
                         inputs=inputs,
                         stand_in=(stand_in((N, N)), stand_in((N, N))))
    result.setup = setup  # type: ignore[attr-defined]
    return result


def assemble(setup: MatmulSetup, returns: list[np.ndarray]) -> np.ndarray:
    """Rebuild the full ``C`` matrix from the per-processor blocks."""
    N, q, sub, rows = setup.N, setup.q, setup.sub, setup.rows
    C = np.empty((N, N))
    for rank, block in enumerate(returns):
        i, j, k = setup.coords(rank)
        r0, c0 = i * sub + k * rows, j * sub
        C[r0:r0 + rows, c0:c0 + sub] = block
    return C
