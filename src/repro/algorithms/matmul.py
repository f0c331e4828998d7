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
from ..simulator.context import ProcContext
from ..simulator.lower import run_lowered
from ..simulator.vector import VectorContext, stand_in
from .local import local_matmul

__all__ = ["run", "key_params", "matmul_program", "matmul_vector_program",
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


def matmul_program(ctx: ProcContext, operands: tuple, setup: MatmulSetup,
                   variant: str):
    """SPMD matmul of the ``(A, B)`` pair ``operands``; returns this
    processor's ``C_ij^k`` block."""
    A, B = operands
    if variant not in VARIANTS + LAYOUT_VARIANTS:
        raise ExperimentError(f"unknown matmul variant {variant!r}")
    layout_2d = variant in LAYOUT_VARIANTS
    if layout_2d:
        variant = "bpram" if variant == "bpram-2d" else "bsp-staggered"
    fine = variant != "bpram"
    staggered = variant != "bsp"
    q, sub, rows = setup.q, setup.sub, setup.rows
    w = ctx.word_bytes
    i, j, k = setup.coords(ctx.rank)

    if layout_2d and setup.N % setup.P:
        raise ExperimentError(
            f"2d layout needs P | N (N={setup.N}, P={setup.P})")

    def my_a_block() -> np.ndarray:
        r0, c0 = i * sub + k * rows, j * sub
        return A[r0:r0 + rows, c0:c0 + sub]

    def my_b_block() -> np.ndarray:
        r0, c0 = i * sub + k * rows, j * sub
        return B[r0:r0 + rows, c0:c0 + sub]

    local_blocks: dict = {}

    def send_block(dst: int, block: np.ndarray, tag, step: int) -> None:
        if dst == ctx.rank and not ctx.simd:
            # MIMD: keep own block locally; SIMD PEs execute the router
            # operation anyway, so the self-message is real there.
            local_blocks[tag] = block.copy()
            return
        n_words = block.size
        if fine:
            ctx.put(dst, block, nbytes=n_words * w, count=n_words,
                    tag=tag, step=step)
        else:
            ctx.put(dst, block, nbytes=n_words * w, count=1,
                    tag=tag, step=step)

    def recv_block(src: int, tag):
        if src == ctx.rank and not ctx.simd:
            return local_blocks[tag]
        return ctx.get(src=src, tag=tag)

    # ---- optional: start from a row-strip ("2d") distribution ----
    if layout_2d:
        # this processor's strip: rows [rank*N/P, (rank+1)*N/P) of A and
        # B; the strip lies inside the (i_s, k_s) row band of subblocks.
        strip_h = setup.N // setup.P
        p = ctx.rank
        i_s, k_s, s_s = p // (q * q), (p % (q * q)) // q, p % q
        r0 = p * strip_h
        if fine:
            # BSP: ship every strip chunk straight to its final
            # consumers inside the normal replicate superstep — same h,
            # no extra superstep ("in the BSP model this is not an
            # issue", §4.1).
            for jj in range(q):
                a_chunk = A[r0:r0 + strip_h, jj * sub:(jj + 1) * sub]
                b_chunk = B[r0:r0 + strip_h, jj * sub:(jj + 1) * sub]
                for m in range(q):
                    mm = (s_s + m) % q
                    ctx.put(setup.rank_of(i_s, jj, mm), a_chunk,
                            nbytes=a_chunk.size * w, count=a_chunk.size,
                            tag=("A2", k_s, s_s), step=m * q + jj)
                    ctx.put(setup.rank_of(mm, i_s, jj), b_chunk,
                            nbytes=b_chunk.size * w, count=b_chunk.size,
                            tag=("B2", k_s, s_s), step=m * q + jj)
            yield ctx.sync("replicate-2d", stagger=staggered)
            A_ij = np.vstack([ctx.get(src=i * q * q + kk * q + ss,
                                      tag=("A2", kk, ss))
                              for kk in range(q) for ss in range(q)])
            B_jk = np.vstack([ctx.get(src=j * q * q + kk * q + ss,
                                      tag=("B2", kk, ss))
                              for kk in range(q) for ss in range(q)])
            # jump to the compute/exchange supersteps below
            Chat = local_matmul(ctx, A_ij, B_jk)
            for s in range(q):
                l = (j + s) % q if staggered else s
                block = Chat[l * rows:(l + 1) * rows, :]
                send_block(setup.rank_of(i, k, l), block, tag=("C", j),
                           step=s)
            yield ctx.sync("exchange-partials", stagger=staggered)
            total = np.zeros((rows, sub))
            for jj in range(q):
                total += recv_block(setup.rank_of(i, jj, j), ("C", jj))
            ctx.charge_copy((q - 1) * rows * sub)
            return total
        # MP-BPRAM: an *extra* block-transfer superstep first rebuilds
        # the 3D layout — the §4.1 price of a mismatched distribution.
        for jj in range(q):
            j_eff = (s_s + jj) % q
            a_chunk = A[r0:r0 + strip_h, j_eff * sub:(j_eff + 1) * sub]
            b_chunk = B[r0:r0 + strip_h, j_eff * sub:(j_eff + 1) * sub]
            dst = setup.rank_of(i_s, j_eff, k_s)
            ctx.put(dst, a_chunk, nbytes=a_chunk.size * w, count=1,
                    tag=("RA", s_s), step=jj)
            ctx.put(dst, b_chunk, nbytes=b_chunk.size * w, count=1,
                    tag=("RB", s_s), step=q + jj)
        yield ctx.sync("redistribute")
        a_blk = np.vstack([ctx.get(src=i * q * q + k * q + ss,
                                   tag=("RA", ss)) for ss in range(q)])
        b_blk = np.vstack([ctx.get(src=i * q * q + k * q + ss,
                                   tag=("RB", ss)) for ss in range(q)])
    else:
        a_blk, b_blk = my_a_block(), my_b_block()

    # ---- superstep 1: replicate A along k, B along i ----
    for s in range(q):
        # staggered: start at own coordinate; unstaggered: everyone at 0.
        m = (k + s) % q if staggered else s
        send_block(setup.rank_of(i, j, m), a_blk, tag=("A", k), step=s)
        m2 = (k + s) % q if staggered else s
        send_block(setup.rank_of(m2, i, j), b_blk, tag=("B", k), step=s)
    yield ctx.sync("replicate", stagger=staggered)

    # assemble A_ij (from <i,j,*>) and B_jk (from <j,k,*>)
    A_ij = np.vstack([recv_block(setup.rank_of(i, j, l), ("A", l))
                      for l in range(q)])
    B_jk = np.vstack([recv_block(setup.rank_of(j, k, l), ("B", l))
                      for l in range(q)])

    # ---- superstep 2: local product + send partial result blocks ----
    Chat = local_matmul(ctx, A_ij, B_jk)
    for s in range(q):
        # destination <i,k,l> is contended across senders with different j,
        # so the stagger offset must be j (not k)
        l = (j + s) % q if staggered else s
        block = Chat[l * rows:(l + 1) * rows, :]
        send_block(setup.rank_of(i, k, l), block, tag=("C", j), step=s)
    yield ctx.sync("exchange-partials", stagger=staggered)

    # ---- superstep 4: sum the q partial blocks ----
    # <i,j,k> receives Chat_i,jj,j's block k from <i,jj,j> for every jj
    # (the sender's third coordinate equals this processor's j).
    total = np.zeros((rows, sub))
    for jj in range(q):
        total += recv_block(setup.rank_of(i, jj, j), ("C", jj))
    # q-1 additions over rows*sub entries, folded into the beta term
    ctx.charge_copy((q - 1) * rows * sub)
    return total


def matmul_vector_program(ctx: VectorContext, operands: tuple,
                          setup: MatmulSetup, variant: str):
    """Lockstep vector port of :func:`matmul_program`.

    ``operands`` is the ``(A, B)`` pair.  One message group per
    superstep, its sends in the per-rank step order (with MIMD block
    self-sends masked out, as the per-rank program elides them); the
    local products run per rank on contiguous blocks so the
    floating-point results stay bit-identical to the per-rank path.  A row-strip start (:data:`LAYOUT_VARIANTS`)
    emits its own first superstep and then runs as its native variant:
    either way every rank ends up holding ``A_ij`` and ``B_jk``.  A
    structure-only pass never reads the operands.
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
        rank's own block local, exactly like ``send_block``."""
        src = np.tile(ranks, len(dsts))
        dst = np.concatenate(dsts)
        step = np.repeat(steps, P)
        if local and not ctx.simd:
            m = dst != src
            src, dst, step = src[m], dst[m], step[m]
        ctx.put_group(src, dst, nbytes=words * w, count=count, step=step)

    if layout_2d:
        # rank p's strip (rows p*N/P.. of A and B) lies in the (i_s, k_s)
        # row band: i_s, k_s, s_s = i_arr, j_arr, k_arr.  The per-rank
        # program ships strip chunks with a plain put, so self-sends are
        # real on MIMD too.
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

    # every rank now holds A_ij and B_jk — contiguous copies so the
    # per-rank GEMMs see the same operands as the vstack'ed per-rank path
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

    # ---- sum the q partial blocks (jj ascending, like the per-rank sum)
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
