"""Scalar communication laws: the oracle the machines' pricers are held to.

Each simulated machine prices communication once, in the package: in
``phase_cost_batch`` (CM-5, T800, modern cluster) or in its pricer's
``_prep`` (MasPar, GCel), behind ``Machine.comm_time_batch``.  This
module keeps the phase-at-a-time formulation of the same laws, written
independently of that columnar code: one phase, one machine, plain
per-group NumPy.  The batch-pricing and calibration tests require the
package's pricers, and ``Machine.comm_time`` (their one-phase view), to
return the clocks these functions return and to leave the machine RNG
in the same state.

Each function is written as a method of its machine, with ``self``
named ``machine``.  They read the machine's constants and draw from its
RNG (``machine.jitter``, ``machine.rng``), and share no pricing code
with the package.  :func:`comm_time` and :func:`phase_cost` dispatch on
the machine's class.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.errors import SimulationError
from repro.core.relations import CommPhase
from repro.machines import CM5, GCel, MasParMP1, ModernCluster, T800Grid


# ----------------------------------------------------------------------
# Bulk-synchronous advance (every machine but the GCel)
# ----------------------------------------------------------------------

def base_comm_time(machine, phase: CommPhase, clocks: np.ndarray, *,
                   barrier: bool = True) -> np.ndarray:
    """Advance ``clocks`` across a communication phase.

    The default is bulk-synchronous: everybody waits for the slowest
    processor, the phase is routed, and a barrier (if requested)
    realigns the clocks.  Machines with drift behaviour (GCel)
    override this.
    """
    if clocks.shape != (phase.P,):
        raise SimulationError("clock array does not match phase P")
    total = float(clocks.max())
    if not phase.is_empty:
        total += phase_cost(machine, phase)
    return _advance(machine, phase, clocks, total, barrier)


def _advance(machine, phase: CommPhase, clocks: np.ndarray, total: float,
             barrier: bool) -> np.ndarray:
    """Shared clock-advance step of :func:`base_comm_time`.

    ``total`` is start time plus (already jittered) phase cost; batched
    pricers reuse this after computing the cost their own way.
    """
    if barrier and not machine.simd:
        total += machine.barrier_time()
    if barrier or machine.simd or phase.is_empty:
        return np.full(phase.P, total)
    # No barrier: only participants advance to the common finish time.
    new = clocks.copy()
    mask = (phase.sends_per_proc > 0) | (phase.recvs_per_proc > 0)
    new[mask] = total
    return new


# ----------------------------------------------------------------------
# MasPar MP-1
# ----------------------------------------------------------------------

def _cluster_penalty(machine, dst: np.ndarray, counts: np.ndarray) -> float:
    """Serialisation on the busiest 16-PE cluster channel."""
    n_clusters = machine.P // machine.CLUSTER
    loads = np.bincount(dst // machine.CLUSTER, weights=counts,
                        minlength=n_clusters)
    total = float(counts.sum())
    fair = math.ceil(total / n_clusters)
    excess = float(loads.max(initial=0)) - fair
    return machine.cluster_coef * max(0.0, excess)


def _is_cube(machine, src: np.ndarray, dst: np.ndarray) -> bool:
    if src.size == 0:
        return False
    x = src ^ dst
    first = int(x[0])
    if first <= 0 or first & (first - 1):
        return False
    return bool(np.all(x == first))


def _step_cost(machine, src: np.ndarray, dst: np.ndarray,
               msg_bytes: np.ndarray) -> float:
    """Router time of one communication step (each PE sends <= 1 msg)."""
    if src.size == 0:
        return 0.0
    ones = np.ones(src.size)
    m_max = int(msg_bytes.max(initial=0))
    if m_max > machine.block_threshold:
        # Circuit-switched block transfer: bandwidth-bound, activity
        # independent (see module docstring).
        t = machine.sigma_block * m_max + machine.ell_block
        if machine.cube_aware and _is_cube(machine, src, dst):
            t *= machine.block_cube_factor
        recvs = np.bincount(dst, minlength=machine.P)
        h_r = int(recvs.max(initial=0))
        if h_r > 1 and machine.recv_serialises:
            # Block messages converging on one PE serialise entirely.
            t += (h_r - 1) * (machine.sigma_block * m_max + 0.25 * machine.ell_block)
        # circuit-switched streaming on a lockstep machine is nearly
        # deterministic; the word router's conflicts cause the noise
        return t * machine.jitter(machine.noise / 4)
    # The partial-permutation law is parameterised by the number of
    # simultaneously routed messages (= active sender PEs, Fig. 2).
    active = int(src.size) if machine.partial_law else machine.P
    base = machine.unb(active)
    if machine.cube_aware and _is_cube(machine, src, dst):
        t = machine.cube_factor * (base - machine.unb.c) + machine.unb.c
    else:
        t = base
    recvs = np.bincount(dst, minlength=machine.P)
    h_r = int(recvs.max(initial=0))
    if h_r > 1 and machine.recv_serialises:
        t += machine.serial_recv * (h_r - 1)
    if m_max > machine.nominal.w:
        # multi-word short message: extra words stream through the
        # open circuit at the block rate (§8's 16-byte messages)
        t += machine.sigma_block * (m_max - machine.nominal.w)
    if machine.cluster_aware:
        t += _cluster_penalty(machine, dst, ones)
    return t * machine.jitter(machine.noise)


def _sequence_cost(machine, sub: CommPhase) -> float:
    """Cost of a sub-phase, decomposed into single-port steps.

    A PE can have only one outstanding message, so its groups route
    back to back: group ``i`` from a PE occupies steps ``[start_i,
    start_i + count_i)`` where ``start_i`` is the total count of that
    PE's earlier groups.  The phase cost is the sum over step segments
    (delimited by the distinct start/end values) of the single-step
    router cost of the groups active in the segment.
    """
    counts = sub.count
    if counts.size == 0:
        return 0.0
    # Per-group start offsets: cumulative counts within each source.
    order = np.argsort(sub.src, kind="stable")
    sorted_counts = counts[order]
    cum = np.cumsum(sorted_counts) - sorted_counts
    src_sorted = sub.src[order]
    boundaries = np.nonzero(np.diff(src_sorted))[0] + 1
    base = np.zeros(order.size)
    if boundaries.size:
        base[boundaries] = cum[boundaries]
        np.maximum.accumulate(base, out=base)
    starts = np.empty(counts.size, dtype=np.int64)
    starts[order] = (cum - base).astype(np.int64)
    ends = starts + counts
    breakpoints = np.unique(np.concatenate([starts, ends]))
    total = 0.0
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        mask = (starts <= lo) & (ends > lo)
        if not mask.any():
            continue
        reps = int(hi - lo)
        total += reps * _step_cost(machine, sub.src[mask], sub.dst[mask],
                                   sub.msg_bytes[mask])
    return total


def maspar_phase_cost(machine, phase: CommPhase) -> float:
    if phase.is_empty:
        return 0.0
    if phase.n_steps > 1 or (phase.n_steps == 1 and phase.step_ids[0] >= 0):
        return sum(_sequence_cost(machine, sub) for sub in phase.split_steps())
    return _sequence_cost(machine, phase)


# ----------------------------------------------------------------------
# Parsytec GCel
# ----------------------------------------------------------------------

def _per_proc_times(machine, phase: CommPhase) -> np.ndarray:
    """Software + transit time each node spends in the phase."""
    blocky = phase.msg_bytes >= machine.block_threshold
    fine = ~blocky
    send_cost = np.zeros(phase.n_groups)
    recv_cost = np.zeros(phase.n_groups)
    if fine.any():
        extra = np.maximum(0, phase.msg_bytes[fine] - machine.nominal.w)
        per_msg_s = machine.c_send + machine.fine_byte * extra
        per_msg_r = machine.c_recv + machine.fine_byte * extra
        send_cost[fine] = phase.count[fine] * per_msg_s
        recv_cost[fine] = phase.count[fine] * per_msg_r
    if blocky.any():
        m = phase.msg_bytes[blocky]
        send_cost[blocky] = phase.count[blocky] * (machine.ell_send + machine.sigma_send * m)
        recv_cost[blocky] = phase.count[blocky] * (machine.ell_recv + machine.sigma_recv * m)
    t = np.bincount(phase.src, weights=send_cost, minlength=phase.P)
    t += np.bincount(phase.dst, weights=recv_cost, minlength=phase.P)
    # Mesh transit: words crossing the vertical bisection share 8 links.
    if machine.side:
        crossing = ((phase.src % machine.side < machine.side // 2)
                    != (phase.dst % machine.side < machine.side // 2))
        words = phase.count * -(-phase.msg_bytes // machine.nominal.w)
        cross_words = float(words[crossing].sum())
        t += machine.hop_word * cross_words / machine.side
    return t


def _drift_extra(machine, steps: int, participants: np.ndarray) -> np.ndarray:
    """Super-linear, noisy penalty once PVM buffering saturates."""
    if not machine.sync_loss:
        return np.zeros(participants.size)
    window = machine.drift_window * machine.jitter(0.1)
    excess = steps - window
    if excess <= 0:
        return np.zeros(participants.size)
    noise = machine.rng.lognormal(mean=0.0, sigma=0.7, size=participants.size)
    extra = np.zeros(participants.size)
    extra[participants] = excess * machine.drift_rate * noise[participants]
    return extra


def gcel_phase_cost(machine, phase: CommPhase) -> float:
    return float(_per_proc_times(machine, phase).max(initial=0.0))


def gcel_comm_time(machine, phase: CommPhase, clocks: np.ndarray, *,
                   barrier: bool = True) -> np.ndarray:
    if clocks.shape != (phase.P,):
        raise SimulationError("clock array does not match phase P")
    if phase.is_empty:
        if barrier:
            return np.full(phase.P, float(clocks.max()) + machine.barrier_us)
        return clocks.copy()
    times = _per_proc_times(machine, phase)
    if barrier:
        total = float(clocks.max()) + float(times.max()) + machine.barrier_us
        return np.full(phase.P, total)
    # No barrier: receivers wait for their senders, then proceed;
    # small per-node jitter makes the clocks spread, and long
    # unsynchronised message sequences trigger the drift collapse.
    wait = clocks.copy()
    np.maximum.at(wait, phase.dst, clocks[phase.src])
    new = wait + times * (1.0 + machine.rng.normal(0.0, 0.01, size=phase.P))
    participants = (phase.sends_per_proc > 0) | (phase.recvs_per_proc > 0)
    steps = int(phase.sends_per_proc.max(initial=0))
    new += _drift_extra(machine, steps, participants)
    return np.maximum(new, clocks)


# ----------------------------------------------------------------------
# CM-5
# ----------------------------------------------------------------------

def cm5_phase_cost(machine, phase: CommPhase) -> float:
    blocky = phase.msg_bytes >= machine.block_threshold
    fine = ~blocky
    send_cost = np.zeros(phase.n_groups)
    recv_cost = np.zeros(phase.n_groups)
    if fine.any():
        # per-message overhead plus streaming of any bytes beyond one
        # word — grouping a few words into one active message pays
        # the overhead once (the 16-byte-message observation of §8)
        extra = np.maximum(0, phase.msg_bytes[fine] - machine.nominal.w)
        send_cost[fine] = phase.count[fine] * (
            machine.o_send + machine.sigma_send * extra)
        recv_cost[fine] = phase.count[fine] * (
            machine.o_recv + machine.sigma_recv * extra)
    if blocky.any():
        m = phase.msg_bytes[blocky]
        send_cost[blocky] = phase.count[blocky] * (machine.ell_send + machine.sigma_send * m)
        recv_cost[blocky] = phase.count[blocky] * (machine.ell_recv + machine.sigma_recv * m)
    # Send and receive handlers serialise on the node's processor:
    # a node spends o_send per outgoing plus o_recv per incoming message.
    per_send = np.bincount(phase.src, weights=send_cost, minlength=phase.P)
    per_recv = np.bincount(phase.dst, weights=recv_cost, minlength=phase.P)
    t = float((per_send + per_recv).max(initial=0.0))
    # fat-tree transit, scaled by how loaded the machine is
    load = phase.active_procs / machine.P
    t += machine.net_msg * load * float(
        np.bincount(phase.dst, weights=phase.count, minlength=phase.P).max(initial=0))
    if not phase.stagger or not machine.stagger_sensitive:
        # Unstaggered schedules create transient many-to-one hot spots:
        # senders stall on the destination's service rate (§5.1).
        f = phase.max_fan_in
        if f > 1:
            t *= 1.0 + machine.hotspot_coef * (1.0 - 1.0 / f)
    return t * machine.jitter(machine.noise)


# ----------------------------------------------------------------------
# T800 grid
# ----------------------------------------------------------------------

def _link_contention(machine, phase: CommPhase, words: np.ndarray) -> float:
    """Serialisation on the busiest mesh link (dimension-ordered
    routing approximated by row/column segment loads)."""
    sr, sc = np.divmod(phase.src, machine.side)
    dr, dc = np.divmod(phase.dst, machine.side)
    # messages crossing each vertical cut, weighted by words
    loads = np.zeros(2 * machine.side)
    for cut in range(machine.side - 1):
        crossing = ((sc <= cut) != (dc <= cut))
        loads[cut] = float(words[crossing].sum()) / machine.side
    for cut in range(machine.side - 1):
        crossing = ((sr <= cut) != (dr <= cut))
        loads[machine.side + cut] = float(words[crossing].sum()) / machine.side
    return machine.link_word * float(loads.max(initial=0.0))


def t800_phase_cost(machine, phase: CommPhase) -> float:
    if phase.is_empty:
        return 0.0
    words = -(-phase.msg_bytes // machine.nominal.w)
    hops = machine.hops(phase.src, phase.dst)
    # per-message: software overhead + store-and-forward transit
    send_cost = phase.count * (machine.o_send + 0.0 * words)
    recv_cost = phase.count * machine.o_recv
    transit = phase.count * words * hops * machine.hop_word
    per_proc = np.bincount(phase.src, weights=send_cost + transit,
                           minlength=phase.P)
    per_proc += np.bincount(phase.dst, weights=recv_cost,
                            minlength=phase.P)
    t = float(per_proc.max(initial=0.0))
    t += _link_contention(machine, phase, phase.count * words)
    return t * machine.jitter(machine.noise)


# ----------------------------------------------------------------------
# Modern fat-tree cluster
# ----------------------------------------------------------------------

def modern_phase_cost(machine, phase: CommPhase) -> float:
    if phase.is_empty:
        return 0.0
    words = -(-phase.msg_bytes // machine.nominal.w)
    send_cost = phase.count * machine.o_send + phase.count * words * machine.word_us
    recv_cost = phase.count * machine.o_recv + phase.count * words * machine.word_us
    per_proc = np.bincount(phase.src, weights=send_cost,
                           minlength=phase.P)
    per_proc += np.bincount(phase.dst, weights=recv_cost,
                            minlength=phase.P)
    t = float(per_proc.max(initial=0.0))
    if machine.models_phenomenon("incast-collapse"):
        recv_words = np.bincount(phase.dst, weights=phase.count * words,
                                 minlength=phase.P)
        hot = float(recv_words.max(initial=0.0))
        mean = float(recv_words.sum()) / phase.P
        if hot > mean:
            t += machine.incast_word * (hot - mean)
    if machine.models_phenomenon("adaptive-routing"):
        sends = np.bincount(phase.src, weights=phase.count,
                            minlength=phase.P)
        recvs = np.bincount(phase.dst, weights=phase.count,
                            minlength=phase.P)
        if sends.max(initial=0.0) <= 1 and recvs.max(initial=0.0) <= 1:
            t *= machine.adaptive_gain
    return t * machine.jitter(machine.noise)


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------

#: each machine class's phase cost: global phase time, jitter included,
#: barrier excluded.
PHASE_COST = {
    MasParMP1: maspar_phase_cost,
    GCel: gcel_phase_cost,
    CM5: cm5_phase_cost,
    T800Grid: t800_phase_cost,
    ModernCluster: modern_phase_cost,
}


def _law(machine):
    for cls, law in PHASE_COST.items():
        if isinstance(machine, cls):
            return law
    raise TypeError(f"no scalar law for {type(machine).__name__}")


def phase_cost(machine, phase: CommPhase) -> float:
    """Global time of a communication phase (excluding any barrier)."""
    return _law(machine)(machine, phase)


def comm_time(machine, phase: CommPhase, clocks: np.ndarray, *,
              barrier: bool = True) -> np.ndarray:
    """``clocks`` advanced across ``phase`` by ``machine``'s scalar law."""
    if isinstance(machine, GCel):
        return gcel_comm_time(machine, phase, clocks, barrier=barrier)
    return base_comm_time(machine, phase, clocks, barrier=barrier)
