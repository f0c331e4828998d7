"""Radix-sort and modern-machine experiments (scenario extension).

``ext-radix`` races the new integer radix sort against sample sort on
the GCel: both route through the same §4.3.1 padded grid scheme, but
radix sort has no sampling phase and its finishing sort covers only the
``key_bits - log2 P`` low bits (the route itself sorted the top digit),
so it wins on every size — and MP-BPRAM prices it as well as it prices
sample sort.  The BSF master-worker model is priced alongside: relaying
every key through a master serialises the whole route, which is exactly
why farm frameworks do not ship distributed sorts.

``ext-modern`` asks the repo's scenario question: *which 1996
conclusions survive 2020s parameters?*  On the fat-tree profile the
bulk-transfer conclusion does not merely survive — it is amplified:
per-message overhead fell two orders of magnitude since the GCel, but
per-word bandwidth cost fell three, so the fine-grain/block ratio is
*larger* than in 1996.  Meanwhile compute became nearly free, pushing
the sorts fully into the communication-bound regime, and the BSF
``P_max`` bound shows a master-worker farm could not scale them at all.
"""

from __future__ import annotations

import numpy as np

from ..algorithms import bitonic, radix, samplesort
from ..core.bpram import MPBPRAM
from ..core.bsf import BSF
from ..validation.series import ExperimentResult, Series
from .base import register
from .common import calibrated, machine_for, scaled_sizes


@register("ext-radix", "Radix sort vs sample sort on the GCel (extension)",
          "extension of Sections 4.3/4.3.1",
          machines=("gcel",))
def ext_radix(*, scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    machine = machine_for("gcel", seed=seed)
    params = calibrated(machine, seed=seed).params
    bpram = MPBPRAM(params)
    bsf = BSF(params)

    Ms = scaled_sizes([256, 512, 1024, 2048], scale, multiple=128)
    meas_radix, meas_sample, pred_bpram, pred_bsf = [], [], [], []
    last = None
    for M in Ms:
        res = radix.run(machine, M, variant="bpram", seed=seed)
        last = res
        meas_radix.append(res.time_us / M)
        pred_bpram.append(bpram.trace_cost(res.trace) / M)
        pred_bsf.append(bsf.trace_cost(res.trace) / M)
        smp = samplesort.run(machine_for("gcel", seed=seed + 1), M,
                             variant="bpram", seed=seed)
        meas_sample.append(smp.time_us / M)

    result = ExperimentResult(
        experiment="ext-radix",
        title="Integer radix sort vs sample sort on the GCel (block routed)",
        x_label="keys per node (M)", y_label="time per key (us)")
    result.series.append(Series("radix measured", Ms, meas_radix))
    result.series.append(Series("sample sort measured", Ms, meas_sample))
    result.series.append(Series("mp-bpram prediction", Ms, pred_bpram))
    result.series.append(Series("bsf prediction", Ms, pred_bsf))

    P = machine.P
    allk = np.sort(last.inputs.ravel())
    got = np.concatenate([np.asarray(last.returns[p]) for p in range(P)])
    result.check("radix output is the globally sorted input",
                 bool(np.array_equal(allk, got)),
                 f"{allk.size} keys, M={Ms[-1]}")
    rx, sx = np.array(meas_radix), np.array(meas_sample)
    result.check("radix sort beats sample sort at every size (no sampling "
                 "phase, short finishing sort)",
                 bool(np.all(rx < sx)),
                 f"ratio {float((rx / sx).max()):.2f} at worst")
    errs = np.abs(np.array(pred_bpram) / rx - 1)
    result.check("MP-BPRAM prices the grid-routed radix sort well",
                 float(errs.max()) < 0.25,
                 f"max |err| = {float(errs.max()):.0%}")
    over = float((np.array(pred_bsf) / rx).min())
    result.check("BSF's master relay serialises the route (farms cannot "
                 "sort): >10x overprediction",
                 over > 10.0, f"min ratio {over:.0f}x")
    return result


@register("ext-modern", "Which 1996 conclusions survive 2020s parameters? "
          "(extension)", "extension of Sections 6 and 8",
          machines=("modern", "gcel"))
def ext_modern(*, scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    modern = machine_for("modern", seed=seed)
    params = calibrated(modern, seed=seed).params
    bsf = BSF(params)
    P = modern.P

    Ms = scaled_sizes([256, 512, 1024], scale, multiple=128)
    gain_modern, gain_gcel, share, p_max = [], [], [], []
    for M in Ms:
        word = bitonic.run(machine_for("modern", seed=seed), M,
                           variant="bsp", seed=seed)
        blk = bitonic.run(machine_for("modern", seed=seed + 1), M,
                          variant="bpram", seed=seed)
        gain_modern.append(word.time_us / blk.time_us)
        gword = bitonic.run(machine_for("gcel", seed=seed + 2), M,
                            variant="bsp-sync", seed=seed)
        gblk = bitonic.run(machine_for("gcel", seed=seed + 3), M,
                           variant="bpram", seed=seed)
        gain_gcel.append(gword.time_us / gblk.time_us)

        res = radix.run(machine_for("modern", seed=seed + 4), M,
                        variant="bpram", seed=seed)
        work = sum(res.trace.work_terms(params))
        share.append(work / res.time_us)
        p_max.append(bsf.p_max(res.trace))

    result = ExperimentResult(
        experiment="ext-modern",
        title="Bulk-transfer gain and compute share: 256-node fat tree "
              "vs 1996 GCel (bitonic/radix)",
        x_label="keys per node (M)", y_label="word/block time ratio")
    result.series.append(Series("modern word/block gain", Ms, gain_modern))
    result.series.append(Series("gcel word/block gain", Ms, gain_gcel))
    result.series.append(Series("radix compute share (modern)", Ms, share))
    result.series.append(Series("BSF p_max (radix on modern)", Ms, p_max))

    gm, gg = np.array(gain_modern), np.array(gain_gcel)
    result.check("the bulk-transfer conclusion survives: fine-grain "
                 "bitonic loses >50x on the fat tree",
                 bool(np.all(gm > 50)), f"min gain {float(gm.min()):.0f}x")
    result.check("...and is amplified: per-message overhead fell ~100x "
                 "but per-word cost fell ~1000x, so the gain exceeds "
                 "the GCel's",
                 bool(np.all(gm > gg)),
                 f"modern {float(gm.min()):.0f}x vs gcel "
                 f"{float(gg.max()):.0f}x")
    sh = np.array(share)
    result.check("compute is nearly free: the sorts are communication-"
                 "bound (<25% compute share)",
                 bool(np.all(sh < 0.25)),
                 f"max share {float(sh.max()):.0%}")
    pm = np.array(p_max)
    result.check("BSF: a master-worker farm could not scale this "
                 "workload at all (P_max << P)",
                 bool(np.all(pm < P / 16)),
                 f"max P_max {float(pm.max()):.1f} on P={P}")
    result.notes.append(
        "1996's advice ('pack your data, send it in blocks') is more "
        "binding on 2020s clusters, not less; what changed is *why*: "
        "software overhead per message, not wire bandwidth, is the "
        "fine-grain bottleneck.")
    return result
