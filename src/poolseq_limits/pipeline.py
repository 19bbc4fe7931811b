"""End-to-end Monte Carlo trials for the simulate command and tests.

A noiseless trial generates a population and read set, evaluates the
coverage and bridging conditions against ground truth, runs the greedy
assembler, and scores the result. A noisy trial additionally flips
alleles, denoises overlapping segments of length D at step d, stitches
consecutive segments by matching their consensus sets on the overlap, and
compares the stitched genomes to the truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assemble import check_bridging, check_coverage, greedy_assemble, score_assembly
from .core import ModelConfig, RandomStream
from .denoise import extract_block, ml_denoise, spectral_denoise
from .noisy_bounds import SegmentationPlan
from .simulate import apply_noise, generate_population, generate_reads

__all__ = ["TrialResult", "run_noiseless_trial", "run_noisy_trial",
           "estimate_trial_bytes"]


@dataclass
class TrialResult:
    trial: int
    coverage_fail: bool | None = None
    bridging_fail: bool | None = None
    greedy_fail: bool | None = None
    disc_fail: bool | None = None
    denoise_fail: bool | None = None
    stitch_fail: bool | None = None
    success: bool = False


def estimate_trial_bytes(config: ModelConfig) -> int:
    """Rough per-trial memory footprint for the capacity guard."""
    S = config.G * config.p
    n_reads = config.M * config.lam * (config.G + config.L)
    obs = n_reads * config.p * config.L
    return int(S * config.M + n_reads * 24 + obs * 10) + 1_000_000


def run_noiseless_trial(config: ModelConfig, stream: RandomStream) -> TrialResult:
    pop = generate_population(config, stream.child("pop"))
    rs = generate_reads(pop, config, stream.child("reads"))
    cov = check_coverage(pop, rs)
    br = check_bridging(pop, rs)
    contigs = greedy_assemble(rs, stream.child("greedy"))
    ok = score_assembly(contigs, pop, rs)
    return TrialResult(trial=0, coverage_fail=not cov.ok, bridging_fail=not br.ok,
                       greedy_fail=not ok, success=ok)


def _match_rows(prev_rows: np.ndarray, rows: np.ndarray,
                overlap_prev: slice, overlap_cur: slice) -> list[int] | None:
    """Match segment rows to the previous segment's rows on their shared
    SNP columns; None when any row has no match or a match is ambiguous."""
    M = rows.shape[0]
    a = prev_rows[:, overlap_prev]
    b = rows[:, overlap_cur]
    mapping: list[int] = []
    taken = set()
    for i in range(M):
        hits = [j for j in range(M) if np.array_equal(b[i], a[j])]
        if len(hits) != 1 or hits[0] in taken:
            return None
        taken.add(hits[0])
        mapping.append(hits[0])
    return mapping


def run_noisy_trial(config: ModelConfig, plan: SegmentationPlan,
                    stream: RandomStream, denoiser: str = "ml",
                    nu_min_mode: str = "average_case") -> TrialResult:
    """Segment, denoise, stitch, and compare against the true genomes.

    The disc/denoise flags report whether the sufficient conditions held;
    the decode and stitch always run, and success is judged on the final
    stitched genomes (an ambiguous overlap match is a stitch failure).
    """
    pop = generate_population(config, stream.child("pop"))
    rs = generate_reads(pop, config, stream.child("reads"))
    noisy = apply_noise(rs, config.eps, stream.child("noise"))
    res = TrialResult(trial=0, disc_fail=False, denoise_fail=False,
                      stitch_fail=False)
    pos = pop.snp_positions
    D, d = plan.D, plan.d
    segments = []
    k = 0
    while k * d < config.G:
        lo = k * d
        segments.append((lo, min(lo + D, float(config.G))))
        k += 1
    seg_out: list[np.ndarray | None] = []
    seg_cols: list[tuple[int, int]] = []
    for k, (lo, hi) in enumerate(segments):
        c_lo = int(np.searchsorted(pos, lo, side="left"))
        c_hi = int(np.searchsorted(pos, hi, side="left"))
        seg_cols.append((c_lo, c_hi))
        truth = pop.alleles[:, c_lo:c_hi]
        if c_hi == c_lo:
            seg_out.append(np.empty((config.M, 0), dtype=np.int8))
            continue
        block = extract_block(noisy, (lo, hi), config.eps)
        if block.n == 0 or (denoiser == "spectral" and block.n < config.M):
            res.denoise_fail = True
            seg_out.append(None)
            continue
        if denoiser == "ml":
            decoded = ml_denoise(block).matrix
        else:
            decoded = spectral_denoise(block, mode=nu_min_mode,
                                       eta=config.eta,
                                       stream=stream.child("spectral", k)
                                       ).sequences
        seg_out.append(decoded)
        if {r.tobytes() for r in truth} != {r.tobytes() for r in decoded}:
            res.denoise_fail = True
    # discrimination condition: consecutive overlaps must distinguish all
    # individuals in the true genomes
    for k in range(len(segments) - 1):
        lo_next = segments[k + 1][0]
        c_lo, c_hi = seg_cols[k]
        o_lo = int(np.searchsorted(pos, lo_next, side="left"))
        overlap = pop.alleles[:, o_lo:c_hi]
        if len({r.tobytes() for r in overlap}) < config.M:
            res.disc_fail = True
            break
    # stitch consecutive segments into global genomes
    genomes = np.full((config.M, pop.S), -127, dtype=np.int8)
    ok = True
    for k, (lo, hi) in enumerate(segments):
        c_lo, c_hi = seg_cols[k]
        out = seg_out[k]
        if out is None:
            ok = False
            break
        if k > 0 and out.shape[1] > 0 and seg_out[k - 1] is not None:
            p_lo, p_hi = seg_cols[k - 1]
            shared_lo = max(c_lo, p_lo)
            if p_hi > shared_lo:
                mapping = _match_rows(
                    seg_out[k - 1],
                    out,
                    slice(shared_lo - p_lo, p_hi - p_lo),
                    slice(shared_lo - c_lo, p_hi - c_lo))
                if mapping is None:
                    res.stitch_fail = True
                    ok = False
                    break
                # express this segment's rows in the previous order
                inv = np.empty(config.M, dtype=int)
                for i, j in enumerate(mapping):
                    inv[j] = i
                out = out[inv]
                seg_out[k] = out
        genomes[:, c_lo:c_hi] = out
    if ok:
        truth_sorted = sorted(pop.alleles[m].tobytes() for m in range(config.M))
        got_sorted = sorted(genomes[m].tobytes() for m in range(config.M))
        ok = truth_sorted == got_sorted and bool((genomes != -127).all())
    res.success = bool(ok)
    return res
