"""End-to-end Monte Carlo trials for the simulate command and tests.

A noiseless trial generates a population and read set, evaluates the
coverage and bridging conditions against ground truth, runs the greedy
assembler, and scores the result. A noisy trial additionally flips
alleles, cuts the genome into overlapping segments of length D at step d,
denoises each segment, stitches each segment onto the previous one by
matching their decoded rows on the overlap, and compares the stitched
genomes to the truth. Its flags mean:

- disc_fail: on some overlap the true genomes do not tell all M
  individuals apart;
- denoise_fail: some segment is decoded wrongly or cannot be decoded
  (every segment is decoded);
- stitch_fail: stitching reached an overlap whose decoded rows do not
  match one-to-one, and stitching stops there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assemble import check_bridging, check_coverage, greedy_assemble, score_assembly
from .core import ModelConfig, RandomStream, ValidationError
from .denoise import (AVERAGE_CASE, DenoiseBlock, extract_block, ml_denoise,
                      spectral_denoise)
from .noisy_bounds import SegmentationPlan
from .simulate import apply_noise, generate_population, generate_reads

__all__ = ["TrialResult", "run_noiseless_trial", "run_noisy_trial",
           "decode_block", "estimate_trial_bytes"]


@dataclass
class TrialResult:
    coverage_fail: bool | None = None
    bridging_fail: bool | None = None
    greedy_fail: bool | None = None
    disc_fail: bool | None = None
    denoise_fail: bool | None = None
    stitch_fail: bool | None = None
    success: bool = False


def estimate_trial_bytes(config: ModelConfig,
                         plan: SegmentationPlan | None) -> float:
    """Upper estimate of one trial's peak allocated bytes, for the capacity
    guard; calibrated against tracemalloc peaks of single trials. A trial
    with a plan is noisy and one without is noiseless, as in `simulate`.

    Both kinds of trial hold the population (positions, uniform draws and
    allele rows: 16 + 24 M bytes per SNP) and the read arrays. A noiseless
    read set's allele source is the population's allele matrix itself: its
    greedy pass holds Python lists of cover indices, bases and read
    numbers, about 200 bytes per read. A noisy trial's apply_noise gathers
    every observed allele into one flat source through one int64 index,
    then holds the int8 values and the float64 draws: tracemalloc peaks at
    16 bytes per observed allele, kept at 32, plus about 80 per read. It also
    holds its segment table: G / d + 1 segments, each holding its bounds
    and SNP and read ranges as arrays and its SNP range as Python lists, at
    most about 120 bytes, kept at 160. The estimate is a float, so a step
    so small that G / d overflows gives inf rather than an error.
    """
    S = config.G * config.p
    n_reads = config.M * config.lam * (config.G + config.L)
    per_read = 200 if plan is None else 80 + 32 * config.p * config.L
    segments = 0.0 if plan is None else config.G / plan.d + 1
    return n_reads * per_read + (16 + 24 * config.M) * S + 160 * segments \
        + 2_000_000


def run_noiseless_trial(config: ModelConfig, stream: RandomStream) -> TrialResult:
    pop = generate_population(config, stream.child("pop"))
    rs = generate_reads(pop, config, stream.child("reads"))
    cov = check_coverage(pop, rs)
    br = check_bridging(pop, rs)
    contigs = greedy_assemble(rs, stream.child("greedy"))
    ok = cov.ok and score_assembly(contigs, pop)
    return TrialResult(coverage_fail=not cov.ok, bridging_fail=not br.ok,
                       greedy_fail=not ok, success=ok)


def _rows(matrix: np.ndarray) -> list[bytes]:
    return [row.tobytes() for row in matrix]


def _match_rows(prev: np.ndarray, cur: np.ndarray) -> list[int] | None:
    """Index among the previous segment's rows of each current row, both
    restricted to their shared SNP columns; None unless the previous rows
    are distinct and the current rows are a permutation of them."""
    index = {row: j for j, row in enumerate(_rows(prev))}
    mapping = [index.get(row) for row in _rows(cur)]
    if len(index) < len(prev) or None in mapping \
            or len(set(mapping)) < len(mapping):
        return None
    return mapping


def decode_block(block: DenoiseBlock, denoiser: str, stream: RandomStream,
                 mode: str, eta: float) -> np.ndarray | None:
    """Decode a block with the "ml" or "spectral" denoiser into its (M,
    kappa) rows, or None when the block cannot be decoded: for ML an empty
    block or one whose kappa SNPs carry fewer than M sequences, for spectral
    one with fewer than M reads. ML decoding is exact at any kappa; a block
    whose search passes the node budget raises CapacityError, which stops
    the run. Spectral decoding draws only from `stream`, in `mode` with
    match probability `eta`."""
    if denoiser == "ml":
        try:
            return ml_denoise(block)
        except ValidationError:
            return None
    if block.n < block.M:
        return None
    return spectral_denoise(block, mode=mode, eta=eta, stream=stream).sequences


def run_noisy_trial(config: ModelConfig, plan: SegmentationPlan,
                    stream: RandomStream, denoiser: str = "ml",
                    nu_min_mode: str = AVERAGE_CASE) -> TrialResult:
    """Segment, denoise, stitch, and compare against the true genomes.

    Every segment is decoded and checked; stitching stops at the first
    segment that cannot be decoded or matched, and success is judged on
    the stitched genomes.
    """
    pop = generate_population(config, stream.child("pop"))
    rs = generate_reads(pop, config, stream.child("reads"))
    noisy = apply_noise(rs, config.eps, stream.child("noise"))
    res = TrialResult(disc_fail=False, denoise_fail=False, stitch_fail=False)
    M = config.M
    # segment k (k d < G) spans [k d, min(k d + D, G)), holds SNPs
    # [c_lo, c_hi) and is covered whole by reads [r_lo, r_hi), those starting
    # in [hi - L, lo]; read ranges stay arrays: 8 bytes a segment, not 40
    lo = np.arange(math.ceil(config.G / plan.d) + 1) * plan.d
    lo = lo[lo < config.G]
    hi = np.minimum(lo + plan.D, float(config.G))
    c_lo = np.searchsorted(pop.snp_positions, lo).tolist()
    c_hi = np.searchsorted(pop.snp_positions, hi).tolist()
    r_lo = np.searchsorted(rs.starts, hi - config.L)
    r_hi = np.searchsorted(rs.starts, lo, side="right")
    genomes = np.full((M, pop.S), -127, dtype=np.int8)
    stitching = True
    for k, (a, b) in enumerate(zip(c_lo, c_hi)):
        shared = c_hi[k - 1] if k else a  # overlap columns are [a, shared)
        truth = out = pop.alleles[:, a:b]  # nothing to decode without SNPs
        if b > a:
            block = extract_block(noisy, (a, b), (r_lo[k], r_hi[k]),
                                  config.eps)
            out = decode_block(block, denoiser, stream.child("spectral", k),
                               nu_min_mode, config.eta)
        if out is None or set(_rows(out)) != set(_rows(truth)):
            res.denoise_fail = True
        if k and len(set(_rows(pop.alleles[:, a:shared]))) < M:
            res.disc_fail = True
        if stitching and out is not None and shared > a:
            # the previous segment wrote the overlap columns last; put this
            # segment's rows in its order
            mapping = _match_rows(genomes[:, a:shared], out[:, :shared - a])
            res.stitch_fail = mapping is None
            out = None if mapping is None else out[np.argsort(mapping)]
        stitching = stitching and out is not None
        if stitching:
            genomes[:, a:b] = out
    # unstitched columns keep -127, which no true row holds
    res.success = stitching and \
        sorted(_rows(genomes)) == sorted(_rows(pop.alleles))
    return res
