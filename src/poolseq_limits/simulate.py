"""Synthetic population and pooled read-set generation.

Populations carry SNP positions on [0, G) and an M x S allele matrix.
Biallelic alleles are stored as +-1 with -1 the major allele; 4-ary alleles
as codes 0..3. Reads are single-end, length L, with start positions sampled
on [-L, G) so that coverage statistics over [0, G) are stationary: a read
starting before 0 models a fragment mapped partially onto the left end of
the reference window. Read records keep only SNP-locus content (non-SNP
bases match the reference by assumption), stored columnar for speed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import (ModelConfig, RandomStream, UnsupportedModelError,
                   ValidationError, sample_poisson_positions)

__all__ = [
    "Population",
    "ReadSet",
    "generate_population",
    "generate_reads",
    "apply_noise",
    "discriminating_positions",
]


@dataclass
class Population:
    """Latent SNP positions plus per-individual allele rows."""

    snp_positions: np.ndarray  # (S,) float64, ascending, in [0, G)
    alleles: np.ndarray        # (M, S) int8

    @property
    def S(self) -> int:
        return int(self.snp_positions.size)

    @property
    def M(self) -> int:
        return int(self.alleles.shape[0])


@dataclass
class ReadSet:
    """Aligned reads stored columnar, sorted by start position.

    Each read covers SNP indices [cover_lo[r], cover_hi[r]) and observes
    its SNP j at source[base[r] + j]. The cover indices and base are
    derived on first use, so a check that reads only starts and labels
    never builds them; a noisy set from apply_noise shares its parent's
    cover arrays. A noiseless set's source is the population's allele
    matrix flattened without a copy, with base[r] the start of read r's
    individual's row; a noisy set's source holds every read's alleles back
    to back, in read order, as apply_noise writes them.
    The hidden individual labels exist for ground-truth condition
    checking; the assembler must not base a decision on them.
    """

    starts: np.ndarray     # (N,) float64 ascending, in [-L, G)
    hidden: np.ndarray     # (N,) int32
    config: ModelConfig
    population: Population
    source: np.ndarray     # flat int8 alleles

    @property
    def n_reads(self) -> int:
        return int(self.starts.size)

    @cached_property
    def cover_lo(self) -> np.ndarray:
        """(N,) int64: SNPs strictly below each read's start."""
        return _count_below(self.population.snp_positions, self.starts)

    @cached_property
    def cover_hi(self) -> np.ndarray:
        """(N,) int64: SNPs strictly below each read's end, start + L."""
        return _count_below(self.population.snp_positions,
                            self.starts + self.config.L)

    @cached_property
    def base(self) -> np.ndarray:
        """(N,) int64 address of each read's SNP 0 in source; apply_noise
        sets its own, and a noiseless read's is its individual's row."""
        return self.hidden.astype(np.int64) * self.population.S


def generate_population(config: ModelConfig, stream: RandomStream) -> Population:
    """Draw SNP positions (Poisson rate p over [0, G)), then allele rows
    from the allele law, which raises UnsupportedModelError if it cannot
    be sampled (FixedEta)."""
    positions = sample_poisson_positions(config.p, float(config.G),
                                         stream.child("snp_positions"))
    alleles = config.law.alleles(stream.child("alleles").gen, config.M,
                                 positions.size)
    return Population(snp_positions=positions, alleles=alleles)


def _count_below(pos: np.ndarray, points: np.ndarray) -> np.ndarray:
    """For each of the ascending points, the number of the ascending SNP
    positions strictly below it: searchsorted(pos, points, "left"), found
    by placing the few SNPs among the many points instead. Between the
    places of SNPs j-1 and j, every point has exactly j SNPs below it."""
    placed = np.searchsorted(points, pos, side="right")
    runs = np.diff(placed, prepend=0, append=points.size)
    return np.repeat(np.arange(pos.size + 1), runs)


def generate_reads(pop: Population, config: ModelConfig,
                   stream: RandomStream) -> ReadSet:
    """Sample pooled Poisson(M * lambda) read starts with uniform labels.

    Starts live on [-L, G) so every SNP in [0, G) sees the stationary
    coverage window of length L. By Poisson thinning each individual's
    reads are an independent Poisson(lambda) process, so per-individual
    counts are Poisson(lambda * (G + L)).
    """
    reads = stream.child("reads")
    starts = sample_poisson_positions(config.M * config.lam,
                                      float(config.G) + config.L, reads)
    starts -= config.L
    hidden = reads.gen.integers(0, config.M, size=starts.size, dtype=np.int32)
    return ReadSet(starts=starts, hidden=hidden, config=config, population=pop,
                   source=pop.alleles.reshape(-1))


def apply_noise(rs: ReadSet, eps: float, stream: RandomStream) -> ReadSet:
    """Flip each observed biallelic allele independently with probability
    eps, drawing in read order and then SNP order. The noisy set's source
    holds every read's alleles back to back, so read r's base is its
    offset there minus cover_lo[r]; it shares the cover indices of rs.
    eps > 0 under an allele law that is not `biallelic` (the 4-ary
    Empirical) raises UnsupportedModelError, whatever codes were drawn."""
    if not (0.0 <= eps <= 0.5):
        raise ValidationError(f"eps must be in [0, 0.5], got {eps}")
    if eps > 0.0 and not rs.config.law.biallelic:
        raise UnsupportedModelError(
            "symmetric flip noise is defined for biallelic populations only")
    lengths = rs.cover_hi - rs.cover_lo
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    # flat entry i of read r holds its SNP cover_lo[r] + i - offsets[r]
    values = rs.source[np.arange(int(offsets[-1])) + np.repeat(
        rs.base + rs.cover_lo - offsets[:-1], lengths)]
    gen = stream.child("noise").gen
    flips = gen.random(values.size) < eps
    noisy = np.where(flips, -values, values).astype(np.int8)
    out = replace(rs, source=noisy)
    # replace() drops cached covers: hand over the ones already built
    out.cover_lo, out.cover_hi = rs.cover_lo, rs.cover_hi
    out.base = offsets[:-1] - rs.cover_lo
    return out


def discriminating_positions(pop: Population, i: int, j: int) -> np.ndarray:
    """Positions of SNPs that differ between individuals i and j (ascending)."""
    if i == j:
        raise ValidationError("discriminating positions need two distinct individuals")
    return pop.snp_positions[pop.alleles[i] != pop.alleles[j]]
