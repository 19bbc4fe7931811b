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

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    AlleleLaw,
    Empirical,
    FixedBiallelic,
    FixedEta,
    ModelConfig,
    RandomStream,
    UnsupportedModelError,
    ValidationError,
    sample_poisson_positions,
)

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
    law: AlleleLaw

    @property
    def S(self) -> int:
        return int(self.snp_positions.size)

    @property
    def M(self) -> int:
        return int(self.alleles.shape[0])

    @property
    def is_biallelic(self) -> bool:
        return self.S == 0 or bool(np.isin(self.alleles, (-1, 1)).all())


@dataclass
class ReadSet:
    """Aligned reads stored columnar, sorted by start position.

    Each read covers SNP indices [cover_lo[r], cover_hi[r]). The hidden
    individual labels exist for ground-truth condition checking only; the
    assembler must not consult them. Observed allele values are derived
    lazily from the population for noiseless sets and stored explicitly
    once noise has been applied.
    """

    starts: np.ndarray     # (N,) float64 ascending, in [-L, G)
    hidden: np.ndarray     # (N,) int32
    cover_lo: np.ndarray   # (N,) int64
    cover_hi: np.ndarray   # (N,) int64
    config: ModelConfig
    population: Population
    _values: Optional[np.ndarray] = field(default=None, repr=False)
    _offsets: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n_reads(self) -> int:
        return int(self.starts.size)

    def observations(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (offsets, values): values[offsets[r]:offsets[r+1]] are the
        observed alleles of read r at SNP indices cover_lo[r]..cover_hi[r]."""
        if self._offsets is None:
            lengths = self.cover_hi - self.cover_lo
            self._offsets = np.concatenate(([0], np.cumsum(lengths)))
        if self._values is None:
            lengths = self.cover_hi - self.cover_lo
            rows = np.repeat(self.hidden, lengths)
            # flat entry i of read r sits at column cover_lo[r] + i - offsets[r]
            cols = np.arange(int(self._offsets[-1])) - np.repeat(
                self._offsets[:-1] - self.cover_lo, lengths)
            self._values = self.population.alleles[rows, cols]
        return self._offsets, self._values


def generate_population(config: ModelConfig, stream: RandomStream) -> Population:
    """Draw SNP positions (Poisson rate p over [0, G)) and allele rows."""
    if isinstance(config.law, FixedEta):
        raise UnsupportedModelError(
            "FixedEta laws are for bound evaluation only and cannot be sampled")
    positions = sample_poisson_positions(config.p, float(config.G),
                                         stream.child("snp_positions"))
    S = positions.size
    gen = stream.child("alleles").gen
    if isinstance(config.law, FixedBiallelic):
        f = config.law.minor_frequency
        alleles = np.where(gen.random((config.M, S)) < f, 1, -1).astype(np.int8)
    else:
        law: Empirical = config.law
        table = np.asarray(law.frequencies, dtype=np.float64)
        which = gen.integers(0, len(table), size=S)
        cum = np.cumsum(table[which], axis=1)  # (S, 4)
        u = gen.random((config.M, S))
        alleles = (u[:, :, None] > cum[None, :, :]).sum(axis=2).astype(np.int8)
    return Population(snp_positions=positions, alleles=alleles, law=config.law)


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
    L = config.L
    reads = stream.child("reads")
    starts = sample_poisson_positions(config.M * config.lam,
                                      float(config.G) + L, reads) - L
    hidden = reads.gen.integers(0, config.M, size=starts.size, dtype=np.int32)
    pos = pop.snp_positions
    return ReadSet(starts=starts, hidden=hidden,
                   cover_lo=_count_below(pos, starts),
                   cover_hi=_count_below(pos, starts + L),
                   config=config, population=pop)


def apply_noise(rs: ReadSet, eps: float, stream: RandomStream) -> ReadSet:
    """Flip each observed biallelic allele independently with probability eps."""
    if not (0.0 <= eps <= 0.5):
        raise ValidationError(f"eps must be in [0, 0.5], got {eps}")
    if eps > 0.0 and not rs.population.is_biallelic:
        raise UnsupportedModelError(
            "symmetric flip noise is defined for biallelic populations only")
    offsets, values = rs.observations()
    gen = stream.child("noise").gen
    flips = gen.random(values.size) < eps
    noisy_values = np.where(flips, -values, values).astype(np.int8)
    return ReadSet(starts=rs.starts, hidden=rs.hidden, cover_lo=rs.cover_lo,
                   cover_hi=rs.cover_hi, config=rs.config,
                   population=rs.population, _values=noisy_values,
                   _offsets=offsets)


def discriminating_positions(pop: Population, i: int, j: int) -> np.ndarray:
    """Positions of SNPs that differ between individuals i and j (ascending)."""
    if i == j:
        raise ValidationError("discriminating positions need two distinct individuals")
    return pop.snp_positions[pop.alleles[i] != pop.alleles[j]]
