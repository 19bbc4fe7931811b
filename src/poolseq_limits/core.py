"""Model parameters, allele-frequency laws, and stochastic primitives.

The pooled-sequencing model has a reference genome of length G carrying SNPs
at Poisson(p) positions, M individuals whose alleles are drawn per SNP from a
frequency law, per-individual reads arriving as Poisson(lambda) processes, a
fixed read length L, and an optional symmetric flip noise eps on biallelic
alleles. The match probability eta (the chance two independent draws from a
SNP's allele distribution agree) drives every discriminating-SNP rate in the
bounds: discriminating SNPs between two individuals form a thinned Poisson
process of rate p*(1-eta).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "ValidationError",
    "UnsupportedModelError",
    "CapacityError",
    "FixedBiallelic",
    "Empirical",
    "FixedEta",
    "AlleleLaw",
    "ModelConfig",
    "RandomStream",
    "eta_from_law",
    "sample_poisson_positions",
]


class ValidationError(ValueError):
    """A parameter or frequency vector violates its contract."""


class UnsupportedModelError(ValueError):
    """The requested model combination is out of scope (e.g. noisy 4-ary)."""


class CapacityError(RuntimeError):
    """An exhaustive enumeration would exceed its configured size limit."""


@dataclass(frozen=True)
class FixedBiallelic:
    """Every SNP is biallelic with the same minor-allele frequency."""

    minor_frequency: float

    def __post_init__(self):
        f = self.minor_frequency
        if not (0.0 <= f <= 0.5):
            raise ValidationError(f"minor frequency must be in [0, 0.5], got {f}")


@dataclass(frozen=True)
class Empirical:
    """Per-SNP frequency vectors over {A, C, G, T}, sampled uniformly per locus."""

    frequencies: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.frequencies:
            raise ValidationError("empirical law needs at least one frequency vector")
        for i, q in enumerate(self.frequencies):
            if len(q) != 4:
                raise ValidationError(f"frequency vector {i} must have 4 entries")
            if any(v < 0.0 for v in q):
                raise ValidationError(f"frequency vector {i} has a negative entry")
            if abs(sum(q) - 1.0) > 1e-9:
                raise ValidationError(f"frequency vector {i} does not sum to 1")


@dataclass(frozen=True)
class FixedEta:
    """Match probability given directly; usable for bound evaluation only."""

    eta: float

    def __post_init__(self):
        if not (0.0 <= self.eta <= 1.0):
            raise ValidationError(f"eta must be in [0, 1], got {self.eta}")


AlleleLaw = Union[FixedBiallelic, Empirical, FixedEta]


def eta_from_law(law: AlleleLaw) -> float:
    """Match probability eta: expected sum of squared allele frequencies.

    For a biallelic law with minor frequency f this is f^2 + (1-f)^2; for an
    empirical law it is the mean of sum(q^2) over the provided vectors; a
    FixedEta law passes through unchanged.
    """
    if isinstance(law, FixedEta):
        return law.eta
    if isinstance(law, FixedBiallelic):
        f = law.minor_frequency
        return f * f + (1.0 - f) * (1.0 - f)
    if isinstance(law, Empirical):
        vals = [sum(v * v for v in q) for q in law.frequencies]
        return float(np.mean(vals))
    raise ValidationError(f"unknown allele law {law!r}")


@dataclass(frozen=True)
class ModelConfig:
    """All model parameters in one validated record.

    Attributes:
        G: genome length in bp (positive integer).
        M: number of pooled individuals (>= 1).
        p: per-bp SNP rate, 0 <= p < 1.
        L: read length in bp (> 0).
        lam: per-bp, per-individual read arrival rate (N/G, >= 0).
        law: allele-frequency law.
        eps: symmetric allele flip probability, 0 <= eps <= 0.5.
    """

    G: int
    M: int
    p: float
    L: float
    lam: float
    law: AlleleLaw
    eps: float = 0.0

    def __post_init__(self):
        if int(self.G) != self.G or self.G <= 0:
            raise ValidationError(f"G must be a positive integer, got {self.G}")
        if int(self.M) != self.M or self.M < 1:
            raise ValidationError(f"M must be an integer >= 1, got {self.M}")
        if not (0.0 <= self.p < 1.0):
            raise ValidationError(f"p must satisfy 0 <= p < 1, got {self.p}")
        if not (self.L > 0.0) or not math.isfinite(self.L):
            raise ValidationError(f"L must be positive and finite, got {self.L}")
        if self.lam < 0.0 or not math.isfinite(self.lam):
            raise ValidationError(f"lambda must be >= 0 and finite, got {self.lam}")
        if not math.isfinite(self.lam * self.L):
            raise ValidationError("lambda * L must be finite")
        if not (0.0 <= self.eps <= 0.5):
            raise ValidationError(f"eps must be in [0, 0.5], got {self.eps}")

    @property
    def eta(self) -> float:
        return eta_from_law(self.law)

    @property
    def disc_rate(self) -> float:
        """Discriminating-SNP arrival rate between any two individuals."""
        return self.p * (1.0 - self.eta)


def _path_token(t) -> int:
    if isinstance(t, (int, np.integer)):
        v = int(t)
        if v < 0:
            raise ValidationError("stream path integers must be non-negative")
        return v % (2 ** 32)
    if isinstance(t, str):
        return zlib.crc32(t.encode("utf-8"))
    raise ValidationError(f"stream path element must be int or str, got {t!r}")


@dataclass
class RandomStream:
    """Splittable counter-based random stream.

    child(trial_index, role) derives an independent stream keyed only by the
    root seed and the path of tokens, so results are reproducible regardless
    of draw order or how trials are scheduled across workers.
    """

    seed: int
    path: tuple[int, ...] = ()
    gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        seq = np.random.SeedSequence(entropy=int(self.seed), spawn_key=self.path)
        self.gen = np.random.Generator(np.random.Philox(seq))

    def child(self, *path) -> "RandomStream":
        tokens = tuple(_path_token(t) for t in path)
        return RandomStream(self.seed, self.path + tokens)


def sample_poisson_positions(rate: float, length: float,
                             stream: RandomStream) -> np.ndarray:
    """Sample a homogeneous Poisson process on [0, length).

    Returns strictly increasing float64 positions; the count is
    Poisson(rate * length). A zero rate yields an empty array.
    """
    if rate < 0.0:
        raise ValidationError(f"rate must be >= 0, got {rate}")
    if length <= 0.0:
        raise ValidationError(f"length must be > 0, got {length}")
    n = int(stream.gen.poisson(rate * length))
    if n == 0:
        return np.empty(0, dtype=np.float64)
    # np.unique returns sorted output; float collisions are measure-zero
    # but would break strict ordering
    return np.unique(stream.gen.uniform(0.0, length, n))
