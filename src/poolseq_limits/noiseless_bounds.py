"""Closed-form bounds on noiseless assembly error probabilities.

Three error events are bounded: snp_coverage (some SNP of some individual
uncovered), bridging (some identical region between a pair unbridged), and
assembly (their union). For each event, `*_lower` and `*_upper` evaluate
the exact finite-G bounds, and `*_asymptotic` returns the (lower, upper)
pair of the large-depth simplifications. Every function takes a
`ModelConfig` and returns raw, unclamped values, which decay-exponent checks
read; callers clamp to [0, 1] (`_util.clamp01`). Values far outside each
formula's validity regime are still evaluated faithfully, hence the
clamping.
"""

from __future__ import annotations

import math
from functools import partial
from math import comb, exp, expm1, log, log1p

from ._util import clamp01, golden_max
from .core import ModelConfig, ValidationError

__all__ = [
    "coverage_single",
    "optimal_gap_seed",
    "coverage_lower_segmented",
    "coverage_lower",
    "coverage_upper",
    "coverage_asymptotic",
    "p_m",
    "delta_m",
    "lambda_lower",
    "bridging_lower",
    "bridging_upper",
    "bridging_asymptotic",
    "assembly_lower",
    "assembly_upper",
    "assembly_asymptotic",
]


def _require_positive(**kwargs) -> None:
    for name, v in kwargs.items():
        if v is None or not math.isfinite(v) or v <= 0:
            raise ValidationError(f"{name} must be positive and finite, got {v}")


def coverage_single(G: float, p: float, lam: float, L: float) -> float:
    """Probability that at least one SNP of one individual is uncovered.

    Equals 1 - exp(-G e^(-lam L) / (1/p + 1/lam)). With no reads at all the
    event reduces to "at least one SNP exists".
    """
    _require_positive(G=G, L=L)
    if p <= 0.0:
        return 0.0
    if lam <= 0.0:
        return -expm1(-G * p)
    t = G * exp(-lam * L) * p * lam / (p + lam)
    return -expm1(-t)


def optimal_gap_seed(p: float, lam: float) -> float:
    """Near-optimal uncovered-gap length x for the segmented lower bound."""
    _require_positive(p=p, lam=lam)
    ratio = p / lam
    # below lam = p / DBL_MAX the ratio overflows, where log1p(ratio) is
    # log(ratio) to rounding
    return (log1p(ratio) if ratio < math.inf else log(p) - log(lam)) / p


def coverage_lower_segmented(G: float, p: float, lam: float, L: float,
                             M: int, x: float) -> float:
    """Segmented coverage lower bound at gap length x.

    Splits the genome into floor(G / (L + x)) disjoint segments; a segment
    fails when some individual has no read starting in it and a SNP lands
    in the trailing gap of length x. Any x >= 0 yields a valid lower bound.
    """
    span = L + x
    n_seg = int(G // span)
    if n_seg == 0 or p <= 0.0:
        return 0.0
    # an individual has no read starting in the segment with probability
    # miss, which rounds to 1 once lam (L + x) is under half an ulp of 1
    miss = exp(-lam * span)
    p_x = -expm1(M * log1p(-miss)) if miss < 1.0 else 1.0
    q = p_x * (-expm1(-p * x))
    if q >= 1.0:
        return 1.0
    return -expm1(n_seg * log1p(-q))


def coverage_upper(config: ModelConfig) -> float:
    """Raw exact upper bound on snp_coverage: the union bound
    M * coverage_single, and 0 without SNPs."""
    if config.p <= 0.0:
        return 0.0
    return config.M * coverage_single(config.G, config.p, config.lam, config.L)


def coverage_lower(config: ModelConfig) -> float:
    """Raw exact lower bound on snp_coverage: the best of the
    single-individual bound and the segmented bound maximized over the gap
    length (golden search around the analytic seed), and 0 without SNPs."""
    G, p, lam, L, M = config.G, config.p, config.lam, config.L, config.M
    if p <= 0.0:
        return 0.0
    single = coverage_single(G, p, lam, L)
    if lam > 0.0:
        seed = optimal_gap_seed(p, lam)
        _, seg = golden_max(partial(coverage_lower_segmented, G, p, lam, L, M),
                            seed / 10.0, seed * 10.0)
    else:
        seg = 0.0
    return max(single, seg)


def coverage_asymptotic(config: ModelConfig) -> tuple[float, float]:
    """Raw asymptotic (lower, upper) on snp_coverage: the shared-exponent
    sandwich valid for lam * L >> 1, and (0, 0) without SNPs."""
    G, p, lam, L, M = config.G, config.p, config.lam, config.L, config.M
    if p <= 0.0:
        return 0.0, 0.0
    _require_positive(lam=lam)
    base = G * M * exp(-lam * L) * p * lam / (p + lam)
    ratio = (1.0 + p / lam) ** (-lam / p)
    alt = ratio / (lam * L + (lam / p) * log1p(p / lam))
    return base * max(1.0 / M, alt), base


def p_m(m: int, lam: float, p: float, eta: float, L: float) -> float:
    """Single identical-region failure probability against m read processes.

    The region after a discriminating SNP stays unbridged when the next
    discriminating SNP is farther than L, or it is at distance x and no
    read (combined rate a = m * lam) starts in the remaining window L - x:
    (a e^-rL - r e^-aL) / (a - r), computed without cancellation as
    e^-sL (1 + s L (1 - e^-z) / z), s = min(a, r), z = |a - r| L.
    """
    if m < 2:
        raise ValidationError("p_m needs m >= 2")
    r = p * (1.0 - eta)
    if L == 0.0:
        return 1.0
    a = m * lam
    s = min(a, r)
    z = abs(a - r) * L
    q = 1.0 if z == 0.0 else -expm1(-z) / z
    return exp(-s * L) * (1.0 + s * L * q)


def delta_m(M: int, lam: float, p: float, eta: float, L: float) -> float:
    """Single-segment failure probability for M individuals.

    Probability that, in one segment of length L, at least two individuals
    have all of their reads after the last discriminating SNP (individuals
    with no read in the segment count as such vacuously). Computed by
    inclusion-exclusion over the per-individual events:
    sum_{m=2..M} (-1)^m (m-1) C(M, m) p_m. The (m-1) weight is what the
    at-least-two inclusion-exclusion requires; it is verified against
    direct permutation-level simulation in the tests.
    """
    if M < 2:
        raise ValidationError("delta_m needs M >= 2")
    r = p * (1.0 - eta)
    if r <= 0.0:
        return 0.0  # degenerate: no discriminating SNPs ever arrive
    total = 0.0
    for m in range(2, M + 1):
        total += (-1.0) ** m * (m - 1) * comb(M, m) * p_m(m, lam, p, eta, L)
    return clamp01(total)


def lambda_lower(q: float, G: float, L: float, p: float, eta: float) -> float:
    """Genome-wide bridging error lower bound from a per-segment failure q.

    Multiplies the probability of having at least two discriminating SNPs
    by one minus the expected survival of floor-free L_R / L independent
    segments, where L_R (the span between first and last discriminating
    SNPs) is integrated against its exact density. Monotone non-decreasing
    in q.
    """
    if not (0.0 <= q <= 1.0):
        raise ValidationError(f"q must be in [0, 1], got {q}")
    _require_positive(G=G, L=L)
    r = p * (1.0 - eta)
    if r <= 0.0 or q <= 0.0:
        return 0.0
    gr = G * r
    c1 = (1.0 + gr) * exp(-gr)
    if q >= 1.0:
        return clamp01(1.0 - c1)
    lnq1 = log1p(-q)
    alpha = r + lnq1 / L
    beta = (G / L) * lnq1
    a = alpha * G
    if abs(a) < 1e-6:
        # the integral of u e^(-alpha u) over [0, G] as a series in a,
        # which the closed form below loses to cancellation
        ez = r * r * exp(beta) * (
            G * G * (0.5 - a / 3.0 + a * a / 8.0 - a ** 3 / 30.0))
    else:
        # survival term, grouped to avoid overflow when alpha < 0
        ez = (r * r / (alpha * alpha)) * (exp(beta) - (1.0 + a) * exp(-gr))
    return clamp01(1.0 - c1 - ez)


def bridging_upper(config: ModelConfig) -> float:
    """Raw exact upper bound on the bridging event: the union bound
    C(M,2) G p (1-eta) p_2 over pairs, and 0 without two individuals or
    without discriminating SNPs."""
    r = config.disc_rate
    if config.M < 2 or r <= 0.0:
        return 0.0
    return comb(config.M, 2) * config.G * r * p_m(2, config.lam, config.p,
                                                  config.eta, config.L)


def bridging_lower(config: ModelConfig) -> float:
    """Raw exact lower bound on the bridging event, lambda_lower(delta_m),
    and 0 without two individuals or without discriminating SNPs."""
    M, G, p, lam, L = config.M, config.G, config.p, config.lam, config.L
    if M < 2 or config.disc_rate <= 0.0:
        return 0.0
    return lambda_lower(delta_m(M, lam, p, config.eta, L), G, L, p, config.eta)


def bridging_asymptotic(config: ModelConfig) -> tuple[float, float]:
    """Raw asymptotic (lower, upper) on the bridging event: shared-exponent
    forms with decay min{m lam, p(1-eta)} per term; the upper decay exponent
    is min{2 lam, p(1-eta)}. (0, 0) without two individuals or without
    discriminating SNPs."""
    M, G, lam, L = config.M, config.G, config.lam, config.L
    r = config.disc_rate
    if M < 2 or r <= 0.0:
        return 0.0, 0.0
    _require_positive(lam=lam)
    raw_lower = 0.0
    for m in range(2, M + 1):
        a = m * lam
        lo_rate, hi_rate = min(a, r), max(a, r)
        term = exp(-lo_rate * L) / (1.0 - lo_rate / hi_rate) \
            if lo_rate < hi_rate else (1.0 + r * L) * exp(-r * L)
        raw_lower += (-1.0) ** m * (m - 1) * comb(M, m) * term
    raw_lower *= G / L
    lo2, hi2 = min(2.0 * lam, r), max(2.0 * lam, r)
    if lo2 < hi2:
        raw_upper = (G * M * M * r / (2.0 * (1.0 - lo2 / hi2))) * exp(-lo2 * L)
    else:
        raw_upper = (G * M * M * r / 2.0) * (1.0 + r * L) * exp(-r * L)
    return raw_lower, raw_upper


def assembly_lower(config: ModelConfig) -> float:
    """Raw exact lower bound on total assembly error: the larger of the two
    event lower bounds."""
    return max(coverage_lower(config), bridging_lower(config))


def assembly_upper(config: ModelConfig) -> float:
    """Raw exact upper bound on total assembly error: the sum of the two
    event upper bounds."""
    return coverage_upper(config) + bridging_upper(config)


def assembly_asymptotic(config: ModelConfig) -> tuple[float, float]:
    """Raw asymptotic (lower, upper) on total assembly error: the larger of
    the event lower bounds, the sum of the event upper bounds."""
    cov_lower, cov_upper = coverage_asymptotic(config)
    br_lower, br_upper = bridging_asymptotic(config)
    return max(cov_lower, br_lower), cov_upper + br_upper
