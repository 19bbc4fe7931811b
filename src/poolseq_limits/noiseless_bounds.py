"""Closed-form bounds on noiseless assembly error probabilities.

Three error events are bounded: snp_coverage (some SNP of some individual
uncovered), bridging (some identical region between a pair unbridged), and
assembly (their union). Exact variants evaluate the full finite-G
expressions; asymptotic variants use the large-depth simplifications. All
reported bounds are clamped to [0, 1]; raw unclamped values are kept for
decay-exponent checks. Values far outside each formula's validity regime
are still evaluated faithfully, hence the clamping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb, exp, expm1, log1p

from ._util import clamp01, golden_max, integral_u_exp
from .core import ModelConfig, ValidationError

__all__ = [
    "BoundReport",
    "coverage_single",
    "optimal_gap_seed",
    "coverage_lower_segmented",
    "coverage_bounds",
    "p_m",
    "delta_m",
    "lambda_lower",
    "bridging_bounds",
    "assembly_bounds",
]

VARIANT_EXACT = "exact"
VARIANT_ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class BoundReport:
    """Lower/upper bound pair for one error event."""

    lower: float
    upper: float
    raw_lower: float
    raw_upper: float
    degenerate: bool = False


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
    return log1p(p / lam) / p


def coverage_lower_segmented(G: float, p: float, lam: float, L: float,
                             M: int, x: float) -> float:
    """Segmented coverage lower bound at gap length x.

    Splits the genome into floor(G / (L + x)) disjoint segments; a segment
    fails when some individual has no read starting in it and a SNP lands
    in the trailing gap of length x. Any x >= 0 yields a valid lower bound.
    """
    n_seg = int(G // (L + x))
    if n_seg == 0 or p <= 0.0:
        return 0.0
    p_x = -expm1(M * log1p(-exp(-lam * (L + x)))) if lam > 0 else 1.0
    q = p_x * (-expm1(-p * x))
    if q >= 1.0:
        return 1.0
    return -expm1(n_seg * log1p(-q))


def coverage_bounds(config: ModelConfig,
                    variant: str = VARIANT_EXACT) -> BoundReport:
    """Bounds on the snp_coverage error event for M individuals.

    Exact: upper is the union bound M * coverage_single; lower is the best
    of the single-individual bound and the segmented bound maximized over
    the gap length (golden search around the analytic seed). Asymptotic:
    the shared-exponent sandwich valid for lam * L >> 1.
    """
    G, p, lam, L, M = config.G, config.p, config.lam, config.L, config.M
    if p <= 0.0:
        return BoundReport(0.0, 0.0, 0.0, 0.0, degenerate=True)
    if variant == VARIANT_ASYMPTOTIC:
        _require_positive(lam=lam)
        base = G * M * exp(-lam * L) * p * lam / (p + lam)
        ratio = (1.0 + p / lam) ** (-lam / p)
        alt = ratio / (lam * L + (lam / p) * log1p(p / lam))
        raw_lower = base * max(1.0 / M, alt)
        raw_upper = base
        return BoundReport(clamp01(raw_lower), clamp01(raw_upper),
                           raw_lower, raw_upper)
    single = coverage_single(G, p, lam, L)
    raw_upper = M * single
    if lam > 0.0:
        seed = optimal_gap_seed(p, lam)
        _, seg = golden_max(
            lambda x: coverage_lower_segmented(G, p, lam, L, M, x),
            seed / 10.0, seed * 10.0)
    else:
        seg = 0.0
    raw_lower = max(single, seg)
    return BoundReport(clamp01(raw_lower), clamp01(raw_upper),
                       raw_lower, raw_upper)


def p_m(m: int, lam: float, p: float, eta: float, L: float) -> float:
    """Single identical-region failure probability against m read processes.

    The region after a discriminating SNP stays unbridged when the next
    discriminating SNP is farther than L, or it is at distance x and no
    read (combined rate m * lam) starts in the remaining window L - x.
    """
    if m < 2:
        raise ValidationError("p_m needs m >= 2")
    r = p * (1.0 - eta)
    if L == 0.0:
        return 1.0
    a = m * lam
    if abs(a - r) <= 1e-12 * max(a, r):
        return (1.0 + r * L) * exp(-r * L)
    return (a * exp(-r * L) - r * exp(-a * L)) / (a - r)


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
        ez = r * r * exp(beta) * integral_u_exp(alpha, G)
    else:
        # survival term, grouped to avoid overflow when alpha < 0
        ez = (r * r / (alpha * alpha)) * (exp(beta) - (1.0 + a) * exp(-gr))
    return clamp01(1.0 - c1 - ez)


def bridging_bounds(config: ModelConfig,
                    variant: str = VARIANT_EXACT) -> BoundReport:
    """Bounds on the bridging error event for M individuals.

    Exact: lower = lambda_lower(delta_m), upper = C(M,2) G p (1-eta) p_2.
    Asymptotic: shared-exponent forms with decay min{m lam, p(1-eta)} per
    term; the upper decay exponent is min{2 lam, p(1-eta)}.
    """
    M, G, p, lam, L = config.M, config.G, config.p, config.lam, config.L
    eta = config.eta
    r = p * (1.0 - eta)
    if M < 2 or r <= 0.0:
        return BoundReport(0.0, 0.0, 0.0, 0.0, degenerate=True)
    if variant == VARIANT_ASYMPTOTIC:
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
        return BoundReport(clamp01(raw_lower), clamp01(raw_upper),
                           raw_lower, raw_upper)
    delta = delta_m(M, lam, p, eta, L)
    raw_lower = lambda_lower(delta, G, L, p, eta)
    raw_upper = comb(M, 2) * G * r * p_m(2, lam, p, eta, L)
    return BoundReport(clamp01(raw_lower), clamp01(raw_upper),
                       raw_lower, raw_upper)


def assembly_bounds(config: ModelConfig,
                    variant: str = VARIANT_EXACT) -> BoundReport:
    """Bounds on total assembly error: max of the event bounds from below,
    their sum from above."""
    cov = coverage_bounds(config, variant)
    br = bridging_bounds(config, variant)
    raw_lower = max(cov.raw_lower, br.raw_lower)
    raw_upper = cov.raw_upper + br.raw_upper
    return BoundReport(clamp01(raw_lower), clamp01(raw_upper),
                       raw_lower, raw_upper,
                       degenerate=cov.degenerate and br.degenerate)
