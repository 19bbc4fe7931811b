"""Upper bounds on assembly error from noisy reads.

The genome is split into overlapping segments of length D with step d
(overlap D - d). Assembly succeeds when every overlap discriminates every
pair of individuals and every segment is denoised correctly, giving the
generic shape (G / d) * (discrimination term + denoising term). The
denoising term uses pairwise hypothesis-confusion exponents: the chance
that ML decoding confuses two hypothesis sets decays like
exp(-n * exponent) in the number of covering reads n, where the exponent
is the Bhattacharyya divergence between the two induced observation
mixtures (the Chernoff optimum sits at s = -1/2). Spectral denoising gets
its own bound from community-detection recovery plus majority-vote error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, exp, expm1, log, sqrt

import numpy as np

from ._util import clamp01, golden_min, poisson_weights, popcount_table
from .core import CapacityError, ModelConfig, ValidationError
from .denoise import (AVERAGE_CASE, WORST_CASE, HypothesisSet,
                      mixture_distribution, nu_min_for_mode)

__all__ = [
    "SegmentationPlan",
    "ExponentTable",
    "SpectralBoundParams",
    "disc_upper",
    "exponent_numeric",
    "exponent_closed",
    "canonical_adjacent_pair",
    "min_exponent",
    "exponent_table",
    "den_ml_upper",
    "ml_plan_seed",
    "noisy_upper_ml",
    "spectral_quantities",
    "spectral_noise_ceiling",
    "noisy_upper_spectral",
]

PAIR_ENUM_CAP = 2100  # hypothesis sets; all-pairs tables go quadratic in this
EXPONENT_KAPPA_CAP = 14


@dataclass(frozen=True)
class SegmentationPlan:
    """Segment length D and step d, constrained to 0 < d < D."""

    D: float
    d: float

    def __post_init__(self):
        if not (0.0 < self.d < self.D):
            raise ValidationError(f"need 0 < d < D, got d={self.d}, D={self.D}")


@dataclass(frozen=True)
class ExponentTable:
    """Worst-case confusion exponents by hypothesis distance i = 1..M*kappa.

    values[i-1] is the minimum pairwise exponent over hypothesis pairs at
    set distance i; +inf marks distances no valid pair realizes.
    """

    M: int
    kappa: int
    eps: float
    values: tuple[float, ...]


@dataclass(frozen=True)
class SpectralBoundParams:
    """Quantities feeding the spectral denoising bound."""

    kappa: int
    eps: float
    nu_min: float
    p_e: float        # pairwise edge-misclassification bound
    a_lower: float    # intra-community edge probability lower bound
    b_upper: float    # inter-community edge probability upper bound
    zeta: float       # community-recovery exponent; 0 means vacuous
    c_const: float


def disc_upper(M: int, p: float, eta: float, D: float, d: float) -> float:
    """Upper bound on some pair being indistinguishable on a D - d overlap.

    Alternating sum over m of C(C(M,2), m) (-1)^(m-1) exp(-p (D-d) (1-eta^m)),
    clamped to [0, 1]. At d == D the overlap is empty and the bound is 1.
    Beyond a few dozen pairs the alternating sum cancels catastrophically,
    so the equivalent Poisson average E[1 - (1 - eta^n)^pairs] over the
    overlap SNP count n is evaluated directly instead.
    """
    if M < 2:
        raise ValidationError("discrimination bound needs M >= 2")
    if d > D:
        raise ValidationError("need d <= D")
    pairs = comb(M, 2)
    width = D - d
    if pairs <= 40:
        total = 0.0
        for m in range(1, pairs + 1):
            total += comb(pairs, m) * (-1.0) ** (m - 1) \
                * exp(-p * width * (1.0 - eta ** m))
        return clamp01(total)
    ks, ws = poisson_weights(p * width)
    total = 0.0
    for n, w in zip(ks, ws):
        en = eta ** n
        total += w * (-math.expm1(pairs * math.log1p(-en)) if en < 1.0 else 1.0)
    return clamp01(total)


def exponent_numeric(psi_t: HypothesisSet, psi: HypothesisSet,
                     eps: float) -> float:
    """Exact confusion exponent between two hypothesis sets.

    Computes -log of the Bhattacharyya coefficient between the observation
    mixtures the two sets induce over all 2^kappa sequences. Zero iff the
    mixtures coincide (identical sets, or eps = 0.5).
    """
    if psi_t.kappa != psi.kappa or psi_t.M != psi.M:
        raise ValidationError("hypothesis sets must share kappa and M")
    if psi_t.kappa > EXPONENT_KAPPA_CAP:
        raise CapacityError(f"kappa > {EXPONENT_KAPPA_CAP} not enumerable")
    p = mixture_distribution(psi_t, eps)
    q = mixture_distribution(psi, eps)
    bc = float(np.sqrt(p * q).sum())
    return max(0.0, -math.log(min(bc, 1.0)))


def exponent_closed(M: int, eps: float) -> float:
    """Closed-form dominant exponent for M = 2 or 3 (kappa-independent).

    M=2: -log(1/2 + sqrt(eps(1-eps))).
    M=3: -log((2/3) sqrt(1 - eps(1-eps)) (sqrt(2eps(1-eps) + eps^2)
          + sqrt(2eps(1-eps) + (1-eps)^2))).
    Both satisfy the eps -> 0 limit log(1 + 1/(M-1)) and vanish at
    eps = 0.5. Other M fall back to a small-kappa numeric minimization.
    """
    if not (0.0 <= eps <= 0.5):
        raise ValidationError(f"eps must be in [0, 0.5], got {eps}")
    e = eps
    if M == 2:
        return -log(0.5 + sqrt(e * (1.0 - e)))
    if M == 3:
        val = (2.0 / 3.0) * sqrt(1.0 - e * (1.0 - e)) * (
            sqrt(2.0 * e * (1.0 - e) + e * e)
            + sqrt(2.0 * e * (1.0 - e) + (1.0 - e) ** 2))
        return max(0.0, -log(min(val, 1.0)))
    kappa = max(2, math.ceil(math.log2(M + 1)))
    return min_exponent(M, kappa, eps, distance=1)


def canonical_adjacent_pair(M: int, kappa: int) -> tuple[HypothesisSet, HypothesisSet]:
    """The minimum-distance hypothesis pair realizing the dominant exponent.

    The true set holds M sequences forming a chain of adjacent corners on
    the first two coordinates; the alternative flips one locus of the last
    member. Requires kappa >= 2 and M in {2, 3}.
    """
    if kappa < 2 or M not in (2, 3):
        raise ValidationError("canonical pair defined for M in {2, 3}, kappa >= 2")
    pad = (-1,) * (kappa - 2)
    if M == 2:
        true = ((-1, -1) + pad, (1, -1) + pad)
        alt = ((-1, -1) + pad, (-1, 1) + pad)
    else:
        true = ((-1, -1) + pad, (1, -1) + pad, (1, 1) + pad)
        alt = ((-1, -1) + pad, (1, -1) + pad, (-1, 1) + pad)
    return HypothesisSet(true), HypothesisSet(alt)


def _member_arrays(kappa: int, M: int) -> np.ndarray:
    n_cand = comb(1 << kappa, M)
    if n_cand > PAIR_ENUM_CAP:
        raise CapacityError(
            f"{n_cand} hypothesis sets exceed the enumeration cap {PAIR_ENUM_CAP}")
    return np.array(list(combinations(range(1 << kappa), M)), dtype=np.int64)


def _set_distances(members: np.ndarray, kappa: int) -> np.ndarray:
    """Pairwise set distances: minimal total bit flips over member matchings."""
    n, M = members.shape
    pop = popcount_table(kappa)
    dist = None
    for perm in permutations(range(M)):
        d = np.zeros((n, n), dtype=np.int64)
        for j in range(M):
            d += pop[np.bitwise_xor.outer(members[:, j], members[:, perm[j]])]
        dist = d if dist is None else np.minimum(dist, d)
    return dist


def _pairwise_exponents(members: np.ndarray, kappa: int, M: int,
                        eps: float) -> np.ndarray:
    x = eps / (1.0 - eps)
    pop = popcount_table(kappa)
    phis = np.arange(1 << kappa)
    xpow = x ** pop[np.bitwise_xor.outer(phis, phis)].astype(np.float64)
    mix = xpow[:, members].sum(axis=2).T  # (n_cand, 2^kappa), constants dropped
    mix *= (1.0 - eps) ** kappa / M
    sq = np.sqrt(mix)
    bc = sq @ sq.T
    # disjoint mixtures (possible at eps = 0) have bc = 0: the exponent is inf
    with np.errstate(divide="ignore", invalid="ignore"):
        exps = -np.log(np.minimum(bc, 1.0))
    return np.maximum(exps, 0.0)


def min_exponent(M: int, kappa: int, eps: float, distance: int = 1) -> float:
    """Exhaustive minimum confusion exponent over all hypothesis pairs at a
    given set distance. This is the oracle the closed forms must match."""
    values = exponent_table(M, kappa, eps).values
    return values[distance - 1] if 1 <= distance <= len(values) else math.inf


@lru_cache(maxsize=256)
def exponent_table(M: int, kappa: int, eps: float) -> ExponentTable:
    """Worst-case exponent for every hypothesis distance 1..M*kappa."""
    if M < 1 or kappa < 1 or M > 1 << kappa:
        raise ValidationError(f"need kappa >= 1 and 1 <= M <= 2^kappa, "
                              f"got M={M}, kappa={kappa}")
    if not (0.0 <= eps <= 0.5):
        raise ValidationError(f"eps must be in [0, 0.5], got {eps}")
    members = _member_arrays(kappa, M)
    dist = _set_distances(members, kappa)
    exps = _pairwise_exponents(members, kappa, M, eps)
    values = []
    for i in range(1, M * kappa + 1):
        mask = dist == i
        np.fill_diagonal(mask, False)
        values.append(float(exps[mask].min()) if mask.any() else math.inf)
    return ExponentTable(M=M, kappa=kappa, eps=eps, values=tuple(values))


def den_ml_upper(M: int, lam: float, L: float, D: float, eps: float,
                 kappa: int) -> float:
    """Upper bound on ML denoising failure in one block of kappa SNPs.

    The number of covering reads is Poisson(lam * M * (L - D)), and the
    bound is sum_i C(M kappa, i) exp(-coverage (1 - e^-D_i)) over the
    hypothesis distances i of the exponent table. Returned raw: values
    above 1 mean the bound is vacuous there.
    """
    # at D >= L no read can strictly cover the segment; the bound is vacuous
    coverage = lam * M * max(L - D, 0.0)
    total = 0.0
    for i, d_i in enumerate(exponent_table(M, kappa, eps).values, start=1):
        if math.isinf(d_i):
            continue
        total += comb(M * kappa, i) * exp(-coverage * -expm1(-d_i))
    return total


def ml_plan_seed(config: ModelConfig) -> SegmentationPlan:
    """Stationary-point approximation for the optimal (D, d).

    The step is d = (1/r) (1 + p D e^(-rate (L-D)) / ((M-1)/2 e^(1 - r D))).
    The two exponentials are merged into one of the summed exponents:
    e^(1 - r D) alone underflows to 0 once r D passes ~745. The merged
    exponent is capped below overflow, since d is clamped to 0.999 D anyway.
    """
    M, L, lam, p = config.M, config.L, config.lam, config.p
    eta = config.eta
    r = p * (1.0 - eta)
    d1 = exponent_closed(M, eps=config.eps)
    rate = lam * M * -expm1(-d1)
    if rate <= 0.0 or r <= 0.0:
        return SegmentationPlan(D=L, d=L / 2.0)
    inner = (M - 1) * (1.0 - eta) / (2.0 * (1.0 + M * L * lam))
    D = (L + log(inner) / rate) / (1.0 + r / rate)
    D = min(max(D, 1e-9), L)
    expo = min(-rate * (L - D) - (1.0 - r * D), 700.0)
    d = (1.0 / r) * (1.0 + p * D / ((M - 1) / 2.0) * exp(expo))
    d = min(max(d, 1e-9), D * 0.999)
    return SegmentationPlan(D=D, d=d)


def _optimize_plan(objective, L: float, seed: SegmentationPlan,
                   iters: int = 64, rtol: float = 1e-4) -> tuple[float, SegmentationPlan]:
    """Coordinate descent over 0 < d < D <= L, parametrized as (D, d/D) so
    every iterate is feasible and any early stop still yields a valid bound."""
    D = min(seed.D, L)
    frac = min(max(seed.d / seed.D, 1e-7), 0.999)
    best = objective(D, frac * D)
    for _ in range(iters):
        D, _ = golden_min(lambda t: objective(t, frac * t), 1e-6 * L, L,
                          iters=60)
        frac, _ = golden_min(lambda t: objective(D, t * D), 1e-7, 0.999,
                             iters=60)
        val = objective(D, frac * D)
        if best - val <= rtol * max(best, 1e-300):
            best = min(best, val)
            break
        best = val
    return best, SegmentationPlan(D=D, d=frac * D)


def _bound_at_plan(objective, config: ModelConfig,
                   plan: SegmentationPlan | None
                   ) -> tuple[float, SegmentationPlan]:
    """Clamped objective at the given plan, or minimized over (D, d) from the
    stationary-point seed when no plan is given; returns it with the plan."""
    if plan is not None:
        if plan.D > config.L:
            raise ValidationError("plan must satisfy D <= L")
        return clamp01(objective(plan.D, plan.d)), plan
    value, best_plan = _optimize_plan(objective, config.L, ml_plan_seed(config))
    return clamp01(value), best_plan


def noisy_upper_ml(config: ModelConfig,
                   plan: SegmentationPlan | None = None
                   ) -> tuple[float, SegmentationPlan]:
    """Assembly error upper bound with ML denoising, minimized over (D, d).

    Evaluates (G / d) * (discrimination bound + dominant denoising term
    M p D exp(-lam M (L - D) (1 - e^-D1))), where the kappa ~ Poisson(p D)
    average of the i = 1 term M kappa exp(...) gives the factor M p D. With
    a plan given, evaluates at that (D, d); otherwise minimizes from the
    stationary-point seed by coordinate descent. Returns the clamped bound
    and the plan used.
    """
    if config.M < 2:
        raise ValidationError("noisy bounds need M >= 2")
    G, L, lam, p, M = config.G, config.L, config.lam, config.p, config.M
    eta = config.eta
    d1_rate = -expm1(-exponent_closed(M, config.eps))

    def objective(D: float, d: float) -> float:
        disc = disc_upper(M, p, eta, D, d)
        den = M * p * D * exp(-lam * M * max(L - D, 0.0) * d1_rate)
        return (G / d) * (disc + den)

    return _bound_at_plan(objective, config, plan)


def spectral_quantities(kappa: int, eta: float | None, eps: float,
                        mode: str = WORST_CASE,
                        c_const: float = 1.0) -> SpectralBoundParams:
    """Edge-probability bounds and recovery exponent for spectral denoising.

    p_e = exp(-(nu_min^2 / kappa) (1 - 2 eps)^4) bounds both edge error
    directions; zeta = (1 - 2 p_e)^2 / (c^2 (1 - p_e)) when p_e < 1/2,
    else 0 (the recovery bound is vacuous).
    """
    if kappa < 0:
        raise ValidationError("kappa must be >= 0")
    nu = nu_min_for_mode(mode, kappa, eta)
    if kappa == 0 or nu <= 0.0:
        return SpectralBoundParams(kappa, eps, nu, 1.0, 0.0, 1.0, 0.0, c_const)
    p_e = exp(-(nu * nu / kappa) * (1.0 - 2.0 * eps) ** 4)
    zeta = 0.0
    if p_e < 0.5:
        zeta = (1.0 - 2.0 * p_e) ** 2 / (c_const * c_const * (1.0 - p_e))
    return SpectralBoundParams(kappa=kappa, eps=eps, nu_min=nu, p_e=p_e,
                               a_lower=1.0 - p_e, b_upper=p_e, zeta=zeta,
                               c_const=c_const)


def spectral_noise_ceiling(kappa: int, nu_min: float) -> float:
    """Noise level at which the bound's edge-error expression p_e of
    `spectral_quantities` reaches 1/2; below it p_e < 1/2 and zeta > 0.
    Equals 1/2 - 1/2 (kappa ln 2 / nu_min^2)^(1/4), floored at 0.

    A sufficient condition for recovery only: the denoiser may still
    recover blocks above it."""
    if kappa <= 0 or nu_min <= 0.0:
        return 0.0
    val = 0.5 * (1.0 - (kappa * math.log(2.0) / (nu_min * nu_min)) ** 0.25)
    return max(0.0, val)


def noisy_upper_spectral(config: ModelConfig,
                         plan: SegmentationPlan | None = None,
                         mode: str = AVERAGE_CASE, c_const: float = 1.0
                         ) -> tuple[float, SegmentationPlan]:
    """Assembly error upper bound with spectral denoising.

    Three terms per segment: discrimination, majority-vote error
    M D p exp(-lam M D (1 - exp(-1 / (8 eps (1 - eps))))), and community
    detection lam M (L - D) E_kappa[e^-zeta exp(-lam M (L-D)(1 - e^-zeta))]
    with kappa ~ Poisson(p D) (truncated at 1e-12 tail mass).
    """
    if config.M < 2:
        raise ValidationError("noisy bounds need M >= 2")
    G, L, lam, p, eps = config.G, config.L, config.lam, config.p, config.eps
    eta = config.eta
    M = config.M

    if eps > 0.0:
        # per-observation majority-vote error exponent: the Chernoff bound
        # for a Binomial(n, eps) tail at n/2 is exp(-n (1-2eps)^2 / (8 eps (1-eps)))
        mv_rate = -expm1(-(1.0 - 2.0 * eps) ** 2 / (8.0 * eps * (1.0 - eps)))
    else:
        mv_rate = 1.0

    def community_term(D: float) -> float:
        coverage = lam * M * max(L - D, 0.0)
        ks, ws = poisson_weights(p * D)
        total = 0.0
        for k, w in zip(ks, ws):
            zeta = spectral_quantities(int(k), eta, eps, mode, c_const).zeta
            total += w * exp(-zeta) * exp(-coverage * -expm1(-zeta))
        # a segment with no strictly-covering read cannot be denoised at
        # all; without this atom the minimizer could drive D -> L and
        # collapse the bound through a vacuous corner
        return exp(-coverage) + coverage * total

    def objective(D: float, d: float) -> float:
        disc = disc_upper(M, p, eta, D, d)
        mv = M * D * p * exp(-lam * M * D * mv_rate)
        return (G / d) * (disc + mv + community_term(D))

    return _bound_at_plan(objective, config, plan)
