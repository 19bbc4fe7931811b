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
import sys
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import permutations
from math import comb, exp, expm1, log, log1p, sqrt

import numpy as np

from ._util import (POISSON_TAIL, candidate_sets, clamp01, golden_min,
                    hamming, pack_rows, poisson_weights, set_sums)
from .core import CapacityError, ModelConfig, ValidationError
from .denoise import AVERAGE_CASE, WORST_CASE, nu_min_for_mode

__all__ = [
    "SegmentationPlan",
    "SpectralBoundParams",
    "disc_upper",
    "mixture_distribution",
    "exponent_numeric",
    "exponent_closed",
    "canonical_adjacent_pair",
    "exponent_table",
    "den_ml_upper",
    "ml_plan_seed",
    "noisy_upper_ml",
    "spectral_quantities",
    "spectral_noise_ceiling",
    "noisy_upper_spectral",
]

PAIR_ENUM_CAP = 2100  # hypothesis sets; all-pairs tables go quadratic in this
# M! member matchings times squared set count: (M, kappa) = (4, 4) needs 8e7
MATCHING_WORK_CAP = 10 ** 8
EXPONENT_KAPPA_CAP = 14
PLAN_DESCENT_ROUNDS = 64  # (D, d) coordinate descent rounds, at most
PLAN_DESCENT_RTOL = 1e-4  # a round gaining less, relatively, ends it


@dataclass(frozen=True)
class SegmentationPlan:
    """Segment length D and step d, constrained to 0 < d < D."""

    D: float
    d: float

    def __post_init__(self):
        if not (0.0 < self.d < self.D):
            raise ValidationError(f"need 0 < d < D, got d={self.d}, D={self.D}")


@dataclass(frozen=True)
class SpectralBoundParams:
    """Quantities feeding the spectral denoising bound."""

    nu_min: float
    p_e: float        # pairwise edge-misclassification bound
    zeta: float       # community-recovery exponent; 0 means vacuous


# The alternating sum's rounding error is about DBL_EPSILON times the sum of
# its term sizes, at most 2^pairs e^(-p w (1 - eta)) at overlap width w. Up
# to 40 pairs it is summed wherever that bound stays under POISSON_TAIL, the
# Poisson form's tail: always up to 10 pairs, and at more once the terms
# have decayed. Against the exact average over widths 1-1e5 at p = 1e-3,
# summing at any width was 2.4e-12 off at 15 pairs, 1.3e-10 at 21 and
# 3.2e-6 too low at 36. Where the bound is far below 1e-12, as at the ML
# optimum, the sum keeps its relative accuracy and the Poisson form does not.
DISC_SUM_MAX_PAIRS = 40


def disc_upper(M: int, p: float, eta: float):
    """Upper bound on some pair being indistinguishable on a D - d overlap,
    as a function of (D, d) for fixed (M, p, eta), with the pair
    coefficients and the rates 1 - eta^m computed once.

    Alternating sum over m of C(C(M,2), m) (-1)^(m-1) exp(-p (D-d) (1-eta^m)),
    clamped to [0, 1]. At d == D the overlap is empty and the bound is 1.
    Where that sum would cancel by more than POISSON_TAIL, the equivalent
    Poisson average E[1 - (1 - eta^n)^pairs] over the overlap SNP count n,
    truncated at that same tail mass, is evaluated directly instead.
    """
    if M < 2:
        raise ValidationError("discrimination bound needs M >= 2")
    pairs = comb(M, 2)
    # the sum's error bound is under POISSON_TAIL once p w (1 - eta)
    # reaches min_decay
    terms, min_decay = (), math.inf
    if pairs <= DISC_SUM_MAX_PAIRS:
        terms = [(comb(pairs, m) * (-1.0) ** (m - 1), 1.0 - eta ** m)
                 for m in range(1, pairs + 1)]
        min_decay = pairs * log(2.0) + log(sys.float_info.epsilon
                                           / POISSON_TAIL)
    always_sum = min_decay <= 0.0

    def disc(D: float, d: float) -> float:
        if d > D:
            raise ValidationError("need d <= D")
        width = D - d
        total = 0.0
        if always_sum or p * width * (1.0 - eta) >= min_decay:
            neg_mean = -p * width
            for coef, rate in terms:
                total += coef * exp(neg_mean * rate)
        else:
            ks, ws = poisson_weights(p * width)
            # eta ** n stays a numpy power: for Python int n it rounds
            # differently in a few percent of draws
            for n, w in zip(ks, ws.tolist()):
                en = eta ** n
                total += w * (-expm1(pairs * log1p(-en)) if en < 1.0
                              else 1.0)
        # clamp01(total) without the call: a NaN total gives 0
        total = total if total > 0.0 else 0.0
        return total if total < 1.0 else 1.0

    return disc


def _check_eps(eps: float) -> None:
    if not (0.0 <= eps <= 0.5):
        raise ValidationError(f"eps must be in [0, 0.5], got {eps}")


def _mixtures(sets: np.ndarray, kappa: int, eps: float) -> np.ndarray:
    """Observation mixtures over all 2^kappa sequences, one row per set of
    sequence codes: P(phi | psi) = ((1-eps)^kappa / M) * sum_j
    x^hamming(phi, psi_j) with x = eps / (1 - eps)."""
    codes, members = np.unique(sets, return_inverse=True)
    x = eps / (1.0 - eps)
    rows = x ** hamming(codes, np.arange(1 << kappa)).astype(np.float64)
    mix = set_sums(rows, members.reshape(sets.shape))
    mix *= (1.0 - eps) ** kappa / sets.shape[1]
    return mix


def mixture_distribution(psi: np.ndarray, eps: float) -> np.ndarray:
    """Observation distribution over all 2^kappa sequences (in code order)
    induced by a hypothesis set: an (M, kappa) matrix of M distinct +-1
    rows."""
    psi = np.asarray(psi)
    if psi.ndim != 2 or len(psi) == 0:
        raise ValidationError("a hypothesis set is a non-empty (M, kappa) matrix")
    if not np.isin(psi, (-1, 1)).all():
        raise ValidationError("hypothesis alleles must be -1 or +1")
    if psi.shape[1] > EXPONENT_KAPPA_CAP:
        raise CapacityError(f"kappa > {EXPONENT_KAPPA_CAP} not enumerable")
    codes = np.unique(pack_rows(psi))  # members summed in code order
    if len(codes) != len(psi):
        raise ValidationError("hypothesis sequences must be distinct")
    _check_eps(eps)
    return _mixtures(codes[None], psi.shape[1], eps)[0]


def exponent_numeric(psi_t: np.ndarray, psi: np.ndarray, eps: float) -> float:
    """Exact confusion exponent between two (M, kappa) hypothesis sets.

    Computes -log of the Bhattacharyya coefficient between the observation
    mixtures the two sets induce over all 2^kappa sequences. Zero iff the
    mixtures coincide (identical sets, or eps = 0.5); inf when they are
    disjoint (possible at eps = 0).
    """
    if np.shape(psi_t) != np.shape(psi):
        raise ValidationError("hypothesis sets must share kappa and M")
    p = mixture_distribution(psi_t, eps)
    q = mixture_distribution(psi, eps)
    bc = float(np.sqrt(p * q).sum())
    return max(0.0, -math.log(min(bc, 1.0))) if bc > 0.0 else math.inf


@lru_cache(maxsize=256)
def exponent_closed(M: int, eps: float) -> float:
    """Dominant (one-flip) exponent: closed forms for M = 2 or 3
    (kappa-independent), the one-flip orbit at every other M.

    M=2: -log(1/2 + sqrt(eps(1-eps))).
    M=3: -log((2/3) sqrt(1 - eps(1-eps)) (sqrt(2eps(1-eps) + eps^2)
          + sqrt(2eps(1-eps) + (1-eps)^2))).
    Both satisfy the eps -> 0 limit log(1 + 1/(M-1)) and vanish at
    eps = 0.5. Other M take kappa = max(2, ceil(log2(M + 1))) and the least
    exponent of {0} u S against {1} u S over every set S of M - 1
    companions among codes 2..2^kappa - 1. XOR with a code and a
    permutation of loci keep Hamming distances, so they map every pair of
    sets one bit flip apart onto such a pair with the same exponent: the
    value is exponent_table(M, kappa, eps)[0] up to rounding, without the
    table's all-pairs matrix. The orbit's (2 |S|, 2^kappa) mixture matrix
    may hold at most PAIR_ENUM_CAP^2 floats, as much as the table's pair
    matrix; past that it raises CapacityError before allocating.
    """
    _check_eps(eps)
    e = eps
    if M == 2:
        return -log(0.5 + sqrt(e * (1.0 - e)))
    if M == 3:
        val = (2.0 / 3.0) * sqrt(1.0 - e * (1.0 - e)) * (
            sqrt(2.0 * e * (1.0 - e) + e * e)
            + sqrt(2.0 * e * (1.0 - e) + (1.0 - e) ** 2))
        return max(0.0, -log(min(val, 1.0)))
    if M < 1:
        raise ValidationError(f"need M >= 1, got M={M}")
    kappa = max(2, math.ceil(math.log2(M + 1)))
    n = 1 << kappa
    n_sets = comb(n - 2, M - 1)
    if 2 * n_sets * n > PAIR_ENUM_CAP ** 2:
        raise CapacityError(
            f"{n_sets} one-flip companion sets at kappa={kappa} exceed the "
            f"enumeration cap: {2 * n_sets * n} mixture entries, over "
            f"{PAIR_ENUM_CAP ** 2}")
    companions = (candidate_sets(n - 2, M - 1) + 2 if M > 1
                  else np.zeros((1, 0), dtype=np.int64))
    sets = np.hstack([np.repeat([[0], [1]], n_sets, axis=0),
                      np.tile(companions, (2, 1))])
    sq = np.sqrt(_mixtures(sets, kappa, eps))
    bc = min(float((sq[:n_sets] * sq[n_sets:]).sum(axis=1).max()), 1.0)
    # disjoint mixtures (M = 1 at eps = 0) have bc = 0: the exponent is inf
    return max(0.0, -log(bc)) if bc > 0.0 else math.inf


def canonical_adjacent_pair(M: int, kappa: int) -> tuple[np.ndarray, np.ndarray]:
    """The minimum-distance hypothesis pair realizing the dominant exponent.

    The true set holds M sequences forming a chain of adjacent corners on
    the first two coordinates; the alternative flips one locus of the last
    member. Both are (M, kappa) int8 matrices with rows in lexicographic
    order. Requires kappa >= 2 and M in {2, 3}.
    """
    if kappa < 2 or M not in (2, 3):
        raise ValidationError("canonical pair defined for M in {2, 3}, kappa >= 2")
    true = [(-1, -1), (1, -1), (1, 1)][:M]
    alt = true[:-1] + [(-1, 1)]
    pad = np.full((M, kappa - 2), -1, dtype=np.int8)
    return tuple(np.hstack([np.array(sorted(s), dtype=np.int8), pad])
                 for s in (true, alt))


def _set_distances(members: np.ndarray, kappa: int) -> np.ndarray:
    """Pairwise set distances: minimal total bit flips over member matchings."""
    n, M = members.shape
    if math.factorial(M) * n * n > MATCHING_WORK_CAP:
        raise CapacityError(f"set distances need {M}! matchings over {n}^2 "
                            f"set pairs, over the cap {MATCHING_WORK_CAP:.0e}")
    dist = None
    for perm in permutations(range(M)):
        d = np.zeros((n, n), dtype=np.int64)
        for j in range(M):
            d += hamming(members[:, j], members[:, perm[j]])
        dist = d if dist is None else np.minimum(dist, d)
    return dist


def _pairwise_exponents(members: np.ndarray, kappa: int,
                        eps: float) -> np.ndarray:
    sq = np.sqrt(_mixtures(members, kappa, eps))
    bc = sq @ sq.T
    # disjoint mixtures (possible at eps = 0) have bc = 0: the exponent is inf
    with np.errstate(divide="ignore", invalid="ignore"):
        exps = -np.log(np.minimum(bc, 1.0))
    return np.maximum(exps, 0.0)


@lru_cache(maxsize=256)
def exponent_table(M: int, kappa: int, eps: float) -> tuple[float, ...]:
    """Worst-case confusion exponent for every hypothesis distance
    i = 1..M*kappa: entry i-1 is the minimum pairwise exponent over
    hypothesis pairs at set distance i, +inf where no valid pair is."""
    if M < 1 or kappa < 1 or M > 1 << kappa:
        raise ValidationError(f"need kappa >= 1 and 1 <= M <= 2^kappa, "
                              f"got M={M}, kappa={kappa}")
    _check_eps(eps)
    n_cand = comb(1 << kappa, M)
    if n_cand > PAIR_ENUM_CAP:
        raise CapacityError(
            f"{n_cand} hypothesis sets exceed the enumeration cap {PAIR_ENUM_CAP}")
    members = candidate_sets(1 << kappa, M)
    dist = _set_distances(members, kappa)
    exps = _pairwise_exponents(members, kappa, eps)
    values = []
    for i in range(1, M * kappa + 1):
        mask = dist == i
        np.fill_diagonal(mask, False)
        values.append(float(exps[mask].min()) if mask.any() else math.inf)
    return tuple(values)


def den_ml_upper(M: int, coverage: float, eps: float, kappa: int) -> float:
    """Upper bound on ML denoising failure in one block of kappa SNPs whose
    covering-read count is Poisson(coverage).

    The bound is sum_i C(M kappa, i) exp(-coverage (1 - e^-D_i)) over the
    hypothesis distances i of the exponent table. Returned raw: values
    above 1 mean the bound is vacuous there, as at coverage 0.
    """
    if not coverage >= 0.0:
        raise ValidationError(f"coverage must be >= 0, got {coverage}")
    total = 0.0
    for i, d_i in enumerate(exponent_table(M, kappa, eps), start=1):
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
    eta, r = config.eta, config.disc_rate
    d1 = exponent_closed(M, eps=config.eps)
    rate = lam * M * -expm1(-d1)
    if rate <= 0.0 or r <= 0.0:
        return SegmentationPlan(D=L, d=L / 2.0)
    inner = (M - 1) * (1.0 - eta) / (2.0 * (1.0 + M * L * lam))
    D = (L + log(inner) / rate) / (1.0 + r / rate)
    if math.isnan(D):
        # both quotients overflow at a subnormal rate: inf / inf
        D = (rate * L + log(inner)) / (rate + r)
    D = min(max(D, 1e-9), L)
    expo = min(-rate * (L - D) - (1.0 - r * D), 700.0)
    d = (1.0 / r) * (1.0 + p * D / ((M - 1) / 2.0) * exp(expo))
    d = min(max(d, 1e-9), D * 0.999)
    return SegmentationPlan(D=D, d=d)


def _optimize_plan(objective, L: float,
                   seed: SegmentationPlan) -> tuple[float, SegmentationPlan]:
    """Coordinate descent over 0 < d < D <= L, parametrized as (D, d/D) so
    every iterate is feasible and any early stop still yields a valid bound.
    It runs at most PLAN_DESCENT_ROUNDS rounds and stops after one that
    improves the objective by at most PLAN_DESCENT_RTOL relative."""
    D = min(seed.D, L)
    frac = min(max(seed.d / seed.D, 1e-7), 0.999)
    best = objective(D, frac * D)
    for _ in range(PLAN_DESCENT_ROUNDS):
        D, _ = golden_min(lambda t: objective(t, frac * t), 1e-6 * L, L,
                          iters=60)
        # val is the objective at (D, frac * D)
        frac, val = golden_min(lambda t: objective(D, t * D), 1e-7, 0.999,
                               iters=60)
        if best - val <= PLAN_DESCENT_RTOL * max(best, 1e-300):
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
    disc_term = disc_upper(M, p, eta)
    mp, neg_lam_m = M * p, -lam * M

    def objective(D: float, d: float) -> float:
        width = L - D
        # max(width, 0.0), which keeps a NaN width
        den = mp * D * exp(neg_lam_m * (0.0 if 0.0 > width else width)
                           * d1_rate)
        return (G / d) * (disc_term(D, d) + den)

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
        return SpectralBoundParams(nu, 1.0, 0.0)
    p_e = exp(-(nu * nu / kappa) * (1.0 - 2.0 * eps) ** 4)
    zeta = 0.0
    if p_e < 0.5:
        zeta = (1.0 - 2.0 * p_e) ** 2 / (c_const * c_const * (1.0 - p_e))
    return SpectralBoundParams(nu_min=nu, p_e=p_e, zeta=zeta)


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
    if not 0.0 < c_const < math.inf:
        raise ValidationError(
            f"c_const must be positive and finite, got {c_const}")
    G, L, lam, p, eps = config.G, config.L, config.lam, config.p, config.eps
    eta = config.eta
    M = config.M

    if eps > 0.0:
        # per-observation majority-vote error exponent: the Chernoff bound
        # for a Binomial(n, eps) tail at n/2 is exp(-n (1-2eps)^2 / (8 eps (1-eps)))
        mv_rate = -expm1(-(1.0 - 2.0 * eps) ** 2 / (8.0 * eps * (1.0 - eps)))
    else:
        mv_rate = 1.0

    # kappa -> (e^-zeta, 1 - e^-zeta); zeta depends on kappa alone here
    zeta_terms = {}
    lam_m = lam * M

    # the optimiser's line over d / D holds D fixed, so most calls repeat
    @cache
    def community_term(D: float) -> float:
        width = L - D
        # max(width, 0.0), which keeps a NaN width
        coverage = lam_m * (0.0 if 0.0 > width else width)
        neg_coverage = -coverage
        ks, ws = poisson_weights(p * D)
        total = 0.0
        for k, w in zip(ks.tolist(), ws.tolist()):
            terms = zeta_terms.get(k)
            if terms is None:
                zeta = spectral_quantities(k, eta, eps, mode, c_const).zeta
                terms = zeta_terms[k] = (exp(-zeta), -expm1(-zeta))
            total += w * terms[0] * exp(neg_coverage * terms[1])
        # a segment with no strictly-covering read cannot be denoised at
        # all; without this atom the minimizer could drive D -> L and
        # collapse the bound through a vacuous corner
        return exp(neg_coverage) + coverage * total

    disc_term = disc_upper(M, p, eta)

    def objective(D: float, d: float) -> float:
        mv = M * D * p * exp(-lam_m * D * mv_rate)
        return (G / d) * (disc_term(D, d) + mv + community_term(D))

    return _bound_at_plan(objective, config, plan)
