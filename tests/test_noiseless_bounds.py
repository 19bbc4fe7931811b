import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolseq_limits._util import (bisect_decreasing, clamp01, golden_max,
                                  golden_min)
from poolseq_limits.core import FixedEta, ModelConfig, RandomStream
from poolseq_limits.noiseless_bounds import (assembly_asymptotic,
                                             assembly_lower, assembly_upper,
                                             bridging_asymptotic,
                                             bridging_lower, bridging_upper,
                                             coverage_asymptotic,
                                             coverage_lower,
                                             coverage_lower_segmented,
                                             coverage_single, coverage_upper,
                                             delta_m, lambda_lower,
                                             optimal_gap_seed, p_m)

ETA = 0.82
LAW = FixedEta(ETA)


def _config(G, M, p, lam, L, eta=ETA):
    return ModelConfig(G=G, M=M, p=p, L=L, lam=lam, law=FixedEta(eta))


def test_coverage_single_limits():
    assert coverage_single(1e6, 0.0, 1e-2, 2000) == 0.0
    assert coverage_single(1e6, 1e-3, 1e-2, 1e9) == pytest.approx(0.0, abs=1e-30)
    # no reads at all: failure iff at least one SNP exists
    assert coverage_single(1e6, 1e-3, 0.0, 2000) == pytest.approx(1.0)


def test_coverage_single_value():
    val = coverage_single(1e6, 1e-3, 1e-2, 2000)
    assert val == pytest.approx(1.874e-6, rel=1e-3)


def test_gap_seed_value_and_near_optimality():
    seed = optimal_gap_seed(1e-3, 1e-2)
    assert seed == pytest.approx(95.31, rel=1e-3)
    G, p, lam, L, M = 1e6, 1e-3, 1e-2, 1500.0, 8
    x_best, _ = golden_max(
        lambda x: coverage_lower_segmented(G, p, lam, L, M, x),
        seed / 20, seed * 20)
    f_seed = coverage_lower_segmented(G, p, lam, L, M, seed)
    f_best = coverage_lower_segmented(G, p, lam, L, M, x_best)
    assert f_seed >= 0.95 * f_best


def test_coverage_bounds_single_individual_collapse():
    cfg = _config(1e6, 1, 1e-3, 5e-3, 1800.0)
    single = coverage_single(1e6, 1e-3, 5e-3, 1800.0)
    assert clamp01(coverage_upper(cfg)) == pytest.approx(single)
    assert clamp01(coverage_lower(cfg)) == pytest.approx(single)


def test_coverage_bounds_ordering_and_asymptotic_agreement():
    for M in (1, 2, 20):
        cfg = _config(3e9, M, 1e-3, 4e-4, 1.2e5)
        exact_lower, exact_upper = coverage_lower(cfg), coverage_upper(cfg)
        asym_lower, asym_upper = coverage_asymptotic(cfg)
        assert clamp01(exact_lower) <= clamp01(exact_upper)
        assert clamp01(asym_lower) <= clamp01(asym_upper)
        # lam * L = 48 >> 1: variants agree closely
        assert asym_upper == pytest.approx(exact_upper, rel=0.05)
        assert asym_lower == pytest.approx(exact_lower, rel=0.10)


def test_p_m_examples():
    assert p_m(2, 1e-2, 1e-3, ETA, 0.0) == 1.0
    # lam -> infinity limit: exp(-p(1-eta)L)
    r = 1e-3 * (1 - ETA)
    assert p_m(2, 1e6, 1e-3, ETA, 1e4) == pytest.approx(math.exp(-r * 1e4), rel=1e-4)
    assert p_m(2, 1e-2, 1e-3, ETA, 1e5) == pytest.approx(1.537e-8, rel=1e-3)


def test_p_m_equal_rate_branch_continuous():
    # m * lam equals p(1-eta) exactly
    p, eta, L = 1e-3, ETA, 5e3
    r = p * (1 - eta)
    lam = r / 2
    at = p_m(2, lam, p, eta, L)
    near = p_m(2, lam * (1 + 1e-9), p, eta, L)
    assert at == pytest.approx((1 + r * L) * math.exp(-r * L), rel=1e-12)
    assert near == pytest.approx(at, rel=1e-6)


def _p_m_reference(a: float, r: float, L: float) -> float:
    """(a e^-rL - r e^-aL) / (a - r), or (1 + r L) e^-rL at a = r, in
    60-digit decimals from the exact binary values of a, r and L."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, r, L = Decimal(a), Decimal(r), Decimal(L)
        if a == r:
            return float((1 + r * L) * (-r * L).exp())
        return float((a * (-r * L).exp() - r * (-a * L).exp()) / (a - r))


@pytest.mark.parametrize("rel", [0.0, 2e-12, 1e-9, -1e-9, 1e-6, -1e-6,
                                 -0.5, 3.0])
def test_p_m_near_equal_rates_matches_decimal_reference(rel):
    """With 2 lam = r (1 + rel), p_m keeps full precision as the two read
    and SNP rates meet: the difference quotient of two nearly equal
    exponentials lost up to 5.5e-5 of its value at rel = 2e-12."""
    p, eta, L = 1e-3, ETA, 5e4
    r = p * (1 - eta)
    lam = r * (1 + rel) / 2
    want = _p_m_reference(2 * lam, r, L)
    assert p_m(2, lam, p, eta, L) == pytest.approx(want, rel=2e-15, abs=0)


def test_delta_reduces_to_pair_probability():
    assert delta_m(2, 1e-2, 1e-3, ETA, 1e4) == pytest.approx(
        p_m(2, 1e-2, 1e-3, ETA, 1e4))


def test_delta_degenerate_eta_is_zero():
    assert delta_m(3, 1e-2, 1e-3, 1.0, 1e4) == 0.0
    assert delta_m(3, 1e-2, 0.0, ETA, 1e4) == 0.0


def test_delta_matches_permutation_simulation():
    """Direct permutation-level Monte Carlo of the at-least-two event."""
    M, lam, p, eta, L = 3, 1.0, 0.5, 0.0, 2.0
    rng = np.random.default_rng(19)
    trials = 40000
    hits = 0
    for _ in range(trials):
        k = rng.poisson(p * (1 - eta) * L)
        last = rng.uniform(0, L, k).max() if k else -np.inf
        bad = 0
        for _m in range(M):
            n = rng.poisson(lam * L)
            if n == 0 or rng.uniform(0, L, n).min() > last:
                bad += 1
        hits += bad >= 2
    emp = hits / trials
    val = delta_m(M, lam, p, eta, L)
    sigma = (val * (1 - val) / trials) ** 0.5
    assert abs(emp - val) < 3 * sigma


def test_lambda_lower_edges():
    assert lambda_lower(0.0, 1e6, 1e4, 1e-3, ETA) == 0.0
    # nearly no discriminating SNPs: prefactor kills the bound
    assert lambda_lower(0.5, 1e3, 1e2, 1e-6, ETA) == pytest.approx(0.0, abs=1e-6)
    # q = 1 returns the probability of having two discriminating SNPs
    r = 1e-3 * (1 - ETA)
    G = 1e6
    expect = 1 - (1 + G * r) * math.exp(-G * r)
    assert lambda_lower(1.0, G, 1e4, 1e-3, ETA) == pytest.approx(expect)


def test_lambda_lower_monotone_in_q():
    qs = np.linspace(0, 0.999, 300)
    vals = [lambda_lower(q, 2e6, 3e4, 1e-3, ETA) for q in qs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_lambda_lower_near_singular_branch():
    """Continuity across the alpha = 0 cancellation point."""
    G, L, p = 2e6, 3e4, 1e-3
    r = p * (1 - ETA)
    q_star = -math.expm1(-r * L)  # makes log1p(-q)/L = -r exactly
    vals = [lambda_lower(q_star * (1 + d), G, L, p, ETA)
            for d in (-1e-4, -1e-8, 0.0, 1e-8, 1e-4)]
    assert max(vals) - min(vals) < 1e-4
    assert all(0 <= v <= 1 for v in vals)


def test_bridging_bounds_pair_reduction_and_order():
    cfg = _config(2e6, 2, 1e-3, 1e-2, 4.5e4)
    lower, upper = clamp01(bridging_lower(cfg)), clamp01(bridging_upper(cfg))
    r = 1e-3 * (1 - ETA)
    assert upper == pytest.approx(
        min(1.0, 2e6 * r * p_m(2, 1e-2, 1e-3, ETA, 4.5e4)))
    assert lower <= upper
    assert lower == pytest.approx(
        lambda_lower(p_m(2, 1e-2, 1e-3, ETA, 4.5e4), 2e6, 4.5e4, 1e-3, ETA))


def test_bridging_upper_decay_exponent():
    """log-slope of the raw upper bound vs L approaches -min(2 lam, r)."""
    p = 1e-3
    r = p * (1 - ETA)
    for lam, expect in ((1e-2, r), (r / 8, 2 * (r / 8))):
        L1, L2 = 4e5, 8e5
        u1 = bridging_upper(_config(3e9, 2, p, lam, L1))
        u2 = bridging_upper(_config(3e9, 2, p, lam, L2))
        slope = (math.log(u2) - math.log(u1)) / (L2 - L1)
        assert slope == pytest.approx(-expect, rel=0.01)


def test_bridging_degenerate_flagged():
    cfg = _config(1e6, 3, 1e-3, 1e-2, 1e4, eta=1.0)
    assert clamp01(bridging_lower(cfg)) == clamp01(bridging_upper(cfg)) == 0.0


def test_assembly_bounds_single_individual_is_coverage():
    cfg = ModelConfig(G=10**6, M=1, p=1e-3, L=1800.0, lam=5e-3, law=LAW)
    assert clamp01(assembly_lower(cfg)) == pytest.approx(
        clamp01(coverage_lower(cfg)))
    assert clamp01(assembly_upper(cfg)) == pytest.approx(
        clamp01(coverage_upper(cfg)))


def test_assembly_bounds_combines_event_bounds():
    """Assembly is the union of the coverage and bridging events: the max
    of their raw lower bounds from below and the sum of their raw upper
    bounds from above, exact and asymptotic alike."""
    for M, p in itertools.product((1, 2, 3), (1e-3, 0.0)):
        cfg = _config(1e6, M, p, 5e-3, 1800.0)
        assert assembly_lower(cfg) == max(coverage_lower(cfg),
                                          bridging_lower(cfg))
        assert assembly_upper(cfg) == coverage_upper(cfg) + bridging_upper(cfg)
        lower, upper = assembly_asymptotic(cfg)
        cov, br = coverage_asymptotic(cfg), bridging_asymptotic(cfg)
        assert lower == max(cov[0], br[0])
        assert upper == cov[1] + br[1]


def test_assembly_bounds_monotone_in_L_and_lambda():
    for lam in (5e-4, 1e-3):
        cfgs = [ModelConfig(G=3 * 10**9, M=2, p=1e-3, L=L, lam=lam, law=LAW)
                for L in np.linspace(3e4, 3e5, 12)]
        for bound in (assembly_upper, assembly_lower):
            vals = [clamp01(bound(cfg)) for cfg in cfgs]
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-12
    for L in (8e4, 1.2e5):
        cfgs = [ModelConfig(G=3 * 10**9, M=2, p=1e-3, L=L, lam=lam, law=LAW)
                for lam in np.geomspace(1e-4, 1e-2, 10)]
        for bound in (assembly_upper, assembly_lower):
            vals = [clamp01(bound(cfg)) for cfg in cfgs]
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-12


def test_assembly_exact_vs_asymptotic_agreement_in_regime():
    # G/L > 1e3 and min(p(1-eta), 2 lam) L > 10
    cfg = ModelConfig(G=3 * 10**9, M=2, p=1e-3, L=10**5, lam=5e-3, law=LAW)
    asym_lower, asym_upper = assembly_asymptotic(cfg)
    assert asym_lower == pytest.approx(assembly_lower(cfg), rel=0.10)
    # the asymptotic upper carries M^2 where the union bound has M(M-1),
    # so the variants converge as M grows
    assert asym_upper == pytest.approx(2.0 * assembly_upper(cfg), rel=0.10)
    big = ModelConfig(G=3 * 10**9, M=12, p=1e-3, L=10**5, lam=5e-3, law=LAW)
    asym12_lower, asym12_upper = assembly_asymptotic(big)
    assert asym12_upper == pytest.approx(assembly_upper(big), rel=0.10)
    assert asym12_lower == pytest.approx(assembly_lower(big), rel=0.10)


def test_assembly_sandwich_against_simulation():
    """Monte Carlo failure rate sits inside the exact bounds at a point
    where both coverage and bridging failures occur."""
    from poolseq_limits.assemble import check_bridging, check_coverage
    from poolseq_limits.simulate import generate_population, generate_reads
    from poolseq_limits.core import FixedBiallelic

    cfg = ModelConfig(G=2 * 10**5, M=2, p=1e-3, L=2.2e4, lam=3e-4,
                      law=FixedBiallelic(0.1))
    root = RandomStream(101)
    trials = 3000
    fails = 0
    for t in range(trials):
        st = root.child(t)
        pop = generate_population(cfg, st.child("pop"))
        rs = generate_reads(pop, cfg, st.child("reads"))
        fails += not (check_coverage(pop, rs).ok and check_bridging(pop, rs).ok)
    emp = fails / trials
    lower, upper = clamp01(assembly_lower(cfg)), clamp01(assembly_upper(cfg))
    sigma = (max(emp * (1 - emp), 1e-6) / trials) ** 0.5
    assert lower - 3 * sigma <= emp <= upper + 3 * sigma


def test_delta_large_population_matches_simulation():
    """Inclusion-exclusion stays numerically stable and correct at M = 20."""
    M, lam, p, eta, L = 20, 1.0, 0.5, 0.0, 2.0
    val = delta_m(M, lam, p, eta, L)
    rng = np.random.default_rng(5)
    trials = 30000
    hits = 0
    for _ in range(trials):
        k = rng.poisson(p * (1 - eta) * L)
        last = rng.uniform(0, L, k).max() if k else -np.inf
        bad = 0
        for _m in range(M):
            n = rng.poisson(lam * L)
            if n == 0 or rng.uniform(0, L, n).min() > last:
                bad += 1
        hits += bad >= 2
    emp = hits / trials
    sigma = (val * (1 - val) / trials) ** 0.5
    assert abs(emp - val) < 3 * sigma


def test_bridging_bounds_large_population_ordered():
    cfg = _config(3e9, 20, 1e-3, 1e-2, 1.3e5)
    lower, upper = clamp01(bridging_lower(cfg)), clamp01(bridging_upper(cfg))
    assert 0.0 < lower < upper < 1.0


@pytest.mark.parametrize("lam", [1e-20, 5e-324])
def test_tiny_lambda_evaluates(lam):
    """At lambda = 1e-20, exp(-lam (L + x)) rounds to 1 in the segmented
    coverage bound; at 5e-324, below p / DBL_MAX, p / lam overflows in the
    gap seed. Almost no reads arrive, so both bounds are 1."""
    cfg = _config(3 * 10**9, 2, 1e-3, lam, 1000.0)
    assert clamp01(assembly_lower(cfg)) == clamp01(assembly_upper(cfg)) == 1.0


@st.composite
def exact_configs(draw):
    """G in [1e3, 3e9], M in 1..12, p = 0 or up to 1e-2, lambda = 0 or
    lambda L in [1, 80], L over 1e2-1e6 and eta in [0, 1]. Below lambda L
    = 1, few reads per individual can put the union coverage bound under
    the segmented lower one (kept in test_recorded_bound_defects)."""
    L = 10 ** draw(st.floats(2.0, 6.0))
    return ModelConfig(
        G=int(10 ** draw(st.floats(3.0, math.log10(3e9)))),
        M=draw(st.integers(1, 12)),
        p=draw(st.one_of(st.just(0.0), st.floats(1e-5, 1e-2))),
        L=L,
        lam=draw(st.one_of(st.just(0.0),
                           st.floats(1.0, 80.0).map(lambda c: c / L))),
        law=FixedEta(draw(st.floats(0.0, 1.0))))


@settings(max_examples=300)
@given(exact_configs())
def test_exact_lower_at_most_upper(cfg):
    """Each exact-variant event has lower <= upper, clamped and raw."""
    for lower, upper in ((coverage_lower, coverage_upper),
                         (bridging_lower, bridging_upper),
                         (assembly_lower, assembly_upper)):
        assert clamp01(lower(cfg)) <= clamp01(upper(cfg)), lower.__name__
        assert lower(cfg) <= upper(cfg), lower.__name__


@settings(max_examples=300)
@given(lo=st.floats(-1e3, 1e3), width=st.floats(0.0, 1e6),
       cut=st.floats(0.0, 1.0), target=st.floats(-2.0, 2.0),
       rtol=st.sampled_from([1e-3, 1e-6]))
def test_bisect_decreasing_contract(lo, width, cut, target, rtol):
    """On a non-increasing step function (1 below the step, -1 from it on),
    bisection returns None only when f stays above the target, lo when f
    already meets it there, and otherwise a b with f(b) <= target whose
    final bracket [a, b] has f(a) > target and b - a <= rtol max(|b|, 1)."""
    hi = lo + width
    step = lo + cut * width
    seen = {}

    def f(x):
        seen[x] = 1.0 if x < step else -1.0
        return seen[x]

    b, iters = bisect_decreasing(f, target, lo, hi, rtol=rtol)
    assert iters == len(seen) or lo == hi
    if f(hi) > target:
        assert b is None
        return
    assert f(b) <= target
    if b == lo:
        assert f(lo) <= target
        return
    a = max(x for x, v in seen.items() if v > target)
    assert a < b and b - a <= rtol * max(abs(b), 1.0)


@settings(max_examples=500)
@given(lo=st.floats(-1e3, 1e3), width=st.floats(0.0, 1e6),
       at=st.floats(0.0, 1.0), scale=st.floats(1e-3, 1e3),
       wiggle=st.sampled_from([0.0, 0.1, 10.0]), freq=st.floats(0.0, 50.0))
def test_golden_search_contract(lo, width, at, scale, wiggle, freq):
    """golden_max on [lo, hi] returns a point it evaluated, in [lo, hi],
    with the value f has there and no worse than either endpoint's, also
    where a sine wiggle makes f multimodal. Without the wiggle f is a
    concave quadratic, whose peak it finds to within the bracket's
    stopping width. golden_min(-f) returns the same point."""
    hi = lo + width
    peak = lo + at * width
    seen = {}

    def f(x):
        seen[x] = -scale * (x - peak) ** 2 + wiggle * scale * math.sin(freq * x)
        return seen[x]

    x, value = golden_max(f, lo, hi)
    assert lo <= x <= hi
    assert seen.get(x) == value
    assert value >= max(f(lo), f(hi))
    if wiggle == 0.0:
        assert abs(x - peak) <= 1e-13 * max(1.0, abs(lo), abs(hi))
    x_min, value_min = golden_min(lambda t: -f(t), lo, hi)
    assert (x_min, value_min) == (x, -value)


def _few_reads_coverage_ordered():
    """Ten reads per individual over the genome (G lambda = 10): the union
    bound counts uncovered gaps after read ends only, and misses the one
    at the left edge of the genome."""
    cfg = _config(100000, 1, 1e-2, 1e-4, 1e4, eta=0.5)
    lower, upper = clamp01(coverage_lower(cfg)), clamp01(coverage_upper(cfg))
    assert lower <= upper  # 0.9787 > 0.9738


def _few_reads_coverage_falls_in_lambda():
    low, high = (clamp01(coverage_upper(_config(1000, 1, 0.0078125, lam,
                                                100.0, eta=0.5)))
                 for lam in (0.00375, 0.0075))
    assert high <= low  # 0.8247 -> 0.8359


def _segmented_lower_falls_in_L():
    """The segmented coverage bound is a sawtooth in the gap x (floor(G /
    (L + x)) segments), and golden_max stops on a lower peak at L = 1075."""
    short, long = (clamp01(assembly_lower(_config(95600, 10, 1e-5, 9.4e-4,
                                                  L, eta=0.5)))
                   for L in (1075.0, 1087.0))
    assert long <= short  # 0.30012 -> 0.30064


def _bridging_lower_falls_in_L():
    """lambda_lower's 1 - c1 - ez cancels to a few ulps of 1 here."""
    short, long = (clamp01(assembly_lower(_config(20000, 4, 0.0076, 0.003, L)))
                   for L in (24900.0, 24925.0))
    assert long <= short  # 1.78e-15 -> 2.11e-15


@pytest.mark.parametrize("case", [
    pytest.param(_few_reads_coverage_ordered, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="union coverage bound misses the edge gap")),
    pytest.param(_few_reads_coverage_falls_in_lambda, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="union coverage bound misses the edge gap")),
    pytest.param(_segmented_lower_falls_in_L, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="golden_max misses the segmented bound's best peak")),
    pytest.param(_bridging_lower_falls_in_L, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="lambda_lower cancels below ~1e-13")),
], ids=lambda f: f.__name__.strip("_"))
def test_recorded_bound_defects(case):
    """Counterexamples to the bound invariants above, kept as strict
    expected failures until the defects in CHANGES.md are mended."""
    case()


@pytest.mark.parametrize("lam,L,want", [
    (1e-3, 2e4, "0.0030869559568531824"),
    (1e-3, 4e4, "6.372531382917079e-12"),
    (1e-2, 3e4, "1.4040546061123672e-124"),
])
def test_coverage_lower_exact_values(lam, L, want):
    """The segmented search keeps its bits at the bound-solve point (G = 3e9,
    M = 2, p = 1e-3), which `bounds` prints to 12 digits only."""
    assert repr(coverage_lower(_config(3 * 10**9, 2, 1e-3, lam, L))) == want
