import itertools
import math

import numpy as np
import pytest

from poolseq_limits._util import golden_max
from poolseq_limits.core import FixedEta, ModelConfig, RandomStream
from poolseq_limits.noiseless_bounds import (VARIANT_ASYMPTOTIC, VARIANT_EXACT,
                                             assembly_bounds,
                                             bridging_bounds, coverage_bounds,
                                             coverage_lower_segmented,
                                             coverage_single, delta_m,
                                             lambda_lower,
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
    rep = coverage_bounds(_config(1e6, 1, 1e-3, 5e-3, 1800.0))
    single = coverage_single(1e6, 1e-3, 5e-3, 1800.0)
    assert rep.upper == pytest.approx(single)
    assert rep.lower == pytest.approx(single)


def test_coverage_bounds_ordering_and_asymptotic_agreement():
    for M in (1, 2, 20):
        cfg = _config(3e9, M, 1e-3, 4e-4, 1.2e5)
        exact = coverage_bounds(cfg)
        asym = coverage_bounds(cfg, VARIANT_ASYMPTOTIC)
        assert exact.lower <= exact.upper
        assert asym.lower <= asym.upper
        # lam * L = 48 >> 1: variants agree closely
        assert asym.raw_upper == pytest.approx(exact.raw_upper, rel=0.05)
        assert asym.raw_lower == pytest.approx(exact.raw_lower, rel=0.10)


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
    rep = bridging_bounds(_config(2e6, 2, 1e-3, 1e-2, 4.5e4))
    r = 1e-3 * (1 - ETA)
    assert rep.upper == pytest.approx(
        min(1.0, 2e6 * r * p_m(2, 1e-2, 1e-3, ETA, 4.5e4)))
    assert rep.lower <= rep.upper
    assert rep.lower == pytest.approx(
        lambda_lower(p_m(2, 1e-2, 1e-3, ETA, 4.5e4), 2e6, 4.5e4, 1e-3, ETA))


def test_bridging_upper_decay_exponent():
    """log-slope of the raw upper bound vs L approaches -min(2 lam, r)."""
    p = 1e-3
    r = p * (1 - ETA)
    for lam, expect in ((1e-2, r), (r / 8, 2 * (r / 8))):
        L1, L2 = 4e5, 8e5
        u1 = bridging_bounds(_config(3e9, 2, p, lam, L1)).raw_upper
        u2 = bridging_bounds(_config(3e9, 2, p, lam, L2)).raw_upper
        slope = (math.log(u2) - math.log(u1)) / (L2 - L1)
        assert slope == pytest.approx(-expect, rel=0.01)


def test_bridging_degenerate_flagged():
    rep = bridging_bounds(_config(1e6, 3, 1e-3, 1e-2, 1e4, eta=1.0))
    assert rep.degenerate and rep.lower == rep.upper == 0.0


def test_assembly_bounds_single_individual_is_coverage():
    cfg = ModelConfig(G=10**6, M=1, p=1e-3, L=1800.0, lam=5e-3, law=LAW)
    rep = assembly_bounds(cfg)
    cov = coverage_bounds(cfg)
    assert rep.lower == pytest.approx(cov.lower)
    assert rep.upper == pytest.approx(cov.upper)


def test_assembly_bounds_combines_event_bounds():
    """Assembly is the union of the coverage and bridging events: the max
    of their raw lower bounds from below, the sum of their raw upper bounds
    from above, and degenerate only when both are."""
    for M, p in itertools.product((1, 2, 3), (1e-3, 0.0)):
        cfg = _config(1e6, M, p, 5e-3, 1800.0)
        for variant in (VARIANT_EXACT, VARIANT_ASYMPTOTIC):
            rep = assembly_bounds(cfg, variant)
            cov = coverage_bounds(cfg, variant)
            br = bridging_bounds(cfg, variant)
            assert rep.raw_lower == max(cov.raw_lower, br.raw_lower)
            assert rep.raw_upper == cov.raw_upper + br.raw_upper
            assert rep.degenerate == (cov.degenerate and br.degenerate)


def test_assembly_bounds_monotone_in_L_and_lambda():
    for lam in (5e-4, 1e-3):
        vals = [assembly_bounds(ModelConfig(G=3 * 10**9, M=2, p=1e-3, L=L,
                                            lam=lam, law=LAW)) for L in
                np.linspace(3e4, 3e5, 12)]
        for a, b in zip(vals, vals[1:]):
            assert b.upper <= a.upper + 1e-12
            assert b.lower <= a.lower + 1e-12
    for L in (8e4, 1.2e5):
        vals = [assembly_bounds(ModelConfig(G=3 * 10**9, M=2, p=1e-3, L=L,
                                            lam=lam, law=LAW)) for lam in
                np.geomspace(1e-4, 1e-2, 10)]
        for a, b in zip(vals, vals[1:]):
            assert b.upper <= a.upper + 1e-12
            assert b.lower <= a.lower + 1e-12


def test_assembly_exact_vs_asymptotic_agreement_in_regime():
    # G/L > 1e3 and min(p(1-eta), 2 lam) L > 10
    cfg = ModelConfig(G=3 * 10**9, M=2, p=1e-3, L=10**5, lam=5e-3, law=LAW)
    exact = assembly_bounds(cfg)
    asym = assembly_bounds(cfg, VARIANT_ASYMPTOTIC)
    assert asym.raw_lower == pytest.approx(exact.raw_lower, rel=0.10)
    # the asymptotic upper carries M^2 where the union bound has M(M-1),
    # so the variants converge as M grows
    assert asym.raw_upper == pytest.approx(2.0 * exact.raw_upper, rel=0.10)
    big = ModelConfig(G=3 * 10**9, M=12, p=1e-3, L=10**5, lam=5e-3, law=LAW)
    exact12 = assembly_bounds(big)
    asym12 = assembly_bounds(big, VARIANT_ASYMPTOTIC)
    assert asym12.raw_upper == pytest.approx(exact12.raw_upper, rel=0.10)
    assert asym12.raw_lower == pytest.approx(exact12.raw_lower, rel=0.10)


def test_assembly_sandwich_against_simulation():
    """Monte Carlo failure rate sits inside the exact bounds at a point
    where both coverage and bridging failures occur."""
    from poolseq_limits.assemble import check_conditions
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
        fails += not check_conditions(pop, rs).ok
    emp = fails / trials
    rep = assembly_bounds(cfg)
    sigma = (max(emp * (1 - emp), 1e-6) / trials) ** 0.5
    assert rep.lower - 3 * sigma <= emp <= rep.upper + 3 * sigma


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
    rep = bridging_bounds(_config(3e9, 20, 1e-3, 1e-2, 1.3e5))
    assert 0.0 < rep.lower < rep.upper < 1.0
