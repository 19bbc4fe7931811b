import math

import numpy as np
import pytest
from scipy import stats

from poolseq_limits._util import trunc_exp
from poolseq_limits.core import RandomStream, ValidationError
from poolseq_limits.exact_bridging import estimate_bridging, sample_region_span
from poolseq_limits.noiseless_bounds import bridging_bounds

ETA = 0.82
P = 1e-3
R = P * (1 - ETA)


def test_trunc_exp_distribution():
    """Draws follow Exp(rate) truncated to [0, bound] (the chain's anchor and
    read-start draws)."""
    bound = 8000.0
    gen = RandomStream(5).gen
    draws = np.array([trunc_exp(gen, R, bound) for _ in range(20000)])
    assert draws.min() >= 0.0 and draws.max() <= bound
    cdf = lambda x: (-np.expm1(-R * x)) / (-np.expm1(-R * bound))
    assert stats.kstest(draws, cdf).pvalue > 0.01


def test_trunc_exp_edges():
    gen = RandomStream(7).gen
    assert trunc_exp(gen, R, 0.0) == 0.0
    assert trunc_exp(gen, R, -5.0) == 0.0
    draws = np.array([trunc_exp(gen, 0.0, 300.0) for _ in range(5000)])
    assert stats.kstest(draws, stats.uniform(0.0, 300.0).cdf).pvalue > 0.01
    draws = np.array([trunc_exp(gen, -1.0, 300.0) for _ in range(2000)])
    assert stats.kstest(draws, stats.uniform(0.0, 300.0).cdf).pvalue > 0.01


def test_region_span_sampler_matches_density():
    """Kolmogorov-Smirnov against the analytic span CDF."""
    G = 2e6
    gr = G * R
    z = -math.expm1(-gr) - gr * math.exp(-gr)

    def cdf(ell):
        a = R * (G - np.asarray(ell))
        return ((1 + a) * np.exp(-a) - (1 + gr) * math.exp(-gr)) / z

    root = RandomStream(11)
    draws = np.array([sample_region_span(G, R, root.child(i))
                      for i in range(4000)])
    assert stats.kstest(draws, cdf).pvalue > 0.01


def test_estimate_degenerate_cases():
    res = estimate_bridging(2e6, 3e4, 1e-2, P, 1.0, 100, RandomStream(0))
    assert res.estimate == 0.0
    # nearly no discriminating SNPs at all
    res = estimate_bridging(1e3, 3e2, 1e-2, 1e-6, ETA, 100, RandomStream(0))
    assert res.estimate == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ValidationError):
        estimate_bridging(2e6, 3e4, 1e-2, P, ETA, 0, RandomStream(0))


def test_estimate_within_analytic_sandwich():
    G, L, lam = 2e6, 4.5e4, 1e-2
    res = estimate_bridging(G, L, lam, P, ETA, 20000, RandomStream(13))
    rep = bridging_bounds(2, G, P, ETA, lam, L)
    sigma = (res.ci_high - res.ci_low) / 3.92
    assert rep.lower - 3 * sigma <= res.estimate <= rep.upper + 3 * sigma
    assert res.capped_trials == 0
    assert res.mean_steps < 1000


def test_estimate_half_runs_agree():
    G, L, lam = 2e6, 4e4, 1e-2
    a = estimate_bridging(G, L, lam, P, ETA, 8000, RandomStream(17))
    b = estimate_bridging(G, L, lam, P, ETA, 8000, RandomStream(18))
    assert a.ci_low <= b.estimate <= a.ci_high or \
        b.ci_low <= a.estimate <= b.ci_high


def test_estimate_matches_direct_simulation():
    """Event-level Monte Carlo through the simulator agrees with the chain."""
    from poolseq_limits.assemble import check_bridging
    from poolseq_limits.core import FixedBiallelic, ModelConfig
    from poolseq_limits.simulate import generate_population, generate_reads
    from poolseq_limits._util import wilson_interval

    G, L, lam = 5e5, 2e4, 1e-2
    cfg = ModelConfig(G=int(G), M=2, p=P, L=L, lam=lam, law=FixedBiallelic(0.1))
    root = RandomStream(19)
    trials, fails = 2000, 0
    for t in range(trials):
        st = root.child(t)
        pop = generate_population(cfg, st.child("pop"))
        rs = generate_reads(pop, cfg, st.child("reads"))
        fails += not check_bridging(pop, rs).ok
    lo, hi = wilson_interval(fails, trials)
    res = estimate_bridging(G, L, lam, P, ETA, 20000, RandomStream(20))
    assert res.ci_low <= hi and lo <= res.ci_high
