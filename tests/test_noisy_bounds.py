import math

import numpy as np
import pytest

from poolseq_limits.core import (CapacityError, FixedEta, ModelConfig,
                                 ValidationError)
from poolseq_limits.denoise import HypothesisSet
from poolseq_limits.noisy_bounds import (SegmentationPlan,
                                         canonical_adjacent_pair, den_ml_upper,
                                         disc_upper, exponent_closed,
                                         exponent_numeric, exponent_table,
                                         min_exponent, ml_plan_seed,
                                         noisy_upper_ml,
                                         noisy_upper_spectral,
                                         spectral_noise_ceiling,
                                         spectral_quantities)

ETA = 0.82
LAW = FixedEta(ETA)


def _config(**kw):
    base = dict(G=3 * 10**9, M=2, p=1e-3, L=2e5, lam=1e-3, law=LAW, eps=0.1)
    base.update(kw)
    return ModelConfig(**base)


def test_plan_validation():
    with pytest.raises(ValidationError):
        SegmentationPlan(D=10.0, d=10.0)
    with pytest.raises(ValidationError):
        SegmentationPlan(D=10.0, d=0.0)


def test_disc_upper_edges():
    assert disc_upper(2, 1e-3, ETA, 100.0, 100.0) == 1.0
    width = 1.0 / (1e-3 * (1 - ETA))
    val = disc_upper(2, 1e-3, ETA, width + 1.0, 1.0)
    assert val == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_disc_upper_matches_pair_simulation():
    """For M = 2 the bound equals E[eta^n] with n ~ Poisson(p (D - d))."""
    rng = np.random.default_rng(11)
    p, D, d = 1e-3, 4000.0, 1000.0
    trials = 200000
    n = rng.poisson(p * (D - d), size=trials)
    emp = (ETA ** n).mean()
    val = disc_upper(2, p, ETA, D, d)
    sigma = (ETA ** n).std(ddof=1) / trials ** 0.5
    assert abs(emp - val) < 3 * sigma


def test_exponent_numeric_identity_and_uninformative():
    t, a = canonical_adjacent_pair(2, 3)
    assert exponent_numeric(t, t, 0.2) == 0.0
    assert exponent_numeric(t, a, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_exponent_numeric_adjacent_pair_value():
    t, a = canonical_adjacent_pair(2, 2)
    assert exponent_numeric(t, a, 0.1) == pytest.approx(-math.log(0.8),
                                                        rel=1e-9)


def test_exponent_closed_limits():
    assert exponent_closed(2, 0.0) == pytest.approx(math.log(2), abs=1e-12)
    assert exponent_closed(3, 0.0) == pytest.approx(math.log(1.5), abs=1e-12)
    assert exponent_closed(2, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert exponent_closed(3, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_exponent_closed_matches_adjacent_pair_all_kappa():
    for M in (2, 3):
        for kappa in (2, 3, 4, 5, 6):
            for eps in (0.01, 0.17, 0.33, 0.49):
                t, a = canonical_adjacent_pair(M, kappa)
                assert abs(exponent_numeric(t, a, eps)
                           - exponent_closed(M, eps)) < 1e-9


def test_exponent_closed_strictly_decreasing():
    for M in (2, 3):
        grid = np.linspace(0.0, 0.5, 60)
        vals = [exponent_closed(M, e) for e in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_exponent_table_ordering_and_positivity():
    """The distance-1 exponent is the minimum to within a hair: for M = 2
    the complement-pair family at distance 2 undercuts it by < 1%
    (e.g. 0.06940 vs 0.06973 at eps = 0.2), so the strict claim that the
    distance-1 exponent dominates holds only approximately. All exponents
    are positive for eps < 0.5 and vanish at eps = 0.5."""
    for M, kappa in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        tbl = exponent_table(M, kappa, 0.2)
        finite = [v for v in tbl.values if math.isfinite(v)]
        assert min(finite) >= 0.99 * tbl.values[0]
        assert tbl.values[0] == min_exponent(M, kappa, 0.2, distance=1)
        assert min_exponent(M, kappa, 0.2, distance=0) == math.inf
        assert min_exponent(M, kappa, 0.2, distance=M * kappa + 1) == math.inf
        assert all(v > 0 for v in finite)
        tbl_half = exponent_table(M, kappa, 0.5)
        assert all(v == pytest.approx(0.0, abs=1e-12) or math.isinf(v)
                   for v in tbl_half.values)


def test_min_exponent_share_one_member_is_worst():
    """The distance-1 family minimum is attained by sets sharing a member,
    and is strictly below the adjacent-pair closed form."""
    for eps in (0.05, 0.2, 0.4):
        mn = min_exponent(2, 3, eps, distance=1)
        t = HypothesisSet(((-1, -1, -1), (1, 1, -1)))
        a = HypothesisSet(((-1, -1, -1), (1, -1, -1)))
        assert mn == pytest.approx(exponent_numeric(t, a, eps), rel=1e-9)
        assert mn < exponent_closed(2, eps)


def test_exponent_kappa_independence():
    """The worst distance-1 exponent stops depending on kappa once the
    window is long enough to hold the extremal configuration (kappa >= 2
    for two individuals, kappa >= 3 for three)."""
    for M, kappas in ((2, (2, 3, 4)), (3, (3, 4))):
        for eps in (0.1, 0.3):
            vals = [min_exponent(M, k, eps, distance=1) for k in kappas]
            assert max(vals) - min(vals) < 1e-9


def test_den_ml_upper_shapes():
    # D = L: no strictly covering reads, bound is vacuous (>= 1)
    assert den_ml_upper(2, 1e-3, 1e5, 1e5, 0.2, kappa=3) >= 1.0
    # eps = 0 dominant denoising term of the ML assembly bound:
    # M p D exp(-coverage (1 - (M-1)/M))
    cfg = ModelConfig(G=10**6, M=2, p=1e-3, L=2e5, lam=1e-3, law=LAW, eps=0.0)
    plan = SegmentationPlan(D=1e5, d=5e3)
    cov = 1e-3 * 2 * (2e5 - 1e5)
    dominant = 2 * 1e-3 * 1e5 * math.exp(-cov * 0.5)
    expect = (1e6 / 5e3) * (disc_upper(2, 1e-3, ETA, 1e5, 5e3) + dominant)
    got, _ = noisy_upper_ml(cfg, plan)
    assert got == pytest.approx(expect, rel=1e-12)
    assert got == pytest.approx(7.49e-6, rel=1e-3)


def test_den_ml_upper_monotone_in_coverage():
    vals = [den_ml_upper(2, lam, 2e5, 5e4, 0.2, kappa=3)
            for lam in (1e-4, 3e-4, 1e-3, 3e-3)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_noisy_upper_ml_pair_exponent_identity():
    """For M = 2 the dominant denoising exponent equals
    (lam / 2) M (L - D) (1 - 2 sqrt(eps(1-eps)))."""
    eps = 0.2
    d1 = exponent_closed(2, eps)
    assert 1.0 - math.exp(-d1) == pytest.approx(
        0.5 - math.sqrt(eps * (1 - eps)), rel=1e-12)


def test_noisy_upper_ml_evaluate_at_plan():
    cfg = _config(lam=2e-3)
    plan = SegmentationPlan(D=1.5e5, d=6e3)
    val, used = noisy_upper_ml(cfg, plan)
    assert used is plan
    assert 0.0 <= val <= 1.0


def test_noisy_upper_ml_optimizer_beats_seed_and_limits():
    cfg = _config(lam=5e-3, L=3e5, eps=0.05)
    val, plan = noisy_upper_ml(cfg)
    # optimum approaches D -> L and d -> 1/(p(1-eta)) for generous lam, L
    r = cfg.p * (1 - ETA)
    assert plan.D > 0.9 * cfg.L
    assert plan.d == pytest.approx(1.0 / r, rel=0.5)
    val_plan, _ = noisy_upper_ml(cfg, SegmentationPlan(D=2e5, d=5e3))
    assert val <= val_plan + 1e-15


def test_noisy_upper_ml_monotone_in_lambda_and_L():
    vals = [noisy_upper_ml(_config(lam=lam, eps=0.2))[0]
            for lam in (5e-4, 1e-3, 2e-3, 4e-3)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    vals = [noisy_upper_ml(_config(lam=2e-3, L=L, eps=0.2))[0]
            for L in (1.2e5, 1.6e5, 2.4e5, 3e5)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_noisy_upper_ml_handles_any_eps_below_half():
    cfg = _config(lam=5e-2, L=3e5, eps=0.45)
    val, _ = noisy_upper_ml(cfg)
    assert val < 1e-3  # generous depth still drives the bound down


def test_ml_plan_seed_valid_past_exponential_underflow():
    """At L = 5e6, r D is far past ~745, where e^(1 - r D) underflows to 0;
    the seed must still be a valid plan rather than divide by zero."""
    cfg = _config(lam=1e-2, L=5e6)
    r = cfg.p * (1 - ETA)
    plan = ml_plan_seed(cfg)
    assert r * plan.D > 750.0
    assert 0.0 < plan.d < plan.D <= cfg.L


def test_noisy_upper_ml_finite_past_exponential_underflow():
    val, plan = noisy_upper_ml(_config(lam=1e-2, L=5e6))
    assert math.isfinite(val) and 0.0 <= val <= 1.0
    assert 0.0 < plan.d < plan.D <= 5e6


def test_spectral_quantities_examples():
    q = spectral_quantities(100, ETA, 0.0, mode="average_case")
    assert q.p_e == pytest.approx(math.exp(-3.24), rel=1e-12)
    assert q.zeta > 0.0
    assert q.b_upper <= q.p_e
    vac = spectral_quantities(100, ETA, 0.5, mode="average_case")
    assert vac.p_e == 1.0 and vac.zeta == 0.0


def test_spectral_noise_ceiling_value():
    nu = 100 * (1 - ETA)
    # 0.5 (1 - (kappa ln2 / nu^2)^(1/4)) at kappa=100, nu=18
    expect = 0.5 * (1 - (100 * math.log(2) / nu ** 2) ** 0.25)
    got = spectral_noise_ceiling(100, nu)
    assert got == pytest.approx(expect, rel=1e-12)
    assert got == pytest.approx(0.15995, abs=1e-4)
    assert spectral_noise_ceiling(100, 1.0) == 0.0


def test_spectral_edge_rates_bounded_by_p_e():
    """Planted-model edge misclassification stays below the analytic p_e."""
    gen = np.random.default_rng(13)
    kappa, eps, reps = 100, 0.1, 4000
    q = spectral_quantities(kappa, ETA, eps, mode="average_case")
    tau = (1 - 2 * eps) ** 2 * (1 - q.nu_min / kappa)
    base = np.where(gen.random(kappa) < 0.1, 1, -1).astype(np.int8)
    # same-individual pair: edge must be present
    miss = 0
    for _ in range(reps):
        a = np.where(gen.random(kappa) < eps, -base, base)
        b = np.where(gen.random(kappa) < eps, -base, base)
        miss += (a @ b / kappa) < tau
    assert miss / reps <= q.p_e
    # different individuals at the planted distance: edge must be absent
    other = base.copy()
    other[:int(q.nu_min)] *= -1
    link = 0
    for _ in range(reps):
        a = np.where(gen.random(kappa) < eps, -base, base)
        b = np.where(gen.random(kappa) < eps, -other, other)
        link += (a @ b / kappa) >= tau
    assert link / reps <= q.p_e


def test_noisy_upper_spectral_region_empty_at_quarter_noise():
    for L in (5e4, 1e5, 2e5):
        cfg = _config(L=L, lam=2e-2, eps=0.25)
        val, _ = noisy_upper_spectral(cfg)
        assert val > 1e-3


def test_noisy_upper_spectral_small_eps_near_noiseless():
    from poolseq_limits._util import bisect_decreasing
    from poolseq_limits.noiseless_bounds import assembly_bounds

    def noiseless(L):
        return assembly_bounds(ModelConfig(G=3 * 10**9, M=2, p=1e-3, L=L,
                                           lam=2e-2, law=LAW)).upper

    def spectral(L):
        return noisy_upper_spectral(_config(L=L, lam=2e-2, eps=0.02))[0]

    base, _ = bisect_decreasing(noiseless, 1e-3, 2e4, 5e5, rtol=1e-3)
    noisy, _ = bisect_decreasing(spectral, 1e-3, 2e4, 5e5, rtol=1e-3)
    assert noisy == pytest.approx(base, rel=0.15)


def test_noisy_upper_spectral_vacuous_without_coverage():
    cfg = _config(L=2e5, lam=2e-3, eps=0.1)
    val, _ = noisy_upper_spectral(cfg, SegmentationPlan(D=2e5 - 1e-6, d=5e3))
    assert val == 1.0


def test_exponent_table_capacity_guard():
    with pytest.raises(CapacityError):
        exponent_table(2, 7, 0.2)


def test_exponent_table_noiseless_disjoint_sets_are_infinite():
    """At eps = 0 hypothesis sets far enough apart induce disjoint
    observation mixtures: their exponent is inf, computed without a
    divide-by-zero warning."""
    values = exponent_table(2, 3, 0.0).values
    assert values[0] == pytest.approx(math.log(2.0), rel=1e-12)
    assert all(math.isinf(v) for v in values[3:])


def test_noisy_upper_ml_noise_transition_shifts_with_depth():
    """At fixed read length the bound rises sharply with eps, and deeper
    sequencing moves the transition to larger eps."""
    eps_grid = (0.01, 0.1, 0.2, 0.3, 0.4)

    def curve(lam):
        return [noisy_upper_ml(_config(L=1.1e5, lam=lam, eps=e))[0]
                for e in eps_grid]

    mid, deep = curve(2e-3), curve(8e-3)
    for vals in (mid, deep):
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert mid[1] > 0.4 and deep[1] < 0.05   # eps = 0.1
    assert deep[2] < 0.1 and deep[3] > 0.9   # transition between 0.2 and 0.3


def test_noisy_upper_ml_converges_to_noiseless_at_large_depth():
    """The critical read length approaches the noiseless one as the read
    density grows, for any eps below one half."""
    from poolseq_limits._util import bisect_decreasing
    from poolseq_limits.noiseless_bounds import assembly_bounds

    def noiseless(L):
        return assembly_bounds(ModelConfig(G=3 * 10**9, M=2, p=1e-3, L=L,
                                           lam=1e-2, law=LAW)).upper

    base, _ = bisect_decreasing(noiseless, 1e-3, 1e4, 1e6, rtol=1e-4)
    for eps in (0.01, 0.2, 0.4):
        def noisy(L):
            return noisy_upper_ml(_config(L=L, lam=1.0, eps=eps))[0]
        crit, _ = bisect_decreasing(noisy, 1e-3, 1e4, 1e6, rtol=1e-4)
        assert crit / base < 1.10


def test_disc_upper_large_population_stable():
    """The direct Poisson-average branch agrees with the alternating sum
    where both are exact, and stays a probability at many pairs."""
    from poolseq_limits.noisy_bounds import PAIR_ENUM_CAP  # noqa: F401
    from math import comb, exp

    # M = 4 (6 pairs): closed alternating sum, exact
    closed = disc_upper(4, 1e-3, ETA, 8000.0, 2000.0)
    # recompute via the Poisson average independently
    from scipy import stats
    mu = 1e-3 * 6000.0
    ks = np.arange(0, 60)
    avg = float(np.sum(stats.poisson.pmf(ks, mu)
                       * (1 - (1 - ETA ** ks) ** comb(4, 2))))
    assert closed == pytest.approx(avg, rel=1e-9)
    # M = 20 (190 pairs): must be a sane probability, monotone in width
    vals = [disc_upper(20, 1e-3, ETA, D, 2000.0)
            for D in (4000.0, 12000.0, 40000.0, 120000.0)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
