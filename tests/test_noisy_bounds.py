import math
from collections import Counter
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolseq_limits import noisy_bounds
from poolseq_limits._util import poisson_weights, unpack_rows
from poolseq_limits.core import (CapacityError, FixedEta, ModelConfig,
                                 ValidationError)
from poolseq_limits.noisy_bounds import (SegmentationPlan,
                                         canonical_adjacent_pair, den_ml_upper,
                                         disc_upper, exponent_closed,
                                         exponent_numeric, exponent_table,
                                         ml_plan_seed,
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
    assert disc_upper(2, 1e-3, ETA)(100.0, 100.0) == 1.0
    width = 1.0 / (1e-3 * (1 - ETA))
    val = disc_upper(2, 1e-3, ETA)(width + 1.0, 1.0)
    assert val == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_disc_upper_matches_pair_simulation():
    """For M = 2 the bound equals E[eta^n] with n ~ Poisson(p (D - d))."""
    rng = np.random.default_rng(11)
    p, D, d = 1e-3, 4000.0, 1000.0
    trials = 200000
    n = rng.poisson(p * (D - d), size=trials)
    emp = (ETA ** n).mean()
    val = disc_upper(2, p, ETA)(D, d)
    sigma = (ETA ** n).std(ddof=1) / trials ** 0.5
    assert abs(emp - val) < 3 * sigma


def test_exponent_numeric_identity_and_uninformative():
    t, a = canonical_adjacent_pair(2, 3)
    assert exponent_numeric(t, t, 0.2) == 0.0
    assert exponent_numeric(t, a, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_exponent_numeric_disjoint_mixtures_is_inf():
    """At eps = 0 two sets sharing no sequence induce disjoint mixtures:
    the exponent is inf, as in `exponent_table`, not a log-domain error."""
    t = np.array([[1, 1], [1, -1]])
    a = np.array([[-1, -1], [-1, 1]])
    assert exponent_numeric(t, a, 0.0) == math.inf
    assert math.inf in exponent_table(2, 2, 0.0)


def test_exponent_numeric_adjacent_pair_value():
    t, a = canonical_adjacent_pair(2, 2)
    assert exponent_numeric(t, a, 0.1) == pytest.approx(-math.log(0.8),
                                                        rel=1e-9)


def test_exponent_numeric_rejects_eps_outside_channel():
    """Like `exponent_table` and `exponent_closed`, the oracle refuses an
    eps outside [0, 0.5] instead of returning a number or inf."""
    t, a = canonical_adjacent_pair(2, 3)
    for eps in (0.7, -0.1, math.nan):
        for f in (lambda: exponent_numeric(t, a, eps),
                  lambda: exponent_table(2, 3, eps),
                  lambda: exponent_closed(2, eps)):
            with pytest.raises(ValidationError, match="eps"):
                f()


def _brute_set_distance(s, t):
    """Fewest bit flips turning set s into set t, over member matchings."""
    return min(int((s != t[list(perm)]).sum())
               for perm in permutations(range(len(s))))


@pytest.mark.parametrize("M,kappa", [(1, 3), (2, 2), (2, 3), (3, 3)])
def test_exponent_table_is_pairwise_oracle_minimum(M, kappa):
    """Entry i of the table is the oracle's minimum over every pair of
    sets at distance i, inf where no pair is; the table and the oracle
    share one mixture kernel but enumerate and pair sets separately."""
    sets = [unpack_rows(c, kappa) for c in combinations(range(1 << kappa), M)]
    for eps in (0.0, 0.1, 0.3, 0.5):
        best = [math.inf] * (M * kappa)
        for s, t in combinations(sets, 2):
            i = _brute_set_distance(s, t)
            best[i - 1] = min(best[i - 1], exponent_numeric(s, t, eps))
        # abs covers eps = 0.5, where every exponent is 0 up to rounding
        assert exponent_table(M, kappa, eps) == pytest.approx(
            tuple(best), rel=1e-9, abs=1e-12)


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
        finite = [v for v in tbl if math.isfinite(v)]
        assert min(finite) >= 0.99 * tbl[0]
        assert all(v > 0 for v in finite)
        tbl_half = exponent_table(M, kappa, 0.5)
        assert all(v == pytest.approx(0.0, abs=1e-12) or math.isinf(v)
                   for v in tbl_half)


def test_min_exponent_share_one_member_is_worst():
    """The distance-1 family minimum is attained by sets sharing a member,
    and is strictly below the adjacent-pair closed form."""
    for eps in (0.05, 0.2, 0.4):
        mn = exponent_table(2, 3, eps)[0]
        t = np.array([[-1, -1, -1], [1, 1, -1]])
        a = np.array([[-1, -1, -1], [1, -1, -1]])
        assert mn == pytest.approx(exponent_numeric(t, a, eps), rel=1e-9)
        assert mn < exponent_closed(2, eps)


def test_exponent_kappa_independence():
    """The worst distance-1 exponent stops depending on kappa once the
    window is long enough to hold the extremal configuration (kappa >= 2
    for two individuals, kappa >= 3 for three)."""
    for M, kappas in ((2, (2, 3, 4)), (3, (3, 4))):
        for eps in (0.1, 0.3):
            vals = [exponent_table(M, k, eps)[0] for k in kappas]
            assert max(vals) - min(vals) < 1e-9


def test_den_ml_upper_shapes():
    # no covering reads: the bound is vacuous (>= 1)
    assert den_ml_upper(2, 0.0, 0.2, kappa=3) >= 1.0
    # eps = 0 dominant denoising term of the ML assembly bound:
    # M p D exp(-coverage (1 - (M-1)/M))
    cfg = ModelConfig(G=10**6, M=2, p=1e-3, L=2e5, lam=1e-3, law=LAW, eps=0.0)
    plan = SegmentationPlan(D=1e5, d=5e3)
    cov = 1e-3 * 2 * (2e5 - 1e5)
    dominant = 2 * 1e-3 * 1e5 * math.exp(-cov * 0.5)
    expect = (1e6 / 5e3) * (disc_upper(2, 1e-3, ETA)(1e5, 5e3) + dominant)
    got, _ = noisy_upper_ml(cfg, plan)
    assert got == pytest.approx(expect, rel=1e-12)
    assert got == pytest.approx(7.49e-6, rel=1e-3)


def test_den_ml_upper_monotone_in_coverage():
    vals = [den_ml_upper(2, cov, 0.2, kappa=3)
            for cov in (30.0, 90.0, 300.0, 900.0)]
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


@pytest.mark.parametrize("lam", [1e-318, 1e-314, 1e-323])
@pytest.mark.parametrize("M,eta", [(2, ETA), (4, 0.3)])
def test_ml_plan_seed_valid_at_subnormal_lambda(lam, M, eta):
    """At a subnormal lambda the read rate is subnormal (or 0 at M = 4,
    lambda = 1e-323), and log(inner) / rate and r / rate both overflow,
    with log(inner) < 0 at M = 2 and > 0 at M = 4, eta = 0.3; the seed
    must still be a valid plan rather than inf / inf."""
    cfg = _config(lam=lam, L=1000.0, M=M, law=FixedEta(eta))
    plan = ml_plan_seed(cfg)
    assert 0.0 < plan.d < plan.D <= cfg.L


def test_noisy_upper_ml_finite_past_exponential_underflow():
    val, plan = noisy_upper_ml(_config(lam=1e-2, L=5e6))
    assert math.isfinite(val) and 0.0 <= val <= 1.0
    assert 0.0 < plan.d < plan.D <= 5e6


def test_spectral_quantities_examples():
    q = spectral_quantities(100, ETA, 0.0, mode="average_case")
    assert q.p_e == pytest.approx(math.exp(-3.24), rel=1e-12)
    assert q.zeta > 0.0
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
    from poolseq_limits._util import bisect_decreasing, clamp01
    from poolseq_limits.noiseless_bounds import assembly_upper

    def noiseless(L):
        return clamp01(assembly_upper(ModelConfig(G=3 * 10**9, M=2, p=1e-3,
                                                  L=L, lam=2e-2, law=LAW)))

    def spectral(L):
        return noisy_upper_spectral(_config(L=L, lam=2e-2, eps=0.02))[0]

    base, _ = bisect_decreasing(noiseless, 1e-3, 2e4, 5e5, rtol=1e-3)
    noisy, _ = bisect_decreasing(spectral, 1e-3, 2e4, 5e5, rtol=1e-3)
    assert noisy == pytest.approx(base, rel=0.15)


def test_noisy_upper_spectral_vacuous_without_coverage():
    cfg = _config(L=2e5, lam=2e-3, eps=0.1)
    val, _ = noisy_upper_spectral(cfg, SegmentationPlan(D=2e5 - 1e-6, d=5e3))
    assert val == 1.0


@pytest.mark.parametrize("mu", [901, 903, 910, 1009, 1010, 1044, 1099])
def test_poisson_weights_stops_where_rounding_stalls_the_total(mu):
    """At these means the rounded total never reaches 1 - 1e-12; the
    support must still end after a few hundred terms, not at the cap."""
    ks, ws = poisson_weights(float(mu))
    assert len(ks) < 1000
    assert ws.sum() >= 1.0 - 2e-12
    assert ks[0] < mu < ks[-1]


def test_exponent_table_capacity_guard():
    with pytest.raises(CapacityError):
        exponent_table(2, 7, 0.2)


def test_exponent_table_noiseless_disjoint_sets_are_infinite():
    """At eps = 0 hypothesis sets far enough apart induce disjoint
    observation mixtures: their exponent is inf, computed without a
    divide-by-zero warning."""
    values = exponent_table(2, 3, 0.0)
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
    from poolseq_limits._util import bisect_decreasing, clamp01
    from poolseq_limits.noiseless_bounds import assembly_upper

    def noiseless(L):
        return clamp01(assembly_upper(ModelConfig(G=3 * 10**9, M=2, p=1e-3,
                                                  L=L, lam=1e-2, law=LAW)))

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
    closed = disc_upper(4, 1e-3, ETA)(8000.0, 2000.0)
    # recompute via the Poisson average independently
    from scipy import stats
    mu = 1e-3 * 6000.0
    ks = np.arange(0, 60)
    avg = float(np.sum(stats.poisson.pmf(ks, mu)
                       * (1 - (1 - ETA ** ks) ** comb(4, 2))))
    assert closed == pytest.approx(avg, rel=1e-9)
    # M = 20 (190 pairs): must be a sane probability, monotone in width
    disc = disc_upper(20, 1e-3, ETA)
    vals = [disc(D, 2000.0) for D in (4000.0, 12000.0, 40000.0, 120000.0)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def _disc_reference(M: int, p: float, eta: float, width: float) -> float:
    """E[1 - (1 - eta^n)^pairs] over n ~ Poisson(p width), which does not
    cancel: every weight from its log-pmf and the sum by math.fsum, out to
    a tail far below 1e-15."""
    mu, pairs = p * width, math.comb(M, 2)
    terms = []
    for n in range(int(mu + 40.0 * math.sqrt(mu) + 60.0)):
        w = math.exp(n * math.log(mu) - mu - math.lgamma(n + 1.0))
        en = eta ** n
        terms.append(w * (-math.expm1(pairs * math.log1p(-en)) if en < 1.0
                          else 1.0))
    return math.fsum(terms)


@pytest.mark.parametrize("M", range(2, 13))
def test_disc_upper_matches_poisson_average(M):
    """Over overlap widths 1-1e5 at p = 1e-3, disc_upper stays within the
    Poisson form's 1e-12 tail mass (plus rounding) of the exact average:
    the alternating sum once cancelled to 1e-6 too low at 36 pairs (M = 9,
    width 300 gave 0.9999988 against 0.999999999996). Up to 40 pairs, the
    values far below 1e-12 that the ML optimum reaches also keep their
    relative accuracy."""
    for eta in (0.5, 0.82, 0.95):
        disc = disc_upper(M, 1e-3, eta)
        for k in range(0, 201):
            width = 10 ** (k / 40)
            got = disc(width + 1.0, 1.0)
            want = _disc_reference(M, 1e-3, eta, width)
            assert abs(got - want) <= 1.1e-12, (eta, width, got, want)
            if math.comb(M, 2) <= 40 and want < 1e-9:
                assert abs(got - want) <= 1e-9 * want, (eta, width, got, want)


@settings(max_examples=300)
@given(M=st.integers(-3, 40), kappa=st.integers(-3, 6),
       eps=st.one_of(st.floats(-1.0, 1.5), st.just(math.nan),
                     st.just(math.inf), st.just(-math.inf)))
def test_exponent_table_rejects_invalid_inputs(M, kappa, eps):
    """Every (M, kappa, eps) outside kappa >= 1, 1 <= M <= 2^kappa and
    0 <= eps <= 0.5 raises ValidationError, before any enumeration."""
    valid_eps = 0.0 <= eps <= 0.5
    if kappa >= 1 and 1 <= M <= 1 << kappa and valid_eps:
        return
    with pytest.raises(ValidationError):
        exponent_table(M, kappa, eps)


# repr of (value, D, d) from the (D, d) optimiser at the bound-solve points
# (G = 3e9, M = 2, p = 1e-3, eta = 0.82). `bounds` and `critical-l` print
# 12 significant digits, which hide a moved last bit; these do not.
_ML_PINS = {
    (1e-2, 0.01, 1e5): ("0.040521637516818955", "96820.44332987008",
                        "5680.201098377809"),
    (1e-2, 0.1, 1e5): ("0.06949178538077723", "93948.32782546856",
                       "5804.599091951291"),
    (1e-3, 0.1, 1e5): ("1.0", "61681.39727145527", "7951.652398725041"),
    (1e-2, 0.01, 1.8e5): ("3.1400922975055975e-08", "174990.00575074356",
                          "5680.267091854277"),
    (1e-2, 0.1, 1.8e5): ("7.388015477960795e-08", "170361.20854494532",
                         "5804.842010011998"),
    (1e-3, 0.1, 1.8e5): ("0.002013797895086467", "115808.51879474928",
                         "7991.533957761674"),
}


def _pin(res):
    value, plan = res
    return repr(value), repr(plan.D), repr(plan.d)


@pytest.mark.parametrize("lam,eps,L", sorted(_ML_PINS))
def test_noisy_upper_ml_exact_values(lam, eps, L):
    assert _pin(noisy_upper_ml(_config(lam=lam, L=L, eps=eps))) \
        == _ML_PINS[lam, eps, L]


@pytest.mark.parametrize("L,mode,c_const,want", [
    (1e5, "average_case", 1.0,
     ("1.0", "95110.5660750558", "54755.90045174926")),
    (1.8e5, "average_case", 1.0,
     ("2.6479871742996713e-08", "175948.93537538787", "5692.239124155472")),
    (1e5, "worst_case", 2.0, ("1.0", "100000.0", "85206.36786249014")),
])
def test_noisy_upper_spectral_exact_values(L, mode, c_const, want):
    res = noisy_upper_spectral(_config(lam=1e-2, L=L, eps=0.1), mode=mode,
                               c_const=c_const)
    assert _pin(res) == want


@pytest.mark.parametrize("M,want", [
    (2, ("0.9946145537913912", "0.5827482523739895", "0.0045165809426126625",
         "3.532628572200757e-24")),
    (5, ("0.999999991218763", "0.9944248382671436", "0.04289695271588412",
         "3.532628572200757e-23")),
    (9, ("0.9999999999990131", "0.999983616078387", "0.13599081700063892",
         "1.2717462859922725e-22")),
    (12, ("0.9999999999990131", "0.9999996259824746", "0.22086623292576496",
          "2.3314852526703523e-22")),
])
def test_disc_upper_exact_values(M, want):
    """Both the alternating sum and the Poisson average keep their bits."""
    disc = disc_upper(M, 1e-3, ETA)
    assert tuple(repr(disc(w + 1.0, 1.0)) for w in (30.0, 3e3, 3e4, 3e5)) \
        == want


def _poisson_weights_by_insertion(mu, tail=1e-12):
    """Reference expansion from the mode, each lower-tail term inserted at
    the front of the lists."""
    if mu <= 0.0:
        return np.array([0]), np.array([1.0])
    mode = int(mu)
    logw_mode = mode * math.log(mu) - mu - math.lgamma(mode + 1)
    ks = [mode]
    ws = [math.exp(logw_mode)]
    lo, hi = mode, mode
    w_lo, w_hi = ws[0], ws[0]
    total = ws[0]
    while total < 1.0 - tail:
        w_up = w_hi * mu / (hi + 1)
        w_down = w_lo * lo / mu if lo > 0 else 0.0
        if total + (w_up + w_down) == total:
            break
        if w_up >= w_down:
            hi += 1
            w_hi = w_up
            ks.append(hi)
            ws.append(w_hi)
            total += w_hi
        else:
            lo -= 1
            w_lo = w_down
            ks.insert(0, lo)
            ws.insert(0, w_lo)
            total += w_lo
        if hi - lo > 100000:
            break
    return np.asarray(ks), np.asarray(ws)


@pytest.mark.parametrize("mu", [0.0, 1e-3, 0.7, 7.0, 180.0, 1.5e4, 5e4, 1e5])
def test_poisson_weights_equal_insertion_reference(mu):
    ks, ws = poisson_weights(mu)
    ref_ks, ref_ws = _poisson_weights_by_insertion(mu)
    assert ks.dtype == np.int64 and ws.dtype == np.float64
    assert np.array_equal(ks, ref_ks)
    assert np.array_equal(ws, ref_ws)
    assert np.array_equal(ks, np.arange(ks[0], ks[-1] + 1))


@pytest.mark.parametrize("plan", [SegmentationPlan(D=9e4, d=6e3), None])
def test_noisy_upper_spectral_one_zeta_per_kappa(monkeypatch, plan):
    """One spectral bound, at a plan or optimised over (D, d), asks
    spectral_quantities about each kappa at most once, through the module
    name."""
    asked = Counter()
    original = noisy_bounds.spectral_quantities

    def counting(kappa, *args, **kwargs):
        asked[kappa] += 1
        return original(kappa, *args, **kwargs)

    monkeypatch.setattr(noisy_bounds, "spectral_quantities", counting)
    noisy_upper_spectral(_config(lam=1e-2, L=1e5, eps=0.1), plan)
    assert asked and max(asked.values()) == 1
    if plan is not None:
        assert sorted(asked) == poisson_weights(1e-3 * plan.D)[0].tolist()
