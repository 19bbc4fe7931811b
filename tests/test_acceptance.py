"""Acceptance suite: one test per release criterion.

Each test prints a single `[acceptance NN] name: PASS/FAIL` line with its
measurements (run pytest with -s to see them on passing tests too).
Criteria 08 and 10 check what their bounds promise: 08 that the spectral
noise ceiling is where the recovery exponent vanishes (a sufficient
condition, witnessed empirically by recovery well below it and collapse
at eps = 0.5), and 10 that the noisy ML critical length converges to the
noiseless one, with the analytic limit 1 + 1/ln(G r / target), as the read
density grows. The derivations live next to the assertions.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy import stats

from poolseq_limits._util import bisect_decreasing, clamp01, wilson_interval
from poolseq_limits.assemble import (check_bridging, check_coverage,
                                     greedy_assemble, score_assembly,
                                     unique_and_correct)
from poolseq_limits.core import (FixedBiallelic, FixedEta, ModelConfig,
                                 RandomStream)
from poolseq_limits.denoise import (AVERAGE_CASE, DenoiseBlock, ml_denoise,
                                    spectral_denoise)
from poolseq_limits.exact_bridging import estimate_bridging
from poolseq_limits.noiseless_bounds import (assembly_lower, assembly_upper,
                                             bridging_lower, coverage_single,
                                             delta_m, p_m)
from poolseq_limits.noisy_bounds import (canonical_adjacent_pair, den_ml_upper,
                                         exponent_closed, exponent_numeric,
                                         noisy_upper_ml,
                                         spectral_noise_ceiling,
                                         spectral_quantities)
from poolseq_limits.pipeline import run_noiseless_trial
from poolseq_limits.simulate import (discriminating_positions,
                                     generate_population, generate_reads)

ETA = 0.82
MAF_LAW = FixedBiallelic(0.1)


def binomial_sigma(p: float, n: int) -> float:
    """Standard deviation of a binomial proportion estimate at true rate p."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def report(num: int, name: str, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status}  ({detail}; "
          f"{time.time() - t0:.1f}s)")


def test_criterion_01_poisson_thinning():
    """Discriminating-SNP counts are Poisson(G p (1 - eta))."""
    t0 = time.time()
    cfg = ModelConfig(G=10**6, M=2, p=1e-3, L=1000.0, lam=0.0, law=MAF_LAW)
    root = RandomStream(301)
    counts = np.empty(10000, dtype=int)
    for t in range(10000):
        pop = generate_population(cfg, root.child(t, "pop"))
        counts[t] = discriminating_positions(pop, 0, 1).size
    pval = _poisson_gof(counts, 180.0)
    elapsed = time.time() - t0
    ok = pval > 0.01 and elapsed < 60.0
    report(1, "poisson thinning", ok,
           f"GOF p={pval:.3f} vs Poisson(180), mean={counts.mean():.1f}", t0)
    assert pval > 0.01
    assert elapsed < 60.0


def test_criterion_02_coverage_exactness():
    """Single-individual coverage failure matches the closed form."""
    t0 = time.time()
    G, p, lam, L = 10**6, 1e-3, 5e-3, 1800.0
    pred = coverage_single(G, p, lam, L)
    assert 0.02 <= pred <= 0.2
    cfg = ModelConfig(G=G, M=1, p=p, L=L, lam=lam, law=MAF_LAW)
    root = RandomStream(302)
    trials = 20000
    fails = 0
    for t in range(trials):
        st = root.child(t)
        pop = generate_population(cfg, st.child("pop"))
        rs = generate_reads(pop, cfg, st.child("reads"))
        fails += not check_coverage(pop, rs).ok
    emp = fails / trials
    sigma = binomial_sigma(pred, trials)
    elapsed = time.time() - t0
    ok = abs(emp - pred) <= 3 * sigma and elapsed < 300.0
    report(2, "coverage exactness", ok,
           f"empirical={emp:.5f} predicted={pred:.5f} "
           f"|z|={abs(emp - pred) / sigma:.2f}", t0)
    assert abs(emp - pred) <= 3 * sigma
    assert elapsed < 300.0


def _direct_bridging_rate(cfg: ModelConfig, trials: int, seed: int):
    root = RandomStream(seed)
    fails = 0
    for t in range(trials):
        st = root.child(t)
        pop = generate_population(cfg, st.child("pop"))
        rs = generate_reads(pop, cfg, st.child("reads"))
        fails += not check_bridging(pop, rs).ok
    return fails, trials


def test_criterion_03_bridging_sandwich():
    """Empirical pair bridging failure sits between the analytic bounds and
    the chain estimator's interval overlaps the direct one."""
    t0 = time.time()
    G, p, lam = 2 * 10**6, 1e-3, 1e-2
    r = p * (1 - ETA)
    details = []
    all_ok = True
    for L in (35000.0, 45000.0, 55000.0):
        cfg = ModelConfig(G=G, M=2, p=p, L=L, lam=lam, law=MAF_LAW)
        fails, trials = _direct_bridging_rate(cfg, 10000, 303)
        emp = fails / trials
        lo_ci, hi_ci = wilson_interval(fails, trials)
        lower = clamp01(bridging_lower(ModelConfig(G=G, M=2, p=p, L=L,
                                                   lam=lam,
                                                   law=FixedEta(ETA))))
        upper = min(1.0, G * r * p_m(2, lam, p, ETA, L))
        sigma = binomial_sigma(max(emp, 1e-4), trials)
        in_sandwich = lower - 3 * sigma <= emp <= upper + 3 * sigma
        chain = estimate_bridging(G, L, lam, p, ETA, 30000, RandomStream(304))
        overlap = chain.ci_low <= hi_ci and lo_ci <= chain.ci_high
        all_ok &= in_sandwich and overlap and (1e-2 <= emp <= 0.5)
        details.append(f"L={L:.0f}: emp={emp:.4f} "
                       f"bounds=[{lower:.4f},{upper:.4f}] "
                       f"chain={chain.estimate:.4f} overlap={overlap}")
        assert 1e-2 <= emp <= 0.5
        assert in_sandwich
        assert overlap
    elapsed = time.time() - t0
    report(3, "bridging sandwich", all_ok and elapsed < 600,
           "; ".join(details), t0)
    assert elapsed < 600.0


def test_criterion_04_delta_correctness():
    """Three-individual single-segment failure probability from direct
    permutation-level simulation matches the inclusion-exclusion form."""
    t0 = time.time()
    M, lam, p, eta, L = 3, 1.0, 0.5, 0.0, 2.0  # lam L = 2, p(1-eta) L = 1
    rng = np.random.default_rng(305)
    trials = 100000
    hits = 0
    ks = rng.poisson(p * (1 - eta) * L, size=trials)
    ns = rng.poisson(lam * L, size=(trials, M))
    for i in range(trials):
        k = ks[i]
        last = rng.uniform(0, L, k).max() if k else -np.inf
        bad = 0
        for m in range(M):
            n = ns[i, m]
            if n == 0 or rng.uniform(0, L, n).min() > last:
                bad += 1
        hits += bad >= 2
    emp = hits / trials
    val = delta_m(M, lam, p, eta, L)
    sigma = binomial_sigma(val, trials)
    elapsed = time.time() - t0
    ok = abs(emp - val) <= 3 * sigma and elapsed < 120.0
    report(4, "segment-event probability", ok,
           f"empirical={emp:.5f} analytic={val:.5f} "
           f"|z|={abs(emp - val) / sigma:.2f}", t0)
    assert abs(emp - val) <= 3 * sigma
    assert elapsed < 120.0


def test_criterion_05_equivalence_oracle():
    """Greedy success and exhaustive uniqueness agree whenever the success
    conditions hold; coverage violation always fails. Instances follow the
    model's distinct-individuals assumption (pairs; see the ledger for the
    three-individual boundary-region caveat)."""
    t0 = time.time()
    rng = np.random.default_rng(306)
    root = RandomStream(307)
    used = held = agreed = covviol = covviol_fail = 0
    t = -1
    while used < 1000:
        t += 1
        G = int(rng.integers(60, 160))
        p = min(0.5, int(rng.integers(1, 13)) / G)
        lam = float(rng.uniform(0.01, 0.09))
        L = float(rng.uniform(0.2, 0.6)) * G
        cfg = ModelConfig(G=G, M=2, p=p, L=L, lam=lam, law=FixedBiallelic(0.3))
        st = root.child(t, "inst")
        pop = generate_population(cfg, st.child("pop"))
        if len({pop.alleles[m].tobytes() for m in range(2)}) < 2:
            continue
        rs = generate_reads(pop, cfg, st.child("reads"))
        if pop.S > 12 or rs.n_reads > 40 or rs.n_reads == 0:
            continue
        used += 1
        cov_ok = check_coverage(pop, rs).ok
        cond_ok = cov_ok and check_bridging(pop, rs).ok
        greedy_ok = cov_ok and score_assembly(
            greedy_assemble(rs, st.child("greedy")), pop)
        if cond_ok:
            held += 1
            agreed += greedy_ok and unique_and_correct(pop, rs)
        if not cov_ok:
            covviol += 1
            covviol_fail += not greedy_ok
    elapsed = time.time() - t0
    ok = held == agreed and covviol == covviol_fail and elapsed < 300.0
    report(5, "equivalence vs oracle", ok,
           f"{agreed}/{held} agreement where conditions held; "
           f"{covviol_fail}/{covviol} failures on coverage violation", t0)
    assert held > 100
    assert agreed == held
    assert covviol_fail == covviol
    assert elapsed < 300.0


def test_criterion_06_exponent_oracle():
    """Closed-form confusion exponents match the numeric oracle on the
    canonical minimum-distance pair for every kappa, with the exact limits
    at eps = 0 and 0.5. This adjudicates the two closed-form variants: the
    implemented forms are -log(1/2 + sqrt(eps(1-eps))) for pairs and the
    triple-individual form with sqrt(1 - eps(1-eps))."""
    t0 = time.time()
    eps_grid = [round(0.01 + 0.04 * i, 2) for i in range(13)]  # 0.01..0.49
    worst = 0.0
    for M in (2, 3):
        for kappa in (2, 3, 4, 5, 6):
            true_set, alt_set = canonical_adjacent_pair(M, kappa)
            for eps in eps_grid:
                num = exponent_numeric(true_set, alt_set, eps)
                clo = exponent_closed(M, eps)
                worst = max(worst, abs(num - clo))
        assert abs(exponent_closed(M, 0.0) - math.log(M / (M - 1))) < 1e-12
        assert abs(exponent_closed(M, 0.5)) < 1e-12
    # kappa independence of the canonical-pair exponent
    for M in (2, 3):
        for eps in (0.05, 0.25, 0.45):
            vals = [exponent_numeric(*canonical_adjacent_pair(M, k), eps)
                    for k in (2, 3, 4, 5, 6)]
            assert max(vals) - min(vals) < 1e-9
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 120.0
    report(6, "exponent oracle", ok, f"max |closed - numeric| = {worst:.2e}",
           t0)
    assert worst < 1e-9
    assert elapsed < 120.0


def test_criterion_07_ml_denoise_bound():
    """Empirical ML block failure never exceeds the per-distance union
    bound at coverage 20 and 60 for eps in {0.1, 0.2, 0.3}."""
    t0 = time.time()
    M, kappa, blocks = 2, 3, 10000
    details = []
    all_ok = True
    for eps in (0.1, 0.2, 0.3):
        for cov in (20.0, 60.0):
            bound = den_ml_upper(M, cov, eps, kappa=kappa)
            root = RandomStream(308)
            fails = 0
            for b in range(blocks):
                gen = root.child(b, int(eps * 100), int(cov)).gen
                while True:
                    truth = np.where(gen.random((M, kappa)) < 0.5, 1,
                                     -1).astype(np.int8)
                    if len({r.tobytes() for r in truth}) == M:
                        break
                n = int(gen.poisson(cov))
                if n == 0:
                    fails += 1
                    continue
                obs = truth[gen.integers(0, M, size=n)]
                obs = np.where(gen.random(obs.shape) < eps, -obs,
                               obs).astype(np.int8)
                block = DenoiseBlock(observations=obs, M=M, eps=eps)
                out = ml_denoise(block)
                fails += {r.tobytes() for r in out} != \
                    {r.tobytes() for r in truth}
            emp = fails / blocks
            point_ok = emp <= bound
            all_ok &= point_ok
            details.append(f"eps={eps} cov={cov:.0f}: emp={emp:.4f} "
                           f"bound={bound:.4g}")
            assert point_ok
    elapsed = time.time() - t0
    report(7, "ml denoise bound", all_ok and elapsed < 600,
           "; ".join(details), t0)
    assert elapsed < 600.0


def _spectral_recovery(eps: float, blocks: int, seed: int,
                       kappa: int = 100, n: int = 200) -> float:
    root = RandomStream(seed)
    hits = 0
    for b in range(blocks):
        gen = root.child(b, "blk").gen
        while True:
            truth = np.where(gen.random((2, kappa)) < 0.1, 1, -1).astype(np.int8)
            if len({r.tobytes() for r in truth}) == 2:
                break
        obs = truth[gen.integers(0, 2, size=n)]
        obs = np.where(gen.random(obs.shape) < eps, -obs, obs).astype(np.int8)
        block = DenoiseBlock(observations=obs, M=2, eps=eps)
        res = spectral_denoise(block, mode="average_case", eta=ETA,
                               stream=root.child(b, "sp"))
        hits += {r.tobytes() for r in res.sequences} == \
            {r.tobytes() for r in truth}
    return hits / blocks


def test_criterion_08_spectral_threshold():
    """The analytic noise ceiling at kappa = 100, nu_min = kappa (1 - eta)
    = 18 evaluates to 0.1600. It is the eps at which the bound's edge-error
    expression p_e = exp(-(nu_min^2 / kappa) (1 - 2 eps)^4) reaches 1/2,
    i.e. where the recovery exponent zeta of `spectral_quantities` drops
    to 0: a sufficient condition for recovery, not a necessary one.
    Checked: the ceiling value; recovery above 99% at 0.8 x ceiling; zeta
    > 0 at 0.8 x and zeta == 0 at 1.2 x ceiling; and an empirical collapse
    witness at eps = 0.5, where reads are independent of the truth and
    recovery must fall below 60%.

    Recovery at 1.2 x ceiling = 0.192 is reported but not asserted. There
    the exact edge-error rates (0.22 / 0.24) are still far from 1/2, which
    they approach only near eps = 0.45; the pipeline's measured collapse
    near eps ~ 0.33-0.36 (recovery 0.78 at 0.33, 0.14 at 0.36) is set by
    the read count n = 200, which the ceiling does not contain, so no
    multiple of the ceiling is a derivable collapse point."""
    t0 = time.time()
    kappa, n, blocks = 100, 200, 1000
    nu = kappa * (1 - ETA)
    thr = spectral_noise_ceiling(kappa, nu)
    assert thr == pytest.approx(0.15995, abs=1e-4)
    zeta_low = spectral_quantities(kappa, ETA, 0.8 * thr, AVERAGE_CASE).zeta
    zeta_high = spectral_quantities(kappa, ETA, 1.2 * thr, AVERAGE_CASE).zeta
    low = _spectral_recovery(0.8 * thr, blocks, 309)
    high = _spectral_recovery(1.2 * thr, blocks, 310)
    blind = _spectral_recovery(0.5, blocks, 310)
    elapsed = time.time() - t0
    ok = (low > 0.99 and zeta_low > 0.0 and zeta_high == 0.0
          and blind < 0.60 and elapsed < 600)
    report(8, "spectral threshold", ok,
           f"ceiling={thr:.4f}; recovery@0.8x={low:.3f} (need > 0.99), "
           f"zeta@0.8x={zeta_low:.3g} (need > 0), zeta@1.2x={zeta_high:.3g} "
           f"(need 0), recovery@1.2x={high:.3f}, "
           f"recovery@eps=0.5={blind:.3f} (need < 0.60)", t0)
    assert elapsed < 600.0
    assert low > 0.99
    assert zeta_low > 0.0
    assert zeta_high == 0.0
    assert blind < 0.60


def test_criterion_09_noiseless_phase_transition():
    """At fixed depth lam L = 43 both bounds fall from above 0.9 to below
    1e-3 within one decade of L, and the upper bound crosses 1e-3 at a
    read length consistent with roughly 110 kbp."""
    t0 = time.time()
    G, M, p = 3 * 10**9, 2, 1e-3
    law = FixedEta(ETA)

    def config(L: float) -> ModelConfig:
        return ModelConfig(G=G, M=M, p=p, L=L, lam=43.0 / L, law=law)

    upper_crit, _ = bisect_decreasing(
        lambda L: clamp01(assembly_upper(config(L))), 1e-3, 1e4, 1e6,
        rtol=1e-4)
    lower_crit, _ = bisect_decreasing(
        lambda L: clamp01(assembly_lower(config(L))), 1e-3, 1e4, 1e6,
        rtol=1e-4)
    low_upper = clamp01(assembly_upper(config(upper_crit / 10.0)))
    low_lower = clamp01(assembly_lower(config(upper_crit / 10.0)))
    elapsed = time.time() - t0
    ok = (1e5 <= upper_crit <= 1.3e5 and low_upper > 0.9
          and low_lower > 0.9 and lower_crit > upper_crit / 10.0
          and elapsed < 60.0)
    report(9, "noiseless phase transition", ok,
           f"upper crosses 1e-3 at L={upper_crit:.3g}, lower at "
           f"L={lower_crit:.3g}; both > 0.9 at L/10", t0)
    assert 1e5 <= upper_crit <= 1.3e5
    assert low_upper > 0.9 and low_lower > 0.9
    # the full fall happens within one decade of read length
    assert upper_crit / 10.0 < lower_crit <= upper_crit
    assert elapsed < 60.0


def test_criterion_09_monte_carlo_at_one_hundredth_scale():
    """Criterion 09's regime at G = 3e7: at lam L = 43 the noiseless trial
    failure rate inside the transition band (L = 40 and 50 kbp) has a 99.9%
    Wilson interval that meets [assembly lower, assembly upper]."""
    t0 = time.time()
    G, M, p = 3 * 10**7, 2, 1e-3
    z = float(stats.norm.ppf(1 - 0.0005))
    details = []
    all_ok = True
    for L in (4e4, 5e4):
        cfg = ModelConfig(G=G, M=M, p=p, L=L, lam=43.0 / L, law=MAF_LAW)
        lower = clamp01(assembly_lower(cfg))
        upper = clamp01(assembly_upper(cfg))
        root = RandomStream(309)
        trials = 40
        fails = sum(not run_noiseless_trial(cfg, root.child(t, "trial")).success
                    for t in range(trials))
        lo_ci, hi_ci = wilson_interval(fails, trials, z)
        ok = lo_ci <= upper and lower <= hi_ci
        all_ok &= ok
        details.append(f"L={L:.0f}: {fails}/{trials} failed, "
                       f"CI=[{lo_ci:.3f},{hi_ci:.3f}] "
                       f"bounds=[{lower:.3f},{upper:.3f}]")
        assert ok, details[-1]
    elapsed = time.time() - t0
    report(9, "monte carlo at 1/100 scale", all_ok and elapsed < 120.0,
           "; ".join(details), t0)
    assert elapsed < 120.0


def test_criterion_10_noisy_ml_region_convergence():
    """The noisy ML critical read length converges to the noiseless one as
    the read density grows. On a ladder lam = 10, 100, 1000, 10000 x the
    depth-saturation knee p (1 - eta) / 2 (the depth beyond which extra
    reads stop helping the noiseless exponent), each rung solves the
    noiseless upper bound at the same lam. For every eps the ratio of
    critical lengths is non-increasing in lam, and at the top rung it lies
    within 0.01 of the analytic limit and inside the 25% band. At 10 x
    knee the ratios are also non-decreasing in eps.

    The limit: as lam -> inf the denoising term vanishes and the ML
    objective becomes (G / d) e^(-r (D - d)) with r = p (1 - eta). Its
    minimum is at D = L, d = 1/r, so the noisy critical length is
    L_0 + 1/r, where the noiseless one solves G r e^(-r L_0) ~ target; the
    ratio tends to 1 + 1/ln(G r / target), about 1.0497 here.

    The 25% band is not asserted at 10 x knee, where the ratios are ~1.39
    (eps = 0.01), ~1.72 (0.1) and ~4.10 (0.3). The denoising term must buy
    r (L - D) ~ 5.4 at rate lam M (1 - e^-D1) <= lam M / 2, so even as
    eps -> 0, where D1 tends to log 2 (criterion 06), the ratio stays near
    1.32: the bound promises convergence only as the read count grows."""
    t0 = time.time()
    G, M, p = 3 * 10**9, 2, 1e-3
    law = FixedEta(ETA)
    r = p * (1 - ETA)
    target = 1e-3
    eps_grid = (0.01, 0.1, 0.3)
    limit = 1.0 + 1.0 / math.log(G * r / target)

    ladder = []
    for mult in (10, 100, 1000, 10000):
        lam = mult * (r / 2.0)

        def noiseless_upper(L: float) -> float:
            return clamp01(assembly_upper(ModelConfig(G=G, M=M, p=p, L=L,
                                                      lam=lam, law=law)))

        base, _ = bisect_decreasing(noiseless_upper, target, 1e4, 1e6,
                                    rtol=1e-4)
        ratios = []
        for eps in eps_grid:
            def noisy(L: float) -> float:
                return noisy_upper_ml(ModelConfig(G=G, M=M, p=p, L=L,
                                                  lam=lam, law=law,
                                                  eps=eps))[0]
            crit, _ = bisect_decreasing(noisy, target, 1e4, 5e6, rtol=1e-4)
            ratios.append(crit / base)
        ladder.append(ratios)
    elapsed = time.time() - t0
    monotone_eps = ladder[0][0] <= ladder[0][1] <= ladder[0][2]
    monotone_lam = all(b <= a for rung, nxt in zip(ladder, ladder[1:])
                       for a, b in zip(rung, nxt))
    top = ladder[-1]
    near_limit = all(abs(rat - limit) <= 0.01 for rat in top)
    within = all(rat <= 1.25 for rat in top)
    rungs = "; ".join(", ".join(f"{x:.3f}" for x in rung) for rung in ladder)
    report(10, "noisy ml region convergence",
           monotone_eps and monotone_lam and near_limit and within,
           f"critical-L ratios vs noiseless at 10/100/1000/10000x knee, "
           f"eps {eps_grid}: {rungs}; limit={limit:.4f} (top within 0.01 "
           f"and <= 1.25); monotone in eps={monotone_eps}, "
           f"in lam={monotone_lam}", t0)
    assert monotone_eps
    assert monotone_lam
    assert elapsed < 120.0
    assert near_limit
    assert within


def test_criterion_11_determinism_across_workers():
    """simulate emits byte-identical CSV for one worker and a full pool."""
    from click.testing import CliRunner
    from poolseq_limits.cli import main as cli_main

    t0 = time.time()
    args = ["simulate", "-O", "G=150000", "-O", "M=2", "-O", "p=0.001",
            "-O", "maf=0.1", "-O", "lambda=0.01", "-O", "L=25000",
            "--trials", "32", "--seed", "42", "--json"]
    workers = max(2, os.cpu_count() or 2)
    paths = []
    for w, name in ((1, "one"), (workers, "many")):
        path = f"/tmp/acceptance_workers_{name}.csv"
        res = CliRunner().invoke(cli_main, [*args, "--workers", str(w),
                                            "--out", path])
        assert res.exit_code == 0, res.output
        paths.append(path)
    same = open(paths[0], "rb").read() == open(paths[1], "rb").read()
    elapsed = time.time() - t0
    report(11, "determinism across workers", same and elapsed < 120,
           f"1 vs {workers} workers byte-identical={same}", t0)
    assert same
    assert elapsed < 120.0


def _poisson_gof(counts: np.ndarray, mu: float) -> float:
    lo, hi = counts.min(), counts.max()
    ks = np.arange(lo, hi + 1)
    expected = stats.poisson.pmf(ks, mu) * counts.size
    observed = np.bincount(counts - lo, minlength=ks.size).astype(float)
    while expected.size > 2 and expected[0] < 5:
        expected[1] += expected[0]
        observed[1] += observed[0]
        expected, observed = expected[1:], observed[1:]
    while expected.size > 2 and expected[-1] < 5:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    expected *= observed.sum() / expected.sum()
    return stats.chisquare(observed, expected).pvalue
