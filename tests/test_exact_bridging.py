import math
from math import exp, expm1

import numpy as np
import pytest
from scipy import stats

from poolseq_limits._util import wilson_interval
from poolseq_limits.core import (FixedEta, ModelConfig, RandomStream,
                                 ValidationError)
from poolseq_limits.exact_bridging import (BATCH_TRIALS, MAX_CHAIN_STEPS,
                                           BridgingEstimate, _trunc_exp,
                                           estimate_bridging,
                                           sample_region_span)
from poolseq_limits.noiseless_bounds import bridging_bounds

ETA = 0.82
P = 1e-3
R = P * (1 - ETA)


# Scalar reference: the one-chain-at-a-time estimator the batched walk
# replaced, kept verbatim (names prefixed with `scalar_`) so the two can be
# compared in law. It draws from a stream per trial and per span.

def scalar_trunc_exp(gen: np.random.Generator, rate: float, bound: float) -> float:
    """Sample Exp(rate) conditioned on the value being at most `bound`."""
    if bound <= 0.0:
        return 0.0
    if rate <= 0.0:
        return float(gen.uniform(0.0, bound))
    u = gen.random()
    tail = -math.expm1(-rate * bound)
    return -math.log1p(-u * tail) / rate


def scalar_span_cdf(ell: float, G: float, r: float) -> float:
    """CDF of the span between first and last discriminating SNPs given at
    least two of them on [0, G]."""
    gr = G * r
    z = -expm1(-gr) - gr * exp(-gr)
    a = r * (G - ell)
    num = (1.0 + a) * exp(-a) - (1.0 + gr) * exp(-gr)
    return num / z


def scalar_sample_region_span(G: float, r: float, stream: RandomStream,
                              tol: float = 1e-9) -> float:
    """Inverse-CDF sample of the discriminating span L_R by bisection."""
    u = stream.gen.random()
    lo, hi = 0.0, G
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = scalar_span_cdf(mid, G, r)
        if abs(f_mid - u) <= tol:
            return mid
        if f_mid < u:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * G:
            break
    return 0.5 * (lo + hi)


def scalar_run_chain(L_R: float, L: float, lam: float, r: float,
                     gen) -> tuple[bool, int, bool]:
    """Walk one chain at absolute positions; the first discriminating SNP
    sits at 0 and the last at L_R. Returns (failed, steps, capped).

    Only never-sampled territory is scanned: after drawing an anchor as the
    last discriminating SNP of a window, the stretch from it to the window
    end is known empty, so the next scan starts at the previous read end.
    """
    two_lam = 2.0 * lam
    # initial current read: the last read containing position 0
    if gen.random() < exp(-two_lam * L):
        return True, 0, False
    u = scalar_trunc_exp(gen, two_lam, L)
    end = L - u           # current read end
    anchor = 0.0          # last discriminating SNP known to be in the read
    scanned_to = 0.0      # disc-SNP territory is fresh beyond this point
    steps = 0
    while steps < MAX_CHAIN_STEPS:
        if end >= L_R:
            return False, steps, False
        fresh = end - scanned_to
        # new anchor: last discriminating SNP in (scanned_to, end]; none
        # means no later read can carry phase past the current one
        if fresh <= 0.0 or gen.random() < exp(-r * fresh):
            return True, steps, False
        new_anchor = end - scalar_trunc_exp(gen, r, fresh)
        # next read: last start in (anchor, new_anchor]; earlier starts are
        # known absent because the current read was the last one covering
        # the current anchor
        gap = new_anchor - anchor
        if gen.random() < exp(-two_lam * gap):
            return True, steps, False
        start = new_anchor - scalar_trunc_exp(gen, two_lam, gap)
        scanned_to = end
        end = start + L
        anchor = new_anchor
        steps += 1
    return True, steps, True


def scalar_estimate_bridging(G: float, L: float, lam: float, p: float,
                             eta: float, trials: int,
                             stream: RandomStream) -> BridgingEstimate:
    """Monte Carlo estimate of the two-individual bridging failure rate.

    Each trial samples the discriminating span, then walks the current-read
    chain until it either reaches the last discriminating SNP (success) or
    dies (failure). The estimate scales the conditional failure rate by the
    probability of having at least two discriminating SNPs; the 95%
    interval is the Wilson interval scaled the same way.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    r = p * (1.0 - eta)
    gr = G * r
    prefactor = -expm1(-gr) - gr * exp(-gr) if r > 0.0 else 0.0
    if prefactor <= 0.0:
        return BridgingEstimate(0.0, 0.0, 0.0, 0.0, trials, 0, 0.0, 0)
    failures = 0
    total_steps = 0
    capped = 0
    for t in range(trials):
        gen = stream.child("bridging_trial", t).gen
        span = scalar_sample_region_span(G, r, stream.child("span", t))
        failed, steps, was_capped = scalar_run_chain(span, L, lam, r, gen)
        failures += int(failed)
        total_steps += steps
        capped += int(was_capped)
    lo, hi = wilson_interval(failures, trials)
    return BridgingEstimate(
        estimate=prefactor * failures / trials,
        ci_low=prefactor * lo,
        ci_high=prefactor * hi,
        prefactor=prefactor,
        trials=trials,
        failures=failures,
        mean_steps=total_steps / trials,
        capped_trials=capped,
    )


def test_trunc_exp_distribution():
    """Draws follow Exp(rate) truncated to [0, bound] (the chain's anchor and
    read-start draws)."""
    bound = 8000.0
    gen = RandomStream(5).gen
    draws = _trunc_exp(gen.random(20000), R, bound)
    assert draws.min() >= 0.0 and draws.max() <= bound
    cdf = lambda x: (-np.expm1(-R * x)) / (-np.expm1(-R * bound))
    assert stats.kstest(draws, cdf).pvalue > 0.01


def test_trunc_exp_edges():
    gen = RandomStream(7).gen
    assert _trunc_exp(gen.random(3), R, 0.0).tolist() == [0.0] * 3
    assert _trunc_exp(gen.random(3), R, -5.0).tolist() == [0.0] * 3
    draws = _trunc_exp(gen.random(5000), 0.0, 300.0)
    assert stats.kstest(draws, stats.uniform(0.0, 300.0).cdf).pvalue > 0.01
    draws = _trunc_exp(gen.random(2000), -1.0, 300.0)
    assert stats.kstest(draws, stats.uniform(0.0, 300.0).cdf).pvalue > 0.01
    # per-element bounds, zero and negative ones included
    bounds = np.array([0.0, -1.0, 50.0, 8000.0])
    draws = _trunc_exp(gen.random(4), R, bounds)
    assert draws[:2].tolist() == [0.0, 0.0]
    assert (draws[2:] >= 0.0).all() and (draws[2:] <= bounds[2:]).all()


def test_region_span_sampler_matches_density():
    """Kolmogorov-Smirnov against the analytic span CDF."""
    G = 2e6
    gr = G * R
    z = -math.expm1(-gr) - gr * math.exp(-gr)

    def cdf(ell):
        a = R * (G - np.asarray(ell))
        return ((1 + a) * np.exp(-a) - (1 + gr) * math.exp(-gr)) / z

    draws = sample_region_span(G, R, RandomStream(11).gen, 4000)
    assert draws.min() >= 0.0 and draws.max() <= G
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
    rep = bridging_bounds(ModelConfig(G=G, M=2, p=P, L=L, lam=lam,
                                      law=FixedEta(ETA)))
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


def _runs(estimator, args, seed: int, runs: int, trials: int):
    """`runs` independent estimates: pooled failures and per-run mean steps."""
    out = [estimator(*args, trials, RandomStream(seed).child(i))
           for i in range(runs)]
    assert all(e.capped_trials == 0 for e in out)
    return sum(e.failures for e in out), np.array([e.mean_steps for e in out])


@pytest.mark.parametrize("G,L,lam,p,eta", [
    (2e6, 45000.0, 1e-2, P, ETA),   # criterion 03's middle point
    (2e6, 28000.0, 1e-2, P, ETA),   # about 90% of trials fail
    (5e5, 5000.0, 5e-2, 1e-2, ETA),  # about 100 steps per chain
])
def test_batched_walk_matches_scalar_chain(G, L, lam, p, eta):
    """The lockstep walk and the scalar chain agree in law: 50,000 trials
    each, as ten runs of 5,000. Failure counts overlap at 95% (Wilson) and
    mean steps agree within four standard errors of the run means."""
    runs, trials = 10, 5000
    args = (G, L, lam, p, eta)
    f_new, m_new = _runs(estimate_bridging, args, 40, runs, trials)
    f_ref, m_ref = _runs(scalar_estimate_bridging, args, 41, runs, trials)
    n = runs * trials
    lo_new, hi_new = wilson_interval(f_new, n)
    lo_ref, hi_ref = wilson_interval(f_ref, n)
    assert lo_new <= hi_ref and lo_ref <= hi_new, (f_new, f_ref)
    se = math.sqrt((m_new.var(ddof=1) + m_ref.var(ddof=1)) / runs)
    assert abs(m_new.mean() - m_ref.mean()) <= 4 * se, \
        (m_new.mean(), m_ref.mean(), se)


def test_no_reads_fail_every_trial_at_step_zero():
    for estimator in (estimate_bridging, scalar_estimate_bridging):
        res = estimator(2e6, 45000.0, 0.0, P, ETA, 300, RandomStream(3))
        assert res.failures == 300 and res.mean_steps == 0.0
        assert res.estimate == res.prefactor


@pytest.mark.parametrize("p,eta", [(P, 1.0), (0.0, ETA), (1e-12, ETA)])
def test_no_discriminating_snps_gives_zero(p, eta):
    """eta = 1 and p = 0 have no discriminating SNPs; at p = 1e-12 two of
    them are so unlikely that the estimate is 0 to within 1e-12."""
    res = estimate_bridging(2e6, 45000.0, 1e-2, p, eta, 300, RandomStream(4))
    assert res.estimate == pytest.approx(0.0, abs=1e-12)
    assert res.ci_high <= 1e-12 and res.capped_trials == 0


@pytest.mark.parametrize("trials", [
    1, BATCH_TRIALS - 1, BATCH_TRIALS, BATCH_TRIALS + 1, 2 * BATCH_TRIALS + 7])
def test_trial_counts_around_the_batch_size(trials):
    """Any trial count runs and the same seed repeats the estimate exactly.
    Batch b always draws from the same stream, so a run shares its whole
    batches with any longer run and its last partial batch only adds."""
    args = (2e6, 45000.0, 1e-2, P, ETA)
    res = estimate_bridging(*args, trials, RandomStream(5))
    assert res == estimate_bridging(*args, trials, RandomStream(5))
    assert res.trials == trials and res.capped_trials == 0
    steps = res.mean_steps * trials
    assert steps == round(steps)
    whole = trials // BATCH_TRIALS * BATCH_TRIALS
    if whole:
        base = estimate_bridging(*args, whole, RandomStream(5))
        assert base.failures <= res.failures <= base.failures + trials - whole
        assert base.mean_steps * whole <= steps
