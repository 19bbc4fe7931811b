"""High-precision two-individual bridging failure estimator.

Bridging fails when some identical region between consecutive
discriminating SNPs (rate r = p(1-eta)) is spanned by no read from either
individual (combined read rate 2 lambda). The estimator walks the genome
through a coupled Markov chain over "current reads": the current read is
the last read containing the current anchor SNP; each step scans the fresh
territory of the current read for a new anchor (no anchor means failure,
since no later read can reach past the current one) and then looks for a
later read containing it. Conditioning on the span L_R between the first
and last discriminating SNPs makes each trial exact for the stationary
read model, so the estimate referees the closed-form lower and upper
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, expm1

from ._util import trunc_exp, wilson_interval
from .core import RandomStream, ValidationError

__all__ = [
    "BridgingEstimate",
    "sample_region_span",
    "estimate_bridging",
]

MAX_CHAIN_STEPS = 1_000_000


@dataclass(frozen=True)
class BridgingEstimate:
    estimate: float
    ci_low: float
    ci_high: float
    prefactor: float
    trials: int
    failures: int
    mean_steps: float
    capped_trials: int


def _span_cdf(ell: float, G: float, r: float) -> float:
    """CDF of the span between first and last discriminating SNPs given at
    least two of them on [0, G]."""
    gr = G * r
    z = -expm1(-gr) - gr * exp(-gr)
    a = r * (G - ell)
    num = (1.0 + a) * exp(-a) - (1.0 + gr) * exp(-gr)
    return num / z


def sample_region_span(G: float, r: float, stream: RandomStream,
                       tol: float = 1e-9) -> float:
    """Inverse-CDF sample of the discriminating span L_R by bisection."""
    u = stream.gen.random()
    lo, hi = 0.0, G
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = _span_cdf(mid, G, r)
        if abs(f_mid - u) <= tol:
            return mid
        if f_mid < u:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * G:
            break
    return 0.5 * (lo + hi)


def _run_chain(L_R: float, L: float, lam: float, r: float,
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
    u = trunc_exp(gen, two_lam, L)
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
        new_anchor = end - trunc_exp(gen, r, fresh)
        # next read: last start in (anchor, new_anchor]; earlier starts are
        # known absent because the current read was the last one covering
        # the current anchor
        gap = new_anchor - anchor
        if gen.random() < exp(-two_lam * gap):
            return True, steps, False
        start = new_anchor - trunc_exp(gen, two_lam, gap)
        scanned_to = end
        end = start + L
        anchor = new_anchor
        steps += 1
    return True, steps, True


def estimate_bridging(G: float, L: float, lam: float, p: float, eta: float,
                      trials: int, stream: RandomStream) -> BridgingEstimate:
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
        span = sample_region_span(G, r, stream.child("span", t))
        failed, steps, was_capped = _run_chain(span, L, lam, r, gen)
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
