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

Batches of BATCH_TRIALS chains walk in lockstep on arrays. Batch b draws
only from stream.child("bridging_batch", b), a span uniform per trial and
then an (n_active, 4) uniform block per step, so results depend only on
the seed, the trial count and the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, expm1

import numpy as np

from ._util import wilson_interval
from .core import RandomStream, ValidationError

__all__ = ["BridgingEstimate", "sample_region_span", "estimate_bridging"]

MAX_CHAIN_STEPS = 1_000_000
BATCH_TRIALS = 4096
# halvings of [0, G] that bring the span bracket under 1e-12 G
SPAN_BISECTIONS = 40


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


def _span_cdf(ell: np.ndarray, G: float, r: float) -> np.ndarray:
    """CDF of the span between first and last discriminating SNPs given at
    least two of them on [0, G]."""
    gr = G * r
    z = -expm1(-gr) - gr * exp(-gr)
    a = r * (G - ell)
    return ((1.0 + a) * np.exp(-a) - (1.0 + gr) * exp(-gr)) / z


def sample_region_span(G: float, r: float, gen, n: int) -> np.ndarray:
    """n inverse-CDF samples of the discriminating span L_R by bisection."""
    u = gen.random(n)
    lo, hi = np.zeros(n), np.full(n, float(G))
    for _ in range(SPAN_BISECTIONS):
        mid = 0.5 * (lo + hi)
        below = _span_cdf(mid, G, r) < u
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _trunc_exp(u: np.ndarray, rate: float, bound) -> np.ndarray:
    """Exp(rate) conditioned on at most `bound`, by inverse CDF at the
    uniforms u; rate <= 0 gives Uniform(0, bound), bound <= 0 gives 0."""
    bound = np.maximum(bound, 0.0)
    if rate <= 0.0:
        return u * bound
    return -np.log1p(u * np.expm1(-rate * bound)) / rate


def _walk_chains(spans: np.ndarray, L: float, lam: float, r: float,
                 gen: np.random.Generator) -> tuple[int, int, int]:
    """Walk one chain per span in lockstep at absolute positions, the first
    discriminating SNP at 0 and the last at the span. Returns (failures,
    total steps, capped trials).

    Step k takes the last read start in (anchor, target] as the current
    read (for k = 0, the last read containing 0); earlier starts are known
    absent, as the previous read was the last one covering the anchor.
    The next target is the last discriminating SNP in the read's fresh
    territory, past the previous read end: the rest is known empty.
    """
    two_lam = 2.0 * lam
    n = spans.size
    anchor, target, end = np.full(n, -L), np.zeros(n), np.zeros(n)
    failures = steps = 0
    for k in range(MAX_CHAIN_STEPS):
        if spans.size == 0:
            break
        u = gen.random((spans.size, 4))
        gap = target - anchor
        found = u[:, 0] >= np.exp(-two_lam * gap)
        new_end = target - _trunc_exp(u[:, 1], two_lam, gap) + L
        fresh = new_end - end
        # no new anchor means no later read can carry phase past this one
        has_anchor = (fresh > 0.0) & (u[:, 2] >= np.exp(-r * fresh))
        reached = found & (new_end >= spans)
        walking = found & ~reached & has_anchor
        done = spans.size - int(walking.sum())
        failures += done - int(reached.sum())
        # a missing read ends the walk before step k completes
        steps += k * done - min(k, 1) * int((~found).sum())
        next_target = new_end - _trunc_exp(u[:, 3], r, fresh)
        spans, anchor = spans[walking], target[walking]
        target, end = next_target[walking], new_end[walking]
    capped = spans.size
    return failures + capped, steps + MAX_CHAIN_STEPS * capped, capped


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
    totals = np.zeros(3, dtype=np.int64)
    for b, first in enumerate(range(0, trials, BATCH_TRIALS)):
        gen = stream.child("bridging_batch", b).gen
        spans = sample_region_span(G, r, gen, min(BATCH_TRIALS, trials - first))
        totals += _walk_chains(spans, L, lam, r, gen)
    failures, total_steps, capped = (int(v) for v in totals)
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
