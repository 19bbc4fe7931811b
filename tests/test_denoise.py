import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from poolseq_limits import denoise
from poolseq_limits._util import hamming, pack_rows, unpack_rows
from poolseq_limits.core import CapacityError, RandomStream, ValidationError
from poolseq_limits.denoise import (RESEED_ATTEMPTS, DenoiseBlock,
                                    build_correlation_graph, majority_vote,
                                    ml_denoise, spectral_denoise)
from poolseq_limits.noisy_bounds import (EXPONENT_KAPPA_CAP,
                                         mixture_distribution)


def hset(*rows):
    return np.array(rows)


def observation_likelihood(phi, h, eps):
    """Probability of one observation row phi under hypothesis set h."""
    return float(mixture_distribution(h, eps)[pack_rows([phi])[0]])


def make_block(truth, n, eps, gen, kappa=None):
    truth = np.asarray(truth, dtype=np.int8)
    M, k = truth.shape
    who = gen.integers(0, M, size=n)
    obs = truth[who]
    obs = np.where(gen.random(obs.shape) < eps, -obs, obs).astype(np.int8)
    return DenoiseBlock(observations=obs, M=M, eps=eps)


def test_hypothesis_set_validation():
    """A hypothesis set is a non-empty (M, kappa) matrix of distinct +-1
    rows; its members are summed in code order, whatever their row order."""
    for bad in (hset((1, 1), (1, 1)), hset((1, 0)), hset((1, 2)),
                np.array([1, -1]), np.empty((0, 2))):
        with pytest.raises(ValidationError):
            mixture_distribution(bad, 0.1)
    with pytest.raises(CapacityError):
        mixture_distribution(np.ones((1, EXPONENT_KAPPA_CAP + 1)), 0.1)
    np.testing.assert_array_equal(
        mixture_distribution(hset((1, -1), (-1, -1)), 0.1),
        mixture_distribution(hset((-1, -1), (1, -1)), 0.1))


def test_likelihood_noiseless_mixture():
    h = hset((1, 1, -1), (-1, 1, 1))
    assert observation_likelihood((1, 1, -1), h, 0.0) == pytest.approx(0.5)
    assert observation_likelihood((1, 1, 1), h, 0.0) == 0.0


def test_likelihood_symmetric_single_locus():
    h = hset((1,), (-1,))
    for phi in ((1,), (-1,)):
        assert observation_likelihood(phi, h, 0.3) == pytest.approx(0.5)


def test_likelihood_sums_to_one():
    h = hset((1, -1, 1), (-1, -1, -1), (1, 1, 1))
    total = sum(observation_likelihood(phi, h, 0.2)
                for phi in unpack_rows(range(8), 3))
    assert total == pytest.approx(1.0)


def test_ml_recovers_truth_noiseless():
    truth = ((1, -1, 1), (-1, 1, 1))
    gen = np.random.default_rng(0)
    block = make_block(truth, 30, 0.0, gen)
    assert ml_denoise(block).tolist() == sorted(map(list, truth))


def test_ml_errors():
    block = DenoiseBlock(observations=np.empty((0, 2), np.int8),
                         M=2, eps=0.1)
    with pytest.raises(ValidationError):
        ml_denoise(block)
    # one read leaves C(14, 5) = 2002 sets tied at the best score, too many
    # for the search to tell apart within its node budget
    big = DenoiseBlock(observations=np.ones((1, 14), np.int8),
                       M=6, eps=0.1)
    with pytest.raises(CapacityError, match="budget"):
        ml_denoise(big)


def test_block_rejects_non_unit_alleles():
    """Values are checked as given, before the int8 cast that would wrap
    255 to -1; eps must lie in [0, 0.5], and M and kappa be at least 1."""
    for bad in (0, 2, 127, -128):
        obs = np.array([[1, -1], [bad, 1]], np.int8)
        with pytest.raises(ValidationError, match="-1/\\+1"):
            DenoiseBlock(observations=obs, M=2, eps=0.1)
    for bad in (255, -129, 1.5):
        with pytest.raises(ValidationError, match="-1/\\+1"):
            DenoiseBlock(observations=[[bad, 1], [1, -1]], M=2,
                         eps=0.1)
    for eps in (1.2, float("nan")):
        with pytest.raises(ValidationError, match="eps"):
            DenoiseBlock(observations=[[1, -1]], M=2, eps=eps)
    for M in (0, -1):
        with pytest.raises(ValidationError, match="M must be"):
            DenoiseBlock(observations=[[1, -1]], M=M, eps=0.1)
    for obs in (np.empty((3, 0), np.int8), np.empty((0, 0), np.int8)):
        with pytest.raises(ValidationError, match="kappa must be"):
            DenoiseBlock(observations=obs, M=2, eps=0.1)
    DenoiseBlock(observations=np.array([[1, -1]], np.int8), M=2,
                 eps=0.1)


def test_ml_rejects_more_individuals_than_sequences():
    """One SNP carries two possible sequences, so no 3-subset exists."""
    block = DenoiseBlock(observations=np.array([[1], [-1]], np.int8),
                         M=3, eps=0.1)
    with pytest.raises(ValidationError, match="fewer than M=3"):
        ml_denoise(block)


def test_ml_uninformative_channel_matches_baseline():
    """At eps = 0.5 the lexicographic tie-break returns a fixed set, so the
    hit rate over random truths is the 1 / C(2^kappa, M) baseline."""
    gen = np.random.default_rng(1)
    M, kappa, trials = 2, 3, 2000
    hits = 0
    for _ in range(trials):
        while True:
            truth = np.where(gen.random((M, kappa)) < 0.5, 1, -1).astype(np.int8)
            if len({r.tobytes() for r in truth}) == M:
                break
        block = make_block(truth, 20, 0.5, gen)
        out = ml_denoise(block)
        hits += {r.tobytes() for r in out} == {r.tobytes() for r in truth}
    base = 1.0 / 28.0
    sigma = (base * (1 - base) / trials) ** 0.5
    assert abs(hits / trials - base) < 4 * sigma


def _exact_log_likelihood(block, members):
    """Rational-arithmetic likelihood oracle for a set of member rows (eps
    must be a nice fraction)."""
    eps = Fraction(block.eps).limit_denominator(1000)
    x = eps / (1 - eps)
    total = Fraction(1)
    for row in block.observations:
        mix = Fraction(0)
        for member in members:
            rho = sum(int(a != b) for a, b in zip(row, member))
            mix += x ** rho
        total *= mix
    return total


# candidate sets the scalar reference enumerates at most
SCALAR_REFERENCE_CAP = 10_000_000


def scalar_ml_denoise(block: DenoiseBlock) -> np.ndarray:
    """Reference: the one-candidate-at-a-time ML loop that ml_denoise must
    reproduce exactly, ties and rounding included."""
    if block.n == 0:
        raise ValidationError("cannot denoise a block with no observations")
    kappa, M = block.kappa, block.M
    if M > 1 << kappa:
        raise ValidationError(f"{kappa} SNPs carry fewer than M={M} sequences")
    n_cand = comb(1 << kappa, M)
    if n_cand > SCALAR_REFERENCE_CAP:
        raise CapacityError(
            f"ML enumeration needs {n_cand} candidates "
            f"(cap {SCALAR_REFERENCE_CAP})")
    x = block.eps / (1.0 - block.eps)
    distinct, counts = np.unique(pack_rows(block.observations),
                                 return_counts=True)
    xpow = x ** hamming(distinct, np.arange(1 << kappa)).astype(float)
    best_ll = -np.inf
    best: tuple[int, ...] | None = None
    with np.errstate(divide="ignore"):
        for cand in combinations(range(1 << kappa), M):
            mix = xpow[:, cand].sum(axis=1)  # constants drop out of the argmax
            ll = float(counts @ np.log(mix))
            if best is None or ll > best_ll:
                best_ll, best = ll, cand
    return unpack_rows(best, kappa)


ML_EXACT_EPS = (0.0, 0.01, 0.1, 0.3, 0.45, 0.5)


def random_ml_block(seed: int, mirrored: bool = False,
                    max_candidates: int = 560) -> DenoiseBlock:
    """A seeded block with kappa 1-7, M 1-4 and n 1-120 rows; M is lowered
    until C(2^kappa, M) <= max_candidates, which bounds the reference
    loop's time. A mirrored block holds each row together with its
    complement, so every candidate set ties exactly with its complemented
    set."""
    gen = np.random.default_rng(seed)
    kappa = int(gen.integers(1, 8))
    M = int(gen.integers(1, min(4, 1 << kappa) + 1))
    while comb(1 << kappa, M) > max_candidates:
        M -= 1
    eps = float(gen.choice(ML_EXACT_EPS))
    n = int(gen.integers(1, 121))
    truth = np.where(gen.random((M, kappa)) < 0.5, 1, -1).astype(np.int8)
    obs = truth[gen.integers(0, M, size=n)]
    obs = np.where(gen.random(obs.shape) < eps, -obs, obs).astype(np.int8)
    if mirrored:
        obs = np.concatenate([obs[: (n + 1) // 2], -obs[: (n + 1) // 2]])
    return DenoiseBlock(observations=obs, M=M, eps=eps)


def test_ml_matches_scalar_reference():
    """The chunked matrix pass returns the scalar loop's set on 3,000
    random blocks and 600 mirror-tied ones; one block in 20 may have up
    to C(128, 2) = 8,128 candidates (kappa = 7, M = 2)."""
    blocks = [random_ml_block(s, mirrored=s >= 3000,
                              max_candidates=8128 if s % 20 == 0 else 560)
              for s in range(3600)]
    assert {b.eps for b in blocks} == set(ML_EXACT_EPS)
    assert {(b.kappa, b.M) for b in blocks} >= {(7, 2), (6, 2), (5, 3),
                                                (4, 4), (1, 1)}
    for b in blocks:
        np.testing.assert_array_equal(ml_denoise(b), scalar_ml_denoise(b))


def test_ml_ties_resolve_to_first_candidate():
    """At eps = 0 a set either explains every row (score log 1 = 0) or
    scores -inf. Three equal rows tie every 3-set holding that row; the
    rows +1+1 and -1-1 leave no single sequence explaining both, so every
    set scores -inf. Both return the first such set."""
    lone = DenoiseBlock(observations=np.ones((3, 4), np.int8),
                        M=3, eps=0.0)
    none = DenoiseBlock(observations=np.array([[1, 1], [-1, -1]], np.int8),
                        M=1, eps=0.0)
    assert ml_denoise(lone).tolist() == [[-1, -1, -1, -1], [-1, -1, -1, 1],
                                         [1, 1, 1, 1]]
    assert ml_denoise(none).tolist() == [[-1, -1]]
    for block in (lone, none):
        np.testing.assert_array_equal(ml_denoise(block),
                                      scalar_ml_denoise(block))


@pytest.mark.parametrize("chunk_values", [1, 5, 64])
def test_ml_matches_scalar_reference_across_chunks(monkeypatch, chunk_values):
    """A chunk budget below the distinct-row count gives one candidate per
    chunk; small budgets split every block into many chunks."""
    monkeypatch.setattr(denoise, "ML_CHUNK_VALUES", chunk_values)
    for seed in range(0, 3600, 24):
        b = random_ml_block(seed, mirrored=seed >= 3000)
        np.testing.assert_array_equal(ml_denoise(b), scalar_ml_denoise(b))


def test_ml_search_matches_scalar_reference(monkeypatch):
    """With no block enumerated, the branch and bound search returns the
    scalar loop's set on the blocks of both reference tests above."""
    monkeypatch.setattr(denoise, "ML_ENUMERATION_MAX", 0)
    blocks = [random_ml_block(s, mirrored=s >= 3000,
                              max_candidates=8128 if s % 20 == 0 else 560)
              for s in range(3600)]
    blocks += [random_ml_block(s, mirrored=s >= 3000)
               for s in range(0, 3600, 24)]
    for b in blocks:
        np.testing.assert_array_equal(ml_denoise(b), scalar_ml_denoise(b))


def planted_block(kappa: int, n: int, maf: float, seed: int):
    """Two distinct planted truths of kappa SNPs (each allele +1 with
    probability maf) and n reads of them at eps = 0.1."""
    gen = RandomStream(seed).child(kappa, n).gen
    while True:
        truth = np.where(gen.random((2, kappa)) < maf, 1, -1).astype(np.int8)
        if (truth[0] != truth[1]).any():
            break
    obs = truth[gen.integers(0, 2, size=n)]
    obs = np.where(gen.random(obs.shape) < 0.1, -obs, obs).astype(np.int8)
    return truth, DenoiseBlock(observations=obs, M=2, eps=0.1)


@pytest.mark.parametrize("kappa,n,maf,decoded", [
    (13, 55, 0.1, (128, 5128)),
    (15, 300, 0.5, (13478, 19406)),
    (17, 120, 0.1, (528, 1025)),
    (19, 200, 0.5, (24277, 459863)),
    (21, 80, 0.1, (64, 8320)),
    (23, 150, 0.5, (3569802, 7099775)),
    (25, 100, 0.1, (513, 4194304)),
    (27, 55, 0.1, (1057296, 4293632)),
])
def test_ml_decodes_planted_blocks_above_the_old_cap(kappa, n, maf,
                                                     decoded):
    """Blocks with more than 1e7 candidate sets, which enumeration refused,
    decode to their recorded sets, here the planted truths."""
    assert comb(1 << kappa, 2) > 10_000_000
    truth, block = planted_block(kappa, n, maf, 28)
    got = tuple(pack_rows(ml_denoise(block)).tolist())
    assert got == decoded
    assert got == tuple(sorted(pack_rows(truth).tolist()))


def test_ml_search_refuses_past_its_limits(monkeypatch):
    """The search refuses more than 2^10 children per node, and a block
    that needs more nodes than the budget; neither decodes part-way."""
    many = DenoiseBlock(observations=np.ones((3, 5), np.int8), M=11,
                        eps=0.1)
    with pytest.raises(CapacityError, match="M <= 10"):
        ml_denoise(many)
    _, block = planted_block(27, 55, 0.1, 28)
    monkeypatch.setattr(denoise, "ML_NODE_BUDGET", 5)
    with pytest.raises(CapacityError, match="budget of 5 nodes"):
        ml_denoise(block)


def test_ml_memory_is_bounded_by_chunk():
    """kappa = 10, M = 2 has 523,776 candidates; decoding them holds
    neither every candidate set nor every score."""
    gen = np.random.default_rng(11)
    truth = np.where(gen.random((2, 10)) < 0.5, 1, -1).astype(np.int8)
    block = make_block(truth, 60, 0.1, gen)
    assert comb(1 << 10, 2) == 523_776
    tracemalloc.start()
    try:
        ml_denoise(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_ml_argmax_matches_rational_oracle():
    """Exhaustive comparison of the selected set against exact arithmetic."""
    gen = np.random.default_rng(2)
    M, kappa = 2, 3
    for _ in range(25):
        while True:
            truth = np.where(gen.random((M, kappa)) < 0.5, 1, -1).astype(np.int8)
            if len({r.tobytes() for r in truth}) == M:
                break
        block = make_block(truth, 12, 0.25, gen)
        got = ml_denoise(block)
        got_val = _exact_log_likelihood(block, got)
        for cand in combinations(range(1 << kappa), M):
            assert _exact_log_likelihood(block, unpack_rows(cand, kappa)) \
                <= got_val


def test_ml_permutation_equivariance():
    gen = np.random.default_rng(3)
    truth = ((1, -1, 1, -1), (-1, 1, 1, 1))
    block = make_block(truth, 25, 0.2, gen)
    out = ml_denoise(block)
    perm = [2, 0, 3, 1]
    block2 = DenoiseBlock(observations=block.observations[:, perm],
                          M=2, eps=0.2)
    out2 = ml_denoise(block2)
    # rows come back in lexicographic order
    assert out2.tolist() == sorted(out[:, perm].tolist())
    # row order is irrelevant
    block3 = DenoiseBlock(observations=block.observations[::-1],
                          M=2, eps=0.2)
    np.testing.assert_array_equal(ml_denoise(block3), out)


def test_correlation_graph_edges():
    rows = np.array([[1, 1, 1, 1], [1, 1, 1, 1], [-1, -1, -1, -1]], np.int8)
    block = DenoiseBlock(observations=rows, M=2, eps=0.0)
    A = build_correlation_graph(block)
    # correlations 1 within the first two rows, -1 against the third
    np.testing.assert_array_equal(A, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])


def test_correlation_expectation_matches_formula():
    """E[C_ij] = (1 - 2 nu / kappa)(1 - 2 eps)^2 for planted distance nu."""
    gen = np.random.default_rng(4)
    kappa, nu, eps, reps = 64, 12, 0.15, 3000
    base = np.full(kappa, -1, np.int8)
    other = base.copy()
    other[:nu] *= -1
    vals = np.empty(reps)
    for i in range(reps):
        a = np.where(gen.random(kappa) < eps, -base, base)
        b = np.where(gen.random(kappa) < eps, -other, other)
        vals[i] = a @ b / kappa
    expect = (1 - 2 * nu / kappa) * (1 - 2 * eps) ** 2
    sigma = vals.std(ddof=1) / reps ** 0.5
    assert abs(vals.mean() - expect) < 3 * sigma


def test_majority_vote_rules():
    assert majority_vote(np.array([[1, -1, 1]], np.int8)).tolist() == [1, -1, 1]
    rows = np.array([[1, 1], [1, -1], [-1, -1]], np.int8)
    assert majority_vote(rows).tolist() == [1, -1]
    ties = np.array([[1, -1], [-1, 1]], np.int8)
    assert majority_vote(ties).tolist() == [-1, -1]
    with pytest.raises(ValidationError):
        majority_vote(np.empty((0, 3), np.int8))


def test_majority_vote_error_within_chernoff_budget():
    """Per-bit flip-through rate stays under the Binomial-tail Chernoff
    bound exp(-n (1-2 eps)^2 / (8 eps (1-eps)))."""
    gen = np.random.default_rng(5)
    n, eps, reps, kappa = 25, 0.2, 4000, 16
    truth = np.where(gen.random(kappa) < 0.5, 1, -1).astype(np.int8)
    wrong = 0
    for _ in range(reps):
        rows = np.tile(truth, (n, 1))
        rows = np.where(gen.random(rows.shape) < eps, -rows, rows)
        wrong += int((majority_vote(rows) != truth).sum())
    per_bit = wrong / (reps * kappa)
    budget = np.exp(-n * (1 - 2 * eps) ** 2 / (8 * eps * (1 - eps)))
    assert per_bit <= budget


def test_spectral_exact_recovery_noiseless():
    gen = np.random.default_rng(6)
    truth = np.array([[1] * 8, [-1] * 8], np.int8)
    block = make_block(truth, 20, 0.0, gen)
    res = spectral_denoise(block, stream=RandomStream(0))
    assert not res.degraded
    assert {r.tobytes() for r in res.sequences} == {r.tobytes() for r in truth}


def test_spectral_worst_case_recovery_small_distance():
    """nu = 1 and eps = 0: the worst-case threshold still separates."""
    gen = np.random.default_rng(7)
    truth = np.array([[1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, -1]], np.int8)
    block = make_block(truth, 24, 0.0, gen)
    res = spectral_denoise(block, mode="worst_case", stream=RandomStream(1))
    assert {r.tobytes() for r in res.sequences} == {r.tobytes() for r in truth}


def test_spectral_deterministic():
    gen = np.random.default_rng(8)
    truth = np.where(gen.random((2, 40)) < 0.1, 1, -1).astype(np.int8)
    block = make_block(truth, 60, 0.2, gen)
    a = spectral_denoise(block, mode="average_case", eta=0.82,
                         stream=RandomStream(2))
    b = spectral_denoise(block, mode="average_case", eta=0.82,
                         stream=RandomStream(2))
    np.testing.assert_array_equal(a.sequences, b.sequences)
    np.testing.assert_array_equal(a.labels, b.labels)


@pytest.mark.parametrize("kappa,n,eps,M,mode", [
    (4, 60, 0.1, 2, "worst_case"),
    (8, 80, 0.05, 3, "worst_case"),
    (16, 120, 0.02, 2, "average_case"),
    (100, 200, 0.2, 2, "average_case"),
])
def test_spectral_embedding_is_full_top_eigenspace(kappa, n, eps, M, mode):
    """The embedding built on distinct rows spans the top-M eigenspace of
    the full n x n graph wherever that space is well defined."""
    root = RandomStream(31)
    checked = 0
    for b in range(40):
        gen = root.child(kappa, b).gen
        truth = np.where(gen.random((M, kappa)) < 0.3, 1, -1).astype(np.int8)
        block = make_block(truth, n, eps, gen)
        distinct = len({r.tobytes() for r in block.observations})
        if kappa == 100:
            assert distinct == n
        else:
            assert distinct < n / 2
        w, V = np.linalg.eigh(build_correlation_graph(
            block, mode=mode, eta=0.82).astype(float))
        if w[-M] - w[-M - 1] < 0.5:
            continue
        checked += 1
        E = denoise._spectral_embedding(block, mode, 0.82)
        assert E.shape == (n, M)
        np.testing.assert_allclose(E.T @ E, np.eye(M), atol=1e-9)
        np.testing.assert_allclose(E @ E.T, V[:, -M:] @ V[:, -M:].T,
                                   atol=1e-9)
    assert checked >= 20


@pytest.mark.parametrize("rows,M", [
    ([[1, -1, 1, 1]] * 6, 2),
    ([[1, -1, 1, 1]] * 4 + [[-1, -1, 1, -1]] * 5, 3),
])
def test_spectral_fewer_distinct_rows_than_m_is_degraded(rows, M):
    """Fewer than M distinct rows give fewer than M embedding columns; every
    Lloyd attempt empties a cluster and the block comes back degraded."""
    block = DenoiseBlock(observations=np.array(rows, np.int8), M=M,
                         eps=0.1)
    res = spectral_denoise(block, stream=RandomStream(0))
    assert res.degraded
    assert res.reseeds == RESEED_ATTEMPTS
    assert res.sequences.shape == (M, 4)


def test_spectral_needs_enough_observations():
    block = DenoiseBlock(observations=np.ones((1, 4), np.int8),
                         M=2, eps=0.1)
    with pytest.raises(ValidationError):
        spectral_denoise(block, stream=RandomStream(0))


def test_spectral_recovery_transition_at_scale():
    """Behavioral transition of the full spectral pipeline at kappa = 100,
    n = 200 planted blocks: essentially perfect recovery at eps = 0.24 and
    collapse by eps = 0.36. (The analytic noise ceiling of ~0.16 for these
    parameters is a conservative sufficient condition; the measured
    transition sits considerably above it.)"""
    def recovery(eps, blocks, seed):
        root = RandomStream(seed)
        hits = 0
        for b in range(blocks):
            gen = root.child(b, "blk").gen
            while True:
                truth = np.where(gen.random((2, 100)) < 0.1, 1,
                                 -1).astype(np.int8)
                if len({r.tobytes() for r in truth}) == 2:
                    break
            obs = truth[gen.integers(0, 2, size=200)]
            obs = np.where(gen.random(obs.shape) < eps, -obs,
                           obs).astype(np.int8)
            block = DenoiseBlock(observations=obs, M=2, eps=eps)
            res = spectral_denoise(block, mode="average_case", eta=0.82,
                                   stream=root.child(b, "sp"))
            hits += {r.tobytes() for r in res.sequences} == \
                {r.tobytes() for r in truth}
        return hits / blocks

    assert recovery(0.24, 150, 71) > 0.99
    assert recovery(0.36, 150, 72) < 0.60
