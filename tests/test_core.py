import zlib

import numpy as np
import pytest
from scipy import stats

from poolseq_limits.core import (Empirical, FixedBiallelic, FixedEta,
                                 ModelConfig, RandomStream, ValidationError,
                                 sample_poisson_positions)


def test_eta_biallelic_examples():
    assert FixedBiallelic(0.1).eta == pytest.approx(0.82)
    assert FixedBiallelic(0.0).eta == 1.0


def test_eta_uniform_four_ary():
    law = Empirical(((0.25, 0.25, 0.25, 0.25),))
    assert law.eta == pytest.approx(0.25)


def test_eta_empirical_mean_over_vectors():
    law = Empirical(((1.0, 0.0, 0.0, 0.0), (0.25, 0.25, 0.25, 0.25)))
    assert law.eta == pytest.approx((1.0 + 0.25) / 2)


def test_eta_fixed_passthrough():
    assert FixedEta(0.7).eta == 0.7


def test_bad_frequency_vector_rejected():
    with pytest.raises(ValidationError):
        Empirical(((0.5, 0.5, 0.1, 0.0),))
    with pytest.raises(ValidationError):
        Empirical(((0.5, 0.5, -0.1, 0.1),))
    with pytest.raises(ValidationError):
        FixedBiallelic(0.7)


def test_model_config_validation():
    law = FixedBiallelic(0.1)
    with pytest.raises(ValidationError):
        ModelConfig(G=0, M=2, p=1e-3, L=100.0, lam=0.01, law=law)
    with pytest.raises(ValidationError):
        ModelConfig(G=100, M=0, p=1e-3, L=100.0, lam=0.01, law=law)
    with pytest.raises(ValidationError):
        ModelConfig(G=100, M=2, p=1.5, L=100.0, lam=0.01, law=law)
    with pytest.raises(ValidationError):
        ModelConfig(G=100, M=2, p=1e-3, L=100.0, lam=0.01, law=law, eps=0.6)
    cfg = ModelConfig(G=100, M=2, p=1e-3, L=100.0, lam=0.01, law=law, eps=0.5)
    assert cfg.eps == 0.5  # the uninformative channel is legal
    assert cfg.disc_rate == pytest.approx(1e-3 * 0.18)


def test_zero_rate_positions_empty():
    pos = sample_poisson_positions(0.0, 1e6, RandomStream(0))
    assert pos.size == 0


def test_positions_strictly_increasing():
    pos = sample_poisson_positions(1e-2, 1e5, RandomStream(1))
    assert (np.diff(pos) > 0).all()
    assert pos.min() >= 0.0 and pos.max() < 1e5


def test_positions_drop_duplicate_draws():
    """Tied uniforms are merged, so positions stay strictly increasing."""
    class DuplicatingGen:
        def poisson(self, mu):
            return 5

        def uniform(self, lo, hi, n):
            return np.array([3.0, 1.0, 3.0, 2.0, 1.0])[:n]

    stream = type("Stub", (), {"gen": DuplicatingGen()})()
    pos = sample_poisson_positions(1.0, 10.0, stream)
    np.testing.assert_array_equal(pos, [1.0, 2.0, 3.0])


def test_position_counts_poisson_gof():
    """Counts over repeated draws match the Poisson pmf (chi-square GOF)."""
    rate, length, draws = 1e-3, 1e6, 10000
    root = RandomStream(42)
    counts = np.array([
        sample_poisson_positions(rate, length, root.child(i)).size
        for i in range(draws)])
    mu = rate * length
    assert counts.mean() == pytest.approx(mu, rel=0.02)
    assert counts.var() == pytest.approx(mu, rel=0.05)
    pval = _poisson_gof(counts, mu)
    assert pval > 0.01


def test_thinned_positions_match_reduced_rate():
    """Keeping each point with probability 0.18 matches Poisson at 0.18*rate."""
    rate, length, keep, draws = 1e-3, 1e6, 0.18, 4000
    root = RandomStream(7)
    counts = np.empty(draws, dtype=int)
    for i in range(draws):
        st = root.child(i)
        pos = sample_poisson_positions(rate, length, st)
        counts[i] = (st.child("keep").gen.random(pos.size) < keep).sum()
    pval = _poisson_gof(counts, keep * rate * length)
    assert pval > 0.01


def test_superposition_indistinguishable_from_single_process():
    """Merging two independent processes matches one at the summed rate."""
    r1, r2, length, draws = 4e-4, 6e-4, 1e6, 3000
    root = RandomStream(13)
    counts = np.empty(draws, dtype=int)
    gaps = []
    for i in range(draws):
        a = sample_poisson_positions(r1, length, root.child(i, "a"))
        b = sample_poisson_positions(r2, length, root.child(i, "b"))
        merged = np.sort(np.concatenate([a, b]))
        counts[i] = merged.size
        if i < 200:
            gaps.append(np.diff(merged))
    assert _poisson_gof(counts, (r1 + r2) * length) > 0.01
    gaps = np.concatenate(gaps)
    ks = stats.kstest(gaps, "expon", args=(0, 1.0 / (r1 + r2)))
    assert ks.pvalue > 0.01


def test_gap_distribution_exponential():
    pos = sample_poisson_positions(2e-3, 2e6, RandomStream(5))
    ks = stats.kstest(np.diff(pos), "expon", args=(0, 1 / 2e-3))
    assert ks.pvalue > 0.01


def test_stream_reproducible_and_split_independent():
    a1 = RandomStream(9).child(3, "role").gen.random(8)
    a2 = RandomStream(9).child(3, "role").gen.random(8)
    b = RandomStream(9).child(4, "role").gen.random(8)
    c = RandomStream(9).child(3, "other").gen.random(8)
    np.testing.assert_array_equal(a1, a2)
    assert not np.allclose(a1, b)
    assert not np.allclose(a1, c)


def test_stream_builds_generator_on_first_use():
    """Deriving a child builds no generator; the lazily built one draws
    the same values as a generator keyed by the seed and path."""
    s = RandomStream(9).child(3, "role")
    assert "gen" not in vars(s)
    got = s.gen.random(8)
    assert s.gen is s.gen
    seq = np.random.SeedSequence(9, spawn_key=(3, zlib.crc32(b"role")))
    want = np.random.Generator(np.random.Philox(seq)).random(8)
    np.testing.assert_array_equal(got, want)


def test_stream_rejects_negative_seed_and_aliasing_path_ints():
    """A path int at or above 2^32 would alias its residue mod 2^32, so it
    is refused; every int below keeps its own spawn key."""
    with pytest.raises(ValidationError):
        RandomStream(-1)
    root = RandomStream(9)
    for bad in (-1, 2 ** 32, np.uint64(2 ** 32), 2 ** 40 + 3):
        with pytest.raises(ValidationError):
            root.child(bad)
    for ok in (0, 3, 2 ** 32 - 1, np.int64(7)):
        assert root.child(ok, "role").path == (int(ok), zlib.crc32(b"role"))


def test_eta_deterministic():
    law = Empirical(((0.7, 0.1, 0.1, 0.1),) * 3)
    assert law.eta == law.eta


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
