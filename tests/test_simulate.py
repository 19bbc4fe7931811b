import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from poolseq_limits.core import (FixedBiallelic, FixedEta, ModelConfig,
                                 RandomStream, UnsupportedModelError,
                                 ValidationError)
from poolseq_limits.simulate import (Population, _count_below, apply_noise,
                                     discriminating_positions,
                                     generate_population, generate_reads)

LAW = FixedBiallelic(0.1)


def _config(**kw):
    base = dict(G=10**5, M=2, p=1e-3, L=1000.0, lam=1e-2, law=LAW)
    base.update(kw)
    return ModelConfig(**base)


def test_zero_snp_rate_gives_empty_population():
    pop = generate_population(_config(p=0.0), RandomStream(0))
    assert pop.S == 0


def test_fixed_eta_law_cannot_be_sampled():
    with pytest.raises(UnsupportedModelError):
        generate_population(_config(law=FixedEta(0.82)), RandomStream(0))


def test_snp_count_tracks_rate():
    pop = generate_population(_config(G=10**6), RandomStream(1))
    assert pop.S == pytest.approx(1000, abs=4 * 1000 ** 0.5)


def test_discriminating_fraction_matches_one_minus_eta():
    """Two individuals differ per locus with probability 1 - eta = 0.18."""
    cfg = _config(G=10**5, p=1.0 - 1e-9)  # dense loci: ~1e5 of them
    pop = generate_population(cfg, RandomStream(2))
    frac = discriminating_positions(pop, 0, 1).size / pop.S
    sigma = (0.18 * 0.82 / pop.S) ** 0.5
    assert abs(frac - 0.18) < 3 * sigma


def test_zero_read_rate_gives_empty_readset():
    pop = generate_population(_config(), RandomStream(3))
    rs = generate_reads(pop, _config(lam=0.0), RandomStream(3))
    assert rs.n_reads == 0


def test_read_counts_poisson_over_stationary_domain():
    """Total reads are Poisson(M * lam * (G + L)): starts live on [-L, G)."""
    cfg = _config(G=10**5, M=2, lam=1e-2, L=1000.0)
    pop = generate_population(cfg, RandomStream(4))
    root = RandomStream(5)
    counts = np.array([
        generate_reads(pop, cfg, root.child(i)).n_reads for i in range(3000)])
    mu = cfg.M * cfg.lam * (cfg.G + cfg.L)
    assert counts.mean() == pytest.approx(mu, rel=0.01)
    z = (counts.mean() - mu) / (mu / len(counts)) ** 0.5
    assert abs(z) < 4


def test_read_covers_exactly_window_snps():
    cfg = _config()
    pop = generate_population(cfg, RandomStream(6))
    rs = generate_reads(pop, cfg, RandomStream(7))
    pos = pop.snp_positions
    for r in range(0, rs.n_reads, 37):
        lo, hi = rs.cover_lo[r], rs.cover_hi[r]
        inside = (pos >= rs.starts[r]) & (pos < rs.starts[r] + cfg.L)
        np.testing.assert_array_equal(np.nonzero(inside)[0], np.arange(lo, hi))
        off, vals = rs.observations()
        np.testing.assert_array_equal(
            vals[off[r]:off[r + 1]], pop.alleles[rs.hidden[r], lo:hi])


def _assert_covers_match_searchsorted(rs) -> None:
    pos = rs.population.snp_positions
    ends = rs.starts + rs.config.L
    assert rs.cover_lo.tolist() == np.searchsorted(pos, rs.starts).tolist()
    assert rs.cover_hi.tolist() == np.searchsorted(pos, ends).tolist()


_grid = st.lists(st.integers(0, 40), max_size=60).map(
    lambda v: np.sort(np.asarray(v, dtype=np.float64)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(starts=_grid, pos=_grid.map(np.unique), L=st.integers(0, 45))
@example(starts=np.empty(0), pos=np.array([3.0, 7.0]), L=5)      # no reads
@example(starts=np.array([1.0, 1.0, 9.0]), pos=np.empty(0), L=5)  # no SNPs
@example(starts=np.array([3.0, 3.0, 7.0]), pos=np.array([3.0, 8.0]), L=5)
def test_count_below_matches_searchsorted(starts, pos, L):
    """Placing SNPs among the starts gives searchsorted(pos, points) for
    starts and ends on a small integer grid, where starts tie with each
    other and starts and ends land exactly on SNPs."""
    for points in (starts, starts + L):
        got = _count_below(pos, points)
        assert got.dtype == np.int64
        assert got.tolist() == np.searchsorted(pos, points).tolist()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(M=st.integers(1, 4), p=st.sampled_from([0.0, 0.002, 0.05]),
       lam=st.sampled_from([0.0, 0.001, 0.02]), L=st.floats(1.0, 600.0),
       seed=st.integers(0, 2**20))
@example(M=1, p=0.002, lam=0.02, L=50.0, seed=1)
@example(M=2, p=0.0, lam=0.02, L=50.0, seed=2)     # no SNPs
@example(M=3, p=0.05, lam=0.0, L=50.0, seed=3)     # no reads
def test_read_covers_match_searchsorted(M, p, lam, L, seed):
    """generate_reads' cover indices equal searchsorted of the starts and
    the ends in the SNP positions, also with SNPs placed exactly on read
    starts and ends: the starts do not depend on the population."""
    cfg = _config(G=3000, M=M, p=p, L=L, lam=lam)
    root = RandomStream(seed)
    pop = generate_population(cfg, root.child("pop"))
    rs = generate_reads(pop, cfg, root.child("reads"))
    assert rs.starts.tolist() == sorted(rs.starts.tolist())
    assert ((rs.hidden >= 0) & (rs.hidden < M)).all()
    _assert_covers_match_searchsorted(rs)
    tied = np.unique(np.concatenate([pop.snp_positions, rs.starts[::3],
                                     (rs.starts + L)[1::3]]))
    tied_pop = Population(tied, np.ones((M, tied.size), np.int8), LAW)
    tied_rs = generate_reads(tied_pop, cfg, root.child("reads"))
    assert tied_rs.starts.tobytes() == rs.starts.tobytes()
    _assert_covers_match_searchsorted(tied_rs)


def test_per_individual_read_counts_independent_poisson():
    """Each individual's read count is Poisson(lam * (G + L)), and the
    counts of different individuals are uncorrelated."""
    cfg = _config(G=10**4, M=3, lam=1e-3, L=1000.0)
    pop = generate_population(cfg, RandomStream(25))
    root = RandomStream(26)
    counts = np.array([
        np.bincount(generate_reads(pop, cfg, root.child(i)).hidden,
                    minlength=cfg.M) for i in range(4000)])
    mu = cfg.lam * (cfg.G + cfg.L)
    # one bin per count in the central 99%, plus one bin for each tail
    lo, hi = stats.poisson.ppf([0.005, 0.995], mu).astype(int)
    cdf = stats.poisson.cdf(np.arange(lo - 1, hi + 1), mu)
    expected = np.diff(np.concatenate(([0.0], cdf, [1.0]))) * len(counts)
    for m in range(cfg.M):
        binned = np.clip(counts[:, m], lo - 1, hi + 1) - (lo - 1)
        observed = np.bincount(binned, minlength=expected.size)
        assert stats.chisquare(observed, expected).pvalue > 0.01, m
    corr = np.corrcoef(counts.T)[np.triu_indices(cfg.M, 1)]
    assert (np.abs(corr) < 4 / len(counts) ** 0.5).all(), corr


def _reference_values(rs) -> np.ndarray:
    """Per-read loop: read r observes alleles[hidden[r], cover_lo[r]:cover_hi[r]]."""
    alleles = rs.population.alleles
    return np.concatenate([np.empty(0, np.int8)] + [
        alleles[h, lo:hi]
        for h, lo, hi in zip(rs.hidden, rs.cover_lo, rs.cover_hi)])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(M=st.integers(1, 4), G=st.integers(50, 3000),
       p=st.sampled_from([0.0, 0.002, 0.02, 0.3]),
       lam=st.sampled_from([0.0, 0.001, 0.01, 0.05]),
       L=st.floats(1.0, 600.0), eps=st.sampled_from([0.0, 0.1, 0.5]),
       seed=st.integers(0, 2**20))
@example(M=2, G=500, p=0.0, lam=0.01, L=50.0, eps=0.1, seed=1)    # p = 0
@example(M=3, G=500, p=0.02, lam=0.0, L=50.0, eps=0.1, seed=2)    # no reads
@example(M=2, G=2000, p=0.002, lam=0.05, L=5.0, eps=0.1, seed=3)  # SNP-free reads
def test_observations_match_per_read_loop(M, G, p, lam, L, eps, seed):
    """`observations()` gives the per-read loop's offsets and values, and a
    noisy set gives those values with the noise stream's flips applied."""
    cfg = _config(G=G, M=M, p=p, L=L, lam=lam)
    root = RandomStream(seed)
    pop = generate_population(cfg, root.child("pop"))
    rs = generate_reads(pop, cfg, root.child("reads"))
    want = _reference_values(rs)
    offsets, values = rs.observations()
    lengths = (rs.cover_hi - rs.cover_lo).tolist()
    assert offsets.tolist() == np.cumsum([0] + lengths).tolist()
    assert values.dtype == np.int8 and values.tobytes() == want.tobytes()
    noisy = apply_noise(rs, eps, root.child("noise"))
    flips = root.child("noise").child("noise").gen.random(want.size) < eps
    assert noisy.observations()[1].tobytes() == \
        np.where(flips, -want, want).astype(np.int8).tobytes()


def test_noise_zero_is_identity():
    cfg = _config()
    pop = generate_population(cfg, RandomStream(8))
    rs = generate_reads(pop, cfg, RandomStream(9))
    noisy = apply_noise(rs, 0.0, RandomStream(10))
    np.testing.assert_array_equal(noisy.observations()[1], rs.observations()[1])


def test_noise_flip_fraction():
    cfg = _config(G=10**6, lam=4e-3, L=2000.0)
    pop = generate_population(cfg, RandomStream(11))
    rs = generate_reads(pop, cfg, RandomStream(12))
    noisy = apply_noise(rs, 0.2, RandomStream(13))
    flipped = (noisy.observations()[1] != rs.observations()[1]).mean()
    n = rs.observations()[1].size
    assert n > 10**4
    assert abs(flipped - 0.2) < 3 * (0.2 * 0.8 / n) ** 0.5


def test_noise_half_is_uninformative():
    cfg = _config(G=10**6, lam=4e-3, L=2000.0)
    pop = generate_population(cfg, RandomStream(14))
    rs = generate_reads(pop, cfg, RandomStream(15))
    noisy = apply_noise(rs, 0.5, RandomStream(16))
    truth = rs.observations()[1].astype(float)
    obs = noisy.observations()[1].astype(float)
    n = truth.size
    corr = float(np.mean(truth * obs))  # +-1 values: correlation estimate
    assert abs(corr) < 3 / n ** 0.5


def test_noise_requires_biallelic():
    from poolseq_limits.core import Empirical
    law = Empirical(((0.4, 0.3, 0.2, 0.1),))
    cfg = _config(law=law)
    pop = generate_population(cfg, RandomStream(17))
    rs = generate_reads(pop, cfg, RandomStream(18))
    with pytest.raises(UnsupportedModelError):
        apply_noise(rs, 0.1, RandomStream(19))


def test_discriminating_positions_basics():
    cfg = _config()
    pop = generate_population(cfg, RandomStream(20))
    pop.alleles[1] = pop.alleles[0]
    assert discriminating_positions(pop, 0, 1).size == 0
    pop.alleles[1, 5] = -pop.alleles[0, 5]
    np.testing.assert_array_equal(discriminating_positions(pop, 0, 1),
                                  pop.snp_positions[5:6])
    with pytest.raises(ValidationError):
        discriminating_positions(pop, 1, 1)


def test_discriminating_gaps_exponential():
    cfg = _config(G=4 * 10**6)
    pop = generate_population(cfg, RandomStream(21))
    gaps = np.diff(discriminating_positions(pop, 0, 1))
    rate = cfg.p * (1.0 - cfg.eta)
    assert stats.kstest(gaps, "expon", args=(0, 1 / rate)).pvalue > 0.01


def test_noise_commutes_with_read_subsetting():
    """Flips are independent per observation slot, so restricting to any
    read subset leaves the per-slot flip law unchanged."""
    cfg = _config(G=2 * 10**5)
    pop = generate_population(cfg, RandomStream(22))
    rs = generate_reads(pop, cfg, RandomStream(23))
    noisy = apply_noise(rs, 0.3, RandomStream(24))
    off, truth = rs.observations()
    _, obs = noisy.observations()
    flips = obs != truth
    half = rs.n_reads // 2
    a = flips[:off[half]].mean()
    b = flips[off[half]:].mean()
    sig = (0.3 * 0.7) ** 0.5 * (1 / off[half] + 1 / (flips.size - off[half])) ** 0.5
    assert abs(a - b) < 4 * sig

