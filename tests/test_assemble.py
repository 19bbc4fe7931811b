from itertools import combinations

import numpy as np
import pytest

from poolseq_limits import assemble
from poolseq_limits.assemble import (UNSET, Contig, check_bridging,
                                     check_coverage, enumerate_assemblies,
                                     greedy_assemble, score_assembly,
                                     unique_and_correct)
from poolseq_limits.core import (Empirical, FixedBiallelic, ModelConfig,
                                 RandomStream)
from poolseq_limits.simulate import (Population, ReadSet, apply_noise,
                                     generate_population, generate_reads)

LAW = FixedBiallelic(0.3)


def _config(**kw):
    base = dict(G=100, M=2, p=0.03, L=60.0, lam=0.05, law=LAW)
    base.update(kw)
    return ModelConfig(**base)


def make_readset(config, pop, starts, hidden):
    """Hand-built read set for geometric scenarios."""
    starts = np.asarray(starts, dtype=float)
    hidden = np.asarray(hidden, dtype=np.int32)
    order = np.argsort(starts, kind="stable")
    starts, hidden = starts[order], hidden[order]
    rs = ReadSet(starts=starts, hidden=hidden, config=config, population=pop,
                 source=pop.alleles.reshape(-1))
    pos = pop.snp_positions
    np.testing.assert_array_equal(
        rs.cover_lo, np.searchsorted(pos, starts, side="left"))
    np.testing.assert_array_equal(
        rs.cover_hi, np.searchsorted(pos, starts + config.L, side="left"))
    assert rs.source.base is pop.alleles  # a view: nothing copied
    return rs


def fig_scenario():
    """Discriminating SNPs at 10, 50, 90 on G=100 with L=60 reads at 0, 35."""
    config = _config()
    pop = Population(snp_positions=np.array([10.0, 50.0, 90.0]),
                     alleles=np.array([[1, 1, 1], [-1, -1, -1]], dtype=np.int8))
    rs = make_readset(config, pop, [0.0, 35.0, 0.0, 35.0], [0, 0, 1, 1])
    return config, pop, rs


def test_empty_readset_violates_every_pair():
    config = _config()
    pop = generate_population(config, RandomStream(0))
    rs = make_readset(config, pop, [], [])
    rep = check_coverage(pop, rs)
    assert not rep.ok
    assert rep.violations == pop.M * pop.S


def test_single_read_covers_lone_snp():
    config = _config(M=1)
    pop = Population(snp_positions=np.array([30.0]),
                     alleles=np.array([[1]], dtype=np.int8))
    rs = make_readset(config, pop, [10.0], [0])
    assert check_coverage(pop, rs).ok


def test_bridging_vacuous_without_two_discriminating_snps():
    config = _config()
    pop = Population(snp_positions=np.array([10.0, 50.0]),
                     alleles=np.array([[1, 1], [1, 1]], dtype=np.int8))
    rs = make_readset(config, pop, [], [])
    assert check_bridging(pop, rs).ok


def test_region_longer_than_read_is_unbridgeable():
    config = _config(L=30.0)
    pop = Population(snp_positions=np.array([10.0, 90.0]),
                     alleles=np.array([[1, 1], [-1, -1]], dtype=np.int8))
    rs = make_readset(config, pop, [0.0, 5.0, 60.0, 65.0], [0, 1, 0, 1])
    rep = check_bridging(pop, rs)
    assert not rep.ok
    assert rep.violations == 1


def test_condition_counts_match_brute_force():
    """`violations` is the number of (individual, SNP) pairs with no read of
    that individual covering the SNP (start <= pos < start + L), and of
    consecutive discriminating regions (a, b) of each pair with no read of
    either individual spanning them (start <= a, start + L > b)."""
    root = RandomStream(53)
    outcomes = set()
    for t in range(160):
        M = 2 + t % 3
        config = _config(G=400, M=M, L=60.0, lam=(0.005, 0.02, 0.08, 0.2)[t % 4])
        st = root.child(t)
        pop = generate_population(config, st.child("pop"))
        rs = generate_reads(pop, config, st.child("reads"))
        L = config.L
        reads = list(zip(rs.starts.tolist(), rs.hidden.tolist()))
        cov = sum(not any(h == m and s <= x < s + L for s, h in reads)
                  for m in range(M) for x in pop.snp_positions.tolist())
        br = 0
        for i, j in combinations(range(M), 2):
            d = pop.snp_positions[pop.alleles[i] != pop.alleles[j]].tolist()
            br += sum(not any(h in (i, j) and s <= a and s + L > b
                              for s, h in reads)
                      for a, b in zip(d, d[1:]))
        cov_rep, br_rep = check_coverage(pop, rs), check_bridging(pop, rs)
        assert (cov_rep.violations, br_rep.violations) == (cov, br), t
        assert (cov_rep.ok, br_rep.ok) == (cov == 0, br == 0), t
        outcomes.add((cov > 0, br > 0))
    # each check both holds and fails somewhere
    assert {c for c, _ in outcomes} == {b for _, b in outcomes} == {False, True}


@pytest.mark.parametrize("L,coverage,bridging", [(10.0, 1, 1), (10.5, 0, 0)])
def test_read_ending_at_a_snp_neither_covers_nor_bridges_it(L, coverage,
                                                           bridging):
    """Individual 0's one read starts at 10, so it covers [10, 10 + L):
    at L = 10 it ends on the SNP at 20 and covers neither that SNP nor the
    region (10, 20); just past the tie it covers both. Individual 1's reads
    at 5 and 15 cover one SNP each and bridge nothing."""
    config = _config(L=L)
    pop = Population(snp_positions=np.array([10.0, 20.0]),
                     alleles=np.array([[1, 1], [-1, -1]], dtype=np.int8))
    rs = make_readset(config, pop, [10.0, 5.0, 15.0], [0, 1, 1])
    assert check_coverage(pop, rs).violations == coverage
    assert check_bridging(pop, rs).violations == bridging


def _cover_index_counts(pop: Population, rs: ReadSet) -> tuple[int, int]:
    """Both condition counts from the read set's cover indices: SNP j of
    individual m is covered by a read of m with cover_lo <= j < cover_hi,
    and the region between discriminating SNP indices ia < ib is bridged
    by a read of either individual with cover_lo <= ia and cover_hi > ib."""
    lo, hi = rs.cover_lo, rs.cover_hi
    snps = np.arange(pop.S)
    cov = 0
    for m in range(pop.M):
        own = rs.hidden == m
        cov += int((~((lo[own, None] <= snps) & (hi[own, None] > snps))
                    .any(axis=0)).sum())
    br = 0
    for i, j in combinations(range(pop.M), 2):
        d = np.flatnonzero(pop.alleles[i] != pop.alleles[j])
        pair = (rs.hidden == i) | (rs.hidden == j)
        bridged = (lo[pair, None] <= d[:-1]) & (hi[pair, None] > d[1:])
        br += int((~bridged.any(axis=0)).sum())
    return cov, br


def test_condition_counts_match_cover_indices():
    """Both checks count what the cover indices the assembler reads say,
    on seeded read sets with 2-4 individuals, including no reads (lambda =
    0), no SNPs (p = 0), one SNP, and an individual with no reads."""
    root = RandomStream(71)
    seen = set()
    for t in range(300):
        M = 2 + t % 3
        config = _config(G=400, M=M, p=(0.0, 0.01, 0.03, 0.1)[t % 4],
                         lam=(0.0, 0.005, 0.02, 0.08, 0.2)[t % 5])
        st = root.child(t)
        pop = generate_population(config, st.child("pop"))
        if t % 7 == 0:  # one SNP
            pop = Population(snp_positions=pop.snp_positions[:1].copy()
                             if pop.S else np.array([200.0]),
                             alleles=LAW.alleles(st.child("one").gen, M, 1))
        rs = generate_reads(pop, config, st.child("reads"))
        if t % 6 == 1:  # drop one individual's reads
            keep = rs.hidden != t % M
            rs = make_readset(config, pop, rs.starts[keep], rs.hidden[keep])
        want = _cover_index_counts(pop, rs)
        got = (check_coverage(pop, rs).violations,
               check_bridging(pop, rs).violations)
        assert got == want, t
        seen.add((pop.S, want[0] > 0, want[1] > 0))
    assert {S for S, _, _ in seen} >= {0, 1}
    assert {(c, b) for _, c, b in seen} == {(False, False), (True, True),
                                           (True, False), (False, True)}


def test_fig_scenario_bridged_and_assembled():
    config, pop, rs = fig_scenario()
    assert check_coverage(pop, rs).ok and check_bridging(pop, rs).ok
    contigs = greedy_assemble(rs, RandomStream(1))
    assert score_assembly(contigs, pop)
    assert unique_and_correct(pop, rs)


def test_fig_scenario_unbridged_region_splits_outcomes():
    """Dropping the reads that bridge (50, 90) leaves two consistent
    assemblies; greedy then matches truth about half the time."""
    config, pop, _ = fig_scenario()
    rs = make_readset(config, pop, [0.0, 55.0, 0.0, 55.0], [0, 0, 1, 1])
    # reads at 55 cover only the SNP at 90: region (50, 90) is unbridged
    assert not check_bridging(pop, rs).ok
    assert len(enumerate_assemblies(pop, rs, max_outcomes=4)) == 2
    wins = 0
    trials = 4000
    root = RandomStream(2)
    for t in range(trials):
        contigs = greedy_assemble(rs, root.child(t))
        wins += score_assembly(contigs, pop)
    sigma = (0.25 / trials) ** 0.5
    assert abs(wins / trials - 0.5) < 3 * sigma


def test_greedy_single_individual_single_contig():
    config = _config(M=1, p=0.05, lam=0.1)
    pop = generate_population(config, RandomStream(3))
    rs = generate_reads(pop, config, RandomStream(4))
    contigs = greedy_assemble(rs, RandomStream(5))
    assert len(contigs) == 1
    assert len(contigs[0].read_indices) == rs.n_reads


def test_score_assembly_examples():
    config, pop, rs = fig_scenario()
    contigs = greedy_assemble(rs, RandomStream(6))
    assert score_assembly(contigs, pop)
    # swapped labels still succeed
    assert score_assembly(list(reversed(contigs)), pop)
    # one flipped allele fails
    bad = [c for c in contigs]
    bad[0].consensus[1] = -bad[0].consensus[1]
    assert not score_assembly(bad, pop)


def test_uniqueness_oracle_counts_coverage_gaps():
    """With one individual's SNP uncovered no complete assembly exists."""
    config = _config(L=30.0)
    pop = Population(snp_positions=np.array([10.0, 50.0]),
                     alleles=np.array([[1, 1], [-1, -1]], dtype=np.int8))
    rs = make_readset(config, pop, [5.0, 30.0, 5.0], [0, 0, 1])
    assert not check_coverage(pop, rs).ok
    assert enumerate_assemblies(pop, rs) == []
    assert not unique_and_correct(pop, rs)


def _random_small_instance(rng, root, t, M=2):
    G = int(rng.integers(60, 160))
    p = min(0.5, int(rng.integers(1, 13)) / G)
    lam = float(rng.uniform(0.01, 0.09))
    L = float(rng.uniform(0.2, 0.6)) * G
    config = ModelConfig(G=G, M=M, p=p, L=L, lam=lam, law=LAW)
    st = root.child(t, "inst")
    pop = generate_population(config, st.child("pop"))
    if len({pop.alleles[m].tobytes() for m in range(M)}) < M:
        return None  # the model assumes distinct individuals
    rs = generate_reads(pop, config, st.child("reads"))
    if pop.S > 12 or rs.n_reads > 40 or rs.n_reads == 0:
        return None
    return config, pop, rs, st


def test_equivalence_on_random_instances():
    """Fast version of the full acceptance check: conditions imply greedy
    and oracle success; coverage violation implies failure."""
    rng = np.random.default_rng(31)
    root = RandomStream(37)
    used = t = 0
    while used < 200:
        t += 1
        inst = _random_small_instance(rng, root, t)
        if inst is None:
            continue
        used += 1
        config, pop, rs, st = inst
        cov_ok = check_coverage(pop, rs).ok
        cond_ok = cov_ok and check_bridging(pop, rs).ok
        greedy_ok = cov_ok and score_assembly(
            greedy_assemble(rs, st.child("greedy")), pop)
        if cond_ok:
            assert greedy_ok
            assert unique_and_correct(pop, rs)
        if not cov_ok:
            assert not greedy_ok


def _read_alleles(rs: ReadSet, r: int) -> np.ndarray:
    """The alleles read r observes: its SNP j is source[base[r] + j]."""
    b = int(rs.base[r])
    return rs.source[b + rs.cover_lo[r]:b + rs.cover_hi[r]]


def _reference_greedy(rs: ReadSet, stream: RandomStream,
                      M: int | None = None) -> list[Contig]:
    """Masked-array greedy pass that greedy_assemble must reproduce exactly:
    every read is compared against each contig's full window with UNSET
    masks, and the fallback agree-count is kept for every read."""
    if M is None:
        M = rs.config.M
    S = rs.population.S
    consensus = np.full((M, S), UNSET, dtype=np.int8)
    assigned: list[list[int]] = [[] for _ in range(M)]
    gen = stream.gen
    for r in range(rs.n_reads):
        lo, hi = int(rs.cover_lo[r]), int(rs.cover_hi[r])
        v = _read_alleles(rs, r)
        if hi == lo:
            # no SNP content: assign anywhere without touching consensus
            assigned[int(gen.integers(M))].append(r)
            continue
        best_overlap = -1
        candidates: list[int] = []
        fallback_best = -1
        fallback: list[int] = []
        for m in range(M):
            seg = consensus[m, lo:hi]
            known = seg != UNSET
            agree = int(((seg == v) & known).sum())
            overlap = int(known.sum())
            if agree == overlap:  # consistent
                if overlap > best_overlap:
                    best_overlap, candidates = overlap, [m]
                elif overlap == best_overlap:
                    candidates.append(m)
            if agree > fallback_best:
                fallback_best, fallback = agree, [m]
            elif agree == fallback_best:
                fallback.append(m)
        pool = candidates if candidates else fallback
        m = pool[0] if len(pool) == 1 else pool[int(gen.integers(len(pool)))]
        seg = consensus[m, lo:hi]
        unknown = seg == UNSET
        seg[unknown] = v[unknown]
        assigned[m].append(r)
    return [Contig(read_indices=assigned[m], consensus=consensus[m])
            for m in range(M)]


EMPIRICAL = Empirical(((0.4, 0.3, 0.2, 0.1), (0.25, 0.25, 0.25, 0.25),
                       (0.7, 0.1, 0.1, 0.1)))


def _differential_instance(rng, root, t):
    M = 2 + t % 3
    G = int(rng.integers(200, 3000))
    p = 0.0 if t % 23 == 0 else float(rng.uniform(0.005, 0.08))
    lam = 0.0 if t % 29 == 0 else float(rng.uniform(0.002, 0.05))
    L = float(rng.uniform(5.0, 0.3 * G))
    four_ary = t % 4 == 0
    law = EMPIRICAL if four_ary else FixedBiallelic(float(rng.uniform(0.05, 0.5)))
    eps = 0.0 if four_ary or t % 2 else float(rng.uniform(0.0, 0.2))
    config = ModelConfig(G=G, M=M, p=p, L=L, lam=lam, law=law, eps=eps)
    st = root.child(t)
    pop = generate_population(config, st.child("pop"))
    rs = generate_reads(pop, config, st.child("reads"))
    if eps > 0.0:
        rs = apply_noise(rs, eps, st.child("noise"))
    return config, rs, st


def test_frontier_greedy_matches_reference(monkeypatch):
    """greedy_assemble makes the reference loop's decisions with the same
    random draws: equal read assignments, equal consensus bytes and equal
    generator state afterwards, over M 2-4, both allele laws, noisy reads,
    SNP-free reads, p = 0 and lambda = 0."""
    fallbacks = 0
    most_agreeing = assemble._most_agreeing

    def counting(*args):
        nonlocal fallbacks
        fallbacks += 1
        return most_agreeing(*args)

    monkeypatch.setattr(assemble, "_most_agreeing", counting)
    rng = np.random.default_rng(41)
    root = RandomStream(43)
    seen = {"empty_read": 0, "p0": 0, "lam0": 0, "four_ary": 0, "noisy": 0}
    for t in range(300):
        config, rs, st = _differential_instance(rng, root, t)
        got_stream, want_stream = st.child("greedy"), st.child("greedy")
        got = greedy_assemble(rs, got_stream)
        want = _reference_greedy(rs, want_stream)
        assert len(got) == len(want) == config.M
        for g, w in zip(got, want):
            assert g.read_indices == w.read_indices, t
            assert g.consensus.tobytes() == w.consensus.tobytes(), t
        np.testing.assert_equal(got_stream.gen.bit_generator.state,
                                want_stream.gen.bit_generator.state, err_msg=t)
        seen["empty_read"] += bool((rs.cover_hi == rs.cover_lo).any()
                                   and rs.population.S > 0)
        seen["p0"] += config.p == 0.0
        seen["lam0"] += config.lam == 0.0
        seen["four_ary"] += isinstance(config.law, Empirical)
        seen["noisy"] += config.eps > 0.0
    assert all(seen.values()), seen
    assert fallbacks > 0


def _dense_instance(rng, root, t):
    """Many reads per cover window: M 3-4, maf 0.5, p L of 1.5-4 SNPs per
    read, lambda / p of 10-40 reads per SNP gap, every other instance noisy
    with eps 0.2-0.45."""
    M = 3 + t % 2
    p = float(rng.uniform(0.01, 0.03))
    L = float(rng.uniform(1.5, 4.0)) / p
    lam = float(rng.uniform(10.0, 40.0)) * p
    G = int(rng.integers(600, 1200))
    eps = float(rng.uniform(0.2, 0.45)) if t % 2 else 0.0
    config = ModelConfig(G=G, M=M, p=p, L=L, lam=lam,
                         law=FixedBiallelic(0.5), eps=eps)
    st = root.child(t)
    pop = generate_population(config, st.child("pop"))
    rs = generate_reads(pop, config, st.child("reads"))
    if eps > 0.0:
        rs = apply_noise(rs, eps, st.child("noise"))
    return config, rs, st


def test_frontier_greedy_matches_reference_on_dense_runs():
    """Reads sharing a cover window come in long runs here, so most reads
    reuse the merge pool of an earlier read with the same values; the
    decisions, consensus bytes and generator state must still be the
    reference loop's, with and without noise."""
    rng = np.random.default_rng(47)
    root = RandomStream(53)
    repeats = snp_reads = 0
    for t in range(60):
        config, rs, st = _dense_instance(rng, root, t)
        got_stream, want_stream = st.child("greedy"), st.child("greedy")
        got = greedy_assemble(rs, got_stream)
        want = _reference_greedy(rs, want_stream)
        for g, w in zip(got, want):
            assert g.read_indices == w.read_indices, t
            assert g.consensus.tobytes() == w.consensus.tobytes(), t
        np.testing.assert_equal(got_stream.gen.bit_generator.state,
                                want_stream.gen.bit_generator.state, err_msg=t)
        keys = {(lo, hi, _read_alleles(rs, r).tobytes())
                for r, (lo, hi) in enumerate(zip(rs.cover_lo.tolist(),
                                                 rs.cover_hi.tolist()))
                if hi > lo}
        n = int((rs.cover_hi > rs.cover_lo).sum())
        snp_reads, repeats = snp_reads + n, repeats + n - len(keys)
    # most SNP-carrying reads repeat an earlier read's window and values
    assert repeats > 0.5 * snp_reads


def test_row_slices_and_stored_values_assemble_alike():
    """A noiseless set hands greedy_assemble slices of the population rows;
    after apply_noise at eps = 0 it reads the same values from the
    alleles stored back to back. Both sources must give equal read
    assignments, consensus bytes and generator state, over M 1-4, both
    allele laws, p = 0, lambda = 0 and SNP-free reads, and the noiseless
    set's source is a view of the population's allele matrix."""
    rng = np.random.default_rng(59)
    root = RandomStream(61)
    seen = {"M1": 0, "p0": 0, "lam0": 0, "empty_read": 0, "four_ary": 0}
    for t in range(200):
        M = 1 + t % 4
        G = int(rng.integers(200, 3000))
        p = 0.0 if t % 13 == 0 else float(rng.uniform(0.005, 0.08))
        lam = 0.0 if t % 17 == 0 else float(rng.uniform(0.002, 0.05))
        L = float(rng.uniform(5.0, 0.3 * G))
        law = EMPIRICAL if t % 5 == 0 else \
            FixedBiallelic(float(rng.uniform(0.05, 0.5)))
        config = ModelConfig(G=G, M=M, p=p, L=L, lam=lam, law=law)
        st = root.child(t)
        pop = generate_population(config, st.child("pop"))
        rs = generate_reads(pop, config, st.child("reads"))
        stored = apply_noise(rs, 0.0, st.child("noise"))
        rows_stream, flat_stream = st.child("greedy"), st.child("greedy")
        got = greedy_assemble(rs, rows_stream)
        assert rs.source.base is pop.alleles, t
        want = greedy_assemble(stored, flat_stream)
        for g, w in zip(got, want, strict=True):
            assert g.read_indices == w.read_indices, t
            assert g.consensus.tobytes() == w.consensus.tobytes(), t
        np.testing.assert_equal(rows_stream.gen.bit_generator.state,
                                flat_stream.gen.bit_generator.state, err_msg=t)
        seen["M1"] += M == 1
        seen["p0"] += p == 0.0
        seen["lam0"] += lam == 0.0
        seen["empty_read"] += bool((rs.cover_hi == rs.cover_lo).any()
                                   and pop.S > 0)
        seen["four_ary"] += law is EMPIRICAL
    assert all(seen.values()), seen
