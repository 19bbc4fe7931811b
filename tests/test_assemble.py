import numpy as np

from poolseq_limits import assemble
from poolseq_limits.assemble import (UNSET, Contig, check_bridging,
                                     check_conditions, check_coverage,
                                     enumerate_assemblies, greedy_assemble,
                                     score_assembly, unique_and_correct)
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
    pos = pop.snp_positions
    return ReadSet(starts=starts, hidden=hidden,
                   cover_lo=np.searchsorted(pos, starts, side="left"),
                   cover_hi=np.searchsorted(pos, starts + config.L, side="left"),
                   config=config, population=pop)


def fig_scenario():
    """Discriminating SNPs at 10, 50, 90 on G=100 with L=60 reads at 0, 35."""
    config = _config()
    pop = Population(snp_positions=np.array([10.0, 50.0, 90.0]),
                     alleles=np.array([[1, 1, 1], [-1, -1, -1]], dtype=np.int8),
                     law=LAW)
    rs = make_readset(config, pop, [0.0, 35.0, 0.0, 35.0], [0, 0, 1, 1])
    return config, pop, rs


def test_empty_readset_violates_every_pair():
    config = _config()
    pop = generate_population(config, RandomStream(0))
    rs = make_readset(config, pop, [], [])
    rep = check_coverage(pop, rs)
    assert not rep.ok
    assert len(rep.violations) == pop.M * pop.S


def test_single_read_covers_lone_snp():
    config = _config(M=1)
    pop = Population(snp_positions=np.array([30.0]),
                     alleles=np.array([[1]], dtype=np.int8), law=LAW)
    rs = make_readset(config, pop, [10.0], [0])
    assert check_coverage(pop, rs).ok


def test_bridging_vacuous_without_two_discriminating_snps():
    config = _config()
    pop = Population(snp_positions=np.array([10.0, 50.0]),
                     alleles=np.array([[1, 1], [1, 1]], dtype=np.int8), law=LAW)
    rs = make_readset(config, pop, [], [])
    assert check_bridging(pop, rs).ok


def test_region_longer_than_read_is_unbridgeable():
    config = _config(L=30.0)
    pop = Population(snp_positions=np.array([10.0, 90.0]),
                     alleles=np.array([[1, 1], [-1, -1]], dtype=np.int8),
                     law=LAW)
    rs = make_readset(config, pop, [0.0, 5.0, 60.0, 65.0], [0, 1, 0, 1])
    rep = check_bridging(pop, rs)
    assert not rep.ok
    assert rep.violations == [(0, 1, 10.0, 90.0)]


def test_fig_scenario_bridged_and_assembled():
    config, pop, rs = fig_scenario()
    assert check_conditions(pop, rs).ok
    contigs = greedy_assemble(rs, RandomStream(1))
    assert score_assembly(contigs, pop, rs)
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
        wins += score_assembly(contigs, pop, rs)
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
    assert score_assembly(contigs, pop, rs)
    # swapped labels still succeed
    assert score_assembly(list(reversed(contigs)), pop, rs)
    # one flipped allele fails
    bad = [c for c in contigs]
    bad[0].consensus[1] = -bad[0].consensus[1]
    assert not score_assembly(bad, pop, rs)


def test_score_assembly_requires_full_determination_without_readset():
    config, pop, rs = fig_scenario()
    contigs = greedy_assemble(rs, RandomStream(7))
    assert score_assembly(contigs, pop)
    contigs[0].consensus[2] = UNSET
    assert not score_assembly(contigs, pop)


def test_uniqueness_oracle_counts_coverage_gaps():
    """With one individual's SNP uncovered no complete assembly exists."""
    config = _config(L=30.0)
    pop = Population(snp_positions=np.array([10.0, 50.0]),
                     alleles=np.array([[1, 1], [-1, -1]], dtype=np.int8),
                     law=LAW)
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
        cond = check_conditions(pop, rs)
        greedy_ok = score_assembly(greedy_assemble(rs, st.child("greedy")),
                                   pop, rs)
        if cond.ok:
            assert greedy_ok
            assert unique_and_correct(pop, rs)
        if not cond.coverage_ok:
            assert not greedy_ok


def _reference_greedy(rs: ReadSet, stream: RandomStream,
                      M: int | None = None) -> list[Contig]:
    """Masked-array greedy pass that greedy_assemble must reproduce exactly:
    every read is compared against each contig's full window with UNSET
    masks, and the fallback agree-count is kept for every read."""
    if M is None:
        M = rs.config.M
    S = rs.population.S
    offsets, values = rs.observations()
    consensus = np.full((M, S), UNSET, dtype=np.int8)
    assigned: list[list[int]] = [[] for _ in range(M)]
    gen = stream.gen
    for r in range(rs.n_reads):
        lo, hi = int(rs.cover_lo[r]), int(rs.cover_hi[r])
        v = values[offsets[r]:offsets[r + 1]]
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
        seen["noisy"] += rs.noisy
    assert all(seen.values()), seen
    assert fallbacks > 0
