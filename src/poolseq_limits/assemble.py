"""Greedy pooled assembly, success-condition oracles, and scoring.

Unique and correct assembly of all M genomes holds exactly when (a) every
SNP of every individual is covered by one of that individual's reads and
(b) every identical region between any two individuals (the span between
consecutive discriminating SNPs) is bridged by a read from either of them.
check_coverage / check_bridging evaluate those conditions against ground
truth; greedy_assemble reconstructs contigs without hidden labels; the
small-instance enumeration oracle decides information-theoretic uniqueness
exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .core import CapacityError, RandomStream
from .simulate import Population, ReadSet, discriminating_positions

__all__ = [
    "UNSET",
    "CoverageReport",
    "BridgingReport",
    "ConditionReport",
    "Contig",
    "check_coverage",
    "check_bridging",
    "check_conditions",
    "greedy_assemble",
    "score_assembly",
    "enumerate_assemblies",
    "unique_and_correct",
]

# consensus sentinel for "no read determined this SNP yet"
UNSET = np.int8(-128)


@dataclass
class CoverageReport:
    ok: bool
    violations: list[tuple[int, int]]  # (individual, snp index)


@dataclass
class BridgingReport:
    ok: bool
    violations: list[tuple[int, int, float, float]]  # (i, j, region start, end)


@dataclass
class ConditionReport:
    coverage_ok: bool
    coverage_violations: list[tuple[int, int]]
    bridging_ok: bool
    bridging_violations: list[tuple[int, int, float, float]]

    @property
    def ok(self) -> bool:
        return self.coverage_ok and self.bridging_ok


@dataclass
class Contig:
    """Reads assigned to one reconstructed genome plus its consensus.

    consensus[s] == UNSET marks SNPs no assigned read has determined. Built
    from reads in start order, the determined SNPs inside any later read's
    window form a prefix of that window (see greedy_assemble).
    """

    read_indices: list[int] = field(default_factory=list)
    consensus: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))


def check_coverage(pop: Population, rs: ReadSet) -> CoverageReport:
    """Flag every (individual, snp) pair not covered by that individual's reads."""
    L = rs.config.L
    positions = pop.snp_positions
    violations: list[tuple[int, int]] = []
    for m in range(pop.M):
        starts_m = rs.starts[rs.hidden == m]
        if starts_m.size == 0:
            violations.extend((m, s) for s in range(pop.S))
            continue
        idx = np.searchsorted(starts_m, positions, side="right")
        prev = np.where(idx > 0, starts_m[np.maximum(idx - 1, 0)], -np.inf)
        uncovered = np.nonzero(~(prev > positions - L))[0]
        violations.extend((m, int(s)) for s in uncovered)
    return CoverageReport(ok=not violations, violations=violations)


def check_bridging(pop: Population, rs: ReadSet) -> BridgingReport:
    """Check every identical region between every pair for a bridging read.

    A region between consecutive discriminating SNPs at positions (a, b) is
    bridged by a read from either individual with start <= a and
    start + L > b. Regions before the first or after the last discriminating
    SNP are not obligations.
    """
    L = rs.config.L
    violations: list[tuple[int, int, float, float]] = []
    for i, j in combinations(range(pop.M), 2):
        dpos = discriminating_positions(pop, i, j)
        if dpos.size < 2:
            continue
        pair_mask = (rs.hidden == i) | (rs.hidden == j)
        starts_ij = rs.starts[pair_mask]
        a = dpos[:-1]
        b = dpos[1:]
        hi = np.searchsorted(starts_ij, a, side="right")
        lo = np.searchsorted(starts_ij, b - L, side="left")
        bad = np.nonzero(hi <= lo)[0]
        violations.extend(
            (i, j, float(a[k]), float(b[k])) for k in bad)
    return BridgingReport(ok=not violations, violations=violations)


def check_conditions(pop: Population, rs: ReadSet) -> ConditionReport:
    cov = check_coverage(pop, rs)
    br = check_bridging(pop, rs)
    return ConditionReport(coverage_ok=cov.ok, coverage_violations=cov.violations,
                           bridging_ok=br.ok, bridging_violations=br.violations)


def greedy_assemble(rs: ReadSet, stream: RandomStream) -> list[Contig]:
    """One left-to-right pass merging each read into its best contig.

    A contig is consistent with a read when their shared determined SNPs
    all agree; among consistent contigs the read joins the one sharing the
    most SNPs, ties broken uniformly with the stream. A read consistent
    with no contig (impossible in noiseless runs when the success
    conditions hold) joins the contig agreeing on the most SNPs. A read
    with no SNPs joins a uniformly drawn contig.

    Reads must arrive in start order, as generate_reads sorts them, so
    cover_lo and cover_hi are both non-decreasing. Then the SNPs contig m
    has determined inside a new read's window [lo, hi) are exactly the
    prefix [lo, f_m), where the frontier f_m is the largest cover_hi among
    the SNP-carrying reads already assigned to m. Consistency is one prefix
    compare, the overlap is max(0, f_m - lo), and a merge writes only the
    suffix [max(f_m, lo), hi).
    """
    M = rs.config.M
    S = rs.population.S
    offsets, values = rs.observations()
    off = offsets.tolist()
    los = rs.cover_lo.tolist()
    his = rs.cover_hi.tolist()
    obs = values.tobytes()
    consensus = [bytearray(UNSET.tobytes() * S) for _ in range(M)]
    frontier = [0] * M
    assigned: list[list[int]] = [[] for _ in range(M)]
    gen = stream.gen
    for r in range(rs.n_reads):
        lo, hi = los[r], his[r]
        if hi == lo:
            # no SNP content: assign anywhere without touching consensus
            assigned[int(gen.integers(M))].append(r)
            continue
        v = obs[off[r]:off[r + 1]]
        best_overlap = -1
        candidates: list[int] = []
        for m in range(M):
            f = frontier[m]
            if f > lo:
                if not consensus[m].startswith(v[:f - lo], lo):
                    continue
                overlap = f - lo
            else:
                overlap = 0
            if overlap > best_overlap:
                best_overlap, candidates = overlap, [m]
            elif overlap == best_overlap:
                candidates.append(m)
        pool = candidates or _most_agreeing(consensus, frontier, lo, v)
        m = pool[0] if len(pool) == 1 else pool[int(gen.integers(len(pool)))]
        f = frontier[m]
        if f > lo:
            consensus[m][f:hi] = v[f - lo:]
        else:
            consensus[m][lo:hi] = v
        frontier[m] = hi
        assigned[m].append(r)
    return [Contig(read_indices=assigned[m],
                   consensus=np.frombuffer(consensus[m], dtype=np.int8))
            for m in range(M)]


def _most_agreeing(consensus: list[bytearray], frontier: list[int], lo: int,
                   v: bytes) -> list[int]:
    """Contigs agreeing with read values v on the most determined SNPs."""
    agree = [sum(a == b for a, b in zip(c[lo:max(f, lo)], v))
             for c, f in zip(consensus, frontier)]
    best = max(agree)
    return [m for m, a in enumerate(agree) if a == best]


def _match_contigs(rows: list[np.ndarray], truth: np.ndarray) -> bool:
    """Backtracking perfect matching: contig rows vs truth rows, where a
    contig is compatible with a truth row when all its determined SNPs agree."""
    M = truth.shape[0]
    compat = [[bool(((r == truth[m]) | (r == UNSET)).all()) for m in range(M)]
              for r in rows]

    used = [False] * M

    def assign(i: int) -> bool:
        if i == len(rows):
            return True
        for m in range(M):
            if not used[m] and compat[i][m]:
                used[m] = True
                if assign(i + 1):
                    return True
                used[m] = False
        return False

    return assign(0)


def score_assembly(contigs: list[Contig], pop: Population,
                   readset: ReadSet | None = None) -> bool:
    """Decide whether the contigs reconstruct all genomes exactly.

    Success needs a bijection from contigs to true allele rows agreeing on
    every SNP the contig determines, plus full information: when a read set
    is supplied, per-individual SNP coverage must hold; otherwise every
    contig must determine every SNP.
    """
    if len(contigs) != pop.M:
        return False
    rows = [c.consensus for c in contigs]
    if readset is not None:
        if not check_coverage(pop, readset).ok:
            return False
    else:
        if any((r == UNSET).any() for r in rows):
            return False
    return _match_contigs(rows, pop.alleles)


def enumerate_assemblies(pop: Population, rs: ReadSet,
                         max_outcomes: int = 2,
                         max_states: int = 500_000) -> list[tuple[bytes, ...]]:
    """Enumerate all fully determined assemblies reachable by consistent
    read assignments, deduplicated up to contig permutation.

    Each outcome is a sorted tuple of M consensus rows (as bytes). An
    outcome requires every contig fully determined by its assigned reads,
    so it corresponds to a complete reconstruction the read set genuinely
    supports. Enumeration stops early once max_outcomes distinct outcomes
    are found; states are memoized per read index to prune symmetric
    assignments.
    """
    M = pop.M
    S = pop.S
    offsets, values = rs.observations()
    reads = [(int(rs.cover_lo[r]), int(rs.cover_hi[r]),
              values[offsets[r]:offsets[r + 1]])
             for r in range(rs.n_reads) if rs.cover_hi[r] > rs.cover_lo[r]]
    outcomes: set[tuple[bytes, ...]] = set()
    seen: set[tuple[int, tuple[bytes, ...]]] = set()
    states_visited = 0
    init = np.full((M, S), UNSET, dtype=np.int8)

    def dfs(idx: int, consensus: np.ndarray) -> bool:
        nonlocal states_visited
        states_visited += 1
        if states_visited > max_states:
            raise CapacityError("assembly enumeration exceeded its state limit")
        key = (idx, tuple(sorted(consensus[m].tobytes() for m in range(M))))
        if key in seen:
            return False
        seen.add(key)
        if idx == len(reads):
            if not (consensus == UNSET).any():
                outcomes.add(key[1])
                if len(outcomes) >= max_outcomes:
                    return True
            return False
        lo, hi, v = reads[idx]
        for m in range(M):
            seg = consensus[m, lo:hi]
            known = seg != UNSET
            if not (seg[known] == v[known]).all():
                continue
            saved = seg.copy()
            seg[~known] = v[~known]
            stop = dfs(idx + 1, consensus)
            consensus[m, lo:hi] = saved
            if stop:
                return True
        return False

    dfs(0, init)
    return sorted(outcomes)


def unique_and_correct(pop: Population, rs: ReadSet) -> bool:
    """True when exactly one complete assembly is consistent with the reads
    and it equals the true genomes (up to contig permutation)."""
    outcomes = enumerate_assemblies(pop, rs, max_outcomes=2)
    if len(outcomes) != 1:
        return False
    truth = tuple(sorted(pop.alleles[m].tobytes() for m in range(pop.M)))
    return outcomes[0] == truth
