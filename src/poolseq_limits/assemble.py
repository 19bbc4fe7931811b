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
    "CheckReport",
    "Contig",
    "check_coverage",
    "check_bridging",
    "greedy_assemble",
    "score_assembly",
    "enumerate_assemblies",
    "unique_and_correct",
]

# consensus sentinel for "no read determined this SNP yet"
UNSET = np.int8(-128)
ENUMERATION_STATE_CAP = 500_000  # states enumerate_assemblies may visit


@dataclass
class CheckReport:
    """A condition check's count of violations; it holds when none is."""

    violations: int  # uncovered (individual, SNP) pairs or unbridged regions

    @property
    def ok(self) -> bool:
        return self.violations == 0


@dataclass
class Contig:
    """Reads assigned to one reconstructed genome plus its consensus.

    consensus[s] == UNSET marks SNPs no assigned read has determined. Built
    from reads in start order, the determined SNPs inside any later read's
    window form a prefix of that window (see greedy_assemble).
    """

    read_indices: list[int] = field(default_factory=list)
    consensus: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))


def _uncovered(starts: np.ndarray, a: np.ndarray, b: np.ndarray,
               L: float) -> int:
    """Count the position ranges [a[k], b[k]] that no read covers, given the
    reads' ascending starts. A read starting at s covers [s, s + L), so it
    covers [a, b] when it starts in (b - L, a]."""
    return int(np.count_nonzero(np.searchsorted(starts, a, "right")
                                <= np.searchsorted(starts, b - L, "right")))


def check_coverage(pop: Population, rs: ReadSet) -> CheckReport:
    """Count the (individual, snp) pairs not covered by that individual's reads."""
    pos = pop.snp_positions
    return CheckReport(sum(_uncovered(rs.starts[rs.hidden == m], pos, pos,
                                      rs.config.L) for m in range(pop.M)))


def check_bridging(pop: Population, rs: ReadSet) -> CheckReport:
    """Count the identical regions between every pair with no bridging read.

    A region between consecutive discriminating SNPs at positions (a, b) is
    bridged by a read from either individual with start <= a and
    start + L > b. Regions before the first or after the last discriminating
    SNP are not obligations.
    """
    violations = 0
    for i, j in combinations(range(pop.M), 2):
        dpos = discriminating_positions(pop, i, j)
        starts_ij = rs.starts[(rs.hidden == i) | (rs.hidden == j)]
        violations += _uncovered(starts_ij, dpos[:-1], dpos[1:], rs.config.L)
    return CheckReport(violations)


def greedy_assemble(rs: ReadSet, stream: RandomStream) -> list[Contig]:
    """One left-to-right pass merging each read into its best contig.

    A contig is consistent with a read when their shared determined SNPs
    all agree; among consistent contigs the read joins the one sharing the
    most SNPs, ties broken uniformly with the stream. A read consistent
    with no contig (impossible in noiseless runs when the success
    conditions hold) joins the contig agreeing on the most SNPs. A read
    with no SNPs joins a uniformly drawn contig.

    Read r's values are the bytes of rs.source from base[r] + cover_lo[r]
    to base[r] + cover_hi[r]. For a noiseless set base[r] derives from the
    hidden label only to fetch the read's observation without a copy;
    every decision uses the values alone, so a noisy set with the same
    values assembles the same.

    Reads must arrive in start order, as generate_reads sorts them, so
    cover_lo and cover_hi are both non-decreasing. Then the SNPs contig m
    has determined inside a new read's window [lo, hi) are exactly the
    prefix [lo, f_m), where the frontier f_m is the largest cover_hi among
    the SNP-carrying reads already assigned to m. Consistency is one prefix
    compare, the overlap is max(0, f_m - lo), and a merge writes only the
    suffix [max(f_m, lo), hi).

    Reads sharing (lo, hi) form one contiguous run, and within a run the
    candidate search runs once per distinct consistent read. Once a read
    with values v has merged on the consistent path, every later read of
    the run with values v has the pool
    P(v) = {m : f_m == hi and consensus_m[lo:hi] == v}: those contigs
    overlap it fully, and merging into one writes nothing. So P(v) is
    cached per run, and a repeat only draws its member. No later merge
    changes P(v): members' windows are full, a consistent merge of other
    values v' leaves v' on its window, and a fallback merge of v' could
    leave v only on a contig j whose determined prefix disagrees with v'
    where v' matches v on j's unfilled suffix; every member of P(v) then
    agrees with v' on more SNPs than j, so j is never the fallback pick.
    Fallback reads are not cached, as their merges can still write.
    """
    M = rs.config.M
    S = rs.population.S
    buf = rs.source.tobytes()
    los = rs.cover_lo.tolist()
    his = rs.cover_hi.tolist()
    base = rs.base.tolist()
    consensus = [bytearray(UNSET.tobytes() * S) for _ in range(M)]
    frontier = [0] * M
    assigned: list[list[int]] = [[] for _ in range(M)]
    gen = stream.gen
    run = None
    pools: dict[bytes, list[int]] = {}
    for r in range(rs.n_reads):
        lo, hi = los[r], his[r]
        if hi == lo:
            # no SNP content: assign anywhere without touching consensus
            assigned[int(gen.integers(M))].append(r)
            continue
        if run != (lo, hi):
            run, pools = (lo, hi), {}
        b = base[r]
        v = buf[b + lo:b + hi]
        pool = pools.get(v)
        if pool is not None:
            # every member's window already holds v: the merge writes nothing
            m = pool[0] if len(pool) == 1 else \
                pool[int(gen.integers(len(pool)))]
            assigned[m].append(r)
            continue
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
        if candidates:
            # P(v): the full-overlap candidates, or m alone if none was full
            pools[v] = candidates if best_overlap == hi - lo else [m]
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


def score_assembly(contigs: list[Contig], pop: Population) -> bool:
    """Decide whether the contigs match the true allele rows one-to-one.

    Backtracking perfect matching, where a contig is compatible with a true
    row when all its determined SNPs agree. Undetermined SNPs are not
    failures here: a trial also needs per-individual coverage to succeed.
    """
    M = pop.M
    if len(contigs) != M:
        return False
    truth = pop.alleles
    compat = [[bool(((c.consensus == truth[m]) | (c.consensus == UNSET)).all())
               for m in range(M)] for c in contigs]

    used = [False] * M

    def assign(i: int) -> bool:
        if i == M:
            return True
        for m in range(M):
            if not used[m] and compat[i][m]:
                used[m] = True
                if assign(i + 1):
                    return True
                used[m] = False
        return False

    return assign(0)


def enumerate_assemblies(pop: Population, rs: ReadSet,
                         max_outcomes: int = 2) -> list[tuple[bytes, ...]]:
    """Enumerate all fully determined assemblies reachable by consistent
    read assignments, deduplicated up to contig permutation.

    Each outcome is a sorted tuple of M consensus rows (as bytes). An
    outcome requires every contig fully determined by its assigned reads,
    so it corresponds to a complete reconstruction the read set genuinely
    supports. Enumeration stops early once max_outcomes distinct outcomes
    are found; states are memoized per read index to prune symmetric
    assignments. Visiting more than ENUMERATION_STATE_CAP states raises
    CapacityError.
    """
    M = pop.M
    S = pop.S
    reads = [(lo, hi, rs.source[b + lo:b + hi])
             for lo, hi, b in zip(rs.cover_lo.tolist(), rs.cover_hi.tolist(),
                                  rs.base.tolist())
             if hi > lo]
    outcomes: set[tuple[bytes, ...]] = set()
    seen: set[tuple[int, tuple[bytes, ...]]] = set()
    states_visited = 0
    init = np.full((M, S), UNSET, dtype=np.int8)

    def dfs(idx: int, consensus: np.ndarray) -> bool:
        nonlocal states_visited
        states_visited += 1
        if states_visited > ENUMERATION_STATE_CAP:
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
