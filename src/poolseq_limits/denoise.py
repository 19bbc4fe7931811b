"""Block-wise read denoising: exact maximum likelihood and spectral.

A denoise block is a window of kappa biallelic SNP loci with n noisy
observation rows over {-1, +1} (-1 = major allele), each row a read's
content restricted to the window, assuming the read spans the whole
window. ML decoding returns the M-subset of the 2^kappa possible sequences
with the greatest scalar log-likelihood under the symmetric-flip channel,
at any kappa. A block with few candidate sets is enumerated, one chunk of
sets per matrix-vector product, and the sets near the running maximum are
rescored with the scalar log-likelihood, so that rounding never changes the
winner. A larger block is searched by branch and bound over bit prefixes,
within a node budget; it scores its leaves with the same scalar
log-likelihood and prunes only by a bound plus a rounding margin.
Spectral decoding thresholds the sample cross-correlation into a graph,
clusters its top eigenvector embedding, and majority-votes per cluster. The
embedding is computed on the block's distinct rows, weighted by their
counts, and lifted back to every row.
Sequences are scored as int64 codes (`_util.pack_rows`: first locus most
significant, +1 a set bit), so a Hamming distance is the popcount of an XOR
(`_util.hamming`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from ._util import candidate_sets, hamming, pack_rows, set_sums, unpack_rows
from .core import CapacityError, RandomStream, ValidationError

__all__ = [
    "DenoiseBlock",
    "SpectralResult",
    "ml_denoise",
    "nu_min_for_mode",
    "build_correlation_graph",
    "spectral_denoise",
    "majority_vote",
    "extract_block",
]

# ML decoding enumerates blocks with at most this many candidate sets
# C(2^kappa, M) and searches larger ones by branch and bound
ML_ENUMERATION_MAX = 5_000
# search nodes ML decoding expands before refusing a block
ML_NODE_BUDGET = 100_000
# SNPs an int64 sequence code holds
_CODE_BITS = 63
# individuals the ML search takes: a node has up to 2^M children
_SEARCH_MAX_M = 10
# float64 values in one chunk of ML candidate mixtures (1 MB)
ML_CHUNK_VALUES = 1 << 17
# spectral clustering: Lloyd iterations per run, random reseeds per block
LLOYD_MAX_ITER = 50
RESEED_ATTEMPTS = 5

WORST_CASE = "worst_case"
AVERAGE_CASE = "average_case"


@dataclass
class DenoiseBlock:
    """n noisy full-window observations of kappa SNPs; n and kappa are read
    from the (n, kappa) observation matrix."""

    observations: np.ndarray  # (n, kappa) int8 over {-1, +1}
    M: int
    eps: float

    def __post_init__(self):
        obs = np.asarray(self.observations)
        if obs.ndim != 2:
            raise ValidationError("observations must be an (n, kappa) matrix")
        # checked before the int8 cast, which would wrap 255 to -1
        if obs.size and not (np.abs(obs) == 1).all():
            raise ValidationError("observations must be -1/+1 valued")
        if not 0.0 <= self.eps <= 0.5:
            raise ValidationError(f"eps must be in [0, 0.5], got {self.eps}")
        if self.M < 1:
            raise ValidationError(f"M must be at least 1, got {self.M}")
        if obs.shape[1] < 1:
            raise ValidationError(
                f"kappa must be at least 1, got {obs.shape[1]}")
        self.observations = obs.astype(np.int8, copy=False)

    @property
    def n(self) -> int:
        return int(self.observations.shape[0])

    @property
    def kappa(self) -> int:
        return int(self.observations.shape[1])


@dataclass
class SpectralResult:
    sequences: np.ndarray      # (M, kappa) int8 consensus rows
    labels: np.ndarray         # (n,) cluster assignment
    degraded: bool
    reseeds: int


def ml_denoise(block: DenoiseBlock) -> np.ndarray:
    """Exact maximum-likelihood decoding over all M-subsets of sequences.

    Returns the decoded (M, kappa) int8 rows in lexicographic order (-1
    before +1): the set with the greatest scalar log-likelihood
    counts @ log(mix), mix being its summed x^hamming column per distinct
    observed row (x = eps / (1 - eps)); equal scores go to the
    lexicographically first set, so the result is deterministic. Blocks
    with at most ML_ENUMERATION_MAX candidate sets C(2^kappa, M) are
    enumerated (`_ml_enumerate`) and larger ones are searched by branch and
    bound (`_ml_search`); both return the set the one-candidate-at-a-time
    scalar loop returns, at any kappa, ties and rounding included. Raises
    CapacityError when the search needs more than ML_NODE_BUDGET nodes
    (where the reads hardly tell sets apart) or kappa exceeds the 63 bits
    of a sequence code, and ValidationError for an empty block or one with
    fewer than M possible sequences (M > 2^kappa).

    At eps = 0.5 every candidate scores n log M and the first set is
    returned without scoring. At eps = 0 a set scores 0 when it holds every
    observed row and -inf otherwise, so the first set holding them all is
    returned, or the first set when there are more than M distinct rows.
    """
    if block.n == 0:
        raise ValidationError("cannot denoise a block with no observations")
    kappa, M = block.kappa, block.M
    if M > 1 << kappa:
        raise ValidationError(f"{kappa} SNPs carry fewer than M={M} sequences")
    if kappa > _CODE_BITS:
        raise CapacityError(
            f"ML decoding holds at most {_CODE_BITS} SNPs, got {kappa}")
    first = tuple(range(M))
    x = block.eps / (1.0 - block.eps)
    if x == 1.0:
        return unpack_rows(first, kappa)
    distinct, counts = np.unique(pack_rows(block.observations),
                                 return_counts=True)
    if x == 0.0:
        if len(distinct) > M:
            return unpack_rows(first, kappa)
        # the observed rows and the smallest codes beside them
        free = np.setdiff1d(np.arange(M), distinct)[:M - len(distinct)]
        return unpack_rows(np.union1d(distinct, free), kappa)
    # a power that underflows to 0 gives a log of -inf, a score no set wins
    # by, and -inf plus the search's infinite margin is nan, which prunes none
    with np.errstate(divide="ignore", invalid="ignore"):
        if comb(1 << kappa, M) <= ML_ENUMERATION_MAX:
            best = _ml_enumerate(distinct, counts, kappa, M, x)
        else:
            best = _ml_search(distinct, counts, kappa, M, x)
    return unpack_rows(best, kappa)


def _scalar_score(counts: np.ndarray, xpow: np.ndarray) -> float:
    """The scalar log-likelihood of one candidate set from its (d, M)
    x^hamming columns; constants drop out of the argmax. The columns are
    laid out as the scalar loop gathers them, xpow[:, cand] from a (d, 2^kappa)
    table (Fortran order), so numpy adds each mix's M terms in its order."""
    return float(counts @ np.log(np.asfortranarray(xpow).sum(axis=1)))


def _ml_enumerate(distinct: np.ndarray, counts: np.ndarray, kappa: int,
                  M: int, x: float) -> tuple[int, ...]:
    """Score every candidate set, in lexicographic order, in chunks of
    ML_CHUNK_VALUES // (distinct rows) sets, each chunk as one
    matrix-vector product. That rounds differently from the scalar score by
    at most half of `_ml_margin`, so every candidate whose matrix score is
    within the margin of the running maximum is rescored with the scalar
    expression, in lexicographic order, and replaces the best only when
    strictly greater. When every candidate scores -inf (x^kappa underflows
    at a tiny eps) the first one is kept."""
    xpow = x ** hamming(distinct, np.arange(1 << kappa)).astype(float)
    margin = _ml_margin(_log_span(xpow, M), len(distinct), int(counts.sum()),
                        M)
    rows = np.ascontiguousarray(xpow.T)  # one row per sequence code
    every = candidate_sets(kappa, M)
    chunk = max(1, ML_CHUNK_VALUES // len(distinct))
    best, best_ll = tuple(range(M)), -np.inf
    top = -np.inf
    for start in range(0, len(every), chunk):
        sets = every[start:start + chunk]
        scores = np.log(set_sums(rows, sets)) @ counts
        top = max(top, scores.max())
        if top == -np.inf:  # no candidate yet explains every row
            continue
        for i in np.flatnonzero(scores >= top - margin):
            cand = tuple(sets[i].tolist())
            ll = _scalar_score(counts, xpow[:, cand])
            if ll > best_ll:
                best_ll, best = ll, cand
    return best


def _ml_search(distinct: np.ndarray, counts: np.ndarray, kappa: int, M: int,
               x: float) -> tuple[int, ...]:
    """Depth-first branch and bound over bit prefixes of the M sequences.

    The SNPs are searched in order of their minor-read count, largest
    first. A node fixes the first t searched bits of all M sequences, kept
    in non-decreasing code order, and holds each distinct row's Hamming
    distance a_ij to each prefix j. Any completion with suffix distances
    b_ij scores sum_i c_i log sum_j x^(a_ij + b_ij), at most
    sum_i c_i log sum_j x^a_ij + log x * sum_i c_i min_j b_ij, because
    x^(a+b) <= x^a x^(min_j b_j) for x <= 1; the last sum is at least
    `_median_floor`(t). Children are visited best bound first, and a node
    is dropped only when its bound plus `_ml_margin` falls strictly below
    the best scalar score found, so every set that could win or tie the
    scalar loop reaches a leaf. A leaf (t = kappa, codes strictly
    increasing) is mapped back to SNP order and scored with the scalar
    expression, and an equal score goes to the lexicographically first
    set. A node has up to 2^M children, so M above _SEARCH_MAX_M is
    refused.
    """
    if M > _SEARCH_MAX_M:
        raise CapacityError(
            f"ML search branches 2^M ways per node and takes M <= "
            f"{_SEARCH_MAX_M}, got M={M} with {comb(1 << kappa, M)} "
            f"candidate sets")
    bits = unpack_rows(distinct, kappa) > 0  # (d, kappa), first SNP first
    d, n = len(distinct), int(counts.sum())
    ones = counts @ bits
    order = np.argsort(-np.minimum(ones, n - ones), kind="stable")
    bits = bits[:, order]
    # a searched code's bit p is SNP order[p]'s
    weights = np.left_shift(1, kappa - 1 - order)
    powtab = x ** np.arange(kappa + 1, dtype=float)
    log_x = float(np.log(x))
    floor = _median_floor(bits, counts, M)
    margin = np.inf  # a subnormal power leaves no rounding bound
    if powtab[-1] >= np.finfo(np.float64).tiny:
        margin = _ml_margin(_log_span(powtab, M), d, n, M)
    # child bit patterns in lexicographic order, kept per set of equal
    # neighbouring prefixes: equal prefixes j, j+1 take bits b_j <= b_j+1,
    # and b_j < b_j+1 at the last column, as a leaf holds M distinct codes
    patterns = (np.arange(1 << M)[:, None] >> np.arange(M - 1, -1, -1)) & 1
    allowed: dict[tuple, tuple[np.ndarray, list]] = {}
    best, best_ll = tuple(range(M)), -np.inf
    nodes = 0
    # (bound, column t, parent's prefixes, bits added, distances)
    stack = [(np.inf, 0, (0,) * M, (0,) * M, np.zeros((M, d), np.uint8))]
    while stack:
        bound, t, parent, added, dist = stack.pop()
        if bound + margin < best_ll:
            continue
        codes = tuple(2 * c + b for c, b in zip(parent, added))
        if t == kappa:
            # score and compare the set as the scalar loop sees it
            own = (unpack_rows(codes, kappa) > 0) @ weights
            rank = np.argsort(own)
            cand = tuple(own[rank].tolist())
            ll = _scalar_score(counts, powtab[dist[rank].T])
            if ll > best_ll or (ll == best_ll and cand < best):
                best, best_ll = cand, ll
            continue
        nodes += 1
        if nodes > ML_NODE_BUDGET:
            raise CapacityError(
                f"ML search passed its budget of {ML_NODE_BUDGET} nodes at "
                f"kappa={kappa}, M={M}, {d} distinct reads")
        key = (t + 1 == kappa, *(a == b for a, b in zip(codes, codes[1:])))
        if key not in allowed:
            keep = np.ones(len(patterns), bool)
            for j in np.flatnonzero(key[1:]):
                keep &= patterns[:, j] + key[0] <= patterns[:, j + 1]
            allowed[key] = (patterns[keep],
                            [tuple(k) for k in patterns[keep].tolist()])
        kids, kid_bits = allowed[key]
        child_dist = dist + (kids[:, :, None] != bits[:, t])
        bounds = np.log(powtab[child_dist].sum(axis=1)) @ counts \
            + log_x * floor[t + 1]
        # best first off the stack: push the best child last; a child the
        # pop would drop already is not pushed
        for i in np.argsort(bounds, kind="stable").tolist():
            if not bounds[i] + margin < best_ll:
                stack.append((bounds[i], t + 1, codes, kid_bits[i],
                              child_dist[i]))
    return best


def _median_floor(bits: np.ndarray, counts: np.ndarray, M: int) -> np.ndarray:
    """floor[t] (t = 0..kappa) bounds from below the least total distance
    sum_i c_i min_j from the rows' columns t.. to any M sequences.

    Columns t.. are cut into blocks of 4; on each block the M sequences
    restrict to at most M patterns, so the block's least cost over
    M-subsets of its 16 patterns (0 when M >= 16) bounds their share from
    below, and the blocks add up. A block running past the last column is
    padded with columns every row and pattern hold as 0, which leaves its
    least cost that of its real columns."""
    d, kappa = bits.shape
    w = 4
    floor = np.zeros(kappa + w)
    if M >= 1 << w:
        return floor[:kappa + 1]
    padded = np.pad(bits, ((0, 0), (0, w - 1)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, w, axis=1)
    # (d, kappa): each row's pattern on the block starting at each column
    patterns = pack_rows(windows.reshape(-1, w)).reshape(d, kappa)
    weights = np.bincount(
        (patterns + (np.arange(kappa) << w)).ravel(),
        np.repeat(counts, kappa), minlength=kappa << w).reshape(kappa, -1)
    every = np.arange(1 << w)
    cover = hamming(every, every)[candidate_sets(w, M)].min(axis=1)
    block = (cover @ weights.T).min(axis=0)  # least cost of block t..t+w
    for t in range(kappa - 1, -1, -1):
        floor[t] = block[t] + floor[t + w]
    return floor[:kappa + 1]


def _log_span(xpow: np.ndarray, M: int) -> float:
    """The largest magnitude a finite log mix of M terms drawn from xpow
    can take: between log(min positive xpow) and log(M max xpow)."""
    return max(abs(np.log(xpow[xpow > 0].min())), abs(np.log(M * xpow.max())))


def _ml_margin(lam: float, d: int, n: int, M: int) -> float:
    """Twice a bound on how far the rounded forms of one ML score can lie
    apart: a scalar score and its matrix form, or a leaf's scalar score and
    a search bound over it (each against its exact value). The scores run
    over d distinct rows of n reads, and every finite log mix is at most lam
    in magnitude (`_log_span`).

    A score is a dot product of d counts summing to n with such logs; each
    form rounds it by at most d u n lam (u = eps_mach / 2). A log mix is off
    by u lam for its rounding plus the relative error of its mix: at most
    (M + 1) u from the M powers and their sum, whatever order numpy adds
    them in. A search bound adds log x times an integer of at most n kappa,
    which rounds by at most 4 u n lam.
    """
    return 2.0 * np.finfo(np.float64).eps * n * ((2 * d + 8) * lam + M + 4)


def nu_min_for_mode(mode: str, kappa: int, eta: float | None) -> float:
    """Minimum pairwise Hamming distance assumed by the analysis mode."""
    if mode == WORST_CASE:
        return min(1.0, float(kappa)) if kappa > 0 else 0.0
    if mode == AVERAGE_CASE:
        if eta is None:
            raise ValidationError("average_case mode needs eta")
        return kappa * (1.0 - eta)
    raise ValidationError(f"unknown mode {mode!r}")


def build_correlation_graph(block: DenoiseBlock, mode: str = WORST_CASE,
                            eta: float | None = None) -> np.ndarray:
    """Adjacency matrix A[i, j] = 1 iff the sample cross-correlation
    C = X X^T / kappa has C[i, j] >= (1-2 eps)^2 (1 - nu_min / kappa), the
    threshold separating the expected same-individual correlation from the
    closest cross-individual one."""
    if block.n < 1:
        raise ValidationError("correlation graph needs at least one observation")
    nu_min = nu_min_for_mode(mode, block.kappa, eta)
    tau_c = (1.0 - 2.0 * block.eps) ** 2 * (1.0 - nu_min / block.kappa)
    X = block.observations.astype(np.float64)
    C = X @ X.T / block.kappa
    return (C >= tau_c).astype(np.int8)


def majority_vote(rows: np.ndarray) -> np.ndarray:
    """Per-column majority over observation rows; ties go to the major
    allele (-1)."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValidationError("majority vote needs a non-empty row set")
    sums = rows.sum(axis=0)
    return np.where(sums > 0, 1, -1).astype(np.int8)


def _farthest_point_seed(emb: np.ndarray, M: int) -> np.ndarray:
    norms = np.einsum("ij,ij->i", emb, emb)
    centers = [int(np.argmax(norms))]
    d2 = ((emb - emb[centers[0]]) ** 2).sum(axis=1)
    for _ in range(1, M):
        nxt = int(np.argmax(d2))
        centers.append(nxt)
        d2 = np.minimum(d2, ((emb - emb[nxt]) ** 2).sum(axis=1))
    return emb[centers].copy()


def _lloyd(emb: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, bool]:
    M = centers.shape[0]
    labels = None
    for _ in range(LLOYD_MAX_ITER):
        d2 = ((emb[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        if (np.bincount(new_labels, minlength=M) == 0).any():
            return new_labels, False
        if labels is not None and (new_labels == labels).all():
            break
        labels = new_labels
        for m in range(M):
            centers[m] = emb[labels == m].mean(axis=0)
    return labels, True


def _spectral_embedding(block: DenoiseBlock, mode: str,
                        eta: float | None) -> np.ndarray:
    """Each row's coordinates in the top-M eigenvector span of the
    correlation graph A, one column per eigenvector (fewer when the block
    has fewer than M distinct rows).

    Identical rows have identical adjacency rows, so A = P B P^T with P
    the n x u membership matrix of the u distinct rows and B their graph.
    With W = P^T P = diag(counts), every eigenpair (mu, y) of
    S = W^1/2 B W^1/2 gives the unit eigenpair (mu, P W^-1/2 y) of A, and
    A's other eigenvalues are 0; so when A's M-th eigenvalue is positive,
    its top-M eigenspace is S's lifted back to the rows.
    """
    # rows packed to bytes: one 1-D unique is far cheaper than unique(axis=0)
    packed = np.packbits(block.observations > 0, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True)
    distinct = DenoiseBlock(observations=block.observations[first],
                            M=block.M, eps=block.eps)
    B = build_correlation_graph(distinct, mode=mode, eta=eta)
    root = np.sqrt(counts)
    _, y = np.linalg.eigh(B * np.outer(root, root))
    return (y[:, -block.M:] / root[:, None])[inverse]


def spectral_denoise(block: DenoiseBlock, stream: RandomStream,
                     mode: str = WORST_CASE,
                     eta: float | None = None) -> SpectralResult:
    """Cluster observations into M communities and majority-vote per cluster.

    Embeds the rows of the thresholded adjacency matrix into its top-M
    eigenvector span, computed on the distinct rows and lifted back to
    every row (`_spectral_embedding`), seeds M centers by farthest-point
    traversal, runs bounded Lloyd iterations, and reseeds (perturbed, from
    the stream) when a cluster empties; after the attempt budget the result
    is flagged degraded, as it is for a block with fewer than M distinct
    rows. Deterministic for a fixed block and stream.
    """
    if block.n < block.M:
        raise ValidationError("spectral denoising needs at least M observations")
    M = block.M
    emb = _spectral_embedding(block, mode, eta)
    centers = _farthest_point_seed(emb, M)
    labels, okay = _lloyd(emb, centers)
    reseeds = 0
    if not okay:
        rng = stream.child("spectral_reseed")
        while not okay and reseeds < RESEED_ATTEMPTS:
            reseeds += 1
            idx = rng.child(reseeds).gen.choice(block.n, size=M, replace=False)
            labels, okay = _lloyd(emb, emb[idx].copy())
    degraded = not okay
    sequences = np.empty((M, block.kappa), dtype=np.int8)
    for m in range(M):
        members = block.observations[labels == m]
        if members.shape[0] == 0:
            sequences[m] = majority_vote(block.observations)
        else:
            sequences[m] = majority_vote(members)
    if len({r.tobytes() for r in sequences}) != M:
        degraded = True
    return SpectralResult(sequences=sequences, labels=labels,
                          degraded=degraded, reseeds=reseeds)


def extract_block(rs, window: tuple[float, float], eps: float) -> DenoiseBlock:
    """Build a denoise block from the reads fully covering a window.

    Only reads with start <= window start and start + L >= window end
    contribute; each contributes its alleles at the SNP indices inside the
    window as one full-length row. The window's SNP j of read r sits at
    rs.source[base[r] + j], so the block is one gather from the reads'
    bases. A window holding no SNP raises ValidationError, as a block
    needs kappa >= 1.
    """
    lo_pos, hi_pos = window
    pop = rs.population
    L = rs.config.L
    snp_lo = int(np.searchsorted(pop.snp_positions, lo_pos, side="left"))
    snp_hi = int(np.searchsorted(pop.snp_positions, hi_pos, side="left"))
    kappa = snp_hi - snp_lo
    r_hi = int(np.searchsorted(rs.starts, lo_pos, side="right"))
    r_lo = int(np.searchsorted(rs.starts, hi_pos - L, side="left"))
    # empty when r_hi < r_lo, as when the window is longer than a read
    obs = rs.source[(rs.base[r_lo:r_hi] + snp_lo)[:, None] + np.arange(kappa)]
    return DenoiseBlock(observations=obs, M=rs.config.M, eps=eps)
