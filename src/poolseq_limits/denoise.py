"""Block-wise read denoising: exhaustive maximum likelihood and spectral.

A denoise block is a window of kappa biallelic SNP loci with n noisy
observation rows over {-1, +1} (-1 = major allele), each row a read's
content restricted to the window, assuming the read spans the whole
window. ML decoding scores every M-subset of the 2^kappa possible
sequences under the symmetric-flip channel, one chunk of candidate sets
per matrix-vector product, and rescores the sets near the running maximum
with the scalar log-likelihood so that rounding never changes the winner;
spectral decoding thresholds the sample cross-correlation into a graph,
clusters its top eigenvector embedding, and majority-votes per cluster. The
embedding is computed on the block's distinct rows, weighted by their
counts, and lifted back to every row.
Sequences are scored as int64 codes (`_util.pack_rows`: first locus most significant, +1 a set bit), so
a Hamming distance is the popcount of an XOR (`_util.hamming`).
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

ML_CANDIDATE_CAP = 10_000_000
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
    before +1). Ties are broken by lexicographic order of the candidate
    set, so the result is deterministic. Raises CapacityError when the
    candidate count C(2^kappa, M) exceeds the enumeration cap and
    ValidationError for an empty block or one with fewer than M possible
    sequences (M > 2^kappa).

    A candidate's score is the scalar log-likelihood counts @ log(mix),
    with mix its summed x^hamming column per distinct observed row. The
    candidates are walked in lexicographic order, in chunks of
    ML_CHUNK_VALUES // (distinct rows) sets, and each chunk is scored as
    one matrix-vector product, which rounds differently from the scalar
    score by at most half of `_ml_margin`. Every candidate whose matrix
    score is within that margin of the running maximum is rescored with
    the scalar expression, in lexicographic order, and replaces the best
    only when strictly greater, so the result is the scalar loop's. When
    every candidate scores -inf (possible at eps = 0) the first one is
    kept; at eps = 0.5 every candidate scores n log M and the first one is
    returned without scoring.
    """
    if block.n == 0:
        raise ValidationError("cannot denoise a block with no observations")
    kappa, M = block.kappa, block.M
    if M > 1 << kappa:
        raise ValidationError(f"{kappa} SNPs carry fewer than M={M} sequences")
    n_cand = comb(1 << kappa, M)
    if n_cand > ML_CANDIDATE_CAP:
        raise CapacityError(
            f"ML enumeration needs {n_cand} candidates (cap {ML_CANDIDATE_CAP})")
    best = tuple(range(M))
    x = block.eps / (1.0 - block.eps)
    if x == 1.0:
        return unpack_rows(best, kappa)
    distinct, counts = np.unique(pack_rows(block.observations),
                                 return_counts=True)
    xpow = x ** hamming(distinct, np.arange(1 << kappa)).astype(float)
    margin = _ml_margin(xpow, block.n, M)
    rows = np.ascontiguousarray(xpow.T)  # one row per sequence code
    chunk = max(1, ML_CHUNK_VALUES // len(distinct))
    best_ll = top = -np.inf
    with np.errstate(divide="ignore"):
        for sets in candidate_sets(kappa, M, chunk):
            scores = np.log(set_sums(rows, sets)) @ counts
            top = max(top, scores.max())
            if top == -np.inf:  # no candidate yet explains every row
                continue
            for i in np.flatnonzero(scores >= top - margin):
                cand = tuple(sets[i].tolist())
                # the scalar score; constants drop out of the argmax
                ll = float(counts @ np.log(xpow[:, cand].sum(axis=1)))
                if ll > best_ll:
                    best_ll, best = ll, cand
    return unpack_rows(best, kappa)


def _ml_margin(xpow: np.ndarray, n: int, M: int) -> float:
    """Twice a bound on |matrix score - scalar score| for any ML candidate.

    A finite log mix lies between log(min positive xpow) and log(M max
    xpow), so its magnitude is at most lam. A score is a dot product of d
    counts summing to n with such logs; each form rounds it by at most
    d u n lam (u = eps_mach / 2). The two forms' logs of one mix differ by
    a few ulp of lam where they add its M terms in the same order, and by
    about M u more where they do not (numpy's sum reorders 8 or more
    terms). The two scores therefore differ by at most half the
    returned margin, and the scalar winner's matrix score is at least the
    top matrix score minus the margin.
    """
    d = xpow.shape[0]
    lam = max(abs(np.log(xpow[xpow > 0].min())), abs(np.log(M * xpow.max())))
    return 2.0 * np.finfo(np.float64).eps * n * ((2 * d + 8) * lam + M)


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
