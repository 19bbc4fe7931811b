"""Small numeric helpers shared across modules."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

Z_95 = 1.959963984540054
POISSON_TAIL = 1e-12  # mass poisson_weights may leave out
BISECT_MAX_ITER = 200  # evaluations bisect_decreasing makes at most


def clamp01(x: float) -> float:
    return min(1.0, max(0.0, float(x)))


def wilson_interval(k: int, n: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (95% by default)."""
    if n == 0:
        return 0.0, 1.0
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _golden_search(f, lo: float, hi: float, iters: int,
                   sign: float) -> tuple[float, float]:
    """Golden-section search on [lo, hi] for the point minimising
    sign * f (sign is 1.0 or -1.0, an exact negation); the least of the
    final bracket and both endpoints wins, the first listed on ties."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = sign * f(c), sign * f(d)
    for _ in range(iters):
        # b - a < 1e-14 * max(1, |a|), which is 1 for a NaN a
        if b - a < 1e-14 * (a if a > 1.0 else -a if -a > 1.0 else 1.0):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = sign * f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = sign * f(d)
    x, value = min([(lo, sign * f(lo)), (hi, sign * f(hi)), (c, fc), (d, fd)],
                   key=lambda t: t[1])
    return x, sign * value


def golden_max(f, lo: float, hi: float, iters: int = 120) -> tuple[float, float]:
    """Golden-section maximization of a unimodal-ish f on [lo, hi].

    Returns (argmax, max). Endpoints are also evaluated, so the result is
    never worse than the better endpoint even if f is not unimodal.
    """
    return _golden_search(f, lo, hi, iters, -1.0)


def golden_min(f, lo: float, hi: float, iters: int = 120) -> tuple[float, float]:
    """Golden-section minimization: (argmin, min), as golden_max."""
    return _golden_search(f, lo, hi, iters, 1.0)


def _bit_weights(kappa: int) -> np.ndarray:
    return np.left_shift(1, np.arange(kappa - 1, -1, -1, dtype=np.int64))


def pack_rows(rows) -> np.ndarray:
    """Encode each row of an (n, kappa) +-1 array as an int64 code, first
    column most significant, so code order is lexicographic row order with
    -1 < +1."""
    rows = np.asarray(rows)
    return (rows > 0) @ _bit_weights(rows.shape[1])


def unpack_rows(codes, kappa: int) -> np.ndarray:
    """Decode int64 codes back into an (n, kappa) int8 +-1 array."""
    bits = np.asarray(codes, dtype=np.int64)[:, None] & _bit_weights(kappa)
    return np.where(bits != 0, 1, -1).astype(np.int8)


def hamming(a, b) -> np.ndarray:
    """Hamming distances between every code of a and every code of b, as
    uint8 counts."""
    return np.bitwise_count(np.bitwise_xor.outer(a, b))


@lru_cache(maxsize=64)
def candidate_sets(n: int, M: int) -> np.ndarray:
    """Every M-subset of the codes 0..n-1 (the 2^kappa sequence codes for
    n = 2^kappa), in lexicographic order, as one read-only (C(n, M), M)
    int64 array, built once per (n, M): ML decoding asks for the same small
    tables block after block.

    Built column by column: each subset so far is repeated once for every
    value its next member can take (above its last member, leaving room
    for the members after it), so the rows stay in lexicographic order."""
    top = n - M  # the largest first member
    sets = np.arange(top + 1, dtype=np.int64)[:, None]
    for j in range(1, M):
        last = sets[:, -1]
        reps = top + j - last  # next member in last + 1 .. top + j
        starts = np.cumsum(reps) - reps
        nxt = np.arange(int(reps.sum()), dtype=np.int64) \
            - np.repeat(starts - last - 1, reps)
        sets = np.column_stack([np.repeat(sets, reps, axis=0), nxt])
    sets.flags.writeable = False
    return sets


def set_sums(rows: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Sum of each set's member rows: out[i] = rows[sets[i, 0]] +
    rows[sets[i, 1]] + ..., added left to right so every caller rounds
    alike."""
    out = rows[sets[:, 0]]
    for j in range(1, sets.shape[1]):
        out += rows[sets[:, j]]
    return out


def poisson_weights(mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Poisson pmf support truncated to total mass >= 1 - POISSON_TAIL.

    Returns (ks, weights). Expands outward from the mode so large means do
    not require summing from zero. Also stops once the next two terms
    cannot change the rounded total: rounding in the mode weight, which
    grows with mu, can hold the total below 1 - POISSON_TAIL for good.
    """
    if mu <= 0.0:
        return np.array([0]), np.array([1.0])
    mode = int(mu)
    logw_mode = mode * math.log(mu) - mu - math.lgamma(mode + 1)
    total = math.exp(logw_mode)
    # weights above the mode ascending, from it; below it descending
    up, down = [total], []
    lo, hi = mode, mode
    # the next weight on each side, from the last one taken there
    w_up = total * mu / (hi + 1)
    w_down = total * lo / mu if lo > 0 else 0.0
    floor = 1.0 - POISSON_TAIL
    while total < floor:
        if total + (w_up + w_down) == total:
            break
        if w_up >= w_down:
            hi += 1
            up.append(w_up)
            total += w_up
            w_up = w_up * mu / (hi + 1)
        else:
            lo -= 1
            down.append(w_down)
            total += w_down
            w_down = w_down * lo / mu if lo > 0 else 0.0
        if hi - lo > 100000:
            break
    down.reverse()
    return np.arange(lo, hi + 1), np.asarray(down + up)


def bisect_decreasing(f, target: float, lo: float, hi: float,
                      rtol: float = 1e-3):
    """Find x in [lo, hi] with f(x) ~= target for non-increasing f.

    Returns (x, iterations) or (None, iterations) when the target is not
    bracketed (f stays above target on the whole interval). Iterations
    count evaluations of f, at most BISECT_MAX_ITER.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_hi > target:
        return None, 2
    if f_lo <= target:
        return lo, 2
    it = 2
    a, b = lo, hi
    while it < BISECT_MAX_ITER and (b - a) > rtol * max(abs(b), 1.0):
        mid = 0.5 * (a + b)
        if f(mid) <= target:
            b = mid
        else:
            a = mid
        it += 1
    return b, it


def format_g(x) -> str:
    """Deterministic compact float formatting for CSV output."""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)
