"""Small numeric helpers shared across modules."""

from __future__ import annotations

import math

import numpy as np

Z_95 = 1.959963984540054


def clamp01(x: float) -> float:
    return min(1.0, max(0.0, float(x)))


def binomial_sigma(p: float, n: int) -> float:
    """Standard deviation of a binomial proportion estimate at true rate p."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def wilson_interval(k: int, n: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (95% by default)."""
    if n == 0:
        return 0.0, 1.0
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def golden_max(f, lo: float, hi: float, iters: int = 120) -> tuple[float, float]:
    """Golden-section maximization of a unimodal-ish f on [lo, hi].

    Returns (argmax, max). Endpoints are also evaluated, so the result is
    never worse than the better endpoint even if f is not unimodal.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if b - a < 1e-14 * max(1.0, abs(a)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    cands = [(lo, f(lo)), (hi, f(hi)), (c, fc), (d, fd)]
    return max(cands, key=lambda t: t[1])


def golden_min(f, lo: float, hi: float, iters: int = 120) -> tuple[float, float]:
    x, fx = golden_max(lambda t: -f(t), lo, hi, iters)
    return x, -fx


def integral_u_exp(alpha: float, upper: float) -> float:
    """Evaluate the integral of u*exp(-alpha*u) for u in [0, upper].

    Stable for alpha*upper near zero (series branch avoids cancellation).
    """
    a = alpha * upper
    if abs(a) < 1e-6:
        return upper * upper * (0.5 - a / 3.0 + a * a / 8.0 - a ** 3 / 30.0)
    return (1.0 - (1.0 + a) * math.exp(-a)) / (alpha * alpha)


# set-bit count of every integer below 2^16; hamming sums it over 16-bit chunks
_POPCOUNT16 = sum((np.arange(1 << 16, dtype=np.int64) >> b) & 1 for b in range(16))
_POPCOUNT16.flags.writeable = False


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


def hamming(a, b, kappa: int) -> np.ndarray:
    """Hamming distances between every code of a and every code of b."""
    diff = np.bitwise_xor.outer(a, b)
    return sum(_POPCOUNT16[(diff >> s) & 0xFFFF]
               for s in range(0, max(kappa, 1), 16))


def poisson_weights(mu: float, tail: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Poisson pmf support truncated to total mass >= 1 - tail.

    Returns (ks, weights). Expands outward from the mode so large means do
    not require summing from zero.
    """
    if mu <= 0.0:
        return np.array([0]), np.array([1.0])
    mode = int(mu)
    logw_mode = mode * math.log(mu) - mu - math.lgamma(mode + 1)
    ks = [mode]
    ws = [math.exp(logw_mode)]
    lo, hi = mode, mode
    w_lo, w_hi = ws[0], ws[0]
    total = ws[0]
    while total < 1.0 - tail:
        w_up = w_hi * mu / (hi + 1)
        w_down = w_lo * lo / mu if lo > 0 else 0.0
        if w_up >= w_down:
            hi += 1
            w_hi = w_up
            ks.append(hi)
            ws.append(w_hi)
            total += w_hi
        else:
            lo -= 1
            w_lo = w_down
            ks.insert(0, lo)
            ws.insert(0, w_lo)
            total += w_lo
        if hi - lo > 100000:
            break
    return np.asarray(ks), np.asarray(ws)


def bisect_decreasing(f, target: float, lo: float, hi: float,
                      rtol: float = 1e-3, max_iter: int = 200):
    """Find x in [lo, hi] with f(x) ~= target for non-increasing f.

    Returns (x, iterations) or (None, iterations) when the target is not
    bracketed (f stays above target on the whole interval).
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_hi > target:
        return None, 2
    if f_lo <= target:
        return lo, 2
    it = 2
    a, b = lo, hi
    while it < max_iter and (b - a) > rtol * max(abs(b), 1.0):
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
