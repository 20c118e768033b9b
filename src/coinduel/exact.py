"""The numpy solvers: exhaustive enumeration over all 2^n sequences, with
arbitrary head probability p; the float solver, transform_distribution,
which reads the law off one FFT of the score chain's generating function,
in O(n log n); and the exact DP's O(n^2) float twin, which serves `table`
above n = 4096 only and which verify checks against fair_scan.

The exact rational DP and the outcome records live in `rational`, which
imports no numpy.

Everything reports the final-score trichotomy pA = P(S_n < 0),
pB = P(S_n > 0), pTie = P(S_n = 0): Alice collects a point per HH, Bob per
HT, and the winner is whoever has more after n flips.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .rational import ExactDistribution, FloatDistribution, _as_float_probability, _as_probability

# not used here: the benchmark's tracer names these two as exact.X
from .rational import dp_distribution, dp_series

ENUM_MAX_N = 30
# the float DP is O(n^2): at this cap a table row takes about 2 s (2-vCPU Xeon)
DP_FLOAT_MAX_N = 30_000
# transform_distribution's arrays take about 81 bytes per flip: at this cap
# it adds 81 MiB of peak RSS and runs in under a second (2-vCPU Xeon)
TRANSFORM_MAX_N = 10**6
# transform_distribution squares its tilt r ~ 2p/q, which underflows below
# p ~ 1e-154; this floor keeps r^2 and z r normal floats
TRANSFORM_MIN_P = 1e-150
_U = 2.0**-53


def _omega_scores(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every b in Omega_n, in order and in chunks of 2^18, with its S_n.

    Yields (bits, scores): bit i of bits[j] is flip i+1, and scores[j] =
    #HT - #HH counted by popcounts of the pair masks.
    """
    pair_mask = np.uint64((1 << (n - 1)) - 1) if n >= 2 else np.uint64(0)
    chunk = 1 << 18  # 2 MiB of bits
    for lo in range(0, 1 << n, chunk):
        bits = np.arange(lo, min(lo + chunk, 1 << n), dtype=np.uint64)
        shifted = bits >> np.uint64(1)
        ht = np.bitwise_count(bits & ~shifted & pair_mask)
        hh = np.bitwise_count(bits & shifted & pair_mask)
        yield bits, np.subtract(ht, hh, dtype=np.int16)


def _sign_head_counts(n: int) -> np.ndarray:
    """Counts of sequences in Omega_n by (sign of S_n, number of heads).

    Rows: 0 = score < 0, 1 = score > 0, 2 = score = 0.
    """
    counts = np.zeros((3, n + 1), dtype=np.int64)
    for bits, s in _omega_scores(n):
        heads = np.bitwise_count(bits).astype(np.int64)
        sign = np.where(s < 0, 0, np.where(s > 0, 1, 2))
        key = sign * (n + 1) + heads
        counts += np.bincount(key, minlength=3 * (n + 1)).reshape(3, n + 1)
    return counts


def enumerate_distribution(n: int, p=Fraction(1, 2)) -> ExactDistribution:
    """Sum the weight p^heads (1-p)^tails of every sequence, by score sign."""
    if not 1 <= n <= ENUM_MAX_N:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUM_MAX_N}")
    p = _as_probability(p)
    q = 1 - p
    counts = _sign_head_counts(n)
    weights = [p**h * q ** (n - h) for h in range(n + 1)]
    pA, pB, pTie = (
        sum(int(counts[row, h]) * weights[h] for h in range(n + 1)) for row in range(3)
    )
    return ExactDistribution(n, p, pA, pB, pTie)


def _dp_float_bands(
    n: int, p: float, steps: Iterable[int]
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Float twin of _dp_scan's band: yields (k, H band, T band) for each k in
    steps, a subset of 1..n, in increasing order; a band holds the
    probabilities of the reachable states after step k, with score 0 at
    index k - 1.  The DP stops at the last step asked for.

    H and T are the two rows of one (2, size) buffer, so a step is one add,
    of H(s+1) and H(s-1) to T(s), into both new rows and one multiply of them
    by (p, q); each cell is still fl(fl(H(s±1) + T(s)) * p|q).

    The arrays are views of buffers that the next step overwrites, so read
    each before asking for the next.  n is at most DP_FLOAT_MAX_N.
    """
    if n > DP_FLOAT_MAX_N:
        raise ValueError(
            f"the O(n^2) float DP is capped at n = {DP_FLOAT_MAX_N}, where it takes 2 s"
        )
    p = _as_float_probability(p)
    wanted = set(steps)
    last = max(wanted, default=0)
    q = 1.0 - p
    size = n + n // 2 + 3
    off = n
    cur = np.zeros((2, size))
    new = np.zeros((2, size))
    # column j of these views is (H[j + 2], H[j]): the H cells that cell
    # j + 1 reads after an H and after a T flip
    cur_from = sliding_window_view(cur[0], size - 2)[::-2]
    new_from = sliding_window_view(new[0], size - 2)[::-2]
    by_flip = np.array([[p], [q]])
    cur[:, off] = p, q
    if 1 in wanted:
        yield 1, cur[0, off : off + 1], cur[1, off : off + 1]
    for k in range(2, last + 1):
        lo = off - (k - 1)
        hi = off + k // 2
        # cells outside every band stay at their initial zero: bands only
        # grow, so reads one past the previous band always see 0
        band = new[:, lo : hi + 1]
        np.add(cur_from[:, lo - 1 : hi], cur[1, lo : hi + 1], out=band)
        band *= by_flip
        cur, new = new, cur
        cur_from, new_from = new_from, cur_from
        if k in wanted:
            yield k, cur[0, lo : hi + 1], cur[1, lo : hi + 1]


def _float_sign_sums(h: np.ndarray, t: np.ndarray, k: int) -> tuple[float, float, float]:
    """(below, equal, above) of the step-k band that _dp_float_bands yields."""
    if k == 1:
        # one flip always ties, though p + (1 - p) may round off 1
        return 0.0, 1.0, 0.0
    zero = k - 1
    below = float(h[:zero].sum() + t[:zero].sum())
    equal = float(h[zero] + t[zero])
    above = float(h[zero + 1 :].sum() + t[zero + 1 :].sum())
    return below, equal, above


def _rounding_bound(n: int) -> float:
    # crude forward bound: <= 3 roundings per state per step plus summation
    # slack; observed drift against exact rationals is ~1e3 times smaller
    return (3.0 * n + 64.0) * 2.0**-53


def dp_float_series(n_max: int, p: float = 0.5) -> list[FloatDistribution]:
    """FloatDistribution for every n = 1..n_max from a single forward pass."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    pf = float(p)
    out = []
    for k, h, t in _dp_float_bands(n_max, pf, range(1, n_max + 1)):
        below, equal, above = _float_sign_sums(h, t, k)
        out.append(FloatDistribution(k, pf, below, above, equal, _rounding_bound(k)))
    return out


def _fft_length(m: int) -> int:
    """Smallest even 5-smooth integer >= m: pocketfft runs such a length in
    radix-2, 3, 4 and 5 passes only."""
    best = 1 << max(m - 1, 1).bit_length()
    odd5 = 1
    while odd5 < m:
        odd = odd5
        while odd < m:
            length = 2 * odd
            while length < m:
                length *= 2
            best = min(best, length)
            odd *= 3
        odd5 *= 5
    return best


def _saddle_tilt(p: float, q: float) -> float:
    """The r > 0 at which lambda_+(r), the dominant eigenvalue of M(r), is least.

    Setting d lambda/dr = 0 in the characteristic equation
    lambda^2 - (p/r + q) lambda + pq (1/r - r) = 0 gives lambda = q (1 + r^2),
    and substituting back leaves r^3 + r = 2p/q.  Newton's method on that
    convex cubic, started where it is >= 0, falls monotonically onto the
    root; at p = 1/2 it stops on r = 1 exactly.
    """
    c = 2.0 * p / q
    r = c if c <= 1.0 else c ** (1.0 / 3.0)
    while True:
        step = r - (r * r * r + r - c) / (3.0 * r * r + 1.0)
        if not step < r:
            return r
        r = step


def _tilt_scalars(p: float, r: float) -> tuple[float, float, float]:
    """(lam, eps, e0) for the tilt r, each rounded once from exact rationals.

    lam = fl(q (1 + r^2)) is the scale, with q = 1 - p exactly.  lam_r, the
    dominant eigenvalue of M(r), is irrational; eps = lam - lam_r is one
    Newton step chi(lam) / chi'(lam) on its characteristic polynomial, good
    to O(eps^2).  e0 = q (1 + r^2) - lam_r vanishes at the exact saddle.
    """
    p_, r_ = Fraction(p), Fraction(r)
    q_ = 1 - p_
    saddle = q_ * (1 + r_ * r_)
    lam = float(saddle)
    lam_ = Fraction(lam)
    trace = p_ / r_ + q_
    eps = (lam_ * lam_ - trace * lam_ + p_ * q_ * (1 / r_ - r_)) / (2 * lam_ - trace)
    return lam, float(eps), float(saddle - lam_ + eps)


def _tilted_spectrum(n: int, p: float, r: float, size: int) -> tuple[np.ndarray, float, float]:
    """(g, bound, lam): g_j = G(r e^{i theta_j}) / lam^(n-1) at theta_j = 2 pi j / size
    for j = 0..size/2, and the RMS over the whole circle of its evaluation
    error bound (term 1 of transform_distribution's docstring)."""
    k = n - 1
    q = 1.0 - p
    lam, eps, e0 = _tilt_scalars(p, r)
    half = size // 2 + 1
    # w = z - r = r (e^{i theta} - 1) from the half angle, so that z near r
    # keeps its relative accuracy
    angle = np.arange(half, dtype=float)
    angle *= math.pi / size
    sin_h = np.sin(angle)
    cos_h = np.cos(angle, out=angle)
    w = np.empty(half, dtype=complex)
    np.multiply(sin_h, -2.0 * r, out=w.real)
    w.real *= sin_h
    np.multiply(sin_h, 2.0 * r, out=w.imag)
    w.imag *= cos_h
    del sin_h, cos_h, angle
    z = w + r
    # coef holds 1/z, then c = [p, q] M(z) [1, 1]^T, then b = c / lambda_1 - 1
    coef = np.conj(z)
    coef /= r * r  # 1/z on the circle
    lam1 = coef * p
    lam1 += q  # trace of M(z)
    lam2 = coef - z
    lam2 *= p * q  # determinant of M(z)
    root = lam1 * lam1
    root -= 4.0 * lam2
    np.sqrt(root, out=root)
    # the sign that gives the root of larger modulus: Re(trace conj(root)) >= 0
    np.negative(root, out=root, where=root.real * lam1.real + root.imag * lam1.imag < 0)
    lam1 += root
    lam1 *= 0.5
    lam2 /= lam1
    # d = lambda_1(z) / lam - 1 = (p w (q r w + e0) / (z r (lam_r - lambda_2)) - eps) / lam
    d = w * (q * r)
    d += e0
    d *= w
    d *= p
    np.subtract(lam - eps, lam2, out=root)
    root *= z
    root *= r
    d /= root
    d -= eps
    d /= lam
    del w
    coef *= p * p
    z *= p * q
    coef += z
    coef += q
    coef /= lam1
    coef -= 1.0
    lam2 /= lam1  # rho = lambda_2 / lambda_1
    del z, lam1
    rho_abs = np.abs(lam2)
    # rho = 0 where M(z) is singular, as at z = 1 for p = 1/2: log(rho) = -inf,
    # which the k-scaling and expm1 below carry to rho^k = 0 and h = 1
    with np.errstate(divide="ignore"):
        np.log(lam2, out=lam2)
    # h = (1 - rho^k) / (1 - rho), by expm1 so that rho near 1 keeps h near k
    h = lam2.copy()
    h.real *= k
    h.imag *= k
    np.expm1(h, out=h)
    np.expm1(lam2, out=root)
    h /= root
    del lam2, root
    # env_j / |x^k| = (2 + k (|d|/|1+d| + |log1p d|)) (1 + |b||h|)
    #                 + |b| min(k^2/2, a/(1-a)^2), with a = |rho|
    sens = 1.0 - rho_abs
    sens *= sens
    with np.errstate(divide="ignore"):  # a = 1 where |lambda_2| = |lambda_1|
        np.divide(rho_abs, sens, out=sens)
    np.minimum(sens, 0.5 * k * k, out=sens)
    b_abs = np.abs(coef)
    sens *= b_abs
    b_abs *= np.abs(h)
    b_abs += 1.0
    env = np.abs(d)
    env /= np.abs(d + 1.0)
    np.log1p(d, out=d)
    env += np.abs(d)
    env *= k
    env += 2.0
    env *= b_abs
    env += sens
    del b_abs, sens, rho_abs
    d.real *= k
    d.imag *= k
    np.exp(d, out=d)  # x^k = (lambda_1 / lam)^k
    h *= coef
    h += 1.0
    h *= d  # g = x^k (1 + b h)
    env *= np.abs(d)
    sq = float(np.dot(env, env))
    total = 2.0 * sq - env[0] ** 2 - env[-1] ** 2
    return h, math.sqrt(total / size), lam


def _class_sum(coeffs: np.ndarray, log_r: float, eps_t: float) -> tuple[float, float]:
    """(S, bound): S = sum_i coeffs[i-1] r^(-i) over i = 1..len, the tilted
    coefficients of one sign class with the tilt undone, and the bound of
    term 3 of transform_distribution's docstring, in units of the scale."""
    y = np.arange(1, len(coeffs) + 1, dtype=float)
    y *= abs(log_r)
    weights = np.exp(-y)
    weight_norm = math.sqrt(float(np.dot(weights, weights)))
    weights *= coeffs
    total = math.fsum(weights)
    np.abs(weights, out=weights)
    y *= 2.0
    y += 3.0
    spread = float(np.dot(weights, y))
    return total, eps_t * weight_norm + _U * (spread + abs(total))


def transform_distribution(n: int, p=Fraction(1, 2)) -> FloatDistribution:
    """Distribution of the final-score sign after n flips in floats, in
    O(n log n), from one FFT of the score chain tilted to its saddle point.

    The law of S_n has generating function G(z) = sum_s c_s z^s =
    [p, q] M(z)^(n-1) [1, 1]^T, M(z) = [[p/z, q z], [p, q]], a Laurent
    polynomial with s in [-(n-1), n//2].  On the circle |z| = r the values
    G(r e^{i theta_j}) / lam^(n-1), at N >= n + n//2 equally spaced points
    (N the smallest even 5-smooth length), are the DFT of the tilted
    coefficients t_s = c_s r^s / lam^(n-1), so one inverse real FFT of the
    Hermitian half-spectrum returns every t_s.

    Tilt.  r is the saddle point, where lambda_+(r) is least (_saddle_tilt),
    and lam ~ lambda_+(r).  There the tilted law t / sum(t) has mean 0, so
    the t_s near s = 0 are the large ones, of order n^(-1/2).  The class on
    the far side of the mean, s > 0 for p > 1/2 (r > 1) and s < 0 for
    p <= 1/2, is sum t_s r^(-s) lam^(n-1) with weights r^(-s) <= 1, so it
    and the tie t_0 lam^(n-1) keep their relative accuracy however small
    lam^(n-1) makes them.  Small weights still cost accuracy: measured
    against the exact DP, pA's relative error grows as p falls below 1/100,
    to about 1e-9 at p = 1e-6 and 1e-6 at p = 1e-10, though it stays within
    the absolute bound.  The third class is 1 minus the other two.

    G at each point comes from the 2x2 eigen closed form with k = n - 1:
    G = lambda_1^k (1 + (c/lambda_1 - 1) h), c = [p, q] M(z) [1, 1]^T,
    h = (1 - rho^k) / (1 - rho), rho = lambda_2 / lambda_1, lambda_1 the root
    of larger modulus.  The k-th power is taken as exp(k log1p(d)) with
    d = lambda_1 / lam - 1 formed without cancellation: subtracting the
    characteristic equations at z and at r gives, with w = z - r,

        lambda_1(z) - lam_r = p w (q r w + e0) / (z r (lam_r - lambda_2(z))),

    where lam_r is the exact dominant eigenvalue of M(r) and e0 =
    q (1 + r^2) - lam_r (0 at the exact saddle, where the difference is of
    second order in w); e0 and lam - lam_r are rounded once from exact
    rationals (_tilt_scalars).  w itself comes from sin(theta/2).  A plain
    log(lambda_1 / lam) would carry an absolute error u into k log, a
    relative error of about n u on every point near z = r.

    Round-off (u = 2^-53, to first order in u).  Let t^ be the computed
    coefficients; r and lam are exact inputs, the law is that of head
    probability p and tail probability 1 - p exactly.

    1. Evaluating G.  The computed points are within 16 u r of the exact
       ones (one rounding of pi/N and of j pi/N, sin, cos and the products),
       which moves G / lam^k by at most 16 u |sum_s s t_s e^{i s theta}|;
       by Parseval its RMS over the circle is 16 u ||s t||_2.  The closed
       form is a chain of complex flops, sqrt, log, log1p, exp and expm1,
       each within a few u; d is within C u relative (C = 32 covers the
       dozen operations that form it); an absolute error e in the exponent
       k log1p(d) is a relative error e in x^k = (lambda_1/lam)^k, and
       e <= C u k (|d|/|1+d| + |log1p d|).  h is a polynomial in rho with
       |rho| = a <= 1, so a relative error C u in rho moves it by at most
       C u sum_i i a^i <= C u min(k^2/2, a/(1-a)^2).  Together each point is
       within C u env_j, env_j = |x^k| ((2 + k (|d|/|1+d| + |log1p d|))
       (1 + |b||h|) + |b| min(k^2/2, a/(1-a)^2)), b = c/lambda_1 - 1.  The
       inverse DFT is 1/sqrt(N) times a unitary map, so a spectrum error
       delta moves the coefficients by ||delta||_2 / sqrt(N) = RMS(delta).
    2. The FFT.  Higham, Accuracy and Stability of Numerical Algorithms,
       Thm 24.2: a radix-2 FFT is normwise within log2(N) eta, eta = mu +
       gamma_4 (sqrt(2) + mu) ~ 6 u per pass, mu the twiddle error.  A
       radix-R pass (R = 3, 4, 5 for a 5-smooth N) is R-point DFTs and
       twiddle products, within sqrt(R) gamma_(R+3) <= 8 u log2(R); we take
       10 u log2(N) ||t^||_2.  Terms 1 and 2 give

           eps_t = ||t^ - t||_2 <= C u RMS(env) + 16 u ||s t^||_2
                                    + 10 u log2(N) ||t^||_2.

    3. Class sums.  A summed class is S = sum_{i>=1} t_(side i) r^(-i),
       weights exp(-i |log r|) within u (3 + 2 i |log r|) relative
       (log, product, exp), products summed exactly by fsum.  By
       Cauchy-Schwarz |S^ - S| <= eps_t ||w||_2 + u sum |t^ w| (3 + 2 i |log r|)
       + u |S^|, and the tie is within eps_t.  Times lam^k = exp(k log lam),
       within u (3 + 2 k |log lam|) relative, plus 2^-1074 if it underflows.
       The third class, 1 - (S + tie), is within the sum of the other two
       bounds plus 2u, and so is pA + pB + pTie - 1; that sum is
       rounding_bound.  A class that comes out below 0 is set to 0, which
       only brings it closer to its true value, and the third class is
       formed from the two after that.

    At p = 1/2 (r = 1, lam = 1) the bound is about 1e-12 at n = 1e4; at
    p = 0.6 it is 4u, the small classes carrying their own error of about
    1e-13 relative.  Memory is O(n): about a dozen arrays of N/2 complex or
    n floats, so n is capped at TRANSFORM_MAX_N.  p is at least
    TRANSFORM_MIN_P: below about 1e-154 the square of the tilt underflows
    and the points come out NaN.
    """
    if not 1 <= n <= TRANSFORM_MAX_N:
        raise ValueError(f"the transform needs 1 <= n <= {TRANSFORM_MAX_N}, got n = {n}")
    pf = _as_float_probability(p)
    if pf < TRANSFORM_MIN_P:
        raise ValueError(f"the transform needs p >= {TRANSFORM_MIN_P:g}, got p = {pf!r}")
    if n == 1:
        return FloatDistribution(1, pf, 0.0, 0.0, 1.0, 0.0)
    q = 1.0 - pf
    r = _saddle_tilt(pf, q)
    size = _fft_length(n + n // 2)
    spectrum, env_rms, lam = _tilted_spectrum(n, pf, r, size)
    # irfft returns the coefficient of z^s at index -s mod size
    t = np.fft.irfft(spectrum, size)
    del spectrum
    below = t[1:n]  # s = -1 .. -(n-1)
    above = t[size - 1 : size - 1 - n // 2 : -1]  # s = 1 .. n//2
    index = np.arange(1, n, dtype=float)
    moment = 0.0  # ||s t^||_2^2
    for side in (below, above):
        scaled = side * index[: len(side)]
        moment += float(np.dot(scaled, scaled))
    del index, scaled
    eps_t = (
        32.0 * _U * env_rms
        + 16.0 * _U * math.sqrt(moment)
        + 10.0 * _U * math.log2(size) * math.sqrt(float(np.dot(t, t)))
    )
    log_r = math.log(r)
    small, small_bound = _class_sum(above if r > 1.0 else below, log_r, eps_t)
    log_scale = (n - 1) * math.log(lam)
    scale = math.exp(log_scale)
    scale_error = _U * (3.0 + 2.0 * abs(log_scale))
    tie = float(t[0]) * scale
    small_value = small * scale
    bound = (
        scale * (small_bound + eps_t)
        + (abs(small_value) + abs(tie)) * scale_error
        + 2.0 * 2.0**-1074  # either product may underflow
        + 2.0 * _U
    )
    # no class is below 0, so clamping one there only brings it closer
    small_value, tie = max(small_value, 0.0), max(tie, 0.0)
    large = max(1.0 - (small_value + tie), 0.0)
    if r > 1.0:
        return FloatDistribution(n, pf, large, small_value, tie, bound)
    return FloatDistribution(n, pf, small_value, large, tie, bound)
