"""Ground-truth solvers: exhaustive enumeration over all 2^n sequences and
an exact forward DP over (last flip, score) states, both with arbitrary
head probability p.

Everything reports the final-score trichotomy pA = P(S_n < 0),
pB = P(S_n > 0), pTie = P(S_n = 0): Alice collects a point per HH, Bob per
HT, and the winner is whoever has more after n flips.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, mul
from typing import Iterator, Union

import numpy as np

ENUM_MAX_N = 30
DP_EXACT_MAX_N = 4096


@dataclass(frozen=True)
class ExactDistribution:
    n: int
    p: Fraction
    pA: Fraction
    pB: Fraction
    pTie: Fraction

    @property
    def diff(self) -> Fraction:
        return self.pB - self.pA


@dataclass(frozen=True)
class FloatDistribution:
    """Same trichotomy in binary floats, with a forward rounding bound."""

    n: int
    p: float
    pA: float
    pB: float
    pTie: float
    rounding_bound: float

    @property
    def diff(self) -> float:
        return self.pB - self.pA


def _as_probability(p) -> Fraction:
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError(f"p must satisfy 0 < p < 1, got {p}")
    return p


def _omega_scores(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every b in Omega_n, in order and in chunks of 2^21, with its S_n.

    Yields (bits, scores): bit i of bits[j] is flip i+1, and scores[j] =
    #HT - #HH counted by popcounts of the pair masks.
    """
    pair_mask = np.uint64((1 << (n - 1)) - 1) if n >= 2 else np.uint64(0)
    chunk = 1 << 21  # 16 MiB of bits
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


def _scaled(values: list[int], factor: int) -> list[int]:
    return values if factor == 1 else list(map(mul, values, repeat(factor)))


def _dp_scan(n: int, p: Fraction) -> Iterator[tuple[int, int, int, int]]:
    """Forward DP in integer weights; yields (k, below, equal, above) per step.

    States are (last flip, score s): an H flip maps (H, s+1) -> (H, s) [pair
    HH] and (T, s) -> (H, s); a T flip maps (H, s-1) -> (T, s) [pair HT] and
    (T, s) -> (T, s).  Weights are multiplied by p's numerator for H and by
    denominator-numerator for T, so step k sums to denominator^k.  Only the
    reachable band s in [-(k-1), floor(k/2)] is touched.

    The sign sums are carried across the zero line rather than re-summed:
    the same maps send the below-zero H mass to
    a (h_below + H(0) + t_below) and the T mass to
    c (h_below - H(-1) + t_below), and the above-zero H and T mass to
    a (h_above - H(1) + t_above) and c (h_above + H(0) + t_above), where
    H(.) are the cells of the step before.
    """
    num, den = p.numerator, p.denominator
    a, c = num, den - num
    size = n + n // 2 + 3
    off = n
    weight_h = [0] * size
    weight_t = [0] * size
    weight_h[off] = a
    weight_t[off] = c
    h_below = t_below = h_above = t_above = 0
    yield 1, 0, a + c, 0
    for k in range(2, n + 1):
        lo = off - (k - 1)
        hi = off + k // 2
        h_minus, h_zero, h_plus = weight_h[off - 1 : off + 2]
        h_below, t_below, h_above, t_above = (
            a * (h_below + h_zero + t_below),
            c * (h_below - h_minus + t_below),
            a * (h_above - h_plus + t_above),
            c * (h_above + h_zero + t_above),
        )
        band_t = weight_t[lo : hi + 1]
        new_h = _scaled(list(map(add, weight_h[lo + 1 : hi + 2], band_t)), a)
        new_t = _scaled(list(map(add, weight_h[lo - 1 : hi], band_t)), c)
        weight_h[lo : hi + 1] = new_h
        weight_t[lo : hi + 1] = new_t
        yield k, h_below + t_below, weight_h[off] + weight_t[off], h_above + t_above


def _dp_float_bands(n: int, p: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Float twin of _dp_scan's band: yields the H and T probabilities of the
    reachable band after each step k = 1..n, with score 0 at index k - 1.

    The arrays are views of buffers that the next step overwrites, so read
    each before asking for the next.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must satisfy 0 < p < 1, got {p}")
    q = 1.0 - p
    size = n + n // 2 + 3
    off = n
    cur_h = np.zeros(size)
    cur_t = np.zeros(size)
    new_h = np.zeros(size)
    new_t = np.zeros(size)
    cur_h[off] = p
    cur_t[off] = q
    yield cur_h[off : off + 1], cur_t[off : off + 1]
    for k in range(2, n + 1):
        lo = off - (k - 1)
        hi = off + k // 2
        band = slice(lo, hi + 1)
        up = slice(lo + 1, hi + 2)
        down = slice(lo - 1, hi)
        # cells outside every band stay at their initial zero: bands only
        # grow, so reads one past the previous band always see 0
        np.add(cur_h[up], cur_t[band], out=new_h[band])
        new_h[band] *= p
        np.add(cur_h[down], cur_t[band], out=new_t[band])
        new_t[band] *= q
        cur_h, new_h = new_h, cur_h
        cur_t, new_t = new_t, cur_t
        yield cur_h[band], cur_t[band]


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


def dp_distribution(
    n: int, p=Fraction(1, 2), mode: str = "exact"
) -> Union[ExactDistribution, FloatDistribution]:
    """Distribution of the final-score sign after n flips, by forward DP."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode == "exact":
        if n > DP_EXACT_MAX_N:
            raise ValueError(f"exact mode is capped at n = {DP_EXACT_MAX_N}")
        p = _as_probability(p)
        for _, below, equal, above in _dp_scan(n, p):
            pass
        denom = p.denominator**n
        return ExactDistribution(
            n, p, Fraction(below, denom), Fraction(above, denom), Fraction(equal, denom)
        )
    if mode == "float":
        pf = float(p)
        for h, t in _dp_float_bands(n, pf):
            pass
        below, equal, above = _float_sign_sums(h, t, n)
        return FloatDistribution(n, pf, below, above, equal, _rounding_bound(n))
    raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")


def dp_series(n_max: int, p=Fraction(1, 2)) -> list[ExactDistribution]:
    """ExactDistribution for every n = 1..n_max from a single forward pass."""
    if not 1 <= n_max <= DP_EXACT_MAX_N:
        raise ValueError(f"need 1 <= n_max <= {DP_EXACT_MAX_N}")
    p = _as_probability(p)
    den = p.denominator
    denom = 1
    out = []
    for k, below, equal, above in _dp_scan(n_max, p):
        denom *= den
        out.append(
            ExactDistribution(
                k, p, Fraction(below, denom), Fraction(above, denom), Fraction(equal, denom)
            )
        )
    return out


def dp_float_series(n_max: int, p: float = 0.5) -> list[FloatDistribution]:
    """FloatDistribution for every n = 1..n_max from a single forward pass."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    pf = float(p)
    out = []
    for k, (h, t) in enumerate(_dp_float_bands(n_max, pf), start=1):
        below, equal, above = _float_sign_sums(h, t, k)
        out.append(FloatDistribution(k, pf, below, above, equal, _rounding_bound(k)))
    return out
