"""The exact forward DP over (last flip, score) states, in integer weights,
with arbitrary rational head probability p, and the outcome records that
every solver returns.

It imports only the standard library, so the command line's exact routes
(`dp`, `diff --method dp`, `table` up to n = 4096) start without numpy.
Enumeration, the float DP and the float transform live in `exact`, which
imports these names back.

Everything reports the final-score trichotomy pA = P(S_n < 0),
pB = P(S_n > 0), pTie = P(S_n = 0): Alice collects a point per HH, Bob per
HT, and the winner is whoever has more after n flips.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, mul
from typing import Iterator

DP_EXACT_MAX_N = 4096
# the DP's weights at step k have about k * log2(denominator of p) bits, so
# its cost grows as n^2 times n * bits; n * bits is capped here.  p = 1/2 at
# DP_EXACT_MAX_N uses 4096 * 2 = 8192 of it and takes 4.2 s; the dearest
# accepted input, n = 4096 at p = 127/255 (8 bits), takes 70 s (2-vCPU Xeon)
DP_EXACT_MAX_BITS = 2**15


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


def _as_float_probability(p) -> float:
    """The float nearest to p, at which the float solvers and the simulator run."""
    pf = float(p)
    if 0.0 < pf < 1.0:
        return pf
    if 0 < p < 1:
        raise ValueError(f"p is inside (0, 1), but its nearest float is {pf!r}")
    raise ValueError(f"p must satisfy 0 < p < 1, got {p}")


def _dp_probability(n: int, p) -> Fraction:
    """p as a Fraction, once 1 <= n <= DP_EXACT_MAX_N and n steps at p fit DP_EXACT_MAX_BITS."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > DP_EXACT_MAX_N:
        raise ValueError(f"the exact DP is capped at n = {DP_EXACT_MAX_N}")
    p = _as_probability(p)
    bits = p.denominator.bit_length()
    if n * bits > DP_EXACT_MAX_BITS:
        raise ValueError(
            f"the exact DP needs n * (bits of p's denominator) <= {DP_EXACT_MAX_BITS}, "
            f"got n = {n} and {bits} bits, {n * bits}"
        )
    return p


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


def dp_distribution(n: int, p=Fraction(1, 2)) -> ExactDistribution:
    """Distribution of the final-score sign after n flips, by exact forward DP."""
    p = _dp_probability(n, p)
    for _, below, equal, above in _dp_scan(n, p):
        pass
    denom = p.denominator**n
    return ExactDistribution(
        n, p, Fraction(below, denom), Fraction(above, denom), Fraction(equal, denom)
    )


def dp_series(n_max: int, p=Fraction(1, 2)) -> list[ExactDistribution]:
    """ExactDistribution for every n = 1..n_max from a single forward pass."""
    p = _dp_probability(n_max, p)
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
