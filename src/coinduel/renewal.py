"""Renewal counts, the convolution identity for the win gap, the
tail-indexed walk, and the asymptotic √n laws.

count_rx(m) counts the length-m sequences that end in HT with total score
zero; pi(m) = 2^(1-m) count_rx(m) is the probability that the fair stream
renews at epoch m.  Convolving pi against (1/2)^(k+1) recovers pB - pA
exactly, and pi(m) ~ c/√m with c = 1/(2√π) drives every asymptotic here.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

ASYMPTOTIC_C = 0.5 / math.sqrt(math.pi)  # 1/(2*sqrt(pi)) ~ 0.28209479

BINOM_EXACT_MAX_K = 64
# below this, float binomial probabilities come from exact integer ratios
_BINOM_LOG_MIN_K = 256


def _count_rx_terms() -> Iterator[int]:
    """count_rx(1), count_rx(2), ... in order, by a linear recurrence.

    A sequence counted by count_rx(m) splits into s descents matched against
    s ascents, which gives count_rx(m) = sum over s >= 1 of
    C(m-2s-1, s-1) C(2s-1, s-1).  With sum_m C(m-2s-1, s-1) x^m =
    x^(3s)/(1-x)^s and sum_{s>=1} C(2s-1, s-1) u^s = ((1-4u)^(-1/2) - 1)/2,
    the substitution u = x^3/(1-x) turns y = 1 + 2 sum_m count_rx(m) x^m
    into the algebraic function

        y = sqrt((1-x) / (1-x-4x^3)).

    Its logarithmic derivative gives the differential equation

        2 (1 - 2x + x^2 - 4x^3 + 4x^4) y' = (12x^2 - 8x^3) y,

    and the coefficient of x^m on both sides gives, for every m >= 0 with
    y_j = 0 for j < 0,

        (m+1) y_{m+1} = 2m y_m - (m-1) y_{m-1} + (4m-2) y_{m-2} - (4m-8) y_{m-3},

    so y_0..y_3 = 1, 0, 0, 2.  The division is exact because the y_m are
    integers.  Only the last four terms are kept.
    """
    y_m3, y_m2, y_m1, y_m = 0, 0, 0, 1  # y_{m-3}, y_{m-2}, y_{m-1}, y_m at m = 0
    for m in itertools.count():
        y_m3, y_m2, y_m1, y_m = y_m2, y_m1, y_m, (
            2 * m * y_m - (m - 1) * y_m1 + (4 * m - 2) * y_m2 - (4 * m - 8) * y_m3
        ) // (m + 1)
        yield y_m >> 1  # y_{m+1} = 2 count_rx(m+1)


@functools.cache
def count_rx(m: int) -> int:
    """Number of sequences in Omega_m that end HT with score 0.

    Read off _count_rx_terms, the recurrence from the generating function;
    the binomial sum it comes from stays in the verify registry as an oracle.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return next(itertools.islice(_count_rx_terms(), m - 1, None))


def _pi_float(m: int) -> float:
    # imported here: scipy.special is most of the package's import time and
    # nothing else needs it
    from scipy.special import gammaln

    top = m // 3
    if top < 1:
        return 0.0
    s = np.arange(1, top + 1, dtype=np.float64)
    log2 = math.log(2.0)
    a = m - 2.0 * s - 1.0
    b = s - 1.0
    t1 = gammaln(a + 1) - gammaln(b + 1) - gammaln(a - b + 1) - a * log2
    a2 = 2.0 * s - 1.0
    t2 = gammaln(a2 + 1) - gammaln(b + 1) - gammaln(a2 - b + 1) - a2 * log2
    # each term is C(m-2s-1, s-1) 2^-(m-2s-1) * C(2s-1, s-1) 2^-(2s-1) and the
    # exponents recombine to the 2^(1-m) prefactor
    return 0.5 * math.fsum(np.exp(t1 + t2))


def pi(m: int, mode: str = "exact") -> Union[Fraction, float]:
    """Probability that epoch m is a renewal time: 2^(1-m) count_rx(m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if mode == "exact":
        return Fraction(count_rx(m), 1 << (m - 1))
    if mode == "float":
        return _pi_float(m)
    raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")


def renewal_diff(n: int) -> Fraction:
    """pB - pA at p = 1/2, by the exact renewal convolution.

    The convolution sum over k = 0..n-3 of (1/2)^(k+1) pi(n-k) puts every
    term over 2^n, so it is the integer prefix sum of count_rx(3..n) over
    2^n, streamed here term by term; agrees with the exact DP difference as
    a rational identity.
    """
    if n < 3:
        raise ValueError("the convolution is empty below n = 3")
    return Fraction(sum(itertools.islice(_count_rx_terms(), n)), 1 << n)


def binomial_pmf(k: int, j: int, mode: str = "float") -> Union[float, Fraction]:
    """P(Binomial(k, 1/2) = j) = C(k, j) / 2^k.

    Float mode switches to log-space gamma functions for large k so values
    stay finite out to k ~ 10^6; exact mode is capped at k = 64.
    """
    if not 0 <= j <= k:
        raise ValueError(f"need 0 <= j <= k, got j={j}, k={k}")
    if mode == "exact":
        if k > BINOM_EXACT_MAX_K:
            raise ValueError(f"exact mode is capped at k = {BINOM_EXACT_MAX_K}")
        return Fraction(math.comb(k, j), 1 << k)
    if mode != "float":
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    if k <= _BINOM_LOG_MIN_K:
        return float(Fraction(math.comb(k, j), 1 << k))
    return math.exp(
        math.lgamma(k + 1) - math.lgamma(j + 1) - math.lgamma(k - j + 1) - k * math.log(2.0)
    )


@dataclass(frozen=True)
class AsymptoticReport:
    """Leading-order √n laws: the win gap, the tie mass, and how far each
    player's win probability sits below 1/2."""

    n: int
    c: float
    diff_approx: float
    tie_approx: float
    deficit_B: float
    deficit_A: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "c": self.c,
            "diff_approx": self.diff_approx,
            "tie_approx": self.tie_approx,
            "deficit_B": self.deficit_B,
            "deficit_A": self.deficit_A,
        }


def asymptotics(n: int) -> AsymptoticReport:
    """Fill the √n laws from the single constant c = 1/(2√π).

    tie = 2·diff and deficit_A = 3·deficit_B hold bit-exactly by
    construction; deficit_A + deficit_B = tie holds exactly in real
    arithmetic and to one ulp in floats.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    diff = ASYMPTOTIC_C / math.sqrt(n)
    half = 0.5 * diff
    return AsymptoticReport(n, ASYMPTOTIC_C, diff, 2.0 * diff, half, 3.0 * half)


@dataclass(frozen=True)
class WalkReport:
    steps: int
    seed: int
    zero_hits: int
    sample_mean_jump: float


def tailwalk(steps: int, seed: int) -> WalkReport:
    """Simulate the walk sampled at tail appearances.

    Each step draws the following headrun length R (P(R=r) = (1/2)^(r+1),
    r >= 0) and jumps by 2-R when R >= 1, else stays.  The jump law has
    mean 0 and variance 1, and the walk returns to 0 infinitely often.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed)))
    runs = rng.geometric(0.5, size=steps) - 1
    jumps = np.where(runs >= 1, 2 - runs, 0)
    walk = np.cumsum(jumps)
    return WalkReport(steps, seed, int(np.count_nonzero(walk == 0)), float(jumps.mean()))


def jump_mean_truncated(terms: int = 60) -> Fraction:
    """Partial sum over r = 1..terms of (2-r)(1/2)^(r+1), exactly.

    The full series sums to 0; sixty terms leave a remainder well under
    2^-50.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    return sum(
        (Fraction(2 - r, 1 << (r + 1)) for r in range(1, terms + 1)), Fraction(0)
    )


@dataclass(frozen=True)
class RenewalTable:
    """count_rx and pi over an inclusive m-range."""

    m_from: int
    m_to: int
    counts: tuple[int, ...]
    pis: tuple[Fraction, ...]

    def rows(self):
        for i, m in enumerate(range(self.m_from, self.m_to + 1)):
            yield m, self.counts[i], self.pis[i]


def renewal_table(m_from: int, m_to: int) -> RenewalTable:
    if not 1 <= m_from <= m_to:
        raise ValueError("need 1 <= m_from <= m_to")
    counts = tuple(itertools.islice(_count_rx_terms(), m_from - 1, m_to))
    pis = tuple(Fraction(c, 1 << (m - 1)) for m, c in enumerate(counts, start=m_from))
    return RenewalTable(m_from, m_to, counts, pis)
