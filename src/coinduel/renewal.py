"""Renewal counts, the convolution identity for the win gap, the
tail-indexed walk, and the asymptotic √n laws.

count_rx(m) counts the length-m sequences that end in HT with total score
zero; pi(m) = 2^(1-m) count_rx(m) is the probability that the fair stream
renews at epoch m.  Convolving pi against (1/2)^(k+1) recovers pB - pA
exactly, and pi(m) ~ c/√m with c = 1/(2√π) drives every asymptotic here.
The same prefix sum and a recurrence for the tie mass give the whole exact
fair-coin law (fair_scan) in O(n) steps.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

from .montecarlo import _substream

ASYMPTOTIC_C = 0.5 / math.sqrt(math.pi)  # 1/(2*sqrt(pi)) ~ 0.28209479


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


def _tie_terms() -> Iterator[int]:
    """T_1, T_2, ... in order, with T_n = 2^n pTie(n) at p = 1/2, by a linear recurrence.

    Write M(z) = [[p/z, q z], [p, q]] for one flip's step in (last flip,
    score); then sum_n x^n E[z^(S_n)] = x [p, q] (I - x M(z))^(-1) [1, 1]^T.
    At p = q = 1/2 and x = 2u its constant term in z is G(u) = sum_n T_n u^n,
    the sum of the residues of that expression divided by z at z = 0 and at
    the root z_0 of its denominator that tends to 0 with u:

        G = [(1+2u) sqrt(D) - (1 - 3u + 2u^2 - 4u^3 + 8u^4)] / (2D),
        D = (1-u)(1-2u)(1+u+2u^2).

    h = (1+2u) sqrt(D) has h'/h = 2/(1+2u) + D'/(2D), and substituting
    h = 2DG + P, with P the polynomial above, gives

        2(1+2u) D G' + [(1+2u) D' - 4D] G = 2(1-u)(5+6u+12u^2+8u^3) - 6/(1-u).

    The coefficient of u^n on both sides gives, for every n >= 5,

        2(n+1) T_{n+1} = 6 T_n + 6(n-2) T_{n-1} + 4(n+1) T_{n-2}
                         + 8(n-4) T_{n-3} - 16(n-3) T_{n-4} - 6,

    from T_1..T_5 = 2, 2, 3, 6, 9.  The division is exact because the T_n
    are integers.  Only the last five terms are kept.
    """
    t_4, t_3, t_2, t_1, t_0 = 2, 2, 3, 6, 9  # T_{n-4}, ..., T_n at n = 5
    yield from (t_4, t_3, t_2, t_1, t_0)
    for n in itertools.count(5):
        t_4, t_3, t_2, t_1, t_0 = t_3, t_2, t_1, t_0, (
            6 * t_0
            + 6 * (n - 2) * t_1
            + 4 * (n + 1) * t_2
            + 8 * (n - 4) * t_3
            - 16 * (n - 3) * t_4
            - 6
        ) // (2 * (n + 1))
        yield t_0


def fair_scan(n: int) -> Iterator[tuple[int, int, int, int]]:
    """The exact fair-coin law for k = 1..n as (k, below, equal, above) over 2^k.

    These are the tuples exact._dp_scan(n, Fraction(1, 2)) yields, in O(n)
    recurrence steps: equal = T_k from _tie_terms, above - below = D_k is the
    prefix sum of count_rx(1..k) (renewal_diff's numerator), and the three
    counts add up to 2^k.
    """
    d_k = 0
    for k, tie, count in zip(range(1, n + 1), _tie_terms(), _count_rx_terms()):
        d_k += count
        rest = (1 << k) - tie
        yield k, (rest - d_k) >> 1, tie, (rest + d_k) >> 1


def _pi_float_terms() -> Iterator[float]:
    """pi(1), pi(2), ... in floats: the recurrence of _count_rx_terms over 2^(m+1).

        (m+1) u_{m+1} = m u_m - (m-1)/4 u_{m-1} + (4m-2)/8 u_{m-2} - (4m-8)/16 u_{m-3}

    for u_m = y_m / 2^m = pi(m), from u_0..u_3 = 1, 0, 0, 1/4.  It is stable in
    floats: as m grows the characteristic polynomial tends to
    (x-1)(x-1/2)(x^2+x/2+1/2), whose roots are 1, 1/2 and a pair of modulus
    1/sqrt(2), so every solution but the wanted u_m ~ c/sqrt(m) falls like
    2^(-m) or 2^(-m/2) and rounding survives only as a relative error in u
    (2.1e-14 at worst for m <= 10^4).
    """
    u_m3, u_m2, u_m1, u_m = 0.0, 0.0, 0.0, 1.0  # u_{m-3}, u_{m-2}, u_{m-1}, u_m at m = 0
    for m in itertools.count():
        u_m3, u_m2, u_m1, u_m = u_m2, u_m1, u_m, (
            m * u_m - (m - 1) / 4 * u_m1 + (4 * m - 2) / 8 * u_m2 - (4 * m - 8) / 16 * u_m3
        ) / (m + 1)
        yield u_m


@functools.lru_cache(maxsize=1024)
def count_rx(m: int) -> int:
    """Number of sequences in Omega_m that end HT with score 0.

    Read off _count_rx_terms, the recurrence from the generating function;
    the binomial sum it comes from stays in the verify registry as an oracle.
    The last 1024 point values asked for are memoised.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return next(itertools.islice(_count_rx_terms(), m - 1, None))


def pi(m: int, mode: str = "exact") -> Union[Fraction, float]:
    """Probability that epoch m is a renewal time: 2^(1-m) count_rx(m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if mode == "exact":
        return Fraction(count_rx(m), 1 << (m - 1))
    if mode == "float":
        return next(itertools.islice(_pi_float_terms(), m - 1, None))
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


# steps of the tail walk drawn at a time, so memory stays flat in steps
_WALK_BLOCK = 1 << 16


def tailwalk(steps: int, seed: int) -> WalkReport:
    """Simulate the walk sampled at tail appearances.

    Each step draws the following headrun length R (P(R=r) = (1/2)^(r+1),
    r >= 0) and jumps by 2-R when R >= 1, else stays.  The jump law has
    mean 0 and variance 1, and the walk returns to 0 infinitely often.
    The run lengths are drawn _WALK_BLOCK at a time from one stream, which
    gives the same draws as drawing all of them at once.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rng = _substream(seed)
    level = zero_hits = 0  # the walk's level is the exact sum of its jumps
    for start in range(0, steps, _WALK_BLOCK):
        runs = rng.geometric(0.5, size=min(_WALK_BLOCK, steps - start)) - 1
        walk = np.cumsum(np.where(runs >= 1, 2 - runs, 0))
        walk += level
        zero_hits += int(np.count_nonzero(walk == 0))
        level = int(walk[-1])
    # the jumps are small integers, so their float64 sum is exact and this
    # is the mean numpy takes of the whole jump array
    return WalkReport(steps, seed, zero_hits, level / steps)


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
