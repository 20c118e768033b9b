"""Direct simulation of the n-flip game with reproducible seeding.

Reproducibility contract: batch b of a run draws from
PCG64(SeedSequence(entropy=seed, spawn_key=(b,))). A batch is split into
blocks of max(1, _MAX_BLOCK_CELLS // n) games. A block of m games holds its
flips in ceil(n / 64) * m uint64 words, position-major: flip i of game g is
bit i % 64 of word (i // 64) * m + g (`_flip_blocks`). The block's words are
drawn in rounds, each reading up to _DIGITS_PER_ROUND binary digits of p: a
round of k digits draws k raw PCG64 words for every word that still has an
open lane at its start, digit by digit and, within a digit, in word order
(`_bernoulli_words`). At p = 1/2, which has one digit, that is one raw word
per word. The coupled estimator (`excursions.coupled_diff_mc`) reads the
same fair blocks. So results depend only on (n, p, trials, seed,
batch_size) and are identical across platforms and worker counts.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DEFAULT_BATCH_SIZE = 4096

# inner generation block, to keep per-call memory flat for large n
_MAX_BLOCK_CELLS = 1 << 22

# digits of p compared per round of `_bernoulli_words`: of 1, 2, 4, 6, 8, 10,
# 12 and 16, 8 and 10 were fastest at p = 3/5 and 2/5 on blocks of 4096 and
# 8192 words
_DIGITS_PER_ROUND = 8


@dataclass(frozen=True)
class SimConfig:
    n: int
    trials: int
    seed: int
    p: float = 0.5
    batch_size: int = DEFAULT_BATCH_SIZE

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must satisfy 0 < p < 1, got {self.p}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class SimResult:
    n: int
    p: float
    trials: int
    seed: int
    wins_a: int
    wins_b: int
    ties: int
    pA: float
    pB: float
    pTie: float
    stderr_a: float
    stderr_b: float
    stderr_tie: float


def _substream(seed: int, *spawn_key: int) -> np.random.Generator:
    """A PCG64 stream; the empty key gives SeedSequence(entropy=seed) itself."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=spawn_key))
    )


def _bernoulli_words(rng: np.random.Generator, count: int, p: float) -> np.ndarray:
    """`count` uint64 words whose 64 bit lanes are independent Bernoulli(p) flips.

    Lane j of a word is 1 iff U < p, comparing U's binary digits, which are
    lane j of successive raw words, with p's, which come exactly from
    Fraction(p) (Knuth & Yao, 1976). A lane leaves the level at its first
    digit that differs from p's: below p, a head, where that digit is 0.
    Lanes still level when p's digits run out have U >= p: tails. The digits
    are read in rounds of up to _DIGITS_PER_ROUND; a round draws one raw word
    per digit for every word open at its start, so the words still open are
    found once a round, not once a digit. At p = 1/2 that is one raw word per
    64 flips; at p = 3/5 about ten.
    """
    num, den = Fraction(p).as_integer_ratio()  # den is a power of two
    digits = format(num, f"0{den.bit_length() - 1}b").rstrip("0")
    level = np.full(count, 2**64 - 1, dtype=np.uint64)  # the lanes still level with p
    for start in range(0, len(digits), _DIGITS_PER_ROUND):
        if start:  # only the words with a level lane draw again
            keep = np.flatnonzero(level)
            if not keep.size:
                break
            index, level = index[keep], level[keep]
        below = np.zeros(level.size, dtype=np.uint64)
        for digit in digits[start : start + _DIGITS_PER_ROUND]:
            ones = rng.bit_generator.random_raw(level.size)
            ones &= level
            level ^= ones  # the level lanes whose digit is 0
            if digit == "1":  # the 0 lanes fell below p
                below |= level
                level = ones
        if start:
            heads[index] |= below
        else:  # every word drew
            heads, index = below, np.arange(count)
    return heads


def _pair_scores(words: np.ndarray, n: int) -> np.ndarray:
    """HT - HH of each game, where flip i of game g is bit i % 64 of words[i // 64, g].

    A pair starting on a head is HT or HH, so HT - HH = (pairs starting on a
    head) - 2 * HH. Pairs start at flips 0..n-2; bits past flip n - 1 are
    never read.
    """
    hh = words >> np.uint64(1)
    hh[:-1] |= words[1:] << np.uint64(63)
    hh &= words
    last = np.uint64((1 << (n - 1 - 64 * (len(words) - 1))) - 1)
    hh[-1] &= last
    head_starts = np.bitwise_count(words).sum(axis=0, dtype=np.int64)
    head_starts -= np.bitwise_count(words[-1] & ~last)
    return head_starts - 2 * np.bitwise_count(hh).sum(axis=0, dtype=np.int64)


def _flip_blocks(
    n: int, p: float, trials: int, seed: int, batch_size: int
) -> Iterator[np.ndarray]:
    """The flips of `trials` games, block by block as the contract lays them out.

    Each block is a (ceil(n / 64), m) uint64 array: flip i of game g is bit
    i % 64 of [i // 64, g].
    """
    block = max(1, _MAX_BLOCK_CELLS // n)
    width = -(-n // 64)
    for batch, first in enumerate(range(0, trials, batch_size)):
        rng = _substream(seed, batch)
        games = min(batch_size, trials - first)
        for start in range(0, games, block):
            m = min(block, games - start)
            yield _bernoulli_words(rng, width * m, p).reshape(width, m)


def simulate_game(config: SimConfig) -> SimResult:
    """Play config.trials independent games and classify the final score."""
    wins_a = wins_b = ties = 0
    for words in _flip_blocks(config.n, config.p, config.trials, config.seed, config.batch_size):
        scores = _pair_scores(words, config.n)
        wins_a += int(np.count_nonzero(scores < 0))
        wins_b += int(np.count_nonzero(scores > 0))
        ties += int(np.count_nonzero(scores == 0))
    t = config.trials

    def est(count: int) -> tuple[float, float]:
        q = count / t
        return q, math.sqrt(q * (1.0 - q) / t)

    pa, sa = est(wins_a)
    pb, sb = est(wins_b)
    pt, st = est(ties)
    return SimResult(
        config.n, config.p, t, config.seed, wins_a, wins_b, ties, pa, pb, pt, sa, sb, st
    )
