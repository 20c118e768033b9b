"""Direct simulation of the n-flip game with reproducible seeding.

Reproducibility contract: batch b of a run draws from
PCG64(SeedSequence(entropy=seed, spawn_key=(b,))). A batch is split into
blocks of max(1, _MAX_BLOCK_CELLS // n) games. A block of m games holds its
flips in ceil(n / 64) * m uint64 words, position-major: flip i of game g is
bit i % 64 of word (i // 64) * m + g. The block's words are drawn in
rounds, one raw PCG64 word per word that still has an open lane, in word
order (`_bernoulli_words`). So results depend only on
(n, p, trials, seed, batch_size) and are identical across platforms and
worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DEFAULT_BATCH_SIZE = 4096

# inner generation block, to keep per-call memory flat for large n
_MAX_BLOCK_CELLS = 1 << 22


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
    Fraction(p) (Knuth & Yao, 1976). Each round reads p's next digit and
    draws one raw word for every word that still has a lane level with p, in
    word order. A lane leaves the level at its first digit that differs from
    p's: below p, a head, where that digit is 0. Lanes still level when p's
    digits run out have U >= p: tails. At p = 1/2 that is one raw word per 64
    flips; at other p about eight.
    """
    num, den = Fraction(p).as_integer_ratio()  # den is a power of two
    heads = np.zeros(count, dtype=np.uint64)
    index = np.arange(count)  # the words with a lane still level with p
    level = np.full(count, 2**64 - 1, dtype=np.uint64)  # their lanes still level
    while num and index.size:
        ones = rng.bit_generator.random_raw(index.size)
        ones &= level
        level ^= ones  # the level lanes whose digit is 0
        num <<= 1
        if num >= den:  # p's digit is 1: the 0 lanes fell below p
            num -= den
            heads[index] |= level
            level = ones
        if np.count_nonzero(level) < index.size:
            keep = np.flatnonzero(level)
            index, level = index[keep], level[keep]
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


def _score_signs(rng: np.random.Generator, rows: int, n: int, p: float):
    """Final-score counts (negative, positive, zero) for `rows` fresh games."""
    neg = pos = zero = 0
    block = max(1, _MAX_BLOCK_CELLS // n)
    width = -(-n // 64)
    done = 0
    while done < rows:
        m = min(block, rows - done)
        scores = _pair_scores(_bernoulli_words(rng, width * m, p).reshape(width, m), n)
        neg += int(np.count_nonzero(scores < 0))
        pos += int(np.count_nonzero(scores > 0))
        zero += int(np.count_nonzero(scores == 0))
        done += m
    return neg, pos, zero


def simulate_game(config: SimConfig) -> SimResult:
    """Play config.trials independent games and classify the final score."""
    wins_a = wins_b = ties = 0
    done = 0
    batch = 0
    while done < config.trials:
        m = min(config.batch_size, config.trials - done)
        rng = _substream(config.seed, batch)
        neg, pos, zero = _score_signs(rng, m, config.n, config.p)
        wins_a += neg
        wins_b += pos
        ties += zero
        done += m
        batch += 1
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
