"""Direct simulation of the n-flip game with reproducible seeding.

Reproducibility contract: batch b of a run draws from
PCG64(SeedSequence(entropy=seed, spawn_key=(b,))), rows in batch-major
order, so results depend only on (n, p, trials, seed, batch_size) and are
identical across platforms and worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _score_signs(rng: np.random.Generator, rows: int, n: int, p: float):
    """Final-score counts (negative, positive, zero) for `rows` fresh games."""
    neg = pos = zero = 0
    block = max(1, _MAX_BLOCK_CELLS // n)
    done = 0
    while done < rows:
        m = min(block, rows - done)
        flips = rng.random((m, n)) < p
        if n >= 2:
            first = flips[:, :-1]
            second = flips[:, 1:]
            scores = (first & ~second).sum(axis=1) - (first & second).sum(axis=1)
        else:
            scores = np.zeros(m, dtype=np.int64)
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
