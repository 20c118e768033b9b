import math
from fractions import Fraction

import numpy as np
import pytest

from coinduel import (
    SimConfig,
    WalkReport,
    coupled_diff_mc,
    dp_distribution,
    simulate_game,
    tailwalk,
)
from coinduel.montecarlo import _WALK_BLOCK, _bernoulli_words, _pair_scores, _substream


def run(n, trials, seed, **kw):
    return simulate_game(SimConfig(n=n, trials=trials, seed=seed, **kw))


class TestBasics:
    def test_single_flip_always_ties(self):
        r = run(1, 500, 11)
        assert r.ties == 500
        assert (r.pA, r.pB, r.pTie) == (0.0, 0.0, 1.0)

    def test_counts_partition_trials(self):
        r = run(13, 9999, 3)
        assert r.wins_a + r.wins_b + r.ties == r.trials == 9999
        assert r.pA + r.pB + r.pTie == pytest.approx(1.0, abs=1e-12)

    def test_result_echoes_config(self):
        r = run(7, 100, 5, p=0.3)
        assert (r.n, r.p, r.trials, r.seed) == (7, 0.3, 100, 5)


class TestReproducibility:
    def test_same_seed_same_result(self):
        assert run(50, 20000, 99) == run(50, 20000, 99)

    def test_different_seeds_differ(self):
        assert run(50, 20000, 1) != run(50, 20000, 2)


class TestCalibration:
    def test_n3_within_four_se(self):
        exact = dp_distribution(3)
        r = run(3, 10**5, 2718)
        assert abs(r.pA - float(exact.pA)) <= 4 * r.stderr_a
        assert abs(r.pB - float(exact.pB)) <= 4 * r.stderr_b
        assert abs(r.pTie - float(exact.pTie)) <= 4 * r.stderr_tie

    def test_n4_tie_rate(self):
        r = run(4, 10**5, 31415)
        assert abs(r.pTie - 0.375) <= 4 * r.stderr_tie

    def test_biased_coin_matches_dp(self):
        from fractions import Fraction

        exact = dp_distribution(12, Fraction(7, 10))
        r = run(12, 10**5, 161803, p=0.7)
        assert abs(r.pA - float(exact.pA)) <= 4 * r.stderr_a
        assert abs(r.pB - float(exact.pB)) <= 4 * r.stderr_b

    def test_stderr_formula(self):
        r = run(6, 4000, 17)
        q = r.wins_a / r.trials
        assert r.stderr_a == pytest.approx(math.sqrt(q * (1 - q) / r.trials))


# p's digits per round in the reproducibility contract; a new value changes
# every simulated count at p != 1/2
DIGITS_PER_ROUND = 8


def reference_words(rng, count, p):
    """Bernoulli(p) words one lane at a time in Python ints, drawing as the sampler does.

    p's digits are read in rounds of DIGITS_PER_ROUND. For each digit of a
    round in turn, the round draws one raw word for every word that had an
    undecided lane at the round's start, in word order, and compares that
    digit of U with p's.
    """
    rest = Fraction(p)
    digits = []
    while rest:
        rest *= 2
        digits.append(int(rest >= 1))
        rest -= digits[-1]
    heads = [0] * count
    undecided = [set(range(64)) for _ in range(count)]
    for start in range(0, len(digits), DIGITS_PER_ROUND):
        drawing = [word for word in range(count) if undecided[word]]
        for digit in digits[start : start + DIGITS_PER_ROUND]:
            for word in drawing:
                raw = rng.bit_generator.random_raw()
                for lane in sorted(undecided[word]):
                    bit = raw >> lane & 1
                    if bit != digit:
                        undecided[word].discard(lane)
                        if bit < digit:
                            heads[word] |= 1 << lane
    return heads


class TestSampler:
    # 255/256 and 257/512 have 8 and 9 digits: one full round, and one digit past it
    @pytest.mark.parametrize(
        "p", [0.5, 0.6, 1 / 3, 0.25, 2.0**-60, 1 - 2.0**-53, 255 / 256, 257 / 512]
    )
    @pytest.mark.parametrize("count", [1, 3, 40])
    def test_matches_scalar_reference(self, p, count):
        fast, slow = _substream(59, count), _substream(59, count)
        words = _bernoulli_words(fast, count, p)
        assert words.dtype.name == "uint64"
        assert [int(w) for w in words] == reference_words(slow, count, p)
        # both drew the same number of raw words, so the next block starts alike
        assert fast.bit_generator.random_raw() == slow.bit_generator.random_raw()

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 1000])
    @pytest.mark.parametrize("p", [0.5, 0.8])
    def test_pair_scores_match_plain_count(self, n, p):
        games = 25
        width = -(-n // 64)
        words = _bernoulli_words(_substream(n), width * games, p).reshape(width, games)
        scores = _pair_scores(words, n)
        for game in range(games):
            flips = [int(words[i // 64, game]) >> (i % 64) & 1 for i in range(n)]
            ht = sum(a and not b for a, b in zip(flips, flips[1:]))
            hh = sum(a and b for a, b in zip(flips, flips[1:]))
            assert scores[game] == ht - hh

    @pytest.mark.parametrize(
        "p", [Fraction(1, 4), Fraction(3, 8), Fraction(3, 5), Fraction(1, 3)]
    )
    def test_law_matches_dp(self, p):
        # n = 70 spans two words, so pairs also cross a word edge
        n, trials = 70, 10**5
        exact = dp_distribution(n, p)
        r = run(n, trials, 4242, p=float(p))
        for estimate, q in ((r.pA, exact.pA), (r.pB, exact.pB), (r.pTie, exact.pTie)):
            q = float(q)
            assert abs(estimate - q) <= 4 * math.sqrt(q * (1 - q) / trials)


class TestValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(n=0, trials=10, seed=1),
            dict(n=5, trials=0, seed=1),
            dict(n=5, trials=10, seed=1, p=0.0),
            dict(n=5, trials=10, seed=1, p=1.0),
            dict(n=5, trials=10, seed=1, p=math.nan),
            # inside (0, 1), but its nearest float is 0
            dict(n=5, trials=10, seed=1, p=Fraction(1, 10**400)),
        ],
    )
    def test_bad_config(self, kw):
        with pytest.raises(ValueError):
            SimConfig(**kw)

    def test_fraction_p_runs_at_its_nearest_float(self):
        # 1/3 has no finite binary expansion, which the sampler needs: the
        # game runs at, and reports, float(1/3), not a p misread as 1/2
        n, trials = 20, 10**4
        config = SimConfig(n=n, trials=trials, seed=1, p=Fraction(1, 3))
        assert type(config.p) is float and config.p == 1 / 3
        r = simulate_game(config)
        assert r == run(n, trials, 1, p=1 / 3)
        q = float(dp_distribution(n, Fraction(1 / 3)).pA)  # about 0.105; 0.405 at p = 1/2
        assert r.p == 1 / 3 and abs(r.pA - q) <= 4 * math.sqrt(q * (1 - q) / trials)
        # the sampler itself reads any p as its float
        words = [_bernoulli_words(_substream(1), 64, p) for p in (Fraction(1, 3), 1 / 3)]
        assert np.array_equal(*words)

    def test_result_is_frozen(self):
        r = run(3, 10, 1)
        with pytest.raises(AttributeError):
            r.pA = 0.5

    @pytest.mark.parametrize(
        "draw",
        [
            lambda seed: run(5, 10, seed),
            lambda seed: run(5, 10, seed, p=0.3),
            lambda seed: coupled_diff_mc(5, 10, seed),
            lambda seed: tailwalk(10, seed),
        ],
        ids=["simulate_game", "simulate_game-biased", "coupled_diff_mc", "tailwalk"],
    )
    def test_negative_seed_is_named(self, draw):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            draw(-1)


class TestTailWalk:
    def test_deterministic(self):
        assert tailwalk(10**4, 42) == tailwalk(10**4, 42)

    def test_seed_changes_output(self):
        assert tailwalk(10**4, 1) != tailwalk(10**4, 2)

    def test_returns_to_zero(self):
        for seed in (0, 1, 2):
            assert tailwalk(10**6, seed).zero_hits >= 1

    def test_mean_jump_within_clt_band(self):
        # jump variance is 1, so the sample mean at 10^6 steps has SE 1e-3
        report = tailwalk(10**6, 7)
        assert abs(report.sample_mean_jump) <= 5e-3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            tailwalk(0, 1)

    @pytest.mark.parametrize(
        "steps", [1, _WALK_BLOCK - 1, _WALK_BLOCK, _WALK_BLOCK + 1, 2 * _WALK_BLOCK + 1]
    )
    def test_blocks_match_one_draw(self, steps):
        # the whole walk from one draw of every run length, as it was computed
        # before the walk went block by block
        runs = _substream(5).geometric(0.5, size=steps) - 1
        jumps = np.where(runs >= 1, 2 - runs, 0)
        zero_hits = int(np.count_nonzero(np.cumsum(jumps) == 0))
        assert tailwalk(steps, 5) == WalkReport(steps, 5, zero_hits, float(jumps.mean()))
