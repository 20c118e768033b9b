import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from coinduel import (
    ASYMPTOTIC_C,
    asymptotics,
    count_rx,
    dp_distribution,
    dp_series,
    jump_mean_truncated,
    pi,
    renewal_diff,
    renewal_table,
    tailwalk,
)
from coinduel.exact import _dp_scan
from coinduel.montecarlo import _substream
from coinduel.renewal import (
    _WALK_BLOCK,
    WalkReport,
    _count_rx_terms,
    _pi_float_terms,
    _tie_terms,
    fair_scan,
)
from coinduel.verify import _count_rx_closed_form


def brute_count_rx(m: int) -> int:
    """Walk every length-m sequence; keep those ending HT with #HT == #HH."""
    total = 0
    for bits in range(1 << m):
        if bits & (3 << (m - 2)) != 1 << (m - 2):  # final pair must be H,T
            continue
        ht = hh = 0
        for i in range(m - 1):
            pair = (bits >> i) & 3
            if pair == 1:
                ht += 1
            elif pair == 3:
                hh += 1
        if ht == hh:
            total += 1
    return total


class TestCountRx:
    @pytest.mark.parametrize("m,expected", [(3, 1), (4, 1), (5, 1), (6, 4)])
    def test_small_values(self, m, expected):
        assert count_rx(m) == expected

    def test_below_first_renewal(self):
        assert count_rx(1) == 0
        assert count_rx(2) == 0

    def test_matches_brute_force(self):
        for m in range(2, 17):
            assert count_rx(m) == brute_count_rx(m), m

    def test_rejects_nonpositive(self):
        for m in (0, -1):
            with pytest.raises(ValueError):
                count_rx(m)

    def test_recurrence_matches_closed_form(self):
        counts = renewal_table(1, 1000).counts
        for m, c in enumerate(counts, start=1):
            assert c == _count_rx_closed_form(m), m

    def test_recurrence_division_is_exact(self):
        # y_0 = 1 and y_m = 2 count_rx(m): every right-hand side of
        # (m+1) y_{m+1} = 2m y_m - (m-1) y_{m-1} + (4m-2) y_{m-2} - (4m-8) y_{m-3}
        # must be a multiple of m + 1, with the next term as quotient
        y = [0, 0, 0, 1] + [2 * c for c in renewal_table(1, 2001).counts]
        for m in range(2001):
            y_m3, y_m2, y_m1, y_m = y[m : m + 4]
            rhs = 2 * m * y_m - (m - 1) * y_m1 + (4 * m - 2) * y_m2 - (4 * m - 8) * y_m3
            assert rhs % (m + 1) == 0, m
            assert rhs // (m + 1) == y[m + 4], m

    def test_point_values_are_memoised(self):
        count_rx.cache_clear()
        count_rx(50)
        assert count_rx.cache_info().currsize == 1

    def test_memo_is_bounded(self):
        count_rx.cache_clear()
        for m in range(1, 1101):
            count_rx(m)
        assert count_rx.cache_info().currsize == 1024


class TestFairScan:
    def test_matches_exact_dp(self):
        assert list(fair_scan(600)) == list(_dp_scan(600, Fraction(1, 2)))

    def test_tie_counts(self):
        assert list(itertools.islice(_tie_terms(), 15)) == [
            2, 2, 3, 6, 9, 15, 30, 54, 97, 189, 360, 675, 1304, 2522, 4835
        ]

    def test_tie_recurrence_division_is_exact(self):
        # every right-hand side of
        # 2(n+1) T_{n+1} = 6 T_n + 6(n-2) T_{n-1} + 4(n+1) T_{n-2}
        #                  + 8(n-4) T_{n-3} - 16(n-3) T_{n-4} - 6
        # must be a multiple of 2(n+1), with the next term as quotient
        t = [0] + list(itertools.islice(_tie_terms(), 2001))
        for n in range(5, 2001):
            rhs = (
                6 * t[n]
                + 6 * (n - 2) * t[n - 1]
                + 4 * (n + 1) * t[n - 2]
                + 8 * (n - 4) * t[n - 3]
                - 16 * (n - 3) * t[n - 4]
                - 6
            )
            assert rhs % (2 * (n + 1)) == 0, n
            assert rhs // (2 * (n + 1)) == t[n + 1], n

    def test_sign_counts_are_whole(self):
        # below and above are (2^k - T_k -+ D_k) / 2, so both numerators are even
        d_k = 0
        for k, tie, count in zip(range(1, 2001), _tie_terms(), _count_rx_terms()):
            d_k += count
            assert ((1 << k) - tie - d_k) % 2 == 0, k
            assert ((1 << k) - tie + d_k) % 2 == 0, k


class TestPi:
    def test_examples(self):
        assert pi(3) == Fraction(1, 4)
        assert pi(4) == Fraction(1, 8)
        assert pi(2) == Fraction(0)

    def test_float_mode_follows_exact(self):
        # one pass for each side: pi(m) per m would be quadratic
        exact = [float(p) for p in renewal_table(1, 10**4).pis]
        approx = list(itertools.islice(_pi_float_terms(), 10**4))
        for m in (1, 2, 3, 4, 5, 6, 7, 8, 999, 10**4):
            assert pi(m, mode="float") == approx[m - 1], m
        assert approx[:8] == exact[:8]
        for m in range(3, 10**4 + 1):
            assert abs(approx[m - 1] - exact[m - 1]) <= 1e-13 * exact[m - 1], m

    def test_float_mode_zero_below_three(self):
        assert pi(1, mode="float") == 0.0
        assert pi(2, mode="float") == 0.0

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            pi(5, mode="rational")

    def test_values_are_probabilities(self):
        # pi(m) ~ c/sqrt(m), so the per-epoch values shrink but their sum
        # diverges; each one must still be a probability
        for m in range(1, 120):
            assert 0 <= pi(m) <= 1

    def test_sqrt_scaling_sets_in(self):
        assert abs(float(pi(2000)) * math.sqrt(2000.0) - ASYMPTOTIC_C) <= 0.01


class TestRenewalDiff:
    @pytest.mark.parametrize(
        "n,expected",
        [(3, Fraction(1, 8)), (4, Fraction(1, 8)), (5, Fraction(3, 32))],
    )
    def test_examples(self, n, expected):
        assert renewal_diff(n) == expected

    def test_matches_dp_difference(self):
        for n, dist in enumerate(dp_series(60), start=1):
            if n >= 3:
                assert renewal_diff(n) == dist.diff, n

    def test_matches_fraction_convolution(self):
        # the convolution term by term in rationals, over the closed-form counts
        pis = [None] + [
            Fraction(_count_rx_closed_form(m), 1 << (m - 1)) for m in range(1, 301)
        ]
        for n in range(3, 301):
            conv = sum(
                (Fraction(1, 1 << (k + 1)) * pis[n - k] for k in range(n - 2)), Fraction(0)
            )
            assert renewal_diff(n) == conv, n

    @pytest.mark.parametrize("n", [1001, 1401])
    def test_matches_dp_difference_large(self, n):
        assert renewal_diff(n) == dp_distribution(n).diff

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            renewal_diff(2)


class TestAsymptotics:
    def test_constant(self):
        assert math.isclose(ASYMPTOTIC_C, 0.28209479177387814, rel_tol=1e-15)

    def test_report_values(self):
        r = asymptotics(100)
        assert r.n == 100
        assert r.c == ASYMPTOTIC_C
        assert math.isclose(r.diff_approx, ASYMPTOTIC_C / 10.0, rel_tol=1e-15)

    def test_internal_identities(self):
        for n in (1, 7, 100, 10**6):
            r = asymptotics(n)
            assert r.tie_approx == 2.0 * r.diff_approx
            assert r.deficit_A == 3.0 * r.deficit_B
            assert abs(r.deficit_A + r.deficit_B - r.tie_approx) <= math.ulp(
                r.tie_approx
            )

    def test_tracks_exact_at_n_400(self):
        exact = float(renewal_diff(400))
        approx = asymptotics(400).diff_approx
        assert abs(approx - exact) <= 0.1 * exact

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            asymptotics(0)

    def test_to_dict_keys(self):
        d = asymptotics(10).to_dict()
        assert set(d) == {"n", "c", "diff_approx", "tie_approx", "deficit_B", "deficit_A"}


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


class TestJumpMean:
    def test_single_term(self):
        assert jump_mean_truncated(1) == Fraction(1, 4)

    def test_default_truncation_is_tiny(self):
        assert abs(jump_mean_truncated()) <= Fraction(1, 2**50)

    def test_signs_telescope(self):
        # partial sums stay positive and shrink once r > 2 terms enter
        values = [jump_mean_truncated(t) for t in range(2, 30)]
        assert all(v > 0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            jump_mean_truncated(0)


class TestRenewalTable:
    def test_row_contents(self):
        table = renewal_table(1, 8)
        rows = list(table.rows())
        assert rows[0] == (1, 0, Fraction(0))
        assert rows[2] == (3, 1, Fraction(1, 4))
        assert rows[5] == (6, 4, Fraction(1, 8))
        assert len(rows) == 8

    def test_consistency_with_point_functions(self):
        table = renewal_table(5, 40)
        for m, c, p in table.rows():
            assert c == count_rx(m)
            assert p == pi(m)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            renewal_table(4, 3)
        with pytest.raises(ValueError):
            renewal_table(0, 5)
