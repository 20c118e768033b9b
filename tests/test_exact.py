import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coinduel import (
    ASYMPTOTIC_C,
    DP_EXACT_MAX_N,
    ENUM_MAX_N,
    dp_distribution,
    dp_float_series,
    dp_series,
    enumerate_distribution,
    ExactDistribution,
)
from coinduel.exact import _dp_scan

probs = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100))

HALF = Fraction(1, 2)


class TestEnumerate:
    @pytest.mark.parametrize(
        "n,pA,pB,pTie",
        [
            (1, 0, 0, 1),
            (2, Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
            (3, Fraction(1, 4), Fraction(3, 8), Fraction(3, 8)),
            (4, Fraction(1, 4), Fraction(3, 8), Fraction(3, 8)),
        ],
    )
    def test_fair_coin_small(self, n, pA, pB, pTie):
        dist = enumerate_distribution(n)
        assert (dist.pA, dist.pB, dist.pTie) == (pA, pB, pTie)

    def test_diff_n3(self):
        assert enumerate_distribution(3).diff == Fraction(1, 8)

    def test_partition(self):
        d = enumerate_distribution(9, Fraction(2, 7))
        assert d.pA + d.pB + d.pTie == 1

    def test_cap(self):
        with pytest.raises(ValueError):
            enumerate_distribution(ENUM_MAX_N + 1)

    @pytest.mark.parametrize("bad", [0, Fraction(0), Fraction(1), 2, Fraction(-1, 3)])
    def test_invalid_probability(self, bad):
        with pytest.raises(ValueError):
            enumerate_distribution(4, bad)


def reference_dp_scan(n: int, p: Fraction):
    """Reference for _dp_scan: the same band update, with the three sign
    classes summed afresh over the whole band at every step."""
    a, c = p.numerator, p.denominator - p.numerator
    off = n
    weight_h = [0] * (n + n // 2 + 3)
    weight_t = [0] * (n + n // 2 + 3)
    weight_h[off] = a
    weight_t[off] = c
    yield 1, 0, a + c, 0
    for k in range(2, n + 1):
        lo = off - (k - 1)
        hi = off + k // 2
        idx = range(lo, hi + 1)
        new_h = [a * (weight_h[i + 1] + weight_t[i]) for i in idx]
        new_t = [c * (weight_h[i - 1] + weight_t[i]) for i in idx]
        weight_h[lo : hi + 1] = new_h
        weight_t[lo : hi + 1] = new_t
        below = sum(weight_h[lo:off]) + sum(weight_t[lo:off])
        equal = weight_h[off] + weight_t[off]
        above = sum(weight_h[off + 1 : hi + 1]) + sum(weight_t[off + 1 : hi + 1])
        yield k, below, equal, above


class TestDPExact:
    @pytest.mark.parametrize(
        "p", [HALF, Fraction(3, 5), Fraction(1, 3), Fraction(2, 5)], ids=str
    )
    def test_scan_matches_reference_every_step(self, p):
        for n in (1, 2, 3, 4, 301):
            assert list(_dp_scan(n, p)) == list(reference_dp_scan(n, p)), n

    def test_single_flip_ties_any_coin(self):
        for p in (HALF, Fraction(1, 3), Fraction(9, 10)):
            d = dp_distribution(1, p)
            assert (d.pA, d.pB, d.pTie) == (0, 0, 1)

    def test_matches_enumeration_fair(self):
        for n in range(1, 16):
            assert dp_distribution(n) == enumerate_distribution(n)

    @given(st.integers(1, 12), probs)
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration_biased(self, n, p):
        assert dp_distribution(n, p) == enumerate_distribution(n, p)

    @pytest.mark.parametrize("p", [HALF, Fraction(1, 3)], ids=str)
    def test_matches_enumeration_over_several_chunks(self, p):
        # 2^23 sequences: the enumeration scans them in more than one chunk
        assert enumerate_distribution(23, p) == dp_distribution(23, p)

    def test_series_consistent_with_single_runs(self):
        series = dp_series(40)
        assert len(series) == 40
        for n in (1, 2, 7, 25, 40):
            assert series[n - 1] == dp_distribution(n)

    def test_strict_ordering_sets_in(self):
        # Bob pulls ahead from the third flip on and never looks back
        series = dp_series(200)
        for n, d in enumerate(series, start=1):
            if n <= 2:
                assert d.pA == d.pB
            else:
                assert d.pB > d.pA, n

    def test_cap(self):
        with pytest.raises(ValueError):
            dp_distribution(DP_EXACT_MAX_N + 1)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            dp_distribution(0)

    def test_partition_and_positivity(self):
        d = dp_distribution(333, Fraction(3, 5))
        assert d.pA + d.pB + d.pTie == 1
        assert d.pA > 0 and d.pB > 0 and d.pTie > 0


class TestDPFloat:
    def test_matches_exact_small(self):
        for n in (1, 2, 3, 10, 50):
            f = dp_float_series(n)[-1]
            e = dp_distribution(n)
            assert math.isclose(f.pA, float(e.pA), rel_tol=0, abs_tol=f.rounding_bound)
            assert math.isclose(f.pB, float(e.pB), rel_tol=0, abs_tol=f.rounding_bound)
            assert math.isclose(
                f.pTie, float(e.pTie), rel_tol=0, abs_tol=f.rounding_bound
            )

    def test_drift_bound_holds_through_n_300(self):
        exact = dp_series(300)
        floats = dp_float_series(300)
        for e, f in zip(exact, floats):
            for a, b in ((e.pA, f.pA), (e.pB, f.pB), (e.pTie, f.pTie)):
                assert abs(float(a) - b) <= f.rounding_bound

    def test_last_step_matches_series(self):
        # dp_distribution sums only the last band; the series sums every one
        for p in (0.5, 0.6, 0.1):
            for n in (1, 2, 3, 77, 1000):
                single = dp_distribution(n, p, mode="float")
                last = dp_float_series(n, p)[-1]
                assert (single.pA, single.pB, single.pTie) == (last.pA, last.pB, last.pTie)

    def test_series_stores_p_as_float(self):
        series = dp_float_series(5, Fraction(1, 2))
        assert all(type(f.p) is float and f.p == 0.5 for f in series)
        assert series[-1] == dp_distribution(5, Fraction(1, 2), mode="float")

    def test_sum_near_one(self):
        f = dp_float_series(2000)[-1]
        assert abs(f.pA + f.pB + f.pTie - 1.0) <= f.rounding_bound

    def test_diff_tracks_inverse_sqrt_at_n_100(self):
        f = dp_float_series(100)[-1]
        predicted = ASYMPTOTIC_C / 10.0
        assert abs(f.diff - predicted) <= 0.2 * predicted

    def test_bias_drives_alice_ahead(self):
        values = {n: dp_float_series(n, 0.6)[-1].pA for n in (50, 100, 200, 500)}
        assert values[50] < values[100] < values[200] < values[500]
        assert values[500] > 0.95

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            dp_float_series(10, 0.0)
        with pytest.raises(ValueError):
            dp_float_series(10, 1.0)


class TestValueSemantics:
    def test_frozen(self):
        d = dp_distribution(5)
        with pytest.raises(AttributeError):
            d.pA = Fraction(1, 2)

    def test_diff_property(self):
        d = ExactDistribution(
            n=3,
            p=HALF,
            pA=Fraction(1, 4),
            pB=Fraction(3, 8),
            pTie=Fraction(3, 8),
        )
        assert d.diff == Fraction(1, 8)
