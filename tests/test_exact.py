import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coinduel import (
    ASYMPTOTIC_C,
    DP_EXACT_MAX_N,
    ENUM_MAX_N,
    TRANSFORM_MAX_N,
    dp_distribution,
    dp_float_series,
    dp_series,
    enumerate_distribution,
    ExactDistribution,
    transform_distribution,
)
from coinduel import exact
from coinduel.exact import (
    DP_FLOAT_MAX_N,
    _dp_float_bands,
    _fft_length,
    _float_sign_sums,
    _omega_scores,
    _saddle_tilt,
)
from coinduel.rational import DP_EXACT_MAX_BITS, _dp_probability, _dp_scan
from coinduel.renewal import fair_scan

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

    @pytest.mark.parametrize("n", [19, 20])
    def test_omega_chunks_concatenate_to_omega_n(self, n):
        # two and four chunks of 2^18; the scores by the runs formula
        # S_n = runs - heads - [flip 1 is a tail] over the whole of Omega_n
        chunks = list(_omega_scores(n))
        assert [len(b) for b, _ in chunks] == [1 << 18] * (1 << (n - 18))
        bits = np.arange(1 << n, dtype=np.uint64)
        changes = (bits ^ (bits >> np.uint64(1))) & np.uint64((1 << (n - 1)) - 1)
        runs = 1 + np.bitwise_count(changes).astype(np.int64)
        tail_first = 1 - (bits & np.uint64(1)).astype(np.int64)
        scores = runs - np.bitwise_count(bits).astype(np.int64) - tail_first
        assert np.array_equal(np.concatenate([b for b, _ in chunks]), bits)
        assert np.array_equal(np.concatenate([s for _, s in chunks]), scores)


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


def reference_dp_float_bands(n: int, p: float):
    """Reference for _dp_float_bands: H and T in separate buffers, each new
    row made by its own add and its own multiply; yields (H, T) copies of the
    band after every step k = 1..n."""
    q = 1.0 - p
    size = n + n // 2 + 3
    off = n
    cur_h, cur_t, new_h, new_t = (np.zeros(size) for _ in range(4))
    cur_h[off] = p
    cur_t[off] = q
    yield cur_h[off : off + 1].copy(), cur_t[off : off + 1].copy()
    for k in range(2, n + 1):
        band = slice(off - (k - 1), off + k // 2 + 1)
        up = slice(band.start + 1, band.stop + 1)
        down = slice(band.start - 1, band.stop - 1)
        np.add(cur_h[up], cur_t[band], out=new_h[band])
        new_h[band] *= p
        np.add(cur_h[down], cur_t[band], out=new_t[band])
        new_t[band] *= q
        cur_h, new_h = new_h, cur_h
        cur_t, new_t = new_t, cur_t
        yield cur_h[band].copy(), cur_t[band].copy()


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

    def test_bit_budget(self):
        # n * (bits of p's denominator) is capped, so no input runs for hours;
        # p = 1/2 at the length cap and 4096 steps at an 8-bit denominator fit
        assert DP_EXACT_MAX_BITS == 2**15
        assert _dp_probability(DP_EXACT_MAX_N, HALF) == HALF
        assert _dp_probability(4096, Fraction(1, 255)) == Fraction(1, 255)
        message = "<= 32768, got n = 4096 and 9 bits, 36864"
        with pytest.raises(ValueError, match=message):
            _dp_probability(4096, Fraction(1, 256))
        # a float p brings its whole binary denominator: 0.6's is 2^53
        assert _dp_probability(600, 0.6) == Fraction(0.6)
        for call in (dp_distribution, dp_series):
            with pytest.raises(ValueError, match="got n = 700 and 54 bits, 37800"):
                call(700, 0.6)


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

    def test_series_stores_p_as_float(self):
        series = dp_float_series(5, Fraction(1, 2))
        assert all(type(f.p) is float and f.p == 0.5 for f in series)

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

    @pytest.mark.parametrize("p", [0.5, 0.6, 0.4, 1 / 3, 0.05, 0.95])
    def test_bands_match_reference_every_step(self, p):
        for n in (1, 2, 3, 4, 101, 777):
            got = _dp_float_bands(n, p, range(1, n + 1))
            pairs = zip(reference_dp_float_bands(n, p), got, strict=True)
            for k, ((h, t), (step, h_got, t_got)) in enumerate(pairs, start=1):
                assert step == k
                assert np.array_equal(h_got, h) and np.array_equal(t_got, t), (n, k)

    def test_bands_yield_only_requested_steps(self):
        full = {k: (h.copy(), t.copy()) for k, h, t in _dp_float_bands(40, 0.6, range(1, 41))}
        for steps in ([1], [1, 2, 40], range(3, 41, 9), [7], []):
            got = [(k, h.copy(), t.copy()) for k, h, t in _dp_float_bands(40, 0.6, steps)]
            assert [k for k, _, _ in got] == list(steps)
            for k, h, t in got:
                assert np.array_equal(h, full[k][0]) and np.array_equal(t, full[k][1]), k

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            dp_float_series(10, 0.0)
        with pytest.raises(ValueError):
            dp_float_series(10, 1.0)

    def test_cap_rejects_before_allocating(self, monkeypatch):
        # the DP is O(n^2): at n = 10^6 it would run for about 40 minutes.
        # With numpy out of reach, an array built before the check would
        # raise AttributeError instead
        monkeypatch.setattr(exact, "np", None)
        with pytest.raises(ValueError, match=f"capped at n = {DP_FLOAT_MAX_N}, where it takes 2 s"):
            dp_float_series(DP_FLOAT_MAX_N + 1)


def float_dp_law(n: int, p: float) -> tuple[float, float, float]:
    """(pA, pB, pTie) from the float DP's last band: the transform's oracle."""
    _, h, t = next(_dp_float_bands(n, p, (n,)))
    below, equal, above = _float_sign_sums(h, t, n)
    return below, above, equal


def _relative_gaps(dist, oracle):
    """|dist - oracle| / oracle on every class where oracle is a normal float."""
    return [
        abs(got - want) / want
        for got, want in zip((dist.pA, dist.pB, dist.pTie), oracle)
        if want >= sys.float_info.min
    ]


class TestTransform:
    def test_fair_coin_within_bound_of_exact_law(self):
        wanted = (4097, 6001, 11005, 20000, 30000)
        for n, below, equal, above in fair_scan(wanted[-1]):
            if n not in wanted:
                continue
            dist = transform_distribution(n)
            den = 1 << n
            for got, count in ((dist.pA, below), (dist.pB, above), (dist.pTie, equal)):
                assert abs(Fraction(got) - Fraction(count, den)) <= dist.rounding_bound, n

    @pytest.mark.parametrize("p", [0.05, 1 / 3, 0.4, 0.6, 0.95])
    @pytest.mark.parametrize("n", [4097, 6000])
    def test_matches_float_dp_relatively(self, n, p):
        gaps = _relative_gaps(transform_distribution(n, p), float_dp_law(n, p))
        assert gaps and max(gaps) <= 1e-11

    @given(st.integers(2, 3000), st.floats(0.01, 0.99))
    @settings(max_examples=25, deadline=None)
    def test_matches_float_dp_at_random_points(self, n, p):
        gaps = _relative_gaps(transform_distribution(n, p), float_dp_law(n, p))
        assert max(gaps) <= 1e-11

    @pytest.mark.parametrize("p", [Fraction(3, 5), Fraction(1, 3), Fraction(9, 10)], ids=str)
    def test_small_classes_keep_relative_accuracy(self, p):
        # against the exact law of the same float p: the classes on the far
        # side of the mean are tiny here, yet close in relative terms
        n = 600
        pf = Fraction(float(p))
        for _, below, equal, above in _dp_scan(n, pf):
            pass
        den = pf.denominator**n
        exact = dict(pA=Fraction(below, den), pB=Fraction(above, den), pTie=Fraction(equal, den))
        dist = transform_distribution(n, p)
        for key, value in exact.items():
            got = Fraction(getattr(dist, key))
            assert abs(got - value) <= dist.rounding_bound, key
            if value < Fraction(1, 10**6):
                assert abs(got - value) <= value * Fraction(1, 10**12), key

    @pytest.mark.parametrize("p", [0.5, 0.6, 0.4, 0.05, 0.95])
    @pytest.mark.parametrize("n", [1, 2, 3, 4097, 12345])
    def test_partition_within_bound(self, n, p):
        dist = transform_distribution(n, p)
        assert abs(dist.pA + dist.pB + dist.pTie - 1.0) <= dist.rounding_bound
        assert min(dist.pA, dist.pB, dist.pTie) >= 0.0

    def test_fair_tilt_is_one(self):
        assert _saddle_tilt(0.5, 0.5) == 1.0
        for p in (0.05, 0.4, 0.6, 0.95):
            r = _saddle_tilt(p, 1 - p)
            assert math.isclose(r**3 + r, 2 * p / (1 - p), rel_tol=1e-15)

    def test_fft_length_is_smallest_even_5_smooth(self):
        def smooth(m):
            for f in (2, 3, 5):
                while m % f == 0:
                    m //= f
            return m == 1

        for m in (1, 2, 7, 100, 6145, 16508):
            length = _fft_length(m)
            assert length >= m and length % 2 == 0 and smooth(length)
            assert not any(smooth(x) for x in range(max(m, 2) + (m % 2), length, 2))

    def test_cap_rejects_before_allocating(self, monkeypatch):
        # with numpy out of reach any array the call tried to build would
        # raise AttributeError instead
        monkeypatch.setattr(exact, "np", None)
        with pytest.raises(ValueError, match=str(TRANSFORM_MAX_N)):
            transform_distribution(TRANSFORM_MAX_N + 1)
        with pytest.raises(ValueError):
            transform_distribution(10**18, 0.6)

    @pytest.mark.parametrize("bad", [0.0, 1.0, Fraction(-1, 3), 2])
    def test_rejects_bad_probability(self, bad):
        with pytest.raises(ValueError):
            transform_distribution(5000, bad)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            transform_distribution(0)

    @pytest.mark.parametrize("p", [1e-20, 1e-100])
    def test_tiny_p_classes_are_not_negative(self, p):
        # pA at p = 1e-100 is about 1e-117 below its bound: the transform
        # clamps each class at 0 rather than print it negative
        n = 50
        dist = transform_distribution(n, p)
        ref = dp_distribution(n, Fraction(p))
        for got, want in ((dist.pA, ref.pA), (dist.pB, ref.pB), (dist.pTie, ref.pTie)):
            assert got >= 0.0
            assert abs(Fraction(got) - want) <= Fraction(dist.rounding_bound)

    @pytest.mark.parametrize("n", [3, 50])
    def test_tiny_p_is_computed_or_rejected(self, n):
        # the tilt r ~ 2p squared underflows near p = 1e-154: below the
        # floor the transform refuses, at it every class is within its bound
        low = exact.TRANSFORM_MIN_P
        for tiny in (1e-300, 1e-155, 5e-324):
            with pytest.raises(ValueError, match=rf"p >= {low:g}, got p = {tiny!r}"):
                transform_distribution(n, tiny)
        dist = transform_distribution(n, low)
        ref = dp_distribution(n, Fraction(low))
        for got, want in ((dist.pA, ref.pA), (dist.pB, ref.pB), (dist.pTie, ref.pTie)):
            assert abs(Fraction(got) - want) <= Fraction(dist.rounding_bound)


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
