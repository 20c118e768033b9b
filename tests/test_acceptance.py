"""Acceptance gate: the eleven release criteria, one test per criterion.

Each criterion lives in a check_* helper that raises AssertionError with a
measured-value message and returns a one-line detail on success.  Run under
pytest (`pytest tests/test_acceptance.py -v`, one PASS/FAIL line per
criterion) or standalone (`python3 tests/test_acceptance.py`), which prints
explicit PASS/FAIL lines and exits nonzero on any failure.
"""

import math
import sys
from fractions import Fraction

from coinduel import (
    ASYMPTOTIC_C,
    ExcursionKind,
    FlipSequence,
    PositionClass,
    SimConfig,
    classify_position,
    count_rx,
    dp_distribution,
    dp_float_series,
    dp_series,
    enumerate_distribution,
    enumerate_excursions,
    jump_mean_truncated,
    pi,
    renewal_diff,
    reverse,
    simulate_game,
    tailwalk,
)
from coinduel.verify import _brute_count_rx

MC_CASES = ((3, 101), (50, 102), (100, 103))
WALK_SEEDS = tuple(range(20))


def check_dp_matches_enumeration() -> str:
    """Exact DP reproduces exhaustive enumeration for n <= 20 at three coins."""
    coins = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))
    cases = 0
    for p in coins:
        for n in range(1, 21):
            dp = dp_distribution(n, p)
            brute = enumerate_distribution(n, p)
            assert dp == brute, f"dp != enumeration at n={n}, p={p}"
            cases += 1
    d3 = dp_distribution(3).diff
    assert d3 == Fraction(1, 8), f"diff at n=3 is {d3}, want 1/8"
    return f"{cases} (n, p) cases identical; diff(3) = 1/8 exactly"


def check_bob_leads_from_three_flips() -> str:
    """pB > pA as exact rationals for every 3 <= n <= 2000; ties at n = 1, 2."""
    series = dp_series(2000)
    for n, dist in enumerate(series, start=1):
        if n <= 2:
            assert dist.pA == dist.pB, f"expected pA == pB at n={n}"
        else:
            assert dist.pB > dist.pA, f"pB <= pA at n={n}"
    margin = float(series[-1].diff)
    return f"strict pB > pA for n = 3..2000 (gap {margin:.3e} at 2000); equality at n = 1, 2"


def check_renewal_convolution_equals_dp() -> str:
    """The renewal convolution reproduces the DP difference exactly, n <= 200."""
    series = dp_series(200)
    for n in range(3, 201):
        conv = renewal_diff(n)
        direct = series[n - 1].diff
        assert conv == direct, f"convolution {conv} != dp {direct} at n={n}"
    return "renewal_diff(n) == dp diff as rationals for n = 3..200"


def check_renewal_counts_match_brute_force() -> str:
    """count_rx, computed by its recurrence, agrees with direct enumeration
    through m = 24."""
    for m in range(1, 25):
        recurrence = count_rx(m)
        brute = _brute_count_rx(m)
        assert recurrence == brute, f"count_rx({m}) = {recurrence}, enumeration says {brute}"
    first = tuple(count_rx(m) for m in range(3, 7))
    assert first == (1, 1, 1, 4), f"count_rx(3..6) = {first}, want (1, 1, 1, 4)"
    return f"recurrence (count_rx) == enumeration for m = 1..24; count_rx(3..6) = {first}"


def check_pi_sqrt_scaling() -> str:
    """pi(m)·sqrt(m)/c is within 5% at m = 1e5 and the deviation shrinks."""
    ms = (10**2, 10**3, 10**4, 10**5)
    ratios = [pi(m, mode="float") * math.sqrt(m) / ASYMPTOTIC_C for m in ms]
    devs = [abs(r - 1.0) for r in ratios]
    assert 0.95 <= ratios[-1] <= 1.05, f"ratio at m=1e5 is {ratios[-1]:.6f}"
    for a, b in zip(devs, devs[1:]):
        assert b < a, f"deviation not decreasing: {devs}"
    return f"ratio at m = 1e5 is {ratios[-1]:.6f}; deviations {['%.1e' % d for d in devs]}"


def check_sqrt_n_laws_at_ten_thousand() -> str:
    """Float DP at n = 1e4 matches the sqrt(n) laws within 10%."""
    n = 10**4
    dist = dp_float_series(n)[-1]
    root = math.sqrt(n)
    diff_ratio = dist.diff * root / ASYMPTOTIC_C
    tie_ratio = dist.pTie * root / (2.0 * ASYMPTOTIC_C)
    assert 0.9 <= diff_ratio <= 1.1, f"diff ratio {diff_ratio:.4f}"
    assert 0.9 <= tie_ratio <= 1.1, f"tie ratio {tie_ratio:.4f}"
    return f"diff·sqrt(n)/c = {diff_ratio:.4f}, tie·sqrt(n)/2c = {tie_ratio:.4f}"


def check_position_classifier_exhaustive() -> str:
    """Final-position class matches the score sign on every sequence, n <= 16."""
    zeroish = (PositionClass.INITIAL_TAILRUN, PositionClass.NEUTRAL_ZERO)
    cases = 0
    for n in range(1, 17):
        window = (1 << (n - 1)) - 1
        for bits in range(1 << n):
            ht = (bits & ~(bits >> 1) & window).bit_count()
            hh = (bits & (bits >> 1) & window).bit_count()
            s = ht - hh
            tag = classify_position(FlipSequence(bits, n), n)
            if s > 0:
                ok = tag is PositionClass.B_WINNING
            elif s < 0:
                ok = tag is PositionClass.A_WINNING
            else:
                ok = tag in zeroish
            assert ok, f"class {tag} vs score {s} on {FlipSequence(bits, n)}"
            cases += 1
    assert cases == 2**17 - 2, f"case count {cases}"
    return f"all {cases} sequences with n <= 16 classified consistently"


def check_reversal_bijection() -> str:
    """Reversal is a bijection between the two excursion families, k <= 14."""
    sizes = []
    for k in range(2, 15):
        b_side = enumerate_excursions(k, ExcursionKind.B)
        a_side = enumerate_excursions(k, ExcursionKind.A_HAT)
        assert len(b_side) == len(a_side), f"cardinalities differ at k={k}"
        assert {reverse(w) for w in b_side} == a_side, f"not onto at k={k}"
        sizes.append(len(b_side))
    return f"families match under reversal for k = 2..14; sizes {sizes}"


def check_simulation_calibration() -> str:
    """A million-trial simulation lands within 4 SE of the exact DP values."""
    worst = 0.0
    for n, seed in MC_CASES:
        config = SimConfig(n=n, trials=10**6, seed=seed)
        r = simulate_game(config)
        e = dp_distribution(n)
        for est, se, truth in (
            (r.pA, r.stderr_a, float(e.pA)),
            (r.pB, r.stderr_b, float(e.pB)),
            (r.pTie, r.stderr_tie, float(e.pTie)),
        ):
            z = abs(est - truth) / se
            worst = max(worst, z)
            assert z <= 4.0, f"n={n} seed={seed}: {est} vs {truth} is {z:.2f} SE off"
    again = simulate_game(SimConfig(n=50, trials=10**6, seed=102))
    assert again == simulate_game(SimConfig(n=50, trials=10**6, seed=102)), (
        "repeated run with a fixed seed changed"
    )
    return f"3 runs x 1e6 trials within 4 SE (worst z = {worst:.2f}); reruns identical"


def check_biased_coin_favors_alice() -> str:
    """At p = 0.6 Alice's win probability climbs with n and clears 0.95."""
    values = {n: dp_float_series(n, 0.6)[-1].pA for n in (50, 100, 200, 500)}
    assert values[50] < values[100] < values[200] < values[500], f"not increasing: {values}"
    assert values[500] > 0.95, f"pA(500) = {values[500]:.4f}"
    return f"pA rises {values[50]:.3f} -> {values[500]:.3f} over n = 50..500"


def check_tail_walk_zero_mean_and_recurrence() -> str:
    """The jump law is centered to below 2^-50 and every walk revisits 0."""
    mean = jump_mean_truncated()
    assert abs(mean) <= Fraction(1, 2**50), f"truncated mean {float(mean):.3e}"
    hits = [tailwalk(10**6, seed).zero_hits for seed in WALK_SEEDS]
    assert all(h >= 1 for h in hits), f"some walk never returned to 0: {hits}"
    return f"|E jump| = {float(mean):.2e} <= 2^-50; zero hits on 20 seeds, min {min(hits)}"


CRITERIA = [
    ("dp-matches-enumeration", check_dp_matches_enumeration),
    ("bob-leads-from-three-flips", check_bob_leads_from_three_flips),
    ("renewal-convolution-equals-dp", check_renewal_convolution_equals_dp),
    ("renewal-counts-match-brute-force", check_renewal_counts_match_brute_force),
    ("pi-sqrt-scaling", check_pi_sqrt_scaling),
    ("sqrt-n-laws-at-ten-thousand", check_sqrt_n_laws_at_ten_thousand),
    ("position-classifier-exhaustive", check_position_classifier_exhaustive),
    ("reversal-bijection", check_reversal_bijection),
    ("simulation-calibration", check_simulation_calibration),
    ("biased-coin-favors-alice", check_biased_coin_favors_alice),
    ("tail-walk-zero-mean-and-recurrence", check_tail_walk_zero_mean_and_recurrence),
]


def test_criterion_01_dp_matches_enumeration():
    check_dp_matches_enumeration()


def test_criterion_02_bob_leads_from_three_flips():
    check_bob_leads_from_three_flips()


def test_criterion_03_renewal_convolution_equals_dp():
    check_renewal_convolution_equals_dp()


def test_criterion_04_renewal_counts_match_brute_force():
    check_renewal_counts_match_brute_force()


def test_criterion_05_pi_sqrt_scaling():
    check_pi_sqrt_scaling()


def test_criterion_06_sqrt_n_laws_at_ten_thousand():
    check_sqrt_n_laws_at_ten_thousand()


def test_criterion_07_position_classifier_exhaustive():
    check_position_classifier_exhaustive()


def test_criterion_08_reversal_bijection():
    check_reversal_bijection()


def test_criterion_09_simulation_calibration():
    check_simulation_calibration()


def test_criterion_10_biased_coin_favors_alice():
    check_biased_coin_favors_alice()


def test_criterion_11_tail_walk_zero_mean_and_recurrence():
    check_tail_walk_zero_mean_and_recurrence()


def main() -> int:
    failures = 0
    for name, fn in CRITERIA:
        try:
            detail = fn()
        except AssertionError as exc:
            print(f"FAIL {name}: {exc}")
            failures += 1
        else:
            print(f"PASS {name}: {detail}")
    total = len(CRITERIA)
    print(f"{total - failures}/{total} acceptance criteria hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
