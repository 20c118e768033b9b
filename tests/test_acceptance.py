"""Acceptance gate: the eleven release criteria, one test per criterion.

Nine criteria name `verify` registry checks: each looks its checks up when it
runs, asserts they hold and returns the registry's detail text.  Criteria 09
(simulation calibration) and 11 (the tail walk) have no registry counterpart
and are written out here.  A criterion raises AssertionError with a measured
value, or returns a one-line detail.  Run under pytest
(`pytest tests/test_acceptance.py -v`) or standalone
(`python3 tests/test_acceptance.py`), which prints PASS/FAIL lines and exits
nonzero on any failure.
"""

import sys
from fractions import Fraction

import pytest

from coinduel import SimConfig, dp_distribution, jump_mean_truncated, simulate_game, tailwalk
from coinduel import verify

MC_CASES = ((3, 101), (50, 102), (100, 103))
WALK_SEEDS = tuple(range(20))


def registry(*names):
    """A criterion that runs the named verify checks and joins their details."""

    def check() -> str:
        # looked up at run time: a renamed check fails only its own criterion
        checks = dict(verify.CHECKS)
        details = []
        for name in names:
            if name not in checks:
                raise AssertionError(f"no verify check named {name}")
            ok, detail = checks[name]()
            if not ok:
                raise AssertionError(f"{name}: {detail}")
            details.append(detail)
        return "; ".join(details)

    return check


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


def check_tail_walk_zero_mean_and_recurrence() -> str:
    """The jump law is centered to below 2^-50 and every walk revisits 0."""
    mean = jump_mean_truncated()
    assert abs(mean) <= Fraction(1, 2**50), f"truncated mean {float(mean):.3e}"
    hits = [tailwalk(10**6, seed).zero_hits for seed in WALK_SEEDS]
    assert all(h >= 1 for h in hits), f"some walk never returned to 0: {hits}"
    return f"|E jump| = {float(mean):.2e} <= 2^-50; zero hits on 20 seeds, min {min(hits)}"


CRITERIA = [
    ("dp-matches-enumeration", registry("exact.dp-matches-enumeration")),
    (
        "bob-leads-from-three-flips",
        registry("exact.strict-ordering-from-n-3", "exact.equality-at-n-1-2"),
    ),
    ("renewal-convolution-equals-dp", registry("renewal.bridge-identity-convolution-vs-dp")),
    ("renewal-counts-match-brute-force", registry("renewal.count-closed-form-vs-brute-force")),
    ("pi-sqrt-scaling", registry("renewal.pi-sqrt-m-approaches-c")),
    ("sqrt-n-laws-at-ten-thousand", registry("renewal.desk-scale-sqrt-n-laws")),
    (
        "position-classifier-exhaustive",
        registry("excursions.position-classifier-matches-score-sign"),
    ),
    ("reversal-bijection", registry("excursions.reversal-bijection-b-to-ahat")),
    ("simulation-calibration", check_simulation_calibration),
    ("biased-coin-favors-alice", registry("exact.bias-pa-increasing-when-p-above-half")),
    ("tail-walk-zero-mean-and-recurrence", check_tail_walk_zero_mean_and_recurrence),
]


@pytest.mark.parametrize("check", [fn for _, fn in CRITERIA], ids=[name for name, _ in CRITERIA])
def test_criterion(check):
    check()


def main() -> int:
    failures = 0
    for name, fn in CRITERIA:
        try:
            ok, detail = True, fn()
        except AssertionError as exc:
            ok, detail = False, str(exc)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += not ok
    total = len(CRITERIA)
    print(f"{total - failures}/{total} acceptance criteria hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
