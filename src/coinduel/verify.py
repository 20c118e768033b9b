"""Runtime re-verification of every documented library invariant.

Each named check re-derives one invariant from scratch -- exhaustive small
scans against independent bit-counting oracles, cross-solver equalities, or
seeded statistical checks -- and reports pass/fail with a one-line detail.
The `verify` CLI subcommand runs the whole registry and exits nonzero if
anything fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import (
    FlipSequence,
    count_overlapping,
    reverse,
    score,
    score_series,
    score_via_runs,
)
from .exact import dp_distribution, dp_float_series, dp_series, enumerate_distribution
from .excursions import (
    ExcursionKind,
    SlotKind,
    _decompose_indexed,
    _decompose_scalar,
    classify_position,
    decompose,
    enumerate_excursions,
    PositionClass,
)
from .montecarlo import SimConfig, simulate_game
from .renewal import ASYMPTOTIC_C, asymptotics, count_rx, pi, renewal_diff

_Check = Callable[[], tuple[bool, str]]


@dataclass(frozen=True)
class InvariantResult:
    name: str
    ok: bool
    detail: str


def _rng(tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=tag)))


def _random_sequence(rng: np.random.Generator, length: int) -> FlipSequence:
    bits = int.from_bytes(rng.bytes((length + 7) // 8), "little") & ((1 << length) - 1)
    return FlipSequence(bits, length)


# ---------------------------------------------------------------- core


def _check_runs_formula() -> tuple[bool, str]:
    checked = 0
    for n in range(1, 17):
        for b in range(1 << n):
            seq = FlipSequence(b, n)
            if score_via_runs(seq) != score_series(seq)[-1]:
                return False, f"mismatch at {seq}"
            checked += 1
    rng = _rng(101)
    for _ in range(10**5):
        seq = _random_sequence(rng, int(rng.integers(17, 129)))
        if score_via_runs(seq) != score_series(seq)[-1]:
            return False, f"mismatch at {seq}"
        checked += 1
    return True, f"{checked} sequences (exhaustive to length 16 plus 10^5 random)"


def _check_reversal_pattern_law() -> tuple[bool, str]:
    checked = 0
    rng = _rng(102)
    seqs = (
        FlipSequence(b, n) for n in range(1, 13) for b in range(1 << n)
    )
    extras = (_random_sequence(rng, int(rng.integers(13, 257))) for _ in range(10**4))
    for seq in (*seqs, *extras):
        rev = reverse(seq)
        if count_overlapping(rev, "HH") != count_overlapping(seq, "HH"):
            return False, f"HH count changed under reversal at {seq}"
        if count_overlapping(rev, "TH") != count_overlapping(seq, "HT"):
            return False, f"HT/TH swap failed at {seq}"
        checked += 1
    return True, f"{checked} sequences (exhaustive to length 12 plus 10^4 random)"


def _check_reversal_score_h_to_h() -> tuple[bool, str]:
    checked = 0
    for n in range(1, 17):
        top = 1 << (n - 1)
        for b in range(1 << n):
            if not (b & 1 and b & top):
                continue  # only sequences that begin and end with H
            seq = FlipSequence(b, n)
            if score(reverse(seq)) != score(seq):
                return False, f"score changed under reversal at {seq}"
            checked += 1
    return True, f"{checked} H..H sequences, exhaustive to length 16"


def _check_additivity() -> tuple[bool, str]:
    rng = _rng(103)
    trials = 10**4
    for _ in range(trials):
        n = int(rng.integers(2, 257))
        seq = _random_sequence(rng, n)
        m = int(rng.integers(1, n + 1))
        left = seq.window(1, m)
        right = seq.window(m, n)  # shares flip m with the left part
        if score(seq) != score(left) + score(right):
            return False, f"split at {m} fails for {seq}"
    return True, f"{trials} random splits of random sequences"


# ---------------------------------------------------------- excursions


def _check_bijection() -> tuple[bool, str]:
    total = 0
    for k in range(2, 15):
        b_set = enumerate_excursions(k, ExcursionKind.B)
        ahat_set = enumerate_excursions(k, ExcursionKind.A_HAT)
        if {reverse(w) for w in b_set} != ahat_set or len(b_set) != len(ahat_set):
            return False, f"reversal is not a bijection at k = {k}"
        total += len(b_set)
    return True, f"B_k <-> Ahat_k match for k <= 14 ({total} excursions per side)"


def _final_sign_table(n: int) -> np.ndarray:
    """sign(S_n) for every b in Omega_n, via independent pair popcounts."""
    arr = np.arange(1 << n, dtype=np.uint64)
    if n < 2:
        return np.zeros(arr.size, dtype=np.int64)
    mask = np.uint64((1 << (n - 1)) - 1)
    shifted = arr >> np.uint64(1)
    ht = np.bitwise_count(arr & ~shifted & mask).astype(np.int64)
    hh = np.bitwise_count(arr & shifted & mask).astype(np.int64)
    return np.sign(ht - hh)


def _check_position_classifier() -> tuple[bool, str]:
    zeroish = (PositionClass.INITIAL_TAILRUN, PositionClass.NEUTRAL_ZERO)
    checked = 0
    for n in range(1, 17):
        signs = _final_sign_table(n)
        for b in range(1 << n):
            tag = classify_position(FlipSequence(b, n), n)
            s = signs[b]
            ok = (
                (tag is PositionClass.B_WINNING and s > 0)
                or (tag is PositionClass.A_WINNING and s < 0)
                or (tag in zeroish and s == 0)
            )
            if not ok:
                return False, f"{FlipSequence(b, n)} -> {tag.value} but sign {s}"
            checked += 1
    return True, f"classifier matches sign(S_n) on all {checked} sequences, n <= 16"


def _check_tie_class_mass() -> tuple[bool, str]:
    for n in range(1, 13):
        signs = _final_sign_table(n)
        zero_count = int(np.count_nonzero(signs == 0))
        class_count = 0
        for b in range(1 << n):
            tag = classify_position(FlipSequence(b, n), n)
            if tag in (PositionClass.INITIAL_TAILRUN, PositionClass.NEUTRAL_ZERO):
                class_count += 1
        if class_count != zero_count:
            return False, f"n={n}: {class_count} zero-class vs {zero_count} S_n=0"
    return True, "P(S_n=0) equals the mass of the two zero classes, n <= 12"


def _check_round_trip() -> tuple[bool, str]:
    for n in range(1, 17):
        for b in range(1 << n):
            seq = FlipSequence(b, n)
            if decompose(seq).serialize() != seq:
                return False, f"round-trip failed at {seq}"
    rng = _rng(104)
    randoms = 10**5
    for _ in range(randoms):
        seq = _random_sequence(rng, 1000)
        if decompose(seq).serialize() != seq:
            return False, "round-trip failed at a random length-1000 sequence"
    return True, f"exhaustive to length 16 plus {randoms} random length-1000 sequences"


def _check_interior_scores() -> tuple[bool, str]:
    slots_seen = 0
    for n in range(1, 15):
        for b in range(1 << n):
            for slot in decompose(FlipSequence(b, n)).slots:
                series = score_series(slot.content)
                if slot.kind is SlotKind.B and slot.complete:
                    if not all(v > 0 for v in series[1:-1]):
                        return False, f"B window interior not positive in {FlipSequence(b, n)}"
                    slots_seen += 1
                elif slot.kind is SlotKind.A and slot.tau_end is not None:
                    tau_len = slot.tau_end - slot.start_index + 1
                    if not all(v < 0 for v in series[1 : tau_len - 1]):
                        return False, f"A-part interior not negative in {FlipSequence(b, n)}"
                    if series[tau_len - 1] != 0:
                        return False, f"A-part does not close at zero in {FlipSequence(b, n)}"
                    slots_seen += 1
    return True, f"interior score signs hold in {slots_seen} parsed windows, n <= 14"


def _check_parser_equivalence() -> tuple[bool, str]:
    rng = _rng(105)
    trials = 2000
    for _ in range(trials):
        seq = _random_sequence(rng, int(rng.integers(240, 521)))
        if _decompose_scalar(seq) != _decompose_indexed(seq):
            return False, f"parsers disagree on a length-{seq.length} sequence"
    return True, f"scalar and indexed parsers agree on {trials} random sequences"


# ---------------------------------------------------------------- exact


def _check_dp_equals_enumeration() -> tuple[bool, str]:
    ps = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))
    for p in ps:
        for n in range(1, 21):
            if dp_distribution(n, p) != enumerate_distribution(n, p):
                return False, f"solvers disagree at n={n}, p={p}"
    return True, "DP equals enumeration for n <= 20, p in {1/2, 1/3, 2/3}"


def _check_strict_ordering() -> tuple[bool, str]:
    series = dp_series(2000)
    for dist in series:
        if dist.n >= 3 and not dist.pB > dist.pA:
            return False, f"pB <= pA at n = {dist.n}"
    return True, "pB > pA exactly, for all 3 <= n <= 2000"


def _check_equality_edge() -> tuple[bool, str]:
    for n in (1, 2):
        dist = dp_distribution(n)
        if dist.pA != dist.pB:
            return False, f"pA != pB at n = {n}"
    return True, "pA = pB at n in {1, 2}"


def _check_float_drift() -> tuple[bool, str]:
    exacts = dp_series(2000)
    floats = dp_float_series(2000)
    worst = 0.0
    for e, f in zip(exacts, floats):
        drift = max(
            abs(f.pA - float(e.pA)), abs(f.pB - float(e.pB)), abs(f.pTie - float(e.pTie))
        )
        worst = max(worst, drift)
        if drift > f.rounding_bound:
            return False, f"drift {drift:.3e} exceeds bound at n = {f.n}"
    return True, f"float DP tracks exact DP for n <= 2000 (worst drift {worst:.2e})"


def _check_bias_increasing() -> tuple[bool, str]:
    values = [dp_distribution(n, 0.6, mode="float").pA for n in (50, 100, 200, 500)]
    if not all(x < y for x, y in zip(values, values[1:])):
        return False, f"pA not increasing: {values}"
    if not values[-1] > 0.95:
        return False, f"pA at n=500 is {values[-1]:.4f} <= 0.95"
    return True, f"pA at p=0.6 rises {values[0]:.3f} -> {values[-1]:.4f} over n = 50..500"


# -------------------------------------------------------------- renewal


def _check_bridge_identity() -> tuple[bool, str]:
    series = dp_series(200)
    for dist in series:
        if dist.n < 3:
            continue
        if renewal_diff(dist.n) != dist.diff:
            return False, f"convolution != DP difference at n = {dist.n}"
    return True, "renewal convolution equals DP difference exactly, 3 <= n <= 200"


def _brute_count_rx(m: int) -> int:
    """Exhaustive count of sequences ending HT with score 0, by popcounts."""
    if m < 2:
        return 0
    total = 0
    mask = np.uint64((1 << (m - 1)) - 1)
    chunk = 1 << 22
    for lo in range(0, 1 << m, chunk):
        arr = np.arange(lo, min(lo + chunk, 1 << m), dtype=np.uint64)
        ends_ht = (arr >> np.uint64(m - 2)) & np.uint64(3) == np.uint64(1)
        shifted = arr >> np.uint64(1)
        ht = np.bitwise_count(arr & ~shifted & mask)
        hh = np.bitwise_count(arr & shifted & mask)
        total += int(np.count_nonzero(ends_ht & (ht == hh)))
    return total


def _count_rx_closed_form(m: int) -> int:
    """count_rx(m) as the binomial sum over the number s of matched descents.

    Such a sequence splits into s descents matched against s ascents; the
    two block-partition counts give a product of binomials per s.  The sum
    must start at s = 1: the single-descent boundary term is what counts
    e.g. TTHHT at m = 5.
    """
    return sum(
        math.comb(m - 2 * s - 1, s - 1) * math.comb(2 * s - 1, s - 1)
        for s in range(1, m // 3 + 1)
    )


def _check_count_rx_brute_force() -> tuple[bool, str]:
    for m in range(1, 25):
        expected = _brute_count_rx(m)
        if count_rx(m) != expected:
            return False, f"count_rx({m}) = {count_rx(m)} but brute force gives {expected}"
    for m in range(1, 301):
        expected = _count_rx_closed_form(m)
        if count_rx(m) != expected:
            return False, f"count_rx({m}) = {count_rx(m)} but the closed form gives {expected}"
    return True, (
        "recurrence count matches exhaustive scans for m <= 24 "
        "and the binomial closed form for m <= 300"
    )


def _check_pi_asymptotics() -> tuple[bool, str]:
    deviations = [
        abs(pi(m, mode="float") * math.sqrt(m) / ASYMPTOTIC_C - 1.0)
        for m in (10**2, 10**3, 10**4, 10**5)
    ]
    if not all(x > y for x, y in zip(deviations, deviations[1:])):
        return False, f"deviations not decreasing: {deviations}"
    if not deviations[-1] < 0.05:
        return False, f"final deviation {deviations[-1]:.3e} not under 5%"
    return True, (
        f"pi_m sqrt(m)/c deviation falls {deviations[0]:.1e} -> {deviations[-1]:.1e} "
        "over m = 10^2..10^5"
    )


def _check_desk_scale_laws() -> tuple[bool, str]:
    n = 10**4
    dist = dp_distribution(n, mode="float")
    root = math.sqrt(n)
    gap_ratio = (dist.pB - dist.pA) * root / ASYMPTOTIC_C
    tie_ratio = dist.pTie * root / (2.0 * ASYMPTOTIC_C)
    if not 0.9 <= gap_ratio <= 1.1:
        return False, f"gap ratio {gap_ratio:.4f} outside [0.9, 1.1]"
    if not 0.9 <= tie_ratio <= 1.1:
        return False, f"tie ratio {tie_ratio:.4f} outside [0.9, 1.1]"
    return True, f"at n = 10^4: gap ratio {gap_ratio:.4f}, tie ratio {tie_ratio:.4f}"


def _check_asymptotic_identities() -> tuple[bool, str]:
    for n in (1, 2, 4, 100, 10**4, 123457):
        rep = asymptotics(n)
        if rep.tie_approx != 2.0 * rep.diff_approx:
            return False, f"tie != 2*diff at n = {n}"
        if rep.deficit_B != rep.diff_approx / 2.0:
            return False, f"deficit_B != diff/2 at n = {n}"
        if rep.deficit_A != 3.0 * rep.deficit_B:
            return False, f"deficit_A != 3*deficit_B at n = {n}"
        if abs(rep.deficit_A + rep.deficit_B - rep.tie_approx) > math.ulp(rep.tie_approx):
            return False, f"deficit sum off by more than one ulp at n = {n}"
    return True, "scaling identities hold (deficit sum within one ulp of tie)"


# ----------------------------------------------------------- montecarlo


def _check_mc_determinism() -> tuple[bool, str]:
    config = SimConfig(n=50, trials=20000, seed=20240817)
    if simulate_game(config) != simulate_game(config):
        return False, "identical configs produced different results"
    return True, "identical SimConfig reproduces the identical SimResult"


def _check_mc_calibration() -> tuple[bool, str]:
    n, trials, seeds = 50, 10**4, 200
    exact_pb = float(dp_distribution(n).pB)
    covered = 0
    for seed in range(seeds):
        result = simulate_game(SimConfig(n=n, trials=trials, seed=seed))
        if abs(result.pB - exact_pb) <= 2.0 * result.stderr_b:
            covered += 1
    rate = covered / seeds
    if rate < 0.9:
        return False, f"coverage {rate:.1%} below 90% over {seeds} seeds"
    return True, f"2-stderr interval covered exact pB in {rate:.1%} of {seeds} seeds"


CHECKS: list[tuple[str, _Check]] = [
    ("core.runs-formula-matches-score-series", _check_runs_formula),
    ("core.reversal-pattern-law", _check_reversal_pattern_law),
    ("core.reversal-preserves-score-between-heads", _check_reversal_score_h_to_h),
    ("core.score-additivity-at-shared-flip", _check_additivity),
    ("excursions.reversal-bijection-b-to-ahat", _check_bijection),
    ("excursions.position-classifier-matches-score-sign", _check_position_classifier),
    ("excursions.tie-probability-matches-zero-classes", _check_tie_class_mass),
    ("excursions.decomposition-round-trip", _check_round_trip),
    ("excursions.window-interior-score-signs", _check_interior_scores),
    ("excursions.parser-paths-agree", _check_parser_equivalence),
    ("exact.dp-matches-enumeration", _check_dp_equals_enumeration),
    ("exact.strict-ordering-from-n-3", _check_strict_ordering),
    ("exact.equality-at-n-1-2", _check_equality_edge),
    ("exact.float-dp-within-rounding-bound", _check_float_drift),
    ("exact.bias-pa-increasing-when-p-above-half", _check_bias_increasing),
    ("renewal.bridge-identity-convolution-vs-dp", _check_bridge_identity),
    ("renewal.count-closed-form-vs-brute-force", _check_count_rx_brute_force),
    ("renewal.pi-sqrt-m-approaches-c", _check_pi_asymptotics),
    ("renewal.desk-scale-sqrt-n-laws", _check_desk_scale_laws),
    ("renewal.asymptotic-report-identities", _check_asymptotic_identities),
    ("montecarlo.determinism", _check_mc_determinism),
    ("montecarlo.calibration-coverage", _check_mc_calibration),
]


def run_all(report: Callable[[InvariantResult], None] | None = None) -> list[InvariantResult]:
    """Run every registered check, optionally reporting each as it finishes."""
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        result = InvariantResult(name, ok, detail)
        if report is not None:
            report(result)
        results.append(result)
    return results
