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
from itertools import chain
from operator import itemgetter
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

from .core import (
    FlipSequence,
    count_overlapping,
    reverse,
    score,
    score_series,
    score_via_runs,
)
from .exact import _omega_scores, dp_float_series, enumerate_distribution, transform_distribution
from .excursions import (
    Decomposition,
    ExcursionKind,
    Slot,
    SlotKind,
    decompose,
    decompose_many,
    enumerate_excursions,
    PositionClass,
    position_class,
    _BLOCK_MAX_CELLS,
    _window_table,
    _Windows,
)
from .montecarlo import BATCH_SIZE, SimConfig, _flip_blocks, _substream, simulate_game
from .rational import _dp_scan, dp_distribution
from .renewal import ASYMPTOTIC_C, _pi_float_terms, asymptotics, count_rx, fair_scan, renewal_diff

_Check = Callable[[], tuple[bool, str]]


@dataclass(frozen=True)
class InvariantResult:
    name: str
    ok: bool
    detail: str
    seconds: float  # wall time of the check


def _random_blocks(
    seed: int, lengths: np.ndarray, p: float = 0.5
) -> Iterator[tuple[list[FlipSequence], np.ndarray]]:
    """Random sequences of the given lengths, block by block, and their flips.

    Sequence g is game g of the simulator's `_flip_blocks(max(lengths), p,
    len(lengths), seed)` cut to lengths[g] flips.  Its flip row holds those
    flips (heads = 1), then zeros up to max(lengths).  Each simulator block
    is cut into blocks of as many sequences as keep their flip rows within
    the parse's _BLOCK_MAX_CELLS.
    """
    n = int(lengths.max())
    width = (n + 7) // 8
    cut = max(1, _BLOCK_MAX_CELLS // n)
    done = 0
    for words in _flip_blocks(n, p, len(lengths), seed):
        games = np.ascontiguousarray(words.T, dtype="<u8").view(np.uint8)[:, :width]
        for lo in range(0, len(games), cut):
            raw = games[lo : lo + cut]
            rows = lengths[done : done + len(raw)]
            done += rows.size
            # byte k of a row keeps its first clip(length - 8k, 0, 8) flips
            kept = np.clip(rows[:, None] - np.arange(0, 8 * width, 8), 0, 8)
            raw &= ((1 << kept) - 1).astype(np.uint8)
            data = raw.tobytes()
            seqs = [
                FlipSequence(int.from_bytes(data[i : i + width], "little"), length)
                for i, length in zip(range(0, len(data), width), rows.tolist())
            ]
            yield seqs, np.unpackbits(raw, axis=1, count=n, bitorder="little")


def _random_sequences(seed: int, lengths: np.ndarray) -> Iterator[FlipSequence]:
    """The sequences of `_random_blocks(seed, lengths)`, one by one."""
    return chain.from_iterable(seqs for seqs, _ in _random_blocks(seed, lengths))


# ---------------------------------------------------------------- core


def _check_runs_formula() -> tuple[bool, str]:
    checked = 0
    seqs = (FlipSequence(b, n) for n in range(1, 17) for b in range(1 << n))
    extras = _random_sequences(101, _substream(101).integers(17, 129, 10**5))
    for seq in chain(seqs, extras):
        if score_via_runs(seq) != score_series(seq)[-1]:
            return False, f"mismatch at {seq}"
        checked += 1
    return True, f"{checked} sequences (exhaustive to length 16 plus 10^5 random)"


def _check_reversal_pattern_law() -> tuple[bool, str]:
    checked = 0
    seqs = (FlipSequence(b, n) for n in range(1, 13) for b in range(1 << n))
    extras = _random_sequences(102, _substream(102).integers(13, 257, 10**4))
    for seq in chain(seqs, extras):
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
        for b in range(top | 1, top << 1, 2):  # flips 1 and n are heads
            seq = FlipSequence(b, n)
            if score(reverse(seq)) != score(seq):
                return False, f"score changed under reversal at {seq}"
            checked += 1
    return True, f"{checked} H..H sequences, exhaustive to length 16"


def _check_additivity() -> tuple[bool, str]:
    rng = _substream(103)
    trials = 10**4
    lengths = rng.integers(2, 257, trials)
    splits = rng.integers(1, lengths + 1)
    for seq, m in zip(_random_sequences(103, lengths), splits.tolist()):
        left = seq.window(1, m)
        right = seq.window(m, seq.length)  # shares flip m with the left part
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


# the sign of S_n that each position class stands for
_CLASS_SIGN = {
    PositionClass.B_WINNING: 1,
    PositionClass.A_WINNING: -1,
    PositionClass.INITIAL_TAILRUN: 0,
    PositionClass.NEUTRAL_ZERO: 0,
}


def _exhaustive(n_max: int) -> Iterator[tuple[list[FlipSequence], np.ndarray]]:
    """Every sequence of length 1..n_max and its flips (heads = 1), in order
    of length, then bits; a block holds one length and at most BATCH_SIZE
    sequences."""
    for n in range(1, n_max + 1):
        size = min(1 << n, BATCH_SIZE)
        for lo in range(0, 1 << n, size):
            b = np.arange(lo, lo + size, dtype=np.int32)
            flips = ((b[:, None] >> np.arange(n, dtype=np.int32)) & 1).astype(np.uint8)
            yield [FlipSequence(bits, n) for bits in range(lo, lo + size)], flips


def _final_classes(seqs: list[FlipSequence]) -> list[PositionClass]:
    """The class of the last position of each sequence of a one-length block."""
    n = seqs[0].length
    return [position_class(d, n) for d in decompose_many(seqs)]


def _check_position_classifier() -> tuple[bool, str]:
    checked = 0
    for seqs, flips in _exhaustive(16):
        signs = np.sign(_levels(flips)[:, -1])
        tags = _final_classes(seqs)
        wrong = np.flatnonzero(
            np.fromiter(map(_CLASS_SIGN.__getitem__, tags), np.int16, len(tags)) != signs
        )
        if wrong.size:
            k = int(wrong[0])
            return False, f"{seqs[k]} -> {tags[k].value} but sign {signs[k]}"
        checked += len(seqs)
    return True, f"classifier matches sign(S_n) on all {checked} sequences, n <= 16"


def _check_tie_class_mass() -> tuple[bool, str]:
    # a block of n <= 12 holds all 2^n sequences of length n: T_n of fair_scan
    for (seqs, _), (n, _, ties, _) in zip(_exhaustive(12), fair_scan(12)):
        tags = _final_classes(seqs)
        class_count = tags.count(PositionClass.INITIAL_TAILRUN)
        class_count += tags.count(PositionClass.NEUTRAL_ZERO)
        if class_count != ties:
            return False, f"n={n}: {class_count} zero-class vs T_n={ties} from fair_scan"
    return True, "P(S_n=0) equals the mass of the two zero classes, n <= 12"


def _levels(flips: np.ndarray) -> np.ndarray:
    """Running scores S_1..S_n along the last axis of a 0/1 flip array."""
    f = flips.view(np.int8)
    steps = np.zeros(flips.shape, np.int8)
    # the flip after a head scores +1 if it is a tail (HT), -1 if a head (HH)
    steps[..., 1:] = f[..., :-1] * (1 - 2 * f[..., 1:])
    # |S_j| < n, and the narrower sum runs faster
    return np.cumsum(steps, axis=-1, dtype=np.int16 if flips.shape[-1] < 1 << 15 else np.int32)


def _range_reduce(ufunc: np.ufunc, flat: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """ufunc over flat[lo[k] : hi[k] + 1] for each k, the ranges in order.

    Where hi[k] < lo[k] the range is empty and entry k means nothing.
    """
    bounds = np.empty(2 * len(lo), dtype=np.intp)
    bounds[0::2] = np.minimum(lo, flat.size - 1)
    bounds[1::2] = hi + 1
    if bounds[-1] == flat.size:
        bounds = bounds[:-1]  # the last range runs to the end of flat
    return ufunc.reduceat(flat, bounds)[0::2]


def _parse_fault(table: _Windows, flips: np.ndarray, levels: np.ndarray) -> tuple[int, str] | None:
    """The first row whose parse breaks the renewal rule, and how; else None.

    Of several faults in that row, the first one tested below is named.

    table is taken as the window table of the rows, whose flips (heads = 1)
    and running scores S_1..S_n are the rows of flips and levels.  Together
    these conditions admit only the greedy parse:
    - the windows belong to the rows in order and tile [first head, n]:
      each starts on the head that closed the one before, and only the
      last may be open;
    - each window's kind is the flip after its head (H: A, T: B);
    - a B window stays strictly above its start level inside, and a closed
      one returns to it;
    - an A-part stays strictly below its start level inside and closes at
      it, and an open A window without one stays below up to flip n;
    - the padding after an A-part is all T, and a closed window ends in H.
    The table has no field for the rest of a Decomposition: the sequence and
    a kind that is neither A nor B.  Those come from the materialiser
    (excursions._materialise), whose parses parser-paths-agree holds equal
    to the flip-by-flip _decompose_reference; the first head and the
    trailing slot are read off the sequence and the windows.
    """
    rows, n = flips.shape
    faults: list[tuple[int, str]] = []

    def need(ok: np.ndarray, where: np.ndarray, reason: str) -> None:
        if not ok.all():
            faults.append((int(where[np.argmin(ok)]), reason))

    row_ids = np.arange(rows)
    heads = flips.view(bool)  # as bools, argmax stops at a row's first head
    has_head = heads.any(axis=1)
    first = np.where(has_head, heads.argmax(axis=1) + 1, 0)

    start, end, is_a, tau, complete = table.start, table.end, table.is_a, table.tau_end, table.complete
    m = start.size
    is_b = ~is_a
    has_tau = tau != -1
    # each window's row (a row out of range is read as the nearest one),
    # and the first and last windows of the rows
    row = np.clip(table.row, 0, rows - 1)
    opens = np.ones(m, bool)
    np.not_equal(row[1:], row[:-1], out=opens[1:])
    firsts = np.flatnonzero(opens)
    lasts = np.append(firsts[1:], m) - 1 if m else firsts
    ordered = row == table.row  # rows in range and in order
    ordered[1:] &= row[1:] >= row[:-1]
    expected_start = np.empty(m, dtype=np.intp)
    expected_start[1:] = end[:-1]
    expected_start[firsts] = first[row[firsts]]
    need(ordered & (start == expected_start), row, "windows do not tile from the first head")
    need((start < end) & (end <= n), row, "a window ends before it starts or after flip n")
    need(~has_tau | (is_a & (start < tau) & (tau <= end)), row, "misplaced tau_end")
    need(is_b | has_tau | ~complete, row, "a closed A window has no tau_end")
    need(complete | (end == n), row, "an open window ends before flip n")
    row_end = first.copy()
    row_end[row[lasts]] = end[lasts]
    need(~has_head | (row_end == n), row_ids, "the windows stop before flip n")
    if faults or not m:
        return min(faults, key=itemgetter(0), default=None)

    # flip p of row r is flat cell r * n + p - 1
    base = row * n - 1
    flat_flips = flips.ravel()
    flat_levels = levels.ravel()
    need(
        is_a == (flat_flips[base + start + 1] == 1),
        row,
        "a window's kind is not the flip after its head",
    )
    need(~complete | (flat_flips[base + end] == 1), row, "a closed window does not end on a head")
    at_start = flat_levels[base + start]
    # the flips that must stay strictly off the start level: the inside of a
    # B window or of an A-part, and the tail of an open window without one
    hi = np.where(has_tau, tau - 1, np.where(complete, end - 1, end))
    lowest = _range_reduce(np.minimum, flat_levels, base + start + 1, base + hi)
    highest = _range_reduce(np.maximum, flat_levels, base + start + 1, base + hi)
    off = np.where(is_b, lowest > at_start, highest < at_start)
    need(off | (hi == start), row, "a window touches its start level inside")
    closes_at = np.where(has_tau, tau, end)
    closes = has_tau | (is_b & complete)
    need(
        ~closes | (flat_levels[base + closes_at] == at_start),
        row,
        "a window does not close at its start level",
    )
    # the padding: after the A-part, up to the closing head or flip n
    a_part = np.flatnonzero(has_tau)
    pad_lo = (base + tau + 1)[a_part]
    pad_hi = (base + np.where(complete, end - 1, end))[a_part]
    if a_part.size:
        pad_heads = _range_reduce(np.maximum, flat_flips, pad_lo, pad_hi)
        need((pad_heads == 0) | (pad_hi < pad_lo), row[a_part], "a head inside the padding")
    return min(faults, key=itemgetter(0), default=None)


def _check_round_trip() -> tuple[bool, str]:
    for seqs, flips in _exhaustive(16):
        levels = _levels(flips)
        series = np.fromiter(chain.from_iterable(map(score_series, seqs)), levels.dtype, levels.size)
        differs = (series.reshape(levels.shape) != levels).any(axis=1)
        if differs.any():
            return False, f"the check's levels differ from score_series at {seqs[differs.argmax()]}"
        fault = _parse_fault(_window_table(seqs), flips, levels)
        if fault is not None:
            row, reason = fault
            return False, f"{reason} at {seqs[row]}"
    randoms, length = 10**5, 1000
    done = 0
    for seqs, flips in _random_blocks(104, np.full(randoms, length)):
        fault = _parse_fault(_window_table(seqs), flips, _levels(flips))
        if fault is not None:
            row, reason = fault
            return False, f"{reason} in random length-{length} sequence {done + row}"
        done += len(seqs)
    return True, (
        f"every parse checked against its own score levels: exhaustive to length 16 "
        f"plus {randoms} random length-{length} sequences"
    )


def _check_interior_scores() -> tuple[bool, str]:
    # a biased coin drifts the score far from 0, where levels held in a
    # byte (mod 256) would meet false level-0 flips: at head probability
    # 0.8 every length-2000 sequence spans 256 levels or more.  A drifting
    # parse almost never ends on a closed window, so the short sequences
    # cover the last windows that close on flip n.  Both head probabilities
    # draw from seed 106, so they share their first raw words: the two
    # samples are coupled, and each alone has its exact law.
    count, length, short = 250, 2000, 8
    lengths = np.full(count, length)
    biased = ((p, *b) for p in (0.2, 0.8) for b in _random_blocks(106, lengths, p))
    blocks = chain(((None, *b) for b in _exhaustive(short)), biased)
    windows = wide = 0
    for p, seqs, flips in blocks:
        levels = _levels(flips)
        wide += int(np.count_nonzero(levels.max(axis=1) - levels.min(axis=1) >= 256))
        table = _window_table(seqs)
        fault = _parse_fault(table, flips, levels)
        if fault is not None:
            row, reason = fault
            if p is None:
                return False, f"{reason} at {seqs[row]}"
            return False, f"{reason} in length-{length} sequence {row} at head probability {p}"
        windows += table.start.size
    return True, (
        f"window levels and interior signs hold in {windows} windows: {count} seeded "
        f"length-{length} sequences at each head probability 0.2 and 0.8 ({wide} of them "
        f"spanning 256 levels or more) and every sequence to length {short}"
    )


def _decompose_reference(seq: FlipSequence) -> Decomposition:
    """The renewal parse walked flip by flip: the oracle for decompose."""
    bits, n = seq.bits, seq.length
    slots: list[Slot] = []
    e = next((pos for pos in range(1, n + 1) if (bits >> (pos - 1)) & 1), 0)  # the first head
    while 0 < e < n:
        a_type = (bits >> e) & 1 == 1  # the flip after the head picks the form
        # window score from the head at e; first return to zero closes B or tau
        s = 0
        prev = 1
        zero_at = 0
        j = e
        while j < n:
            j += 1
            cur = (bits >> (j - 1)) & 1
            if prev:
                s += 1 - 2 * cur
            prev = cur
            if s == 0:
                zero_at = j
                break
        if not a_type:
            if zero_at:
                slots.append(Slot(e, zero_at, SlotKind.B, None, True))
                e = zero_at
                continue
            slots.append(Slot(e, n, SlotKind.B, None, False))
            break
        if not zero_at:
            slots.append(Slot(e, n, SlotKind.A, None, False))
            break
        tau_end = zero_at
        j = tau_end
        while j < n and not (bits >> j) & 1:
            j += 1
        if j < n:
            f = j + 1
            slots.append(Slot(e, f, SlotKind.A, tau_end, True))
            e = f
            continue
        slots.append(Slot(e, n, SlotKind.A, tau_end, False))
        break
    return Decomposition(seq, tuple(slots))


def _check_parser_equivalence() -> tuple[bool, str]:
    # each sequence is parsed three ways: in a block, alone, and flip by flip
    trials = 2000
    randoms = _random_blocks(105, _substream(105).integers(240, 521, trials))
    for seqs, _ in chain(_exhaustive(12), randoms):
        for seq, parse in zip(seqs, decompose_many(seqs)):
            alone = decompose(seq)
            if not parse == alone == _decompose_reference(seq):
                return False, f"parsers disagree at {seq}"
            # the parse ends on a renewal head exactly when flip n is a head at 0
            if (parse.trailing is not None) != (seq.is_head(seq.length) and score(seq) == 0):
                return False, f"wrong trailing head at {seq}"
    return True, (
        f"decompose equals the flip-by-flip reference, exhaustive to length 12 "
        f"plus {trials} random sequences"
    )


# ---------------------------------------------------------------- exact


def _check_dp_equals_enumeration() -> tuple[bool, str]:
    ps = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))
    for p in ps:
        for n in range(1, 21):
            if dp_distribution(n, p) != enumerate_distribution(n, p):
                return False, f"solvers disagree at n={n}, p={p}"
    return True, "DP equals enumeration for n <= 20, p in {1/2, 1/3, 2/3}"


def _check_strict_ordering() -> tuple[bool, str]:
    for k, below, _, above in fair_scan(2000):
        if k >= 3 and not above > below:
            return False, f"pB <= pA at n = {k}"
    return True, "pB > pA exactly, for all 3 <= n <= 2000"


def _check_equality_edge() -> tuple[bool, str]:
    for n in (1, 2):
        dist = dp_distribution(n)
        if dist.pA != dist.pB:
            return False, f"pA != pB at n = {n}"
    return True, "pA = pB at n in {1, 2}"


# the rows of the one fair_scan pass that test the transform
_TRANSFORM_CHECK_N = (1, 2, 3, 100, 1000, 2000, 4096, 4097, 6000, 8192, 10_000)


def _fair_gap(f, n: int, below: int, equal: int, above: int) -> float:
    """Largest distance of a float law from the exact fair-coin counts over 2^n."""
    den = 1 << n
    return max(abs(f.pA - below / den), abs(f.pB - above / den), abs(f.pTie - equal / den))


def _check_float_drift() -> tuple[bool, str]:
    # the exact side is one fair_scan pass, which the bridge check pins to
    # the exact DP; its first 2000 rows test the float DP, the rows in
    # _TRANSFORM_CHECK_N the transform
    dp_rows = iter(dp_float_series(2000))
    worst = worst_share = 0.0
    for n, *counts in fair_scan(10_000):
        if n <= 2000:
            f = next(dp_rows)
            drift = _fair_gap(f, n, *counts)
            worst = max(worst, drift)
            if drift > f.rounding_bound:
                return False, f"drift {drift:.3e} exceeds bound at n = {n}"
        if n in _TRANSFORM_CHECK_N:
            f = transform_distribution(n, 0.5)
            error = _fair_gap(f, n, *counts)
            if error > f.rounding_bound:
                return False, f"transform error {error:.3e} exceeds its bound at n = {n}"
            # at n = 1 both the error and the bound are 0
            if error:
                worst_share = max(worst_share, error / f.rounding_bound)
    return True, (
        f"float DP tracks exact law for n <= 2000 (worst drift {worst:.2e}); "
        f"transform within its bound at n = {', '.join(map(str, _TRANSFORM_CHECK_N))} "
        f"(worst error {worst_share:.2f} of bound)"
    )


def _check_bias_increasing() -> tuple[bool, str]:
    values = [transform_distribution(n, 0.6).pA for n in (50, 100, 200, 500)]
    if not all(x < y for x, y in zip(values, values[1:])):
        return False, f"pA not increasing: {values}"
    if not values[-1] > 0.95:
        return False, f"pA at n=500 is {values[-1]:.4f} <= 0.95"
    return True, f"pA at p=0.6 rises {values[0]:.3f} -> {values[-1]:.4f} over n = 50..500"


# -------------------------------------------------------------- renewal


def _check_bridge_identity() -> tuple[bool, str]:
    # one exact DP pass is the oracle for both the recurrence law and the
    # convolution
    for dp_row, rec_row in zip(_dp_scan(2000, Fraction(1, 2)), fair_scan(2000), strict=True):
        k, below, _, above = dp_row
        if rec_row != dp_row:
            return False, f"recurrence law != DP law at n = {k}"
        if 3 <= k <= 200 and renewal_diff(k) != Fraction(above - below, 1 << k):
            return False, f"convolution != DP difference at n = {k}"
    return True, (
        "recurrence law equals DP law exactly for n <= 2000; "
        "renewal convolution equals DP difference, 3 <= n <= 200"
    )


def _brute_count_rx(m: int) -> int:
    """Exhaustive count of sequences ending HT with score 0, by popcounts."""
    if m < 2:
        return 0
    last_two = np.uint64(m - 2)  # bits >> last_two holds flips m-1, m
    return sum(
        int(np.count_nonzero((scores == 0) & ((bits >> last_two) == 0b01)))
        for bits, scores in _omega_scores(m)
    )


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
    # one pass of the float recurrence to 10^5, kept at four epochs
    marks = (10**2, 10**3, 10**4, 10**5)
    deviations = [
        abs(u * math.sqrt(m) / ASYMPTOTIC_C - 1.0)
        for m, u in zip(range(1, marks[-1] + 1), _pi_float_terms())
        if m in marks
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
    dist = transform_distribution(n)
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
    # p = 1/2 decides every flip from one raw word; p = 3/5 runs the
    # sampler's digit-by-digit rounds
    n, trials, seeds = 50, 10**4, 200
    rates = []
    for p in (Fraction(1, 2), Fraction(3, 5)):
        exact_pb = float(dp_distribution(n, p).pB)
        covered = 0
        for seed in range(seeds):
            result = simulate_game(SimConfig(n=n, trials=trials, seed=seed, p=float(p)))
            if abs(result.pB - exact_pb) <= 2.0 * result.stderr_b:
                covered += 1
        rate = covered / seeds
        if rate < 0.9:
            return False, f"coverage {rate:.1%} at p = {p} below 90% over {seeds} seeds"
        rates.append(rate)
    return True, (
        f"2-stderr interval covered exact pB in {rates[0]:.1%} of {seeds} seeds at p = 1/2"
        f" and {rates[1]:.1%} at p = 3/5"
    )


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
        start = perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        result = InvariantResult(name, ok, detail, perf_counter() - start)
        if report is not None:
            report(result)
        results.append(result)
    return results
