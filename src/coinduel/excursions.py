"""Excursion taxonomy, the renewal parse of a flip stream, the reversal
coupling, and the position classifier that reads the sign of the score
straight off the parse.

A B-excursion starts HT, ends HH, and keeps its running score strictly
positive in between; an A-excursion is the mirror image (starts HH, ends
HT, strictly negative inside); an A-hat excursion is an A-excursion padded
by a tailrun and closed with a single head.  Any nonempty flip sequence
parses into an initial tailrun, a first head, and a chain of windows, each
window one excursion in B-form or A-hat-form, with consecutive windows
sharing their boundary head.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import FlipSequence, reverse
from .montecarlo import _MAX_BLOCK_CELLS, _substream

EXCURSION_ENUM_CAP = 24

# decompose() switches to the vectorized parser above this length
_INDEXED_MIN_LEN = 256


class ExcursionKind(Enum):
    B = "B"
    A = "A"
    A_HAT = "A-hat"
    NONE = "None"


class SlotKind(Enum):
    B = "B"
    A = "A"
    UNDETERMINED = "Undetermined"


class PositionClass(Enum):
    INITIAL_TAILRUN = "InitialTailrun"
    B_WINNING = "BWinning"
    A_WINNING = "AWinning"
    NEUTRAL_ZERO = "NeutralZero"


@dataclass(frozen=True, slots=True)
class Slot:
    """One window of the renewal parse, including its leading shared head.

    For kind A the window content is an A-hat excursion and tau_end marks
    the final flip of its A-part.  complete is False when the host sequence
    ran out before the window closed.
    """

    start_index: int
    end_index: int
    kind: SlotKind
    tau_end: int | None
    complete: bool
    content: FlipSequence

    def to_dict(self) -> dict:
        return {
            "start": self.start_index,
            "end": self.end_index,
            "kind": self.kind.value,
            "tau_end": self.tau_end,
            "complete": self.complete,
        }


@dataclass(frozen=True, slots=True)
class Decomposition:
    """Renewal parse of a sequence: initial tailrun, first head, windows.

    trailing is only populated when the sequence stops exactly on a renewal
    head, i.e. a final window of which only the head has been seen; a
    partially scanned window of known kind stays in slots with
    complete=False.
    """

    length: int
    initial_tailrun_len: int
    first_head_pos: int | None
    slots: tuple[Slot, ...]
    trailing: Slot | None

    def serialize(self) -> FlipSequence:
        """Rebuild the parsed sequence from the parts; inverse of decompose."""
        bits = 0
        pos = self.initial_tailrun_len
        if self.first_head_pos is not None:
            bits |= 1 << pos
            pos += 1
        for slot in self.slots:
            w = slot.content
            # drop the leading head: it is the previous window's last flip
            bits |= (w.bits >> 1) << pos
            pos += w.length - 1
        return FlipSequence(bits, self.length)

    def to_dict(self) -> dict:
        return {
            "length": self.length,
            "initial_tailrun_len": self.initial_tailrun_len,
            "first_head_pos": self.first_head_pos,
            "slots": [s.to_dict() for s in self.slots],
            "trailing": None if self.trailing is None else self.trailing.to_dict(),
        }


def _is_b(bits: int, n: int) -> bool:
    if bits & 3 != 1 or (bits >> (n - 2)) & 3 != 3:
        return False
    s = 0
    prev = 1
    b = bits
    for l in range(2, n + 1):
        b >>= 1
        cur = b & 1
        if prev:
            s += 1 - 2 * cur
        prev = cur
        if l < n and s <= 0:
            return False
    return s == 0


def _is_a(bits: int, n: int) -> bool:
    if bits & 3 != 3 or (bits >> (n - 2)) & 3 != 1:
        return False
    s = 0
    prev = 1
    b = bits
    for l in range(2, n + 1):
        b >>= 1
        cur = b & 1
        if prev:
            s += 1 - 2 * cur
        prev = cur
        if l < n and s >= 0:
            return False
    return s == 0


def _is_a_hat(bits: int, n: int) -> bool:
    if n < 4 or not (bits >> (n - 1)) & 1:
        return False
    m = n - 1
    if (bits >> (m - 1)) & 1:
        return False  # the part before the closing head must end in tails
    while m and not (bits >> (m - 1)) & 1:
        m -= 1
    # m is the last head before the padding; the A-part keeps one tail after it
    return m >= 2 and _is_a(bits & ((1 << (m + 1)) - 1), m + 1)


def classify_excursion(seq: FlipSequence) -> ExcursionKind:
    """Which excursion family seq belongs to, or NONE."""
    n = seq.length
    if n < 2:
        raise ValueError("an excursion candidate needs at least 2 flips")
    if _is_b(seq.bits, n):
        return ExcursionKind.B
    if _is_a(seq.bits, n):
        return ExcursionKind.A
    if _is_a_hat(seq.bits, n):
        return ExcursionKind.A_HAT
    return ExcursionKind.NONE


# fixed first/last pair (bit0 = earlier flip) used to prefilter candidates
_PREFILTER = {
    ExcursionKind.B: (0b01, 0b11),
    ExcursionKind.A: (0b11, 0b01),
    ExcursionKind.A_HAT: (0b11, 0b10),
}

_CHECKS = {
    ExcursionKind.B: _is_b,
    ExcursionKind.A: _is_a,
    ExcursionKind.A_HAT: _is_a_hat,
}


def enumerate_excursions(k: int, kind: ExcursionKind | str) -> set[FlipSequence]:
    """All excursions of the given kind and length k, by exhaustive scan."""
    kind = ExcursionKind(kind)
    if kind is ExcursionKind.NONE:
        raise ValueError("kind must be B, A, or A-hat")
    if k < 2:
        raise ValueError("excursions have length >= 2")
    if k > EXCURSION_ENUM_CAP:
        raise ValueError(f"enumeration is capped at length {EXCURSION_ENUM_CAP}")
    first, last = _PREFILTER[kind]
    check = _CHECKS[kind]
    found: set[FlipSequence] = set()
    top = np.uint64(k - 2)
    chunk = 1 << 22
    for lo in range(0, 1 << k, chunk):
        arr = np.arange(lo, min(lo + chunk, 1 << k), dtype=np.uint64)
        mask = ((arr & np.uint64(3)) == first) & (((arr >> top) & np.uint64(3)) == last)
        for b in arr[mask]:
            b = int(b)
            if check(b, k):
                found.add(FlipSequence(b, k))
    return found


def couple(tau: FlipSequence, tail_len: int = 0) -> tuple[FlipSequence, FlipSequence]:
    """The length-conserving coupled pair built over an A-excursion tau.

    alpha = tau, then tail_len tails, then one head (an A-hat excursion);
    beta = reverse(alpha), always a B-excursion of the same length.
    """
    if tail_len < 0:
        raise ValueError("tail_len must be >= 0")
    if classify_excursion(tau) is not ExcursionKind.A:
        raise ValueError("tau must be an A-excursion")
    n = tau.length + tail_len + 1
    alpha = FlipSequence(tau.bits | (1 << (n - 1)), n)
    return alpha, reverse(alpha)


def _decompose_scalar(seq: FlipSequence) -> Decomposition:
    bits, n = seq.bits, seq.length
    first_head = 0
    b = bits
    for pos in range(1, n + 1):
        if b & 1:
            first_head = pos
            break
        b >>= 1
    if not first_head:
        return Decomposition(n, n, None, (), None)

    slots: list[Slot] = []
    trailing = None
    e = first_head
    while True:
        if e == n:
            trailing = Slot(e, e, SlotKind.UNDETERMINED, None, False, seq.window(e, e))
            break
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
                slots.append(Slot(e, zero_at, SlotKind.B, None, True, seq.window(e, zero_at)))
                e = zero_at
                continue
            slots.append(Slot(e, n, SlotKind.B, None, False, seq.window(e, n)))
            break
        if not zero_at:
            slots.append(Slot(e, n, SlotKind.A, None, False, seq.window(e, n)))
            break
        tau_end = zero_at
        j = tau_end
        while j < n and not (bits >> j) & 1:
            j += 1
        if j < n:
            f = j + 1
            slots.append(Slot(e, f, SlotKind.A, tau_end, True, seq.window(e, f)))
            e = f
            continue
        slots.append(Slot(e, n, SlotKind.A, tau_end, False, seq.window(e, n)))
        break
    return Decomposition(n, first_head - 1, first_head, tuple(slots), trailing)


def _decompose_indexed(seq: FlipSequence) -> Decomposition:
    """Same parse as _decompose_scalar, driven by precomputed index tables."""
    bits, n = seq.bits, seq.length
    flips = np.unpackbits(
        np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8),
        bitorder="little",
        count=n,
    ).astype(bool)
    head_pos = np.flatnonzero(flips) + 1  # 1-based
    if head_pos.size == 0:
        return Decomposition(n, n, None, (), None)
    first_head = int(head_pos[0])

    jumps = np.zeros(n, dtype=np.int64)
    jumps[1:][flips[:-1] & ~flips[1:]] = 1
    jumps[1:][flips[:-1] & flips[1:]] = -1
    scores = np.cumsum(jumps)  # scores[i] = S_{i+1}
    # next position with the same aggregate score = window-score return to 0;
    # a stable sort groups equal scores in position order
    order = np.argsort(scores, kind="stable")
    nxt = np.zeros(n, dtype=np.int64)
    same = scores[order[1:]] == scores[order[:-1]]
    nxt[order[:-1][same]] = order[1:][same] + 1

    slots: list[Slot] = []
    trailing = None
    e = first_head
    while True:
        if e == n:
            trailing = Slot(e, e, SlotKind.UNDETERMINED, None, False, seq.window(e, e))
            break
        a_type = bool(flips[e])
        zero_at = int(nxt[e - 1])
        if not a_type:
            if zero_at:
                slots.append(Slot(e, zero_at, SlotKind.B, None, True, seq.window(e, zero_at)))
                e = zero_at
                continue
            slots.append(Slot(e, n, SlotKind.B, None, False, seq.window(e, n)))
            break
        if not zero_at:
            slots.append(Slot(e, n, SlotKind.A, None, False, seq.window(e, n)))
            break
        tau_end = zero_at
        k = int(np.searchsorted(head_pos, tau_end, side="right"))
        if k < head_pos.size:
            f = int(head_pos[k])
            slots.append(Slot(e, f, SlotKind.A, tau_end, True, seq.window(e, f)))
            e = f
            continue
        slots.append(Slot(e, n, SlotKind.A, tau_end, False, seq.window(e, n)))
        break
    return Decomposition(n, first_head - 1, first_head, tuple(slots), trailing)


def decompose(seq: FlipSequence) -> Decomposition:
    """Greedy left-to-right renewal parse of seq."""
    if seq.length == 0:
        raise ValueError("cannot decompose an empty sequence")
    if seq.length >= _INDEXED_MIN_LEN:
        return _decompose_indexed(seq)
    return _decompose_scalar(seq)


def _slot_containing(decomp: Decomposition, pos: int) -> Slot:
    # windows tile (first_head_pos, length]; ends are strictly increasing
    ends = [s.end_index for s in decomp.slots]
    return decomp.slots[bisect_left(ends, pos)]


def position_class(decomp: Decomposition, pos: int) -> PositionClass:
    """Classify a 1-based position against an existing parse."""
    if decomp.first_head_pos is None or pos <= decomp.first_head_pos:
        return PositionClass.INITIAL_TAILRUN
    slot = _slot_containing(decomp, pos)
    if slot.kind is SlotKind.B:
        # strictly inside a B window the score is positive; the closing head
        # (and any truncation point before it) has been counted out
        if not slot.complete or pos < slot.end_index:
            return PositionClass.B_WINNING
        return PositionClass.NEUTRAL_ZERO
    if slot.tau_end is None:
        return PositionClass.A_WINNING  # still inside an unfinished A-part
    if pos < slot.tau_end:
        return PositionClass.A_WINNING
    return PositionClass.NEUTRAL_ZERO  # A-part endpoint, its tail padding, or a head


def classify_position(seq: FlipSequence, pos: int) -> PositionClass:
    """Where position pos falls in the renewal parse of seq.

    BWinning and AWinning correspond exactly to S_pos > 0 and S_pos < 0;
    the two remaining classes split S_pos = 0 by whether the stream has
    produced its first head yet.
    """
    if not 1 <= pos <= seq.length:
        raise IndexError(f"position {pos} outside 1..{seq.length}")
    return position_class(decompose(seq), pos)


@dataclass(frozen=True)
class CoupledDiffEstimate:
    """Monte Carlo estimate of pB - pA via the coupled renewal stream."""

    n: int
    trials: int
    seed: int
    batch_size: int
    hits: int
    estimate: float
    stderr: float


# States of one trial in the lock-step pass of coupled_diff_mc.  Codes from
# _A_PART on are an open A-part: _A_PART + 2 * (depth - 1) + last flip, where
# depth = -(window score) >= 1.
_SEEK, _HEAD, _PAD, _A_PART = 0, 1, 2, 3


def _coupled_automaton(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Transition table (indexed by 2 * code + flip) and draw flags per code.

    _SEEK waits for the first head.  _HEAD is the flip after a renewal head,
    pinned to H by the coupling: it draws nothing and opens the A-part at
    window score -1.  The A-part runs until its score returns to zero, then
    _PAD reads the tail padding until the closing head, which is the next
    renewal head.  A trial hits iff it ends position n in _PAD: n lies past
    the A-part of the coupled window but before its closing head.
    """
    # within n positions the depth stays below n, so n levels hold every
    # reachable state; the clamp below only keeps the last level's
    # (unreachable) HH edge inside the table
    codes = _A_PART + 2 * n
    step = np.empty(2 * codes, dtype=np.intp)
    step[2 * _SEEK : 2 * _SEEK + 2] = (_SEEK, _HEAD)
    step[2 * _HEAD : 2 * _HEAD + 2] = _A_PART + 1  # depth 1, last flip H
    step[2 * _PAD : 2 * _PAD + 2] = (_PAD, _HEAD)
    for depth in range(1, n + 1):
        after_t = _A_PART + 2 * (depth - 1)
        after_h = after_t + 1
        # after a T the score does not move; after an H, HT climbs and HH sinks
        step[2 * after_t : 2 * after_t + 2] = (after_t, after_h)
        climbed = _PAD if depth == 1 else after_t - 2
        sank = min(after_h + 2, codes - 1)
        step[2 * after_h : 2 * after_h + 2] = (climbed, sank)
    draws = np.ones(codes, dtype=np.intp)
    draws[_HEAD] = 0
    return step, draws


def coupled_diff_mc(
    n: int, trials: int, seed: int, batch_size: int = 1 << 16
) -> CoupledDiffEstimate:
    """Estimate pB - pA by sampling the coupled construction directly.

    Each trial plays the renewal parse of a fresh fair stream with every
    window in A-hat form and scores the indicator of the winning gap event;
    the estimate is half the hit rate.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    step, draws = _coupled_automaton(n)
    # a whole number of 4-row groups per block keeps each block's cell count
    # a multiple of 4, so the blocked uint8 draws (four per 32-bit word) read
    # the batch's stream exactly as one draw of the whole batch would
    block = max(4, _MAX_BLOCK_CELLS // n // 4 * 4)
    hits = 0
    done = 0
    batch = 0
    while done < trials:
        m = min(batch_size, trials - done)
        rng = _substream(seed, batch)
        for start in range(0, m, block):
            rows = min(block, m - start)
            # row i holds the fair flips of trial i, drawn in order; a pinned
            # flip draws none, so at most n of them are used
            flips = rng.integers(0, 2, size=(rows, n), dtype=np.uint8).ravel()
            cursor = np.arange(rows, dtype=np.intp) * n
            code = np.full(rows, _SEEK, dtype=np.intp)
            for _ in range(n):  # positions 1..n, all rows of the block at once
                flip = flips[cursor]
                cursor += draws[code]
                code = step[(code << 1) | flip]
            hits += int(np.count_nonzero(code == _PAD))
        done += m
        batch += 1
    rate = hits / trials
    estimate = 0.5 * rate
    stderr = 0.5 * math.sqrt(rate * (1.0 - rate) / trials)
    return CoupledDiffEstimate(n, trials, seed, batch_size, hits, estimate, stderr)
