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
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import HEADS, FlipSequence, reverse, score_series
from .exact import _omega_scores
from .montecarlo import _MAX_BLOCK_CELLS, _substream

EXCURSION_ENUM_CAP = 24


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
    ran out before the window closed.  source is the parsed sequence itself,
    so the window's flips are stored once, not copied into every slot.
    """

    start_index: int
    end_index: int
    kind: SlotKind
    tau_end: int | None
    complete: bool
    source: FlipSequence = field(repr=False)

    @property
    def content(self) -> FlipSequence:
        """The window's flips, start_index..end_index of source."""
        return self.source.window(self.start_index, self.end_index)

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


# fixed first/last pair (bit0 = earlier flip) of each excursion family
_ENDS = {
    ExcursionKind.B: (0b01, 0b11),
    ExcursionKind.A: (0b11, 0b01),
    ExcursionKind.A_HAT: (0b11, 0b10),
}


def classify_excursion(seq: FlipSequence) -> ExcursionKind:
    """Which excursion family seq belongs to, or NONE.

    An excursion is a parse that starts on flip 1 and is one window: a
    closed B window, a closed A window (A-part, tail padding, closing head:
    an A-hat), or an open A window whose A-part ends on flip n.
    """
    n = seq.length
    if n < 2:
        raise ValueError("an excursion candidate needs at least 2 flips")
    d = decompose(seq)
    if d.first_head_pos != 1 or len(d.slots) != 1:
        return ExcursionKind.NONE
    (w,) = d.slots
    if w.complete:
        return ExcursionKind.B if w.kind is SlotKind.B else ExcursionKind.A_HAT
    if w.kind is SlotKind.A and w.tau_end == n:
        return ExcursionKind.A
    return ExcursionKind.NONE


def enumerate_excursions(k: int, kind: ExcursionKind | str) -> set[FlipSequence]:
    """All excursions of the given kind and length k, by exhaustive scan."""
    kind = ExcursionKind(kind)
    if kind is ExcursionKind.NONE:
        raise ValueError("kind must be B, A, or A-hat")
    if k < 2:
        raise ValueError("excursions have length >= 2")
    if k > EXCURSION_ENUM_CAP:
        raise ValueError(f"enumeration is capped at length {EXCURSION_ENUM_CAP}")
    first, last = _ENDS[kind]
    top = np.uint64(k - 2)
    found: set[FlipSequence] = set()
    # every excursion ends at total score 0 (an A-hat adds only TT and TH)
    for bits, scores in _omega_scores(k):
        mask = (scores == 0) & ((bits & np.uint64(3)) == first)
        mask &= ((bits >> top) & np.uint64(3)) == last
        for b in bits[mask].tolist():
            seq = FlipSequence(b, k)
            if classify_excursion(seq) is kind:
                found.add(seq)
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


def decompose(seq: FlipSequence) -> Decomposition:
    """Greedy left-to-right renewal parse of seq."""
    n = seq.length
    if n == 0:
        raise ValueError("cannot decompose an empty sequence")
    text = str(seq)
    first_head = text.find(HEADS) + 1
    if not first_head:
        return Decomposition(n, n, None, (), None)
    # scores[j - 1] = S_j; the window score from the head at e returns to
    # zero at the first j > e where S_j comes back to S_e
    scores = score_series(seq)
    slots: list[Slot] = []
    trailing = None
    e = first_head
    while True:
        if e == n:
            trailing = Slot(e, e, SlotKind.UNDETERMINED, None, False, seq)
            break
        a_type = text[e] == HEADS  # the flip after the head picks the form
        try:
            zero_at = scores.index(scores[e - 1], e) + 1
        except ValueError:
            zero_at = 0
        if not a_type:
            if zero_at:
                slots.append(Slot(e, zero_at, SlotKind.B, None, True, seq))
                e = zero_at
                continue
            slots.append(Slot(e, n, SlotKind.B, None, False, seq))
            break
        if not zero_at:
            slots.append(Slot(e, n, SlotKind.A, None, False, seq))
            break
        # zero_at closes the A-part; its tail padding runs to the next head
        f = text.find(HEADS, zero_at) + 1
        if f:
            slots.append(Slot(e, f, SlotKind.A, zero_at, True, seq))
            e = f
            continue
        slots.append(Slot(e, n, SlotKind.A, zero_at, False, seq))
        break
    return Decomposition(n, first_head - 1, first_head, tuple(slots), trailing)


def _slot_containing(decomp: Decomposition, pos: int) -> Slot:
    # windows tile (first_head_pos, length]; ends are strictly increasing
    ends = [s.end_index for s in decomp.slots]
    return decomp.slots[bisect_left(ends, pos)]


def position_class(decomp: Decomposition, pos: int) -> PositionClass:
    """Classify a 1-based position against an existing parse."""
    if not 1 <= pos <= decomp.length:
        raise IndexError(f"position {pos} outside 1..{decomp.length}")
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
