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

The renewal heads are exactly the heads j with S_j = 0, from the first
head on.  The first head is at 0: only tails come before it.  A B window
climbs on its HT and comes back to its head's level through an HH, so it
closes on a head at 0.  An A-part sinks on its HH and comes back through an
HT, so it ends on a tail at 0, and the tails of its padding keep the level,
so the head that closes the window is at 0 as well.  Inside a window the
score is strictly above 0 (B) or strictly below it (A-part), and the
padding is all tails, so no other head is at 0.  Hence the window that
opens at a renewal head e closes at the next flip after e at level 0: for
a B window that is its closing head, for an A window tau_end, and the
window ends at the next renewal head.  `decompose_many` reads a whole
block of sequences this way: one numpy pass over their levels gives a
window table, one row per window (`_window_table`), from which the
`Decomposition`s are built; the verify registry's window checks read the
table itself.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Iterable, NamedTuple

import numpy as np

from .core import FlipSequence, reverse
from .exact import _omega_scores
from .montecarlo import _flip_blocks

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


class Slot(NamedTuple):
    """One window of the renewal parse, including its leading shared head:
    one row of the window table.

    For kind A the window content is an A-hat excursion and tau_end marks
    the final flip of its A-part.  complete is False when the host sequence
    ran out before the window closed.
    """

    start_index: int
    end_index: int
    kind: SlotKind
    tau_end: int | None
    complete: bool

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

    sequence is the parsed sequence itself, and the windows' flips are read
    from it; every other part of the parse is read off the two fields.
    """

    sequence: FlipSequence = field(repr=False)
    slots: tuple[Slot, ...]

    @property
    def length(self) -> int:
        return self.sequence.length

    @property
    def first_head_pos(self) -> int | None:
        """The lowest head of the sequence, or None if it is all tails."""
        bits = self.sequence.bits
        return (bits & -bits).bit_length() or None

    @property
    def trailing(self) -> Slot | None:
        """Flip n alone, if the parse ends on a renewal head there: if it has
        a head and either no window or a closed last window.  A partly
        scanned window of known kind stays in slots with complete=False."""
        if not self.sequence.bits or self.slots and not self.slots[-1].complete:
            return None
        n = self.length
        return Slot(n, n, SlotKind.UNDETERMINED, None, False)

    @property
    def initial_tailrun_len(self) -> int:
        """The tails before the first head: all of them if there is none."""
        return self.length if self.first_head_pos is None else self.first_head_pos - 1

    def serialize(self) -> FlipSequence:
        """Rebuild the parsed sequence from the parts; inverse of decompose."""
        bits = 0
        pos = self.initial_tailrun_len
        if self.first_head_pos is not None:
            bits |= 1 << pos
            pos += 1
        for slot in self.slots:
            w = self.sequence.window(slot.start_index, slot.end_index)
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


def _excursion_kind(parse: Decomposition) -> ExcursionKind:
    """Which excursion family the parsed sequence belongs to, or NONE.

    An excursion is a parse that starts on flip 1 and is one window: a
    closed B window, a closed A window (A-part, tail padding, closing head:
    an A-hat), or an open A window whose A-part ends on flip n.
    """
    if parse.first_head_pos != 1 or len(parse.slots) != 1:
        return ExcursionKind.NONE
    (w,) = parse.slots
    if w.complete:
        return ExcursionKind.B if w.kind is SlotKind.B else ExcursionKind.A_HAT
    if w.kind is SlotKind.A and w.tau_end == parse.length:
        return ExcursionKind.A
    return ExcursionKind.NONE


def classify_excursion(seq: FlipSequence) -> ExcursionKind:
    """Which excursion family seq belongs to, or NONE (see _excursion_kind)."""
    if seq.length < 2:
        raise ValueError("an excursion candidate needs at least 2 flips")
    return _excursion_kind(decompose(seq))


def enumerate_excursions(k: int, kind: ExcursionKind | str) -> set[FlipSequence]:
    """All excursions of the given kind and length k, by exhaustive scan."""
    kind = ExcursionKind(kind)
    if kind is ExcursionKind.NONE:
        raise ValueError("kind must be B, A, or A-hat")
    if k < 2:
        raise ValueError("excursions have length >= 2")
    if k > EXCURSION_ENUM_CAP:
        raise ValueError(f"enumeration is capped at length {EXCURSION_ENUM_CAP}")
    # every excursion ends at total score 0 (an A-hat adds only TT and TH), and
    # flip 2 is its window's kind: HT opens a B window, HH an A one (bit 0 = flip 1)
    opening = np.uint64(0b01 if kind is ExcursionKind.B else 0b11)
    found: set[FlipSequence] = set()
    for bits, scores in _omega_scores(k):
        mask = (scores == 0) & ((bits & np.uint64(3)) == opening)
        seqs = [FlipSequence(b, k) for b in bits[mask].tolist()]
        found.update(d.sequence for d in decompose_many(seqs) if _excursion_kind(d) is kind)
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


# the cells of one numpy pass; a longer input is parsed in consecutive blocks
_BLOCK_MAX_CELLS = 1 << 20

class _Windows(NamedTuple):
    """The renewal parses of a block of sequences, as columns.

    Window k belongs to sequence row[k]: it runs from start[k] to end[k],
    is of kind A where is_a[k] (else B), has tau_end[k] (-1 for none) and
    is closed where complete[k].  A sequence's windows are consecutive and
    in order, and so are the sequences.
    """

    row: np.ndarray
    start: np.ndarray
    end: np.ndarray
    is_a: np.ndarray
    tau_end: np.ndarray
    complete: np.ndarray


def _level_dtype(cells: int) -> type:
    """A signed integer type that holds every running sum of `cells` steps
    of at most 1 each."""
    return np.int16 if cells < 1 << 15 else np.int32 if cells < 1 << 31 else np.int64


def _window_table(seqs: list[FlipSequence]) -> _Windows:
    """The window table of seqs (nonempty, none empty) from one numpy pass.

    Row r holds seqs[r] padded with tails to the longest sequence's whole
    bytes.  The padding lies past flip n, where no window reads: a level-0
    flip in it is none.

    The window rule: the renewal heads are the heads at level 0.  The
    window opened at a renewal head e ends at the next renewal head, and
    is closed, or is open up to flip n; its kind is flip e + 1 (H: A), and
    an A window's tau_end is the next level-0 flip z after e if z is in
    the window.  A renewal head on flip n opens no window.
    """
    rows = len(seqs)
    width = max(s.length + 7 for s in seqs) // 8
    cols = 8 * width
    data = b"".join([s.bits.to_bytes(width, "little") for s in seqs])
    flips = np.unpackbits(np.frombuffer(data, np.uint8), bitorder="little").view(bool)
    f = flips.view(np.int8)
    steps = np.empty(flips.size, np.int8)
    # S_j - S_{j-1} = [flip j-1 != flip j] - flip j: +1 after HT, -1 after HH
    later, moves = f[1:], steps[1:]
    np.bitwise_xor(f[:-1], later, out=moves)
    np.subtract(moves, later, out=moves)
    steps[::cols] = 0  # S_1 = 0: a row's first step is none
    levels = np.add.accumulate(steps.reshape(rows, cols), axis=1, dtype=_level_dtype(cols))
    zero = (levels == 0).ravel().nonzero()[0]
    at = flips[zero].nonzero()[0]  # the level-0 cells that are heads
    zero += 1  # from here on positions: cell c is position c + 1
    e = zero[at]  # the renewal heads
    # each head's next level-0 flip; the block's last level-0 flip has none
    z = zero.take(at + 1, mode="clip")
    is_a = flips.take(e, mode="clip")  # the flip after the head
    nxt = np.empty_like(e)
    nxt[:-1] = e[1:]
    nxt[-1:] = cols + 1
    # positions in the head's own row: nxt is the next renewal head (past
    # flip n if there is none), z is -1 where no level-0 flip follows up to
    # flip n, and the windows are the renewal heads before flip n.  One row
    # skips the split into rows.
    if rows == 1:
        n = seqs[0].length
        if e.size and not e[-1] < z[-1] <= n:
            z[-1] = -1
        windows = slice(e.size - int(e.size > 0 and e[-1] == n))
        row = np.zeros(windows.stop, np.intp)
    else:
        length = np.fromiter([s.length for s in seqs], np.intp, rows)
        row = (e - 1) // cols
        shift = cols * row
        e -= shift
        z -= shift
        nxt[:-1] -= shift[:-1]
        n = length[row]
        z[(z <= e) | (z > n)] = -1
        windows = e < n
        row, n = row[windows], n[windows]
    e, z, nxt, is_a = e[windows], z[windows], nxt[windows], is_a[windows]
    complete = nxt <= n
    end = np.minimum(nxt, n)
    tau_end = np.where(is_a, z, -1)
    return _Windows(row, e, end, is_a, tau_end, complete)


def _materialise(seqs: list[FlipSequence], table: _Windows) -> list[Decomposition]:
    """The Decomposition of each of seqs from its rows of the window table."""
    counts = np.bincount(table.row, minlength=len(seqs)).tolist()
    fields = zip(
        table.start.tolist(),
        table.end.tolist(),
        table.is_a.tolist(),
        table.tau_end.tolist(),
        table.complete.tolist(),
    )
    kind_a, kind_b = SlotKind.A, SlotKind.B  # an Enum member lookup per slot is slow
    slots = tuple(
        [
            Slot(start, end, kind_a if is_a else kind_b, None if tau < 0 else tau, closed)
            for start, end, is_a, tau, closed in fields
        ]
    )
    ends = itertools.accumulate(counts)
    return [Decomposition(s, slots[hi - k : hi]) for s, k, hi in zip(seqs, counts, ends)]


def decompose_many(seqs: Iterable[FlipSequence]) -> list[Decomposition]:
    """The renewal parses of seqs, in order: [decompose(s) for s in seqs].

    Consecutive sequences, of any lengths, are parsed together in blocks
    of up to _BLOCK_MAX_CELLS cells, each sequence padded to its block's
    longest, and each block in one numpy pass over its levels into a
    window table, from which the parses are built.
    """
    seqs = list(seqs)
    parses: list[Decomposition] = []
    lo = width = 0
    for i, seq in enumerate(seqs):
        if not seq.length:
            raise ValueError("cannot decompose an empty sequence")
        w = (seq.length + 7) // 8
        if i > lo and 8 * (w if w > width else width) * (i + 1 - lo) > _BLOCK_MAX_CELLS:
            block = seqs[lo:i]
            parses += _materialise(block, _window_table(block))
            lo, width = i, w
        elif w > width:
            width = w
    if lo < len(seqs):
        block = seqs[lo:]
        parses += _materialise(block, _window_table(block))
    return parses


def decompose(seq: FlipSequence) -> Decomposition:
    """Greedy left-to-right renewal parse of seq: decompose_many of one.

    The renewal heads are exactly the heads at level 0.  A B window comes
    back to its head's level through HH, onto a head; an A-part comes back
    through HT, onto a tail, and the tails of its padding keep the level,
    so its closing head is at 0 too; in between, the score is off 0 or the
    flips are tails.  So the window opened at a renewal head closes at the
    next flip at level 0: a B window's closing head, or an A window's
    tau_end, after which the window runs to the next renewal head.
    """
    (parse,) = decompose_many([seq])
    return parse


def position_class(decomp: Decomposition, pos: int) -> PositionClass:
    """Classify a 1-based position against an existing parse."""
    if not 1 <= pos <= decomp.length:
        raise IndexError(f"position {pos} outside 1..{decomp.length}")
    # with no head, every position is in the initial tailrun
    if pos <= (decomp.first_head_pos or decomp.length):
        return PositionClass.INITIAL_TAILRUN
    # windows tile (first_head_pos, length]; ends are strictly increasing
    slot = decomp.slots[bisect_left(decomp.slots, pos, key=attrgetter("end_index"))]
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
    hits: int
    estimate: float
    stderr: float


# States of one trial in the lock-step pass of coupled_diff_mc.  Codes from
# _A_PART on are an open A-part: _A_PART + 2 * (depth - 1) + last flip (H = 1),
# where depth = -(window score) >= 1, so an A-part code is odd after a T.
_SEEK, _HEAD, _PAD, _A_PART = 0, 1, 2, 3

# Eight flips hold at most four HT climbs, so from depth 5 on a lookup cannot
# close the A-part and the code moves by an amount set by the last flip and the
# byte alone.  Lookup tables have a row for each code below _DEEP and one for
# depth >= 5 after a T (_DEEP) and after an H (_DEEP + 1).
_DEEP = _A_PART + 2 * 4


def _step(code: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """The code after one more flip, elementwise.

    _SEEK waits for the first head.  _HEAD is the flip after a renewal head,
    pinned to H by the coupling: both its flips open the A-part at depth 1.
    The A-part runs until its score returns to zero, then _PAD reads the tail
    padding until the closing head, which is the next renewal head.  A trial
    hits iff it ends position n in _PAD: n lies past the A-part of the
    coupled window but before its closing head.
    """
    return np.select(
        [code == _SEEK, code == _HEAD, code == _PAD, code % 2 == 1, code == _A_PART + 1],
        [
            np.where(flip, _HEAD, _SEEK),
            _A_PART + 1,
            np.where(flip, _HEAD, _PAD),
            code + flip,  # after a T the score does not move
            np.where(flip, code + 2, _PAD),  # a climb from depth 1 closes the A-part
        ],
        np.where(flip, code + 2, code - 3),  # after an H, HH sinks and HT climbs
    )


@functools.cache
def _lookup_table(width: int) -> np.ndarray:
    """Code change over `width` flips, flip k in bit k of the byte; bits from
    `width` on are ignored.

    Flattened: entry 256 * row + byte, with row min(code, _DEEP + 1 - (code & 1))
    (see _DEEP; width <= 8).
    """
    rows = np.arange(_DEEP + 2)[:, None]
    byte = np.arange(256)
    code = np.repeat(rows, len(byte), axis=1)
    for k in range(width):
        code = _step(code, byte >> k & 1)
    table = (code - rows).ravel()
    table.flags.writeable = False
    return table


def coupled_diff_mc(n: int, trials: int, seed: int) -> CoupledDiffEstimate:
    """Estimate pB - pA by sampling the coupled construction directly.

    Each trial plays the renewal parse of a fresh fair stream with every
    window in A-hat form and scores the indicator of the winning gap event;
    the estimate is half the hit rate.  The trials read the fair blocks that
    `simulate_game` reads for the same (n, trials, seed) at p = 1/2
    (montecarlo's reproducibility contract): flip i of a trial is position
    i + 1, and the pinned position after a renewal head ignores its flip.
    Every trial of a block moves through the states of _step together,
    eight flips per table lookup (see _lookup_table).
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    full, tail = _lookup_table(8), _lookup_table(n % 8)
    hits = 0
    for words in _flip_blocks(n, 0.5, trials, seed):
        rows = words.shape[1]
        # byte k of word w holds flips 64w + 8k ..; row 8w + k of flips8
        flips8 = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, rows, 8)
        flips8 = flips8.transpose(0, 2, 1).reshape(-1, rows)
        code = np.full(rows, _SEEK, dtype=np.intp)
        index = np.empty(rows, dtype=np.intp)
        delta = np.empty(rows, dtype=np.intp)
        for j in range(-(-n // 8)):
            # index = 256 * row + byte, row = min(code, _DEEP + 1 - (code & 1))
            np.bitwise_and(code, 1, out=index)
            np.subtract(_DEEP + 1, index, out=index)
            np.minimum(code, index, out=index)
            index <<= 8
            index |= flips8[j]
            # every index is in the table; "clip" skips the buffered bounds check
            (full if j < n // 8 else tail).take(index, out=delta, mode="clip")
            code += delta
        hits += int(np.count_nonzero(code == _PAD))
    rate = hits / trials
    estimate = 0.5 * rate
    stderr = 0.5 * math.sqrt(rate * (1.0 - rate) / trials)
    return CoupledDiffEstimate(n, trials, seed, hits, estimate, stderr)
