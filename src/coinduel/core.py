"""Coin flip sequences and the pair-counting score.

A sequence of n flips is stored as an int with one bit per flip (heads = 1,
bit i holds flip i+1).  The score of a sequence is #HT - #HH over the n-1
overlapping pairs: positive means the HT player (B) leads, negative means
the HH player (A) leads.  Positions are 1-based everywhere in the public
API.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from operator import getitem

HEADS = "H"
TAILS = "T"

PAIRS = ("HH", "HT", "TH", "TT")

# Running scores [S_1, ..., S_n]; see score_series.
ScoreSeries = list[int]

_TEXT_TO_DIGITS = str.maketrans(HEADS + TAILS, "10")
_DIGITS_TO_TEXT = str.maketrans("10", HEADS + TAILS)


def _byte_steps(carry: int, byte: int) -> tuple[int, ...]:
    """Score steps S_k - S_{k-1} at the 8 flips of one byte, LSB first,
    given the flip before the byte (carry)."""
    steps = []
    prev = carry
    for j in range(8):
        cur = (byte >> j) & 1
        steps.append(1 - 2 * cur if prev else 0)
        prev = cur
    return tuple(steps)


# _BYTE_STEPS[carry][byte]: see score_series
_BYTE_STEPS = tuple(tuple(_byte_steps(c, b) for b in range(256)) for c in (0, 1))
_TOP_BIT = bytes(b >> 7 for b in range(256))


class ParseError(ValueError):
    """Text could not be read as a flip sequence."""


@dataclass(frozen=True, slots=True)
class FlipSequence:
    """An immutable, bit-packed sequence of coin flips.

    bit i of ``bits`` is flip i+1 (LSB first), heads stored as 1.  The
    zero-length sequence is allowed as an internal value but cannot be
    produced by :func:`parse_sequence`.
    """

    bits: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("length must be nonnegative")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits has flips beyond the stated length")

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:
        return _digits(self).translate(_DIGITS_TO_TEXT)

    def __repr__(self) -> str:
        return f"FlipSequence({str(self)!r})"

    def is_head(self, pos: int) -> bool:
        """True iff flip ``pos`` (1-based) is heads."""
        if not 1 <= pos <= self.length:
            raise IndexError(f"position {pos} outside 1..{self.length}")
        return (self.bits >> (pos - 1)) & 1 == 1

    def flip(self, pos: int) -> str:
        return HEADS if self.is_head(pos) else TAILS

    def window(self, start: int, end: int) -> "FlipSequence":
        """The sub-sequence of flips start..end inclusive (1-based)."""
        if not 1 <= start <= end <= self.length:
            raise IndexError(f"window {start}..{end} outside 1..{self.length}")
        width = end - start + 1
        return FlipSequence((self.bits >> (start - 1)) & ((1 << width) - 1), width)


def _digits(seq: FlipSequence) -> str:
    """The flips as "1"/"0" digits, flip 1 first."""
    # a sentinel bit above the last flip keeps leading tails, then bin()
    # is read backwards down to (not including) the sentinel
    return bin(seq.bits | 1 << seq.length)[:2:-1]


def parse_sequence(text: str) -> FlipSequence:
    """Parse a string of H/T characters.

    Rejects the empty string and any other character; the error message
    points at the first bad position (1-based).
    """
    if not text:
        raise ParseError("empty sequence")
    # validate first: int() would also accept "_", whitespace, signs and
    # non-ASCII digits
    rest = text.lstrip(HEADS + TAILS)
    if rest:
        pos = len(text) - len(rest) + 1
        raise ParseError(f"invalid character {rest[0]!r} at position {pos}")
    return FlipSequence(int(text[::-1].translate(_TEXT_TO_DIGITS), 2), len(text))


def reverse(seq: FlipSequence) -> FlipSequence:
    """The same flips read right to left."""
    if seq.length == 0:
        raise ValueError("cannot reverse an empty sequence")
    # read flip 1 first as the most significant digit: it becomes flip n
    return FlipSequence(int(_digits(seq), 2), seq.length)


def _pair_mask(seq: FlipSequence, pattern: str) -> int:
    """Bitmask of pair starts: bit i set iff flips (i+1, i+2) match pattern."""
    if seq.length < 2:
        return 0
    window = (1 << (seq.length - 1)) - 1
    first = seq.bits
    second = seq.bits >> 1
    if pattern == "HH":
        mask = first & second
    elif pattern == "HT":
        mask = first & ~second
    elif pattern == "TH":
        mask = ~first & second
    elif pattern == "TT":
        mask = ~first & ~second
    else:
        raise ValueError(f"pattern must be one of {PAIRS}, got {pattern!r}")
    return mask & window


def count_overlapping(seq: FlipSequence, pattern: str) -> int:
    """Number of (overlapping) occurrences of a length-2 pattern.

    Sequences of length <= 1 have no pairs, so every count is 0.
    """
    return _pair_mask(seq, pattern).bit_count()


def score(seq: FlipSequence) -> int:
    """Final score #HT - #HH; 0 for length <= 1."""
    if seq.length < 2:
        return 0
    window = (1 << (seq.length - 1)) - 1
    first = seq.bits
    second = seq.bits >> 1
    ht = first & ~second & window
    hh = first & second & window
    return ht.bit_count() - hh.bit_count()


def score_series(seq: FlipSequence) -> ScoreSeries:
    """Running scores [S_1, ..., S_n] with S_1 = 0.

    S_k counts the pairs among the first k flips, so S_k - S_{k-1} is +1
    after an HT, -1 after an HH, else 0.
    """
    if seq.length == 0:
        raise ValueError("empty sequence has no score series")
    data = seq.bits.to_bytes((seq.length + 7) // 8, "little")
    # the flip before byte i is the top bit of byte i-1; flip 1 has none,
    # so its step is 0 and the series starts at S_1 = 0
    carries = (b"\0" + data[:-1]).translate(_TOP_BIT)
    steps = map(getitem, map(_BYTE_STEPS.__getitem__, carries), data)
    series = list(accumulate(chain.from_iterable(steps)))
    del series[seq.length :]
    return series


def run_count(seq: FlipSequence) -> int:
    """Number of maximal runs of equal flips (e.g. TTHHT has 3)."""
    if seq.length == 0:
        raise ValueError("empty sequence has no runs")
    window = (1 << (seq.length - 1)) - 1
    changes = (seq.bits ^ (seq.bits >> 1)) & window
    return 1 + changes.bit_count()


def head_count(seq: FlipSequence) -> int:
    """Number of heads."""
    return seq.bits.bit_count()


def score_via_runs(seq: FlipSequence) -> int:
    """Score from run statistics alone: r - h, minus 1 more if the
    sequence starts with tails (r = #runs, h = #heads)."""
    if seq.length == 0:
        raise ValueError("empty sequence has no score")
    r = run_count(seq)
    h = head_count(seq)
    if seq.bits & 1:
        return r - h
    return r - 1 - h
