import random

import pytest
from hypothesis import given, strategies as st

from coinduel import (
    FlipSequence,
    ParseError,
    count_overlapping,
    head_count,
    parse_sequence,
    reverse,
    run_count,
    score,
    score_series,
    score_via_runs,
)


def pair_scan(text: str, pattern: str) -> int:
    """Independent oracle: literal scan of adjacent character pairs."""
    return sum(1 for i in range(len(text) - 1) if text[i : i + 2] == pattern)


def oracle_series(text: str) -> list[int]:
    return [
        pair_scan(text[:k], "HT") - pair_scan(text[:k], "HH")
        for k in range(1, len(text) + 1)
    ]


texts = st.text(alphabet="HT", min_size=1, max_size=80)


class TestParse:
    def test_transcription(self):
        seq = parse_sequence("HHT")
        assert len(seq) == 3
        assert [seq.flip(i) for i in (1, 2, 3)] == ["H", "H", "T"]

    def test_single_symbol(self):
        assert str(parse_sequence("T")) == "T"

    def test_rejects_empty(self):
        with pytest.raises(ParseError):
            parse_sequence("")

    def test_rejects_bad_character_with_position(self):
        with pytest.raises(ParseError, match="position 2"):
            parse_sequence("HXT")

    def test_rejects_lowercase(self):
        with pytest.raises(ParseError):
            parse_sequence("ht")

    @pytest.mark.parametrize(
        "text,pos",
        # int(..., 2) alone would take the separator, the spaces, the sign
        # and the Arabic-Indic digit one
        [("H_T", 2), ("H T", 2), (" HT", 1), ("HT\n", 3), ("+HT", 1), ("H\u0661T", 2)],
    )
    def test_rejects_what_int_accepts(self, text, pos):
        with pytest.raises(ParseError, match=f"at position {pos}$"):
            parse_sequence(text)

    def test_reports_late_bad_character(self):
        text = "HT" * 199_999 + "HX"  # the X is flip 400000
        with pytest.raises(ParseError, match="'X' at position 400000$"):
            parse_sequence(text)

    @given(texts)
    def test_text_round_trip(self, text):
        assert str(parse_sequence(text)) == text

    def test_window(self):
        seq = parse_sequence("HTHHT")
        assert str(seq.window(2, 4)) == "THH"
        with pytest.raises(IndexError):
            seq.window(0, 3)


class TestReverse:
    @pytest.mark.parametrize(
        "text,expected", [("HTT", "TTH"), ("HTH", "HTH"), ("HHTH", "HTHH")]
    )
    def test_examples(self, text, expected):
        assert str(reverse(parse_sequence(text))) == expected

    @given(texts)
    def test_involution(self, text):
        seq = parse_sequence(text)
        assert reverse(reverse(seq)) == seq

    @given(texts)
    def test_matches_python_reversal(self, text):
        assert str(reverse(parse_sequence(text))) == text[::-1]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            reverse(FlipSequence(0, 0))


class TestCounting:
    @pytest.mark.parametrize(
        "text,pattern,expected",
        [("HHH", "HH", 2), ("HHTH", "HT", 1), ("TTTT", "HH", 0)],
    )
    def test_examples(self, text, pattern, expected):
        assert count_overlapping(parse_sequence(text), pattern) == expected

    def test_short_sequences_have_no_pairs(self):
        assert count_overlapping(parse_sequence("H"), "HH") == 0

    def test_rejects_unknown_pattern(self):
        with pytest.raises(ValueError):
            count_overlapping(parse_sequence("HT"), "XY")

    @given(texts, st.sampled_from(["HH", "HT", "TH", "TT"]))
    def test_against_pair_scan(self, text, pattern):
        assert count_overlapping(parse_sequence(text), pattern) == pair_scan(text, pattern)


class TestScoreSeries:
    @pytest.mark.parametrize(
        "text,expected",
        [("HHT", [0, -1, 0]), ("HTHT", [0, 1, 1, 2]), ("TTTT", [0, 0, 0, 0])],
    )
    def test_examples(self, text, expected):
        assert score_series(parse_sequence(text)) == expected

    @given(texts)
    def test_against_prefix_oracle(self, text):
        assert score_series(parse_sequence(text)) == oracle_series(text)

    @given(texts)
    def test_step_structure(self, text):
        series = score_series(parse_sequence(text))
        assert series[0] == 0
        for k in range(1, len(series)):
            delta = series[k] - series[k - 1]
            assert abs(delta) <= 1
            if delta != 0:
                assert text[k - 1] == "H"  # only a head can move the score

    @given(texts)
    def test_final_entry_is_score(self, text):
        seq = parse_sequence(text)
        assert score_series(seq)[-1] == score(seq)


class TestRunsFormula:
    @pytest.mark.parametrize(
        "text,runs,heads,expected",
        [("TTHHT", 3, 2, 0), ("HHHH", 1, 4, -3), ("T", 1, 0, 0)],
    )
    def test_examples(self, text, runs, heads, expected):
        seq = parse_sequence(text)
        assert run_count(seq) == runs
        assert head_count(seq) == heads
        assert score_via_runs(seq) == expected

    def test_exhaustive_small(self):
        for n in range(1, 13):
            for bits in range(1 << n):
                seq = FlipSequence(bits, n)
                assert score_via_runs(seq) == score_series(seq)[-1]

    @given(texts)
    def test_matches_series(self, text):
        seq = parse_sequence(text)
        assert score_via_runs(seq) == score_series(seq)[-1]


class TestReversalLaws:
    @given(texts)
    def test_pattern_law(self, text):
        seq = parse_sequence(text)
        rev = reverse(seq)
        assert count_overlapping(rev, "HH") == count_overlapping(seq, "HH")
        assert count_overlapping(rev, "TH") == count_overlapping(seq, "HT")

    def test_score_preserved_between_heads_exhaustive(self):
        # sequences that begin and end with a head keep their score reversed
        for n in range(1, 13):
            top = 1 << (n - 1)
            for bits in range(1 << n):
                if bits & 1 and bits & top:
                    seq = FlipSequence(bits, n)
                    assert score(reverse(seq)) == score(seq)

    @given(texts, st.data())
    def test_additivity_at_shared_flip(self, text, data):
        seq = parse_sequence(text)
        m = data.draw(st.integers(1, len(seq)))
        left = seq.window(1, m)
        right = seq.window(m, len(seq))
        assert score(seq) == score(left) + score(right)


class TestLongSequences:
    """The kernels on 4 * 10^5 flips, against string-level oracles."""

    @pytest.fixture(scope="class")
    def text(self):
        rng = random.Random(20240901)
        return "".join(rng.choice("HT") for _ in range(400_000))

    def test_text_round_trip(self, text):
        assert str(parse_sequence(text)) == text

    def test_reversal(self, text):
        assert str(reverse(parse_sequence(text))) == text[::-1]

    def test_score_series(self, text):
        running = [0]
        for a, b in zip(text, text[1:]):
            running.append(running[-1] + (a == "H") * (1 if b == "T" else -1))
        seq = parse_sequence(text)
        series = score_series(seq)
        assert series == running
        assert series[-1] == score(seq)


class TestFlipSequenceValue:
    def test_empty_prints_empty(self):
        assert str(FlipSequence(0, 0)) == ""

    def test_rejects_stray_bits(self):
        with pytest.raises(ValueError):
            FlipSequence(0b100, 2)

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            FlipSequence(0, -1)

    def test_is_head_bounds(self):
        seq = parse_sequence("HT")
        assert seq.is_head(1) and not seq.is_head(2)
        with pytest.raises(IndexError):
            seq.is_head(3)

    def test_equality_and_hash(self):
        assert parse_sequence("HTH") == parse_sequence("HTH")
        assert len({parse_sequence("HTH"), parse_sequence("HTH")}) == 1
