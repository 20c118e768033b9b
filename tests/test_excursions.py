import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coinduel import (
    EXCURSION_ENUM_CAP,
    Decomposition,
    ExcursionKind,
    FlipSequence,
    PositionClass,
    Slot,
    SlotKind,
    classify_excursion,
    classify_position,
    couple,
    coupled_diff_mc,
    decompose,
    decompose_many,
    enumerate_distribution,
    enumerate_excursions,
    parse_sequence,
    position_class,
    reverse,
    score,
    score_series,
)
from coinduel import excursions
from coinduel.montecarlo import (
    _MAX_BLOCK_CELLS,
    BATCH_SIZE,
    SimConfig,
    _bernoulli_words,
    _pair_scores,
    _substream,
    simulate_game,
)
from coinduel.excursions import (
    _A_PART,
    _DEEP,
    _HEAD,
    _PAD,
    _SEEK,
    _lookup_table,
)
from coinduel import verify
from coinduel.verify import _decompose_reference, _levels, _parse_fault


def _packed_flips(seq: FlipSequence) -> np.ndarray:
    """The flips of seq as a one-row 0/1 array, heads = 1."""
    packed = np.frombuffer(seq.bits.to_bytes((seq.length + 7) // 8, "little"), np.uint8)
    return np.unpackbits(packed, count=seq.length, bitorder="little")[None, :]

texts = st.text(alphabet="HT", min_size=1, max_size=120)
long_texts = st.text(alphabet="HT", min_size=200, max_size=400)


def sign(x: int) -> int:
    return (x > 0) - (x < 0)


class TestClassify:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("HTHH", ExcursionKind.B),
            ("HHT", ExcursionKind.A),
            ("HHTTH", ExcursionKind.A_HAT),
            ("HHTH", ExcursionKind.A_HAT),
            ("HTHT", ExcursionKind.NONE),
            ("TT", ExcursionKind.NONE),
            ("HTTTHH", ExcursionKind.B),
            ("HHH", ExcursionKind.NONE),
        ],
    )
    def test_examples(self, text, kind):
        assert classify_excursion(parse_sequence(text)) is kind

    def test_needs_two_flips(self):
        with pytest.raises(ValueError):
            classify_excursion(parse_sequence("H"))

    def test_definition_agreement_exhaustive(self):
        # re-derive each tag from raw score series and endpoints
        for n in range(2, 15):
            for bits in range(1 << n):
                seq = FlipSequence(bits, n)
                text = str(seq)
                series = score_series(seq)
                is_b = (
                    text.startswith("HT")
                    and text.endswith("HH")
                    and all(v > 0 for v in series[1:-1])
                    and series[-1] == 0
                )
                is_a = (
                    text.startswith("HH")
                    and text.endswith("HT")
                    and all(v < 0 for v in series[1:-1])
                    and series[-1] == 0
                )
                stripped = text[:-1].rstrip("T")
                is_ahat = (
                    text.endswith("H")
                    and text[-2:-1] == "T"  # the part before the closing head ends in T
                    and len(stripped) >= 2
                    and stripped[-1] == "H"
                    and is_a_excursion_text(stripped + "T")
                )
                expected = (
                    ExcursionKind.B
                    if is_b
                    else ExcursionKind.A
                    if is_a
                    else ExcursionKind.A_HAT
                    if is_ahat
                    else ExcursionKind.NONE
                )
                assert classify_excursion(seq) is expected, text


def is_a_excursion_text(text: str) -> bool:
    if len(text) < 2 or not text.startswith("HH") or not text.endswith("HT"):
        return False
    series = [0]
    s = 0
    for i in range(1, len(text)):
        if text[i - 1] == "H":
            s += 1 if text[i] == "T" else -1
        series.append(s)
    return all(v < 0 for v in series[1:-1]) and series[-1] == 0


class TestEnumerate:
    def test_examples(self):
        assert {str(w) for w in enumerate_excursions(4, "B")} == {"HTHH"}
        assert {str(w) for w in enumerate_excursions(3, "A")} == {"HHT"}
        assert enumerate_excursions(2, "B") == set()

    def test_matches_classifier(self):
        for k in range(2, 13):
            for kind in (ExcursionKind.B, ExcursionKind.A, ExcursionKind.A_HAT):
                expected = {
                    FlipSequence(b, k)
                    for b in range(1 << k)
                    if classify_excursion(FlipSequence(b, k)) is kind
                }
                assert enumerate_excursions(k, kind) == expected

    def test_across_scan_chunks(self, monkeypatch):
        # Omega_19 and Omega_20 span 2 and 4 scan chunks of 2^18, and each
        # chunk's candidates are parsed in one block
        blocks = []
        parse_block = excursions.decompose_many
        monkeypatch.setattr(
            excursions, "decompose_many", lambda seqs: blocks.append(1) or parse_block(seqs)
        )
        for k, chunks, b_count, a_count in ((19, 2, 1076, 903), (20, 4, 1979, 1664)):
            blocks.clear()
            b_set = enumerate_excursions(k, ExcursionKind.B)
            assert len(blocks) == chunks
            assert len(b_set) == b_count
            assert {reverse(w) for w in b_set} == enumerate_excursions(k, ExcursionKind.A_HAT)
            assert len(enumerate_excursions(k, ExcursionKind.A)) == a_count

    def test_memory_one_chunk_at_a_time(self):
        # only one scan chunk's candidates and parses are held at a time
        tracemalloc.start()
        try:
            enumerate_excursions(20, ExcursionKind.B)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20

    def test_cap(self):
        with pytest.raises(ValueError):
            enumerate_excursions(EXCURSION_ENUM_CAP + 1, "B")

    def test_rejects_none_kind(self):
        with pytest.raises(ValueError):
            enumerate_excursions(4, ExcursionKind.NONE)


class TestCouple:
    def test_no_padding(self):
        alpha, beta = couple(parse_sequence("HHT"), 0)
        assert (str(alpha), str(beta)) == ("HHTH", "HTHH")

    def test_with_padding(self):
        alpha, beta = couple(parse_sequence("HHT"), 2)
        assert (str(alpha), str(beta)) == ("HHTTTH", "HTTTHH")

    def test_rejects_non_a_input(self):
        with pytest.raises(ValueError):
            couple(parse_sequence("HHHTT"), 1)

    @given(st.integers(0, 6), st.integers(3, 10))
    def test_output_kinds_and_length(self, tail_len, k):
        taus = sorted(enumerate_excursions(k, ExcursionKind.A), key=lambda w: w.bits)
        if not taus:
            return
        tau = taus[0]
        alpha, beta = couple(tau, tail_len)
        assert classify_excursion(alpha) is ExcursionKind.A_HAT
        assert classify_excursion(beta) is ExcursionKind.B
        assert len(alpha) == len(beta) == len(tau) + tail_len + 1
        assert beta == reverse(alpha)


class TestBijection:
    def test_reversal_maps_b_onto_ahat(self):
        for k in range(2, 13):
            b_set = enumerate_excursions(k, ExcursionKind.B)
            ahat_set = enumerate_excursions(k, ExcursionKind.A_HAT)
            assert len(b_set) == len(ahat_set)
            assert {reverse(w) for w in b_set} == ahat_set


class TestDecompose:
    def test_truncated_a_window(self):
        d = decompose(parse_sequence("TTHHT"))
        assert d.initial_tailrun_len == 2
        assert d.first_head_pos == 3
        assert d.trailing is None
        (slot,) = d.slots
        assert slot.start_index == 3
        assert slot.end_index == 5
        assert slot.kind is SlotKind.A
        assert slot.tau_end == 5
        assert not slot.complete

    def test_two_complete_windows(self):
        d = decompose(parse_sequence("HTHHHTTH"))
        assert d.initial_tailrun_len == 0
        assert d.first_head_pos == 1
        first, second = d.slots
        assert (first.start_index, first.end_index, first.kind) == (1, 4, SlotKind.B)
        assert first.complete and first.tau_end is None
        assert str(d.sequence.window(first.start_index, first.end_index)) == "HTHH"
        assert (second.start_index, second.end_index, second.kind) == (4, 8, SlotKind.A)
        assert second.tau_end == 6
        assert second.complete
        assert str(d.sequence.window(second.start_index, second.end_index)) == "HHTTH"
        # the sequence stops on a renewal head: recorded as a bare trailing slot
        assert d.trailing is not None
        assert d.trailing.kind is SlotKind.UNDETERMINED
        assert d.trailing.start_index == d.trailing.end_index == 8
        assert not d.trailing.complete

    def test_all_tails(self):
        d = decompose(parse_sequence("TTT"))
        assert d.initial_tailrun_len == 3
        assert d.first_head_pos is None
        assert d.slots == ()
        assert d.trailing is None

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            decompose(FlipSequence(0, 0))

    def test_parse_stores_each_fact_once(self):
        # a slot is one window-table row; the parse holds its sequence once
        # and its windows, and reads every other part off them
        assert Slot._fields == ("start_index", "end_index", "kind", "tau_end", "complete")
        assert [f.name for f in dataclasses.fields(Decomposition)] == ["sequence", "slots"]
        assert excursions._Windows._fields == (
            "row", "start", "end", "is_a", "tau_end", "complete"
        )
        seq = parse_sequence("HTTHHHTT" * 8)
        assert str(seq) not in repr(decompose(seq))
        for text, tailrun in (("TTTT", 4), ("TTTH", 3), ("TTHTHH", 2)):
            d = decompose(parse_sequence(text))
            assert (d.length, d.initial_tailrun_len) == (len(text), tailrun)

    def test_windows_tile_and_share_heads(self):
        for n in range(1, 13):
            for bits in range(1 << n):
                seq = FlipSequence(bits, n)
                d = decompose(seq)
                assert d.sequence is seq
                if d.first_head_pos is None:
                    assert d.initial_tailrun_len == n
                    continue
                cursor = d.first_head_pos
                for slot in d.slots:
                    assert slot.start_index == cursor
                    assert seq.is_head(slot.start_index)
                    cursor = slot.end_index
                if d.trailing is not None:
                    assert d.trailing.start_index == cursor == n
                else:
                    assert cursor == n

    def test_derived_parts_read_off_the_flips(self):
        # the first head is the sequence's lowest, and the parse ends on a
        # trailing head exactly when flip n is a head at score 0
        for n in range(1, 13):
            seqs = [FlipSequence(bits, n) for bits in range(1 << n)]
            for seq, d in zip(seqs, decompose_many(seqs)):
                heads = [pos for pos in range(1, n + 1) if seq.is_head(pos)]
                assert d.first_head_pos == (heads[0] if heads else None), seq
                at_zero = seq.is_head(n) and score_series(seq)[-1] == 0
                assert (d.trailing is not None) == at_zero, seq

    @given(texts)
    def test_round_trip(self, text):
        seq = parse_sequence(text)
        assert decompose(seq).serialize() == seq

    @given(long_texts)
    def test_round_trip_long(self, text):
        seq = parse_sequence(text)
        assert decompose(seq).serialize() == seq

    def test_parser_paths_agree(self):
        # every length to 600, across whole bytes and level-array widths
        rng = np.random.default_rng(5)
        for n in range(1, 601):
            bits = int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)
            seq = FlipSequence(bits, n)
            assert decompose(seq) == _decompose_reference(seq), n

    def test_repr_linear_in_length(self):
        # slots hold the parsed sequence by reference and leave it out of repr
        n = 10**4
        bits = int.from_bytes(_substream(8).bytes(n // 8), "little")
        d = decompose(FlipSequence(bits, n))
        assert len(d.slots) > 50
        assert len(repr(d)) < 3 * n

    @pytest.mark.parametrize(
        "text,windows,trailing",
        [
            ("H" * 40, [(1, 40, SlotKind.A, None, False)], False),
            ("T" * 40, [], False),
            # the B window's score climbs and never comes back to zero
            ("HT" * 40, [(1, 80, SlotKind.B, None, False)], False),
            # the A-part closes on the last flip, with no padding or head after it
            ("HTHHHT", [(1, 4, SlotKind.B, None, True), (4, 6, SlotKind.A, 6, False)], False),
            ("HTHH", [(1, 4, SlotKind.B, None, True)], True),
            ("HHTTH", [(1, 5, SlotKind.A, 3, True)], True),
            ("TTH", [], True),
            # drifts down by one per period, so the third window never closes
            (
                "HTHH" * 25000,
                [
                    (1, 4, SlotKind.B, None, True),
                    (4, 7, SlotKind.A, 6, True),
                    (7, 10**5, SlotKind.A, None, False),
                ],
                False,
            ),
            # the B window climbs to 256, which is S_1 mod 256, and comes back:
            # the score range is exactly 256
            ("HT" * 256 + "H" * 257, [(1, 769, SlotKind.B, None, True)], True),
            # the A-part sinks to -300 and comes back, passing -256 twice
            ("H" * 301 + "T" + "HT" * 299 + "TTH", [(1, 903, SlotKind.A, 900, True)], True),
            # the same A-part as the second window, after a closed B window
            (
                "HTHH" + "H" * 300 + "T" + "HT" * 299 + "TH",
                [(1, 4, SlotKind.B, None, True), (4, 905, SlotKind.A, 903, True)],
                True,
            ),
        ],
    )
    def test_lookup_edges(self, text, windows, trailing):
        seq = parse_sequence(text)
        d = decompose(seq)
        got = [(s.start_index, s.end_index, s.kind, s.tau_end, s.complete) for s in d.slots]
        assert got == windows
        assert (d.trailing is not None) == trailing
        assert d.serialize() == seq
        assert d == _decompose_reference(seq)

    @settings(deadline=None, max_examples=12)
    @given(st.integers(10**3, 10**5), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
    def test_window_levels_hold_on_long_sequences(self, n, p, seed):
        # biased coins give long windows and score ranges past 256
        heads = np.random.default_rng(seed).random(n) < p
        packed = np.packbits(heads, bitorder="little").tobytes()
        seq = FlipSequence(int.from_bytes(packed, "little"), n)
        rows = _packed_flips(seq)
        assert _parse_fault(excursions._window_table([seq]), rows, _levels(rows)) is None
        assert decompose(seq) == _decompose_reference(seq)

    @settings(deadline=None, max_examples=12)
    @given(st.integers(10**3, 10**5), st.integers(0, 2**32 - 1), st.data())
    def test_window_levels_reject_a_moved_window(self, n, seed, data):
        bits = int.from_bytes(np.random.default_rng(seed).bytes(n // 8), "little")
        seq = FlipSequence(bits, n // 8 * 8)
        rows = _packed_flips(seq)
        table = excursions._window_table([seq])
        k = data.draw(st.integers(0, table.end.size - 1))
        end = table.end.copy()
        end[k] -= 1
        wrong = table._replace(end=end)
        assert _parse_fault(table, rows, _levels(rows)) is None
        assert _parse_fault(wrong, rows, _levels(rows)) is not None

    @given(texts)
    def test_interior_window_scores(self, text):
        d = decompose(parse_sequence(text))
        for slot in d.slots:
            series = score_series(d.sequence.window(slot.start_index, slot.end_index))
            if slot.kind is SlotKind.B and slot.complete:
                assert all(v > 0 for v in series[1:-1])
                assert series[-1] == 0
            if slot.kind is SlotKind.A and slot.tau_end is not None:
                tau_len = slot.tau_end - slot.start_index + 1
                assert all(v < 0 for v in series[1 : tau_len - 1])
                assert series[tau_len - 1] == 0


def _random_sequence(rng, n: int, p: float = 0.5) -> FlipSequence:
    heads = np.packbits(rng.random(n) < p, bitorder="little").tobytes()
    return FlipSequence(int.from_bytes(heads, "little"), n)


class TestDecomposeMany:
    def test_mixed_lengths_in_one_call(self):
        # lengths on both sides of whole bytes, all in one block, with rows
        # of no head and rows that stop on a renewal head; decompose alone
        # parses each as a block of one row
        rng = np.random.default_rng(18)
        seqs = [
            _random_sequence(rng, n, p)
            for n in (1, 2, 223, 224, 225, 1000, 2000)
            for p in (0.2, 0.5, 0.8)
        ]
        seqs += [parse_sequence(t) for t in ("T", "TTTTTTTTT", "T" * 300, "H", "TTH", "HTHH")]
        seqs += [parse_sequence("HHTT" * 56 + "H"), parse_sequence("HT" * 150 + "H" * 151)]
        parses = decompose_many(seqs)
        assert parses == [decompose(s) for s in seqs]
        assert parses == [_decompose_reference(s) for s in seqs]
        assert any(d.first_head_pos is None and d.length >= 224 for d in parses)
        assert any(d.trailing is not None and d.length >= 224 for d in parses)

    @given(st.lists(texts, min_size=1, max_size=12))
    def test_matches_reference_on_random_lists(self, batch):
        # up to 12 x 120 flips, each list parsed in one block
        seqs = [parse_sequence(t) for t in batch]
        assert decompose_many(seqs) == [_decompose_reference(s) for s in seqs]

    def test_short_blocks_exhaustive(self):
        seqs = [FlipSequence(b, n) for n in range(1, 11) for b in range(1 << n)]
        assert decompose_many(seqs) == [_decompose_reference(s) for s in seqs]

    def test_one_row_and_block_paths_agree(self):
        # one sequence alone skips the block's row split; in a block it
        # shares the pass with rows of other lengths
        rng = np.random.default_rng(5)
        seqs = [_random_sequence(rng, n) for n in rng.integers(1, 700, 60).tolist()]
        expected = [_decompose_reference(s) for s in seqs]
        assert decompose_many(seqs) == expected
        assert [decompose(s) for s in seqs] == expected
        assert [excursions._window_table([s]).row.tolist() for s in seqs] == [
            [0] * len(d.slots) for d in expected
        ]

    def test_interior_check_draws_match_the_reference(self):
        # the registry's window checks read the window table, not the
        # parses: the parses built from it are held to the flip-by-flip
        # reference on the interior check's drifting draws
        count, length = 250, 2000
        wide = 0
        for p in (0.2, 0.8):
            for seqs, flips in verify._random_blocks(106, np.full(count, length), p):
                assert decompose_many(seqs) == [_decompose_reference(s) for s in seqs]
                levels = _levels(flips)
                wide += int(np.count_nonzero(levels.max(axis=1) - levels.min(axis=1) >= 256))
        assert wide >= 250

    def test_blocks_split_at_the_cell_bound(self, monkeypatch):
        # a bound below one row's cells puts every sequence in a block of its own
        rng = np.random.default_rng(6)
        seqs = [_random_sequence(rng, n) for n in (500, 40, 1300, 41, 8, 900)]
        expected = [_decompose_reference(s) for s in seqs]
        real = excursions._window_table
        blocks = []

        def recording(rows):
            # each row is padded to the block's longest sequence, in whole bytes
            blocks.append((len(rows), 8 * ((max(s.length for s in rows) + 7) // 8)))
            return real(rows)

        monkeypatch.setattr(excursions, "_window_table", recording)
        for bound in (64, 2048, 1 << 20):
            monkeypatch.setattr(excursions, "_BLOCK_MAX_CELLS", bound)
            blocks.clear()
            assert decompose_many(seqs) == expected
            assert sum(rows for rows, _ in blocks) == len(seqs)
            assert all(rows * cols <= bound or rows == 1 for rows, cols in blocks)
        assert len(blocks) == 1

    def test_slots_hold_the_parsed_sequence(self):
        seqs = [parse_sequence("HTHHHTTH"), parse_sequence("HHTTHT" * 50)]
        for seq, d in zip(seqs, decompose_many(seqs)):
            for parse in (d, decompose(seq)):
                assert parse.sequence is seq
                assert all(type(s) is Slot for s in parse.slots)
                assert parse.serialize() == seq

    def test_empty_input(self):
        assert decompose_many([]) == []
        assert decompose_many(iter([parse_sequence("HT")])) == [decompose(parse_sequence("HT"))]

    def test_rejects_a_zero_length_sequence(self):
        with pytest.raises(ValueError, match="cannot decompose an empty sequence"):
            decompose(FlipSequence(0, 0))
        with pytest.raises(ValueError, match="cannot decompose an empty sequence"):
            decompose_many([parse_sequence("HT"), FlipSequence(0, 0)])


class TestClassifyPosition:
    @pytest.mark.parametrize(
        "text,pos,tag",
        [
            ("TTHHT", 4, PositionClass.A_WINNING),
            ("TTHHT", 5, PositionClass.NEUTRAL_ZERO),
            ("TT", 2, PositionClass.INITIAL_TAILRUN),
            ("HTHT", 2, PositionClass.B_WINNING),
            ("HTHH", 4, PositionClass.NEUTRAL_ZERO),
        ],
    )
    def test_examples(self, text, pos, tag):
        assert classify_position(parse_sequence(text), pos) is tag

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            classify_position(parse_sequence("HT"), 3)

    @pytest.mark.parametrize("pos", [0, -3, 6])
    def test_position_class_out_of_range(self, pos):
        with pytest.raises(IndexError, match=rf"position {pos} outside 1\.\.5"):
            position_class(decompose(parse_sequence("TTHHT")), pos)

    def test_matches_score_sign_exhaustive(self):
        zeroish = (PositionClass.INITIAL_TAILRUN, PositionClass.NEUTRAL_ZERO)
        for n in range(1, 11):
            for bits in range(1 << n):
                seq = FlipSequence(bits, n)
                series = score_series(seq)
                d = decompose(seq)
                for pos in range(1, n + 1):
                    tag = position_class(d, pos)
                    s = series[pos - 1]
                    if tag is PositionClass.B_WINNING:
                        assert s > 0, (str(seq), pos)
                    elif tag is PositionClass.A_WINNING:
                        assert s < 0, (str(seq), pos)
                    else:
                        assert tag in zeroish and s == 0, (str(seq), pos)

    @given(texts, st.data())
    def test_matches_score_sign_random(self, text, data):
        seq = parse_sequence(text)
        pos = data.draw(st.integers(1, len(seq)))
        tag = classify_position(seq, pos)
        s = score_series(seq)[pos - 1]
        expected = {
            1: {PositionClass.B_WINNING},
            -1: {PositionClass.A_WINNING},
            0: {PositionClass.INITIAL_TAILRUN, PositionClass.NEUTRAL_ZERO},
        }[sign(s)]
        assert tag in expected

    def test_matches_score_sign_over_ten_thousand_windows(self):
        # a B window, an A window and an A window with two padding tails,
        # each opened by the previous window's closing head: every position
        # of a long parse that ends on a trailing head
        rng = np.random.default_rng(22)
        windows = ("THH", "HTH", "HTTTH")
        picks = rng.integers(0, len(windows), 10**4).tolist()
        seq = parse_sequence("H" + "".join(windows[i] for i in picks))
        d = decompose(seq)
        assert len(d.slots) == 10**4
        assert {s.kind for s in d.slots} == {SlotKind.A, SlotKind.B}
        assert d.trailing is not None
        tags = [position_class(d, pos) for pos in range(1, seq.length + 1)]
        assert tags[0] is PositionClass.INITIAL_TAILRUN
        by_sign = {1: PositionClass.B_WINNING, -1: PositionClass.A_WINNING, 0: PositionClass.NEUTRAL_ZERO}
        assert tags[1:] == [by_sign[sign(s)] for s in score_series(seq)[1:]]

    def test_zero_class_mass_matches_tie_probability(self):
        # realized-branch tie identity at enumeration scale
        zeroish = (PositionClass.INITIAL_TAILRUN, PositionClass.NEUTRAL_ZERO)
        for n in range(1, 11):
            zero_class = sum(
                1
                for bits in range(1 << n)
                if classify_position(FlipSequence(bits, n), n) in zeroish
            )
            assert enumerate_distribution(n).pTie * (1 << n) == zero_class


def coupled_trial(flips: int, n: int) -> int:
    """Reference: one sampled renewal stream, flip k at bit k - 1 of flips,
    walked run of heads by run of heads.

    Returns 1 iff position n lands inside the coupled B-window but past its
    A-part -- the event whose probability is exactly twice pB - pA.  The
    flip after each renewal head is pinned to H by the coupling, so its own
    bit is ignored.
    """
    # text[k] is flip k, "1" a head, read once from the int and cut at flip n
    text = "0" + format(flips, f"0{n}b")[::-1][:n]
    e = text.find("1")
    if e in (-1, n):
        return 0  # n inside the initial tailrun or at its closing head
    while True:
        if e + 1 == n:
            return 0  # n at the pinned head
        # A-part: the pinned head at e+1 opens a run of heads at window
        # score -1. In a run of k heads the k - 1 after the first are HH
        # (-1 each) and the tail that ends it is HT (+1).
        s, head = -1, e + 1
        while True:
            tail = text.find("0", head + 1)
            if tail == -1:
                return 0  # heads up to n: n interior to the A-part
            s += 2 - (tail - head)
            if s == 0:
                break  # A-part closed at tail
            head = text.find("1", tail + 1)
            if head == -1:
                return 0  # n interior to the A-part
        if tail == n:
            return 1  # n at the A-part endpoint: first position of the event
        # tail padding up to the closing head; the event holds strictly before it
        e = text.find("1", tail + 1)  # closing head = next renewal head
        if e == -1:
            return 1  # n inside the padding
        if e == n:
            return 0  # n at the closing head


def coupled_rule(code: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """Reference: the state code of coupled_diff_mc after one more flip,
    elementwise, through the A-part's depth and last flip."""
    depth, last = (code - _A_PART) // 2 + 1, (code - _A_PART) % 2
    # after an H, HT climbs a level and HH sinks one; after a T the depth stays
    depth = depth + last * (2 * flip - 1)
    a_part = np.where(depth == 0, _PAD, _A_PART + 2 * (depth - 1) + flip)
    return np.select(
        [code == _SEEK, code == _HEAD, code == _PAD],
        [np.where(flip, _HEAD, _SEEK), _A_PART + 1, np.where(flip, _HEAD, _PAD)],
        a_part,
    )


def contract_blocks(n: int, trials: int, seed: int) -> list[np.ndarray]:
    """The fair blocks of montecarlo's reproducibility contract, rebuilt: a
    substream per BATCH_SIZE games, split into blocks of _MAX_BLOCK_CELLS // n
    games, each a (ceil(n / 64), games) array of _bernoulli_words."""
    block = max(1, _MAX_BLOCK_CELLS // n)
    width = -(-n // 64)
    blocks = []
    for batch, first in enumerate(range(0, trials, BATCH_SIZE)):
        rng = _substream(seed, batch)
        games = min(BATCH_SIZE, trials - first)
        for start in range(0, games, block):
            rows = min(block, games - start)
            blocks.append(_bernoulli_words(rng, width * rows, 0.5).reshape(width, rows))
    return blocks


def reference_hits(n: int, blocks: list[np.ndarray]) -> int:
    """coupled_trial over every game of the given fair blocks."""
    hits = 0
    for words in blocks:
        data = np.ascontiguousarray(words.T, dtype="<u8").tobytes()
        step = 8 * len(words)
        for i in range(0, len(data), step):
            hits += coupled_trial(int.from_bytes(data[i : i + step], "little"), n)
    return hits


class TestCoupledDiffMC:
    @pytest.mark.parametrize(
        "n,trials,seed",
        [
            (3, 1000, 1),
            (5, 3000, 2),
            (7, 5000, 77),
            (31, 7000, 5),
            (50, 2 * 10**4, 9),
            (200, 5000, 11),
            # two batches, the second of fewer games than the first
            (1000, 4500, 3),
            (1001, 4500, 4),
            # n % 8 = 4 and 6: the tail tables of 4 and 6 flips
            (12, 3000, 14),
            (30, 3000, 15),
            # long games, where most lookups read the depth >= 5 rows; the
            # second sees 2 hits
            (1023, 3000, 12),
            (16383, 900, 13),
        ],
    )
    def test_hits_match_reference_trials(self, n, trials, seed):
        est = coupled_diff_mc(n, trials, seed)
        assert est.hits == reference_hits(n, contract_blocks(n, trials, seed))

    @pytest.mark.parametrize(
        "n,trials,seed,games",
        [
            # four batches, the last of 7 games
            (20, 3 * BATCH_SIZE + 7, 21, [BATCH_SIZE] * 3 + [7]),
            # n > 1024: each full batch splits into blocks of
            # _MAX_BLOCK_CELLS // n = 3813 games
            (1100, 2 * BATCH_SIZE + 50, 22, [3813, 283, 3813, 283, 50]),
        ],
        ids=["four-batches", "split-batches"],
    )
    def test_shares_fair_blocks_with_simulate_game(self, n, trials, seed, games):
        # the contract: both estimators read the same words, which depend
        # only on (n, trials, seed); the direct game scores them by pairs,
        # the coupled one walks each game's renewal parse
        blocks = contract_blocks(n, trials, seed)
        assert [words.shape[1] for words in blocks] == games
        scores = np.concatenate([_pair_scores(words, n) for words in blocks])
        direct = simulate_game(SimConfig(n=n, trials=trials, seed=seed))
        counts = [int(np.count_nonzero(op(scores, 0))) for op in (np.less, np.greater, np.equal)]
        assert [direct.wins_a, direct.wins_b, direct.ties] == counts
        assert coupled_diff_mc(n, trials, seed).hits == reference_hits(n, blocks)

    def test_beats_direct_simulation(self):
        # the paper's case for the coupling: at n = 50 its standard error for
        # pB - pA is several times smaller than that of the direct game
        from coinduel import dp_distribution

        n, trials, seed = 50, 2 * 10**4, 9
        exact = float(dp_distribution(n).diff)
        coupled = coupled_diff_mc(n, trials, seed)
        direct = simulate_game(SimConfig(n=n, trials=trials, seed=seed))
        direct_diff = direct.pB - direct.pA
        direct_stderr = math.sqrt((direct.pA + direct.pB - direct_diff**2) / trials)
        assert coupled.stderr <= direct_stderr / 5
        assert abs(coupled.estimate - exact) <= 4 * coupled.stderr
        assert abs(direct_diff - exact) <= 4 * direct_stderr

    def test_single_trial_values(self):
        for seed in range(6):
            est = coupled_diff_mc(5, 1, seed)
            assert est.estimate in (0.0, 0.5)

    def test_deterministic(self):
        a = coupled_diff_mc(6, 5000, 123)
        b = coupled_diff_mc(6, 5000, 123)
        assert a == b

    def test_matches_exact_n3(self):
        est = coupled_diff_mc(3, 10**5, 2024)
        assert abs(est.estimate - 0.125) <= 4 * est.stderr

    def test_matches_exact_n4(self):
        est = coupled_diff_mc(4, 10**5, 2025)
        assert abs(est.estimate - 0.125) <= 4 * est.stderr

    def test_matches_dp_n7(self):
        from coinduel import dp_distribution

        exact = float(dp_distribution(7).diff)
        est = coupled_diff_mc(7, 10**5, 77)
        assert abs(est.estimate - exact) <= 4 * est.stderr

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            coupled_diff_mc(2, 10, 0)

    @pytest.mark.parametrize("n", [8, 9, 64, 65])
    def test_matches_dp(self, n):
        # n = 3, 4 and 7 are the tests above; 8, 9, 64 and 65 end a byte or a
        # word on n, or one flip past it
        from coinduel import dp_distribution

        exact = float(dp_distribution(n).diff)
        est = coupled_diff_mc(n, 10**5, 1000 + n)
        assert abs(est.estimate - exact) <= 4 * est.stderr

    def test_matches_renewal_at_depth(self):
        # n = 2048 reaches depths far past the exact rows; seed fixed before
        # the first run
        from coinduel import renewal_diff

        est = coupled_diff_mc(2048, 10**5, 2048)
        assert abs(est.estimate - float(renewal_diff(2048))) <= 4 * est.stderr

    @pytest.mark.parametrize("n", [3, 5, 9, 50, 200, 1001])
    @pytest.mark.parametrize("width", range(1, 9))
    def test_flip_table_matches_step(self, n, width):
        # every code a game of n flips reaches, both sides of the depth where
        # a width-flip lookup turns into a shift, and a depth of 10**6
        depths = np.r_[1 : max(n, width // 2 + 2) + 1, 10**6]
        code = np.r_[_SEEK, _HEAD, _PAD, _A_PART + 2 * (depths - 1), _A_PART + 2 * depths - 1]
        code, byte = np.meshgrid(code, np.arange(256), indexing="ij")
        want = code
        for k in range(width):  # flip k of a byte is its bit k
            want = coupled_rule(want, byte >> k & 1)
        row = np.minimum(code, _DEEP + 1 - (code & 1))
        assert np.array_equal(code + _lookup_table(width)[256 * row + byte], want)

    def test_memory_flat_at_large_n(self):
        # blocks of 20 games and lookup tables that do not grow with n; the
        # second block reaches the peak of any later one.  47 MiB is the peak
        # RSS at n = 10**5 of the estimator that drew one uint8 per flip, at
        # 200 trials
        n = 2 * 10**5
        tracemalloc.start()
        try:
            coupled_diff_mc(n, 2 * (_MAX_BLOCK_CELLS // n), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 47 << 20
