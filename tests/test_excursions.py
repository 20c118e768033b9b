import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coinduel import (
    EXCURSION_ENUM_CAP,
    ExcursionKind,
    FlipSequence,
    PositionClass,
    SlotKind,
    classify_excursion,
    classify_position,
    couple,
    coupled_diff_mc,
    decompose,
    enumerate_distribution,
    enumerate_excursions,
    parse_sequence,
    position_class,
    reverse,
    score,
    score_series,
)
from coinduel.excursions import _decompose_indexed, _decompose_scalar
from coinduel.montecarlo import SimConfig, _substream, simulate_game

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
        for n in range(2, 13):
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
        for k in range(2, 11):
            for kind in (ExcursionKind.B, ExcursionKind.A, ExcursionKind.A_HAT):
                expected = {
                    FlipSequence(b, k)
                    for b in range(1 << k)
                    if classify_excursion(FlipSequence(b, k)) is kind
                }
                assert enumerate_excursions(k, kind) == expected

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
        assert str(first.content) == "HTHH"
        assert (second.start_index, second.end_index, second.kind) == (4, 8, SlotKind.A)
        assert second.tau_end == 6
        assert second.complete
        assert str(second.content) == "HHTTH"
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

    def test_windows_tile_and_share_heads(self):
        for n in range(1, 13):
            for bits in range(1 << n):
                seq = FlipSequence(bits, n)
                d = decompose(seq)
                if d.first_head_pos is None:
                    assert d.initial_tailrun_len == n
                    continue
                cursor = d.first_head_pos
                for slot in d.slots:
                    assert slot.start_index == cursor
                    assert seq.is_head(slot.start_index)
                    assert slot.content == seq.window(slot.start_index, slot.end_index)
                    cursor = slot.end_index
                if d.trailing is not None:
                    assert d.trailing.start_index == cursor == n
                else:
                    assert cursor == n

    @given(texts)
    def test_round_trip(self, text):
        seq = parse_sequence(text)
        assert decompose(seq).serialize() == seq

    @given(long_texts)
    def test_round_trip_long(self, text):
        seq = parse_sequence(text)
        assert decompose(seq).serialize() == seq

    @given(long_texts)
    def test_parser_paths_agree(self, text):
        seq = parse_sequence(text)
        assert _decompose_scalar(seq) == _decompose_indexed(seq)

    @given(texts)
    def test_interior_window_scores(self, text):
        for slot in decompose(parse_sequence(text)).slots:
            series = score_series(slot.content)
            if slot.kind is SlotKind.B and slot.complete:
                assert all(v > 0 for v in series[1:-1])
                assert series[-1] == 0
            if slot.kind is SlotKind.A and slot.tau_end is not None:
                tau_len = slot.tau_end - slot.start_index + 1
                assert all(v < 0 for v in series[1 : tau_len - 1])
                assert series[tau_len - 1] == 0


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


def coupled_trial(pool: int, n: int) -> int:
    """Reference: one sampled renewal stream, consuming fair bits from pool
    (LSB first), walked flip by flip.

    Returns 1 iff position n lands inside the coupled B-window but past its
    A-part -- the event whose probability is exactly twice pB - pA.  The
    flip after each renewal head is pinned to H by the coupling, so it
    consumes no randomness; at most n bits are ever drawn.
    """
    pos = 0
    head = False
    while pos < n:
        pos += 1
        head = pool & 1 == 1
        pool >>= 1
        if head:
            break
    if not head or pos >= n:
        return 0  # n inside the initial tailrun or at its closing head
    e = pos
    while True:
        # A-part: pinned head at e+1, window score starts at -1
        pos = e + 1
        if pos == n:
            return 0
        s = -1
        prev = 1
        while True:
            pos += 1
            cur = pool & 1
            pool >>= 1
            if prev:
                s += 1 - 2 * cur
            prev = cur
            if s == 0:
                break  # A-part closed at pos
            if pos == n:
                return 0  # n interior to the A-part
        if pos == n:
            return 1  # n at the A-part endpoint: first position of the event
        # tail padding up to the closing head; the event holds strictly before it
        while True:
            pos += 1
            cur = pool & 1
            pool >>= 1
            if pos == n:
                return 0 if cur else 1
            if cur:
                e = pos  # closing head = next renewal head
                break


def reference_hits(n: int, trials: int, seed: int, batch_size: int) -> int:
    """coupled_trial over the same seeded rows coupled_diff_mc draws."""
    hits = 0
    done = 0
    batch = 0
    while done < trials:
        m = min(batch_size, trials - done)
        rows = _substream(seed, batch).integers(0, 2, size=(m, n), dtype=np.uint8)
        for row in np.packbits(rows, axis=1, bitorder="little"):
            hits += coupled_trial(int.from_bytes(row.tobytes(), "little"), n)
        done += m
        batch += 1
    return hits


class TestCoupledDiffMC:
    @pytest.mark.parametrize(
        "n,trials,seed,batch_size",
        [
            (3, 1000, 1, 1 << 16),
            (5, 3000, 2, 100),
            (7, 5000, 77, 1 << 16),
            (31, 7000, 5, 999),
            (50, 2 * 10**4, 9, 1 << 16),
            (200, 5000, 11, 1 << 16),
            # two draw blocks of at most montecarlo._MAX_BLOCK_CELLS cells;
            # at odd n only a row count that is a multiple of 4 keeps the stream
            (1000, 4500, 3, 1 << 16),
            (1001, 4500, 4, 1 << 16),
        ],
    )
    def test_hits_match_reference_trials(self, n, trials, seed, batch_size):
        est = coupled_diff_mc(n, trials, seed, batch_size)
        assert est.hits == reference_hits(n, trials, seed, batch_size)

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
