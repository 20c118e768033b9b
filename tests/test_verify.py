import ast
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from coinduel import excursions, verify
from coinduel.core import FlipSequence, parse_sequence, score
from coinduel.cli import dispatch
from coinduel.excursions import Decomposition, Slot, SlotKind, decompose
from coinduel.montecarlo import SimConfig, simulate_game

import test_acceptance  # tests/ is on sys.path under pytest's default import mode

RUNNER = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_benchmark_times_every_check_by_name():
    # the benchmark keys one per-layer metric on each check name, so a
    # renamed or added check must show up in its list too
    tree = ast.parse(RUNNER.read_text())
    (listed,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "VERIFY_CHECKS" for t in node.targets)
    ]
    assert listed == [name for name, _ in verify.CHECKS]


def _holds():
    return True, "holds"


def _fails():
    return False, "off by one"


def _raises():
    raise RuntimeError("boom")


STUBS = [("stub.holds", _holds), ("stub.fails", _fails), ("stub.raises", _raises)]


def test_verify_reports_failures_and_crashes(monkeypatch, capsys):
    monkeypatch.setattr(verify, "CHECKS", STUBS)
    # a clock that moves 1.25 s between reads: every check takes 1.25 s
    monkeypatch.setattr(verify, "perf_counter", itertools.count(0.0, 1.25).__next__)
    assert dispatch(["verify"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS stub.holds: holds [1.25 s]",
        "FAIL stub.fails: off by one [1.25 s]",
        "FAIL stub.raises: raised RuntimeError: boom [1.25 s]",
        "1/3 invariants hold",
    ]


def test_run_all_times_each_check(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", STUBS)
    monkeypatch.setattr(verify, "perf_counter", itertools.count(10.0, 0.5).__next__)
    assert [(r.name, r.ok, r.seconds) for r in verify.run_all()] == [
        ("stub.holds", True, 0.5),
        ("stub.fails", False, 0.5),
        ("stub.raises", False, 0.5),
    ]


def test_acceptance_main_reports_failures_and_crashes(monkeypatch, capsys):
    # a criterion naming a check the registry no longer has fails alone
    monkeypatch.setattr(verify, "CHECKS", STUBS)
    criteria = [(name, test_acceptance.registry(name)) for name, _ in STUBS]
    criteria.append(("stub.renamed", test_acceptance.registry("stub.renamed")))
    monkeypatch.setattr(test_acceptance, "CRITERIA", criteria)
    assert test_acceptance.main() == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS stub.holds: holds",
        "FAIL stub.fails: stub.fails: off by one",
        "FAIL stub.raises: raised RuntimeError: boom",
        "FAIL stub.renamed: no verify check named stub.renamed",
        "1/4 acceptance criteria hold",
    ]


# wrong parses the window checks must reject, each a change to the window
# table: to the first window of each row that can take it, or to every row
def _first_per_row(table, can_take):
    k = np.flatnonzero(can_take)
    rows = table.row[k]
    return k[np.r_[True, rows[1:] != rows[:-1]]] if k.size else k


def _kind_swapped(table):
    is_a = table.is_a.copy()
    is_a[_first_per_row(table, np.ones_like(is_a))] ^= True
    return table._replace(is_a=is_a)


def _tau_moved(by):
    def move(table):
        tau = table.tau_end.copy()
        tau[_first_per_row(table, tau != -1)] += by
        return table._replace(tau_end=tau)

    return move


def _complete_flipped(table):
    complete = table.complete.copy()
    complete[_first_per_row(table, np.ones_like(complete))] ^= True
    return table._replace(complete=complete)


def _scramble(table):
    # every kind swapped, and a tau_end on exactly the windows that lack one
    tau = np.where(table.tau_end == -1, table.end, -1)
    return table._replace(is_a=~table.is_a, tau_end=tau)


def _swallow_next(table):
    # in each row, the first window with an A-part runs on over the window after it
    row = table.row
    followed = np.zeros_like(table.complete)
    followed[:-1] = row[1:] == row[:-1]
    k = _first_per_row(table, (table.tau_end != -1) & followed)
    end, complete = table.end.copy(), table.complete.copy()
    end[k], complete[k] = end[k + 1], complete[k + 1]
    keep = np.ones_like(complete)
    keep[k + 1] = False
    return table._replace(
        row=row[keep],
        start=table.start[keep],
        end=end[keep],
        is_a=table.is_a[keep],
        tau_end=table.tau_end[keep],
        complete=complete[keep],
    )


def _trailing_dropped(table):
    # a row whose last window closed ends on its trailing head, on flip n:
    # reopening that window leaves the materialiser no trailing slot
    row = table.row
    last = np.ones_like(table.complete)
    last[:-1] = row[1:] != row[:-1]
    return table._replace(complete=table.complete & ~last)


WRONG_PARSES = {
    "kind swapped": _kind_swapped,
    "tau_end + 1": _tau_moved(1),
    "tau_end - 1": _tau_moved(-1),
    "complete flipped": _complete_flipped,
    "every window scrambled": _scramble,
    "an A window swallows the next": _swallow_next,
    "trailing dropped": _trailing_dropped,
}


@pytest.mark.parametrize("check", [verify._check_round_trip, verify._check_interior_scores])
@pytest.mark.parametrize("wrong", sorted(WRONG_PARSES))
def test_window_checks_reject_a_wrong_parse(monkeypatch, check, wrong):
    real = verify._window_table
    monkeypatch.setattr(verify, "_window_table", lambda seqs: WRONG_PARSES[wrong](real(seqs)))
    ok, detail = check()
    assert not ok, detail


def test_round_trip_checks_its_random_sequences(monkeypatch):
    # the short sequences parse correctly, so only the random part can fail
    real = verify._window_table

    def wrong_when_long(seqs):
        table = real(seqs)
        return WRONG_PARSES["complete flipped"](table) if seqs[0].length == 1000 else table

    monkeypatch.setattr(verify, "_window_table", wrong_when_long)
    assert verify._check_round_trip() == (
        False,
        "an open window ends before flip n in random length-1000 sequence 0",
    )


def test_interior_check_catches_levels_held_mod_256(monkeypatch):
    # levels summed in a byte wrap at +-128 and meet false level-0 flips
    # where the score reaches +-256, which only the wide sequences do: the
    # short parses stay right, and the check must fail on a drifting one
    monkeypatch.setattr(excursions, "_level_dtype", lambda cells: np.int8)
    short = [FlipSequence(b, n) for n in range(1, 13) for b in range(1 << n)]
    assert excursions.decompose_many(short) == [verify._decompose_reference(s) for s in short]
    ok, detail = verify._check_interior_scores()
    assert not ok
    assert "length-2000 sequence" in detail


def _slot(start, end, kind, tau_end, complete):
    return Slot(start, end, SlotKind(kind), tau_end, complete)


def _parse(text, slots, length=None):
    """A parse of text with the given windows, as (start, end, kind, tau_end,
    complete); with a length, of text padded with tails to that length."""
    seq = parse_sequence(text)
    return Decomposition(
        FlipSequence(seq.bits, length or seq.length), tuple(_slot(*s) for s in slots)
    )


def _table(slots):
    """The window table of one row of the same parse as _parse."""
    start, end, kind, tau, complete = zip(*slots)
    return excursions._Windows(
        row=np.zeros(len(slots), np.intp),
        start=np.array(start),
        end=np.array(end),
        is_a=np.array(kind) == "A",
        tau_end=np.array([-1 if t is None else t for t in tau]),
        complete=np.array(complete),
    )


def _as_reference(seq, decomp):
    """parser-paths-agree's test of a parse: it equals the flip-by-flip parse of seq."""
    return decomp == verify._decompose_reference(seq)


# a window table has no field for these: the materialiser takes the sequence,
# and so its length, as input and builds the kinds, and it is held to the
# flip-by-flip parse (parser-paths-agree, tests/test_excursions.py)
_OBJECT_RULES = {"wrong length", "a window is neither A nor B"}


# HTHHHTTH parses as B(1, 4) and an A window (4, 8) whose A-part ends at 6
_B_THEN_A = [(1, 4, "B", None, True), (4, 8, "A", 6, True)]

# (text, windows, whether the stated parse ends on a trailing head, fields
# of _parse, the rule it breaks).  Each case is numbered as in its id: the
# numbers 1 and 11 were a wrong stored first head and a wrong stored
# trailing slot, which a parse now reads off its sequence and windows
_PARSE_FAULTS = {
    0: ("HTHHHTTH", _B_THEN_A, True, {"length": 9}, "wrong length"),
    # the A-part forms of two level rules: HHTHHT parses as A(1, 4) with
    # its A-part ending at 3, then an open A(4, 6); HHHTT as one open A
    # window whose A-part never closes
    2: ("HHTHHT", [(1, 6, "A", 6, False)], False, {}, "a window touches its start level inside"),
    3: ("HHHTT", [(1, 5, "A", 3, False)], False, {}, "a window does not close at its start level"),
    4: (
        "HTHHHTTH",
        [(1, 4, "B", None, True), (5, 8, "A", 6, True)],
        True,
        {},
        "windows do not tile from the first head",
    ),
    5: (
        "HTHHHTTH",
        [(1, 4, "B", None, True), (4, 9, "A", 6, True)],
        True,
        {},
        "a window ends before it starts or after flip n",
    ),
    6: (
        "HTHHHTTH",
        [(1, 4, "B", None, True), (4, 8, "Undetermined", 6, True)],
        True,
        {},
        "a window is neither A nor B",
    ),
    7: (
        "HTHHHTTH",
        [(1, 4, "B", 3, True), (4, 8, "A", 6, True)],
        True,
        {},
        "misplaced tau_end",
    ),
    8: (
        "HTHHHTTH",
        [(1, 4, "B", None, True), (4, 8, "A", None, True)],
        True,
        {},
        "a closed A window has no tau_end",
    ),
    9: (
        "HTHHHTTH",
        [(1, 4, "B", None, False), (4, 8, "A", 6, True)],
        True,
        {},
        "an open window ends before flip n",
    ),
    10: ("HTHHHTTH", _B_THEN_A[:1], True, {}, "the windows stop before flip n"),
    12: ("HT", [(1, 2, "A", None, False)], False, {}, "a window's kind is not the flip after its head"),
    # the A window claims to close on flip 4, a tail
    13: (
        "HHTTHT",
        [(1, 4, "A", 3, True), (4, 6, "A", None, False)],
        False,
        {},
        "a closed window does not end on a head",
    ),
    # one B window over two: the score is back at 0 on flip 4
    14: ("HTHHTHH", [(1, 7, "B", None, True)], True, {}, "a window touches its start level inside"),
    15: (
        "HTHH",
        [(1, 3, "B", None, True), (3, 4, "A", None, False)],
        False,
        {},
        "a window does not close at its start level",
    ),
    # one A window over two: its padding runs over the head on flip 4
    16: ("HHTHHTH", [(1, 7, "A", 3, True)], True, {}, "a head inside the padding"),
}


@pytest.mark.parametrize(
    "text,slots,trailing,fields,reason",
    list(_PARSE_FAULTS.values()),
    ids=[f"{c[0]}-slots{k}-{c[2]}-fields{k}-{c[4]}" for k, c in _PARSE_FAULTS.items()],
)
def test_parse_fault_names_each_broken_rule(text, slots, trailing, fields, reason):
    seq = parse_sequence(text)
    wrong = _parse(text, slots, **fields)
    assert (wrong.trailing is not None) == trailing
    if reason in _OBJECT_RULES:
        assert _as_reference(seq, decompose(seq))
        assert not _as_reference(seq, wrong)
        return
    flips = np.array([[c == "H" for c in text]], dtype=np.uint8)
    levels = verify._levels(flips)
    assert verify._parse_fault(excursions._window_table([seq]), flips, levels) is None
    assert verify._parse_fault(_table(slots), flips, levels) == (0, reason)


def test_parser_paths_agree_rejects_a_dropped_trailing_head(monkeypatch):
    # every parser reads the trailing slot off its windows alike, so the
    # check holds it to flip n and the final score, which no parser reads
    monkeypatch.setattr(Decomposition, "trailing", property(lambda self: None))
    assert verify._check_parser_equivalence() == (False, "wrong trailing head at H")


def test_window_table_rejects_rows_out_of_order():
    text = "HTHHHTTH"
    seq = parse_sequence(text)
    flips = np.array([[c == "H" for c in text]] * 2, dtype=np.uint8)
    table = excursions._window_table([seq, seq])
    assert verify._parse_fault(table, flips, verify._levels(flips)) is None
    swapped = table._replace(row=table.row[::-1].copy())
    assert verify._parse_fault(swapped, flips, verify._levels(flips)) == (
        0,
        "windows do not tile from the first head",
    )


def _drawn(seed, lengths, p=0.5):
    """The blocks of verify's sampler, as (sequences, flip rows) pairs."""
    return list(verify._random_blocks(seed, np.asarray(lengths), p))


def test_sampler_cuts_each_sequence_to_its_length():
    # the longest sequence sets the block: 2^20 // 10^4 = 104 rows
    lengths = verify._substream(101).integers(17, 10**4, 300)
    lengths[-1] = 10**4
    blocks = _drawn(101, lengths)
    assert [len(block) for block, _ in blocks] == [104, 104, 92]
    seqs = [s for block, _ in blocks for s in block]
    assert [s.length for s in seqs] == lengths.tolist()
    assert all(s.bits >> s.length == 0 for s in seqs)
    # and something survives the cut: the top flip is a head about half the time
    assert 110 < sum(s.bits >> (s.length - 1) for s in seqs) < 190


@pytest.mark.parametrize("longest", [1, 7, 130, 10**4])
def test_sampler_flip_rows_are_the_sequences_bits(longest):
    # one-flip sequences, rows shorter than a byte, the one-block draw at the
    # default batch, and a draw the longest sequence splits into three blocks
    lengths = verify._substream(5).integers(1, longest + 1, 300)
    n = int(lengths.max())
    blocks = _drawn(5, lengths)
    assert len(blocks) == {1: 1, 7: 1, 130: 1, 10**4: 3}[longest]
    for seqs, flips in blocks:
        assert flips.shape == (len(seqs), n)
        packed = np.packbits(flips, axis=1, bitorder="little")
        assert [int.from_bytes(row.tobytes(), "little") for row in packed] == [
            s.bits for s in seqs
        ]


def test_sampler_draws_heads_at_p():
    # the interior check's draw at head probability 0.8
    ((seqs, flips),) = _drawn(106, np.full(250, 2000), 0.8)
    cells = flips.size
    assert abs(flips.sum() / cells - 0.8) <= 4 * (0.8 * 0.2 / cells) ** 0.5
    assert sum(s.bits.bit_count() for s in seqs) == flips.sum()


def test_sampler_masks_cover_the_block_only():
    # a mask for every length up to the longest is (n + 1) x n flips, 9.3 GiB
    # of bools at 10^5 flips; the masks cover the block's own rows
    tracemalloc.start()
    try:
        blocks = _drawn(7, [3, 10**5, 17])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    seqs = [s for block, _ in blocks for s in block]
    assert [s.length for s in seqs] == [3, 10**5, 17]
    assert all(s.bits >> s.length == 0 for s in seqs)


def test_sampler_is_seeded():
    lengths = verify._substream(102).integers(13, 257, 300)
    first = [seqs for seqs, _ in _drawn(102, lengths)]
    assert first == [seqs for seqs, _ in _drawn(102, lengths)]
    assert first != [seqs for seqs, _ in _drawn(103, lengths)]


def test_exhaustive_blocks_run_by_length_then_bits():
    # one block per length to 12, then 2^(n - 12) blocks of BATCH_SIZE
    blocks = list(verify._exhaustive(16))
    assert [flips.shape[1] for _, flips in blocks] == [
        *range(1, 13), *[13] * 2, *[14] * 4, *[15] * 8, *[16] * 16
    ]
    assert [(s.length, s.bits) for seqs, _ in blocks for s in seqs] == [
        (n, b) for n in range(1, 17) for b in range(1 << n)
    ]
    for seqs, flips in blocks:
        assert flips.shape == (len(seqs), seqs[0].length) and flips.dtype == np.uint8
        assert len(seqs) <= verify.BATCH_SIZE
        assert {s.length for s in seqs} == {flips.shape[1]}
        packed = np.packbits(flips, axis=1, bitorder="little")
        assert [int.from_bytes(row.tobytes(), "little") for row in packed] == [
            s.bits for s in seqs
        ]


@pytest.mark.parametrize("length", [3, 300, 1000, 2000])
def test_parse_check_blocks_keep_their_bound(length):
    # the simulator's blocks, cut at the parse's bound: at length 300 the
    # first batch of BATCH_SIZE games is cut into 2^20 // 300 = 3495 rows
    # and the 601 left over, and the second batch's 2895 games fit in one
    batch = min(verify.BATCH_SIZE, excursions._BLOCK_MAX_CELLS // length)
    blocks = _drawn(1, np.full(2 * batch + 1, length))
    assert [len(seqs) for seqs, _ in blocks] == {
        3: [4096, 4096, 1],
        300: [3495, 601, 2895],
        1000: [1048, 1048, 1],
        2000: [524, 524, 1],
    }[length]
    for seqs, flips in blocks:
        assert flips.shape == (len(seqs), length)
        assert len(seqs) <= verify.BATCH_SIZE
        assert flips.size <= excursions._BLOCK_MAX_CELLS


@pytest.mark.parametrize(
    "n, trials, seed", [(1000, 2 * 1048 + 1, 7), (300, 2 * 3495 + 1, 8), (50, 5000, 9)]
)
def test_random_sequences_are_the_simulators_games(n, trials, seed):
    # the registry's random sequences are simulate_game's games for the same
    # seed, also where the parse's bound cuts a batch into several blocks
    scores = np.array([score(s) for s in verify._random_sequences(seed, np.full(trials, n))])
    result = simulate_game(SimConfig(n=n, trials=trials, seed=seed))
    counts = [int(np.count_nonzero(test(scores, 0))) for test in (np.less, np.greater, np.equal)]
    assert counts == [result.wins_a, result.wins_b, result.ties]


def test_tie_mass_check_reads_fair_scan_not_levels(monkeypatch):
    # its oracle is the exact tie count T_n, not the score levels the
    # classifier check already reads
    def no_levels(flips):
        raise AssertionError("the tie-mass check read _levels")

    monkeypatch.setattr(verify, "_levels", no_levels)
    passed = (True, "P(S_n=0) equals the mass of the two zero classes, n <= 12")
    assert verify._check_tie_class_mass() == passed
    real = verify.fair_scan
    ties_7 = list(real(7))[-1][2]

    def one_off_at_7(n):
        for k, below, equal, above in real(n):
            yield k, below, equal + (k == 7), above

    monkeypatch.setattr(verify, "fair_scan", one_off_at_7)
    assert verify._check_tie_class_mass() == (
        False,
        f"n=7: {ties_7} zero-class vs T_n={ties_7 + 1} from fair_scan",
    )


def test_every_registry_draw_keeps_the_block_bounds(monkeypatch):
    # record each draw of the checks, and skip their exhaustive parts; a
    # draw's first block is its largest, because every batch but the last
    # is full, the simulator does not split a batch this small, and each
    # block is cut from its start
    calls = []

    def recording(seed, lengths, p=0.5):
        calls.append((seed, lengths, p))
        return iter(())

    monkeypatch.setattr(verify, "_random_blocks", recording)
    monkeypatch.setattr(verify, "_exhaustive", lambda n: iter(()))
    for name, check in verify.CHECKS:
        if name.startswith(("core.", "excursions.")):
            check()
    assert [(seed, p) for seed, _, p in calls] == [
        (101, 0.5), (102, 0.5), (103, 0.5), (104, 0.5), (106, 0.2), (106, 0.8), (105, 0.5)
    ]
    monkeypatch.undo()
    shapes = {}
    for seed, lengths, p in calls:
        seqs, flips = next(verify._random_blocks(seed, lengths, p))
        assert len(seqs) == flips.shape[0] <= verify.BATCH_SIZE
        assert flips.size <= excursions._BLOCK_MAX_CELLS
        shapes[seed, p] = flips.shape
    # the round trip's length-1000 sequences, 2^20 // 1000 to a block
    assert shapes[104, 0.5] == (1048, 1000)


def test_interior_check_parses_blocks_within_the_bound(monkeypatch):
    shapes = []
    real = verify._parse_fault

    def recording(table, flips, levels):
        shapes.append(flips.shape)
        return real(table, flips, levels)

    monkeypatch.setattr(verify, "_parse_fault", recording)
    assert verify._check_interior_scores()[0]
    assert shapes[-2:] == [(250, 2000), (250, 2000)]
    assert all(rows <= verify.BATCH_SIZE for rows, _ in shapes)
    assert all(rows * n <= excursions._BLOCK_MAX_CELLS for rows, n in shapes)
