"""End-to-end checks of the command line, run through subprocess (and a
few through `cli.dispatch` in-process, where start-up would dominate).

Golden files under tests/goldens/ were produced by the CLI itself and then
frozen after the values were verified against the library oracles; the
byte-equality tests pin both the numbers and the serialization format.
"""

import argparse
import json
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from coinduel.rational import dp_distribution
from coinduel.renewal import count_rx, pi, renewal_diff

GOLDENS = Path(__file__).parent / "goldens"
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "coinduel", *args],
        capture_output=True,
        text=True,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def golden(name: str) -> str:
    return (GOLDENS / name).read_text()


class TestGoldens:
    @pytest.mark.parametrize(
        "name,args",
        [
            ("diff_n3_renewal.json", ["diff", "--n", "3", "--method", "renewal"]),
            ("exact_n3.json", ["exact", "--n", "3"]),
            ("dp_n4.json", ["dp", "--n", "4"]),
            ("dp_n100_float.json", ["dp", "--n", "100", "--mode", "float"]),
            ("asym_n100.json", ["asym", "--n", "100"]),
            ("decompose_tthht.json", ["decompose", "TTHHT"]),
            (
                "renewal_m1_8.csv",
                ["renewal", "--m-from", "1", "--m-to", "8", "--format", "csv"],
            ),
            (
                "table_10_100_10.csv",
                ["table", "--n-from", "10", "--n-to", "100", "--step", "10", "--format", "csv"],
            ),
            (
                "mc_n3_t1000_s7.json",
                ["mc", "--n", "3", "--trials", "1000", "--seed", "7"],
            ),
            ("walk_s1000_seed3.json", ["walk", "--steps", "1000", "--seed", "3"]),
            # the largest n the exact DP answers, in floats from the transform
            ("dp_n4096_float.json", ["dp", "--n", "4096", "--mode", "float"]),
        ],
    )
    def test_byte_identical(self, name, args):
        assert run_cli(*args).stdout == golden(name)


class TestSemantics:
    def test_exact_n3_values(self):
        doc = json.loads(golden("exact_n3.json"))
        assert Fraction(doc["pA"]) == Fraction(1, 4)
        assert Fraction(doc["pB"]) == Fraction(3, 8)
        assert Fraction(doc["pTie"]) == Fraction(3, 8)
        assert Fraction(doc["diff"]) == Fraction(1, 8)
        assert doc["method"] == "enum"

    def test_dp_float_partition(self):
        doc = json.loads(golden("dp_n100_float.json"))
        total = doc["pA"] + doc["pB"] + doc["pTie"]
        assert abs(total - 1.0) <= doc["rounding_bound"]

    def test_diff_methods_agree(self):
        outs = {
            m: json.loads(run_cli("diff", "--n", "7", "--method", m).stdout)["diff"]
            for m in ("renewal", "dp", "enum")
        }
        assert len(set(outs.values())) == 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_diff_methods_agree_below_three(self, n):
        # the convolution is empty there, and so is the win gap
        for method in ("renewal", "dp", "enum"):
            doc = json.loads(run_cli("diff", "--n", str(n), "--method", method).stdout)
            assert doc["diff"] == "0/1", method

    def test_mc_counts_partition(self):
        doc = json.loads(golden("mc_n3_t1000_s7.json"))
        assert doc["wins_a"] + doc["wins_b"] + doc["ties"] == doc["trials"]

    def test_mc_p_takes_a_fraction_like_dp(self):
        args = ("mc", "--n", "3", "--trials", "1000", "--seed", "7", "--p")
        assert run_cli(*args, "1/2").stdout == run_cli(*args, "0.5").stdout

    def test_decompose_fields(self):
        doc = json.loads(golden("decompose_tthht.json"))
        assert doc["initial_tailrun_len"] == 2
        assert doc["first_head_pos"] == 3
        (slot,) = doc["slots"]
        assert slot == {
            "start": 3,
            "end": 5,
            "kind": "A",
            "tau_end": 5,
            "complete": False,
        }
        assert doc["trailing"] is None

    def test_decompose_trailing_head(self):
        doc = json.loads(run_cli("decompose", "HTHHHTTH").stdout)
        assert [s["kind"] for s in doc["slots"]] == ["B", "A"]
        assert doc["trailing"] == {
            "start": 8,
            "end": 8,
            "kind": "Undetermined",
            "tau_end": None,
            "complete": False,
        }

    def test_table_csv_header(self):
        first = golden("table_10_100_10.csv").splitlines()[0]
        assert first == "n,pA,pB,pTie,diff,tie_asym,diff_asym"

    def test_renewal_csv_header(self):
        first = golden("renewal_m1_8.csv").splitlines()[0]
        assert first == "m,count_rx,pi_exact,pi_float"

    def test_renewal_float_column_is_exact_rounded_once(self):
        rows = json.loads(run_cli("renewal", "--m-to", "700").stdout)["rows"]
        assert [row["m"] for row in rows] == list(range(1, 701))
        for row in rows:
            assert row["pi_float"] == float(Fraction(row["pi_exact"])), row["m"]

    def test_table_rows_match_dp(self):
        lines = golden("table_10_100_10.csv").splitlines()[1:]
        import coinduel

        for line in lines:
            n, pa, pb, ptie, diff, *_ = line.split(",")
            dist = coinduel.dp_distribution(int(n))
            assert float(pa) == pytest.approx(float(dist.pA), rel=1e-12)
            assert float(diff) == pytest.approx(float(dist.diff), rel=1e-12)

    def test_table_rows_are_exact_laws_rounded_once(self, capsys):
        import coinduel
        from coinduel.cli import dispatch

        assert dispatch(["table", "--n-from", "1", "--n-to", "300", "--step", "7"]) == 0
        doc = json.loads(capsys.readouterr().out)

        series = coinduel.dp_series(300)
        assert [row["n"] for row in doc["rows"]] == list(range(1, 301, 7))
        for row in doc["rows"]:
            dist = series[row["n"] - 1]
            assert row["method"] == "recurrence"
            assert [row["pA"], row["pB"], row["pTie"], row["diff"]] == [
                float(dist.pA),
                float(dist.pB),
                float(dist.pTie),
                float(dist.diff),
            ], row["n"]

    def test_table_above_exact_cap_is_float_dp(self, capsys):
        # the table runs the float DP once and sums only the printed rows;
        # each row must still be the series' entry, field by field
        import coinduel
        from coinduel.cli import dispatch

        keys = ("pA", "pB", "pTie", "diff")
        # a sweep that crosses n = 4096 is float DP on every row, n_from's too
        cases = ((4097, 4097, 1), (4097, 4500, 101), (4100, 4100, 1), (4000, 4200, 100))
        for n_from, n_to, step in cases:
            series = coinduel.dp_float_series(n_to)
            wanted = list(range(n_from, n_to + 1, step))
            args = ["table", "--n-from", str(n_from), "--n-to", str(n_to), "--step", str(step)]

            assert dispatch(args) == 0
            rows = json.loads(capsys.readouterr().out)["rows"]
            assert [row["n"] for row in rows] == wanted
            for row in rows:
                dist = series[row["n"] - 1]
                assert row["method"] == "dp-float"
                assert [row[key] for key in keys] == [getattr(dist, key) for key in keys]

            assert dispatch(args + ["--format", "csv"]) == 0
            lines = capsys.readouterr().out.splitlines()[1:]
            assert [int(line.split(",")[0]) for line in lines] == wanted
            for line in lines:
                n, *values = line.split(",")
                dist = series[int(n) - 1]
                assert [float(v) for v in values[:4]] == [getattr(dist, key) for key in keys]

    def test_dp_float_is_transform_at_every_n(self, capsys):
        from coinduel.cli import dispatch
        from coinduel.exact import transform_distribution

        for n in (1, 2, 3, 100, 4096, 4097):
            for p in ("0.5", "0.6", "1/3"):
                assert dispatch(["dp", "--n", str(n), "--mode", "float", "--p", p]) == 0
                doc = json.loads(capsys.readouterr().out)
                dist = transform_distribution(n, Fraction(p))
                assert doc["method"] == "fft-float", (n, p)
                assert [doc[key] for key in ("n", "p", "pA", "pB", "pTie", "rounding_bound")] == [
                    n,
                    float(Fraction(p)),
                    dist.pA,
                    dist.pB,
                    dist.pTie,
                    dist.rounding_bound,
                ], (n, p)

    def test_dp_float_never_runs_the_float_dp(self, monkeypatch, capsys):
        # cli reads exact's names when a handler runs, so patching exact is enough
        from coinduel import cli, exact

        def refuse(*args):
            raise AssertionError("dp --mode float ran the float DP")

        monkeypatch.setattr(exact, "_dp_float_bands", refuse)
        for n in (1, 100, 4096):
            assert cli.dispatch(["dp", "--n", str(n), "--mode", "float"]) == 0
            assert json.loads(capsys.readouterr().out)["method"] == "fft-float"

    def test_walk_report_fields(self):
        doc = json.loads(golden("walk_s1000_seed3.json"))
        assert doc["steps"] == 1000 and doc["seed"] == 3
        assert doc["zero_hits"] >= 1


def readme_examples():
    """(command, shown output) for each `$ coinduel ...` line of README.md
    that has an output line under it."""
    lines = README.read_text().splitlines()
    return [
        (line.removeprefix("$ coinduel "), shown)
        for line, shown in zip(lines, lines[1:])
        if line.startswith("$ coinduel ") and shown and not shown.startswith(("$", "```"))
    ]


README_EXAMPLES = readme_examples()


def readme_synopses() -> dict[str, set[str]]:
    """{subcommand: its --flags} from each entry under README.md's
    `### Subcommands`."""
    section = README.read_text().split("### Subcommands", 1)[1].split("\n## ", 1)[0]
    entries = re.findall(r"^- `([a-z]+)([^`]*)`", section, flags=re.MULTILINE)
    return {name: set(re.findall(r"--[a-z][a-z-]*", synopsis)) for name, synopsis in entries}


class TestReadme:
    def test_examples_are_found(self):
        assert len(README_EXAMPLES) >= 5

    def test_subcommand_synopses_match_parser(self):
        from coinduel.cli import _build_parser

        (subcommands,) = [
            action for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        flags = {
            name: {
                option
                for action in parser._actions
                for option in action.option_strings
                if option.startswith("--") and option != "--help"
            }
            for name, parser in subcommands.choices.items()
        }
        assert readme_synopses() == flags

    @pytest.mark.parametrize("command,shown", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
    def test_example_output_is_current(self, command, shown, capsys):
        from coinduel.cli import dispatch

        assert dispatch(shlex.split(command)) == 0
        out = capsys.readouterr().out
        # the README elides the rest of a long line with "..."
        head, elided, _ = shown.partition("...")
        if elided:
            assert out.startswith(head)
        else:
            assert out == shown + "\n"


class TestParser:
    def test_built_once(self):
        from coinduel.cli import _build_parser

        assert _build_parser() is _build_parser()

    def test_usage_error_leaves_it_reusable(self, capsys):
        from coinduel.cli import dispatch

        assert dispatch(["dp"]) == 2
        capsys.readouterr()
        assert dispatch(["dp", "--n", "4"]) == 0
        assert capsys.readouterr().out == golden("dp_n4.json")


class TestDeterminism:
    def test_mc_repeats_byte_identical(self):
        args = ("mc", "--n", "40", "--trials", "5000", "--seed", "123")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_table_repeats_byte_identical(self):
        args = ("table", "--n-from", "5", "--n-to", "25", "--step", "5", "--format", "csv")
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestExitCodes:
    def test_domain_error_is_one(self):
        # --p 1e400 overflows a float once read as a Fraction
        mc_overflow = ("mc", "--n", "3", "--trials", "9", "--seed", "1", "--p", "1e400")
        for args in (("dp", "--n", "0"), mc_overflow):
            proc = run_cli(*args, check=False)
            assert proc.returncode == 1
            assert proc.stderr.startswith("error:")

    def test_parse_error_names_position(self):
        proc = run_cli("decompose", "HXT", check=False)
        assert proc.returncode == 1
        assert "position 2" in proc.stderr

    def test_usage_error_is_two(self):
        assert run_cli("frobnicate", check=False).returncode == 2
        assert run_cli("dp", check=False).returncode == 2
        mc = ("mc", "--n", "3", "--trials", "10", "--seed", "1")
        assert run_cli(*mc, "--batch-size", "10", check=False).returncode == 2

    def test_diff_below_one_is_one(self):
        proc = run_cli("diff", "--n", "0", "--method", "renewal", check=False)
        assert proc.returncode == 1
        assert proc.stderr == "error: n must be >= 1\n"

    def test_enum_cap_is_one(self):
        assert run_cli("exact", "--n", "31", check=False).returncode == 1

    def test_transform_cap_is_one(self, monkeypatch, capsys):
        # with numpy out of reach, an array built before the check would
        # raise AttributeError rather than return 1
        from coinduel import exact
        from coinduel.cli import dispatch

        monkeypatch.setattr(exact, "np", None)
        n = exact.TRANSFORM_MAX_N + 1
        assert dispatch(["dp", "--n", str(n), "--mode", "float"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(exact.TRANSFORM_MAX_N) in err

    @pytest.mark.parametrize(
        "args",
        [
            ["mc", "--n", "10", "--trials", "5", "--seed", "-1"],
            ["walk", "--steps", "10", "--seed", "-1"],
        ],
    )
    def test_negative_seed_is_one(self, args):
        proc = run_cli(*args, check=False)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: seed must be >= 0, got -1\n"

    def test_dp_bit_budget_is_one(self, capsys):
        # 4096 steps at a 997-bit denominator would run for hours: refused
        # before the first step
        from coinduel.cli import dispatch

        t0 = time.perf_counter()
        assert dispatch(["dp", "--n", "4096", "--p", "1e-300"]) == 1
        assert time.perf_counter() - t0 < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: the exact DP needs n * (bits of p's denominator) <= 32768, "
            "got n = 4096 and 997 bits, 4083712\n"
        )

    def test_transform_tiny_p_is_one(self):
        proc = run_cli("dp", "--n", "100", "--mode", "float", "--p", "1e-300", check=False)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: the transform needs p >= 1e-150, got p = 1e-300\n"

    @pytest.mark.parametrize(
        "args,message",
        [
            # p is inside (0, 1) in each, but its float rounds to 0 or 1
            (["dp", "--n", "100", "--mode", "float", "--p", "1e-400"], "nearest float is 0.0"),
            (
                ["dp", "--n", "100", "--mode", "float", "--p", "0.99999999999999999999"],
                "nearest float is 1.0",
            ),
            (
                ["mc", "--n", "10", "--trials", "5", "--seed", "1", "--p", "1e-400"],
                "nearest float is 0.0",
            ),
        ],
    )
    def test_p_whose_float_is_not_a_probability_is_one(self, args, message, capsys):
        from coinduel.cli import dispatch

        assert dispatch(args) == 1
        assert capsys.readouterr() == ("", f"error: p is inside (0, 1), but its {message}\n")

    def test_exact_dp_cap_is_one(self, capsys):
        from coinduel.cli import dispatch

        assert dispatch(["diff", "--method", "dp", "--n", "5000"]) == 1
        assert capsys.readouterr() == ("", "error: the exact DP is capped at n = 4096\n")

    def test_table_cap_is_one(self, capsys):
        from coinduel.cli import dispatch
        from coinduel.exact import DP_FLOAT_MAX_N

        n = DP_FLOAT_MAX_N + 1
        assert dispatch(["table", "--n-from", str(n), "--n-to", str(n)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(DP_FLOAT_MAX_N) in err and "2 s" in err


# these pass details hold only integers and text, fixed by seeded raw PCG64
# words or by exact arithmetic, or, for the pi check, floats of a recurrence
# in plain IEEE doubles at fixed formatting, so they read the same on every
# platform and numpy version: a change to a check's draws or bounds shows here
PINNED_DETAILS = {
    "core.runs-formula-matches-score-series": (
        "231070 sequences (exhaustive to length 16 plus 10^5 random)"
    ),
    "core.reversal-pattern-law": "18190 sequences (exhaustive to length 12 plus 10^4 random)",
    "core.reversal-preserves-score-between-heads": "32768 H..H sequences, exhaustive to length 16",
    "core.score-additivity-at-shared-flip": "10000 random splits of random sequences",
    "excursions.reversal-bijection-b-to-ahat": (
        "B_k <-> Ahat_k match for k <= 14 (142 excursions per side)"
    ),
    "excursions.position-classifier-matches-score-sign": (
        "classifier matches sign(S_n) on all 131070 sequences, n <= 16"
    ),
    "excursions.tie-probability-matches-zero-classes": (
        "P(S_n=0) equals the mass of the two zero classes, n <= 12"
    ),
    "excursions.decomposition-round-trip": (
        "every parse checked against its own score levels: exhaustive to length 16 "
        "plus 100000 random length-1000 sequences"
    ),
    "excursions.window-interior-score-signs": (
        "window levels and interior signs hold in 1501 windows: 250 seeded length-2000 "
        "sequences at each head probability 0.2 and 0.8 (288 of them spanning 256 levels "
        "or more) and every sequence to length 8"
    ),
    "excursions.parser-paths-agree": (
        "decompose equals the flip-by-flip reference, exhaustive to length 12 "
        "plus 2000 random sequences"
    ),
    "exact.dp-matches-enumeration": "DP equals enumeration for n <= 20, p in {1/2, 1/3, 2/3}",
    "exact.strict-ordering-from-n-3": "pB > pA exactly, for all 3 <= n <= 2000",
    "exact.equality-at-n-1-2": "pA = pB at n in {1, 2}",
    "renewal.bridge-identity-convolution-vs-dp": (
        "recurrence law equals DP law exactly for n <= 2000; "
        "renewal convolution equals DP difference, 3 <= n <= 200"
    ),
    "renewal.count-closed-form-vs-brute-force": (
        "recurrence count matches exhaustive scans for m <= 24 "
        "and the binomial closed form for m <= 300"
    ),
    "renewal.pi-sqrt-m-approaches-c": (
        "pi_m sqrt(m)/c deviation falls 5.6e-03 -> 5.6e-06 over m = 10^2..10^5"
    ),
    "renewal.asymptotic-report-identities": (
        "scaling identities hold (deficit sum within one ulp of tie)"
    ),
}


class TestExactOutputLength:
    """An exact answer is written whole, however many digits it has; Python
    limits the digits of an int read or written as text to 4300."""

    @pytest.mark.parametrize(
        "args,field,expected",
        [
            # p's denominator is 10^150, and the law's is its 30th power
            (["dp", "--n", "30", "--p", "1e-150"], "pA",
             lambda: dp_distribution(30, Fraction("1e-150")).pA),
            (["diff", "--n", "14400"], "diff", lambda: renewal_diff(14400)),
        ],
    )
    def test_answer_of_any_length(self, args, field, expected, capsys):
        from coinduel.cli import dispatch

        limit = sys.get_int_max_str_digits()
        assert dispatch(args) == 0
        assert sys.get_int_max_str_digits() == limit
        out = capsys.readouterr().out
        # reading the answer back needs the limit lifted too
        sys.set_int_max_str_digits(0)
        try:
            value = Fraction(json.loads(out)[field])
            assert len(str(value.denominator)) > limit
            assert value == expected()
        finally:
            sys.set_int_max_str_digits(limit)

    def test_csv_answer_of_any_length(self, capsys):
        from coinduel.cli import dispatch

        limit = sys.get_int_max_str_digits()
        args = ["renewal", "--m-from", "14400", "--m-to", "14400", "--format", "csv"]
        assert dispatch(args) == 0
        assert sys.get_int_max_str_digits() == limit
        header, row = capsys.readouterr().out.splitlines()
        assert header == "m,count_rx,pi_exact,pi_float"
        sys.set_int_max_str_digits(0)
        try:
            m, count, pi_exact, _ = row.split(",")
            assert (int(m), int(count), Fraction(pi_exact)) == (14400, count_rx(14400), pi(14400))
            assert len(count) > limit
        finally:
            sys.set_int_max_str_digits(limit)

    def test_p_keeps_the_limit(self, capsys):
        from coinduel.cli import dispatch

        limit = sys.get_int_max_str_digits()
        assert dispatch(["dp", "--n", "3", "--p", "1" + "0" * 5000]) == 1
        assert sys.get_int_max_str_digits() == limit
        out, err = capsys.readouterr()
        assert out == "" and "4300" in err


class TestVerifySubcommand:
    def test_all_invariants_pass(self):
        # pyproject's RuntimeWarning filter stops at this process, so the
        # subprocess gets its own
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "coinduel", "verify"],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        lines = proc.stdout.strip().splitlines()
        assert all(line.startswith("PASS ") for line in lines[:-1])
        checks = len(lines) - 1
        assert lines[-1] == f"{checks}/{checks} invariants hold"
        assert checks >= 20
        details = dict(
            re.fullmatch(r"PASS (\S+): (.*) \[\d+\.\d\d s\]", line).groups()
            for line in lines[:-1]
        )
        assert {name: details[name] for name in PINNED_DETAILS} == PINNED_DETAILS

    def test_json_reports_each_check_then_a_summary(self, monkeypatch, capsys):
        from coinduel import cli, verify

        def raises():
            raise RuntimeError("boom")

        stubs = [("stub.holds", lambda: (True, "holds")), ("stub.raises", raises)]
        monkeypatch.setattr(verify, "CHECKS", stubs)
        # a clock that moves 0.5 s between reads: every check takes 0.5 s
        monkeypatch.setattr(verify, "perf_counter", iter([0.0, 0.5, 1.0, 1.5]).__next__)
        assert cli.dispatch(["verify", "--json"]) == 1
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert lines == [
            {"name": "stub.holds", "ok": True, "detail": "holds", "seconds": 0.5},
            {"name": "stub.raises", "ok": False, "detail": "raised RuntimeError: boom", "seconds": 0.5},
            {"passed": 1, "total": 2, "seconds": 1.0},
        ]


class TestImport:
    def test_exact_routes_leave_numpy_unloaded(self):
        # dp --mode exact, diff by dp or renewal, renewal, asym and table up
        # to n = 4096 are integer and rational arithmetic: neither they nor
        # the imports before them load numpy, or exact
        commands = [
            ["dp", "--n", "200"],
            ["diff", "--n", "200", "--method", "dp"],
            ["diff", "--n", "200"],
            ["asym", "--n", "100"],
            ["renewal", "--m-to", "50"],
            ["table", "--n-from", "10", "--n-to", "100", "--step", "10"],
        ]
        code = (
            "import contextlib, io, json, sys\n"
            "def loaded():\n"
            "    return [m for m in ('numpy', 'coinduel.exact') if m in sys.modules]\n"
            "import coinduel\n"
            "print(json.dumps(['import coinduel', loaded()]))\n"
            "from coinduel.cli import dispatch\n"
            "print(json.dumps(['import coinduel.cli', loaded()]))\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert dispatch(argv) == 0, argv\n"
            "    print(json.dumps([' '.join(argv), loaded()]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        steps = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [step for step, _ in steps] == [
            "import coinduel",
            "import coinduel.cli",
            *(" ".join(argv) for argv in commands),
        ]
        assert {step: modules for step, modules in steps if modules} == {}
