"""End-to-end checks of the command line, run through subprocess (and a
few through `cli.dispatch` in-process, where start-up would dominate).

Golden files under tests/goldens/ were produced by the CLI itself and then
frozen after the values were verified against the library oracles; the
byte-equality tests pin both the numbers and the serialization format.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

GOLDENS = Path(__file__).parent / "goldens"


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
            # the largest n the float DP still answers
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
        for n_from, n_to, step in ((4097, 4097, 1), (4097, 4500, 101), (4100, 4100, 1)):
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

    def test_dp_float_above_exact_cap_is_transform(self, capsys):
        from coinduel.cli import dispatch
        from coinduel.exact import transform_distribution

        assert dispatch(["dp", "--n", "4097", "--mode", "float", "--p", "0.6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        dist = transform_distribution(4097, 0.6)
        assert doc["method"] == "fft-float"
        assert [doc[key] for key in ("n", "p", "pA", "pB", "pTie", "rounding_bound")] == [
            4097,
            0.6,
            dist.pA,
            dist.pB,
            dist.pTie,
            dist.rounding_bound,
        ]

    def test_walk_report_fields(self):
        doc = json.loads(golden("walk_s1000_seed3.json"))
        assert doc["steps"] == 1000 and doc["seed"] == 3
        assert doc["zero_hits"] >= 1


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

    def test_diff_below_three_is_one(self):
        proc = run_cli("diff", "--n", "2", "--method", "renewal", check=False)
        assert proc.returncode == 1

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


class TestVerifySubcommand:
    def test_all_invariants_pass(self):
        proc = run_cli("verify")
        lines = proc.stdout.strip().splitlines()
        assert all(line.startswith("PASS ") for line in lines[:-1])
        checks = len(lines) - 1
        assert lines[-1] == f"{checks}/{checks} invariants hold"
        assert checks >= 20


class TestImport:
    def test_cli_import_leaves_scipy_unloaded(self):
        # scipy is not a dependency: float pi runs on the count_rx
        # recurrence, so neither the import nor the renewal paths load it
        code = (
            "import sys\n"
            "from coinduel.cli import dispatch\n"
            "print('scipy' in sys.modules)\n"
            "from coinduel.renewal import pi\n"
            "pi(10**4, mode='float')\n"
            "assert dispatch(['renewal', '--m-to', '50']) == 0\n"
            "print('scipy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("False", "False")
