import ast
from pathlib import Path

from coinduel import verify
from coinduel.cli import dispatch

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
    assert dispatch(["verify"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS stub.holds: holds",
        "FAIL stub.fails: off by one",
        "FAIL stub.raises: raised RuntimeError: boom",
        "1/3 invariants hold",
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
