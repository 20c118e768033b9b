import ast
from pathlib import Path

from coinduel import verify

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
