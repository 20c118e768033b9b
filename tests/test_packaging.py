import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def imported_modules(path: Path) -> set[str]:
    """Every module a source file imports, including imports made inside
    functions; a relative import keeps its leading dots, as in ".core"."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


def imported_top_level_modules(package: Path) -> set[str]:
    """Top-level names of every absolute import in the package."""
    return {
        name.split(".")[0]
        for path in package.rglob("*.py")
        for name in imported_modules(path)
        if not name.startswith(".")
    }


def test_dependencies_match_third_party_imports():
    # a dependency line nothing imports, or an import with no line, fails here
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]}
    third_party = {
        name
        for name in imported_top_level_modules(ROOT / "src" / "coinduel")
        if name not in sys.stdlib_module_names and name != "coinduel"
    }
    assert declared == third_party


def test_renewal_imports_only_the_standard_library():
    # the renewal counts and laws are exact integer and rational arithmetic:
    # no numpy, and no sibling module such as the simulator
    assert imported_modules(ROOT / "src" / "coinduel" / "renewal.py") == {
        "__future__",
        "dataclasses",
        "fractions",
        "functools",
        "itertools",
        "math",
        "typing",
    }


def test_rational_imports_only_the_standard_library():
    # the exact DP and the outcome records: the command line's exact routes
    # load them without numpy
    assert imported_modules(ROOT / "src" / "coinduel" / "rational.py") == {
        "__future__",
        "dataclasses",
        "fractions",
        "itertools",
        "operator",
        "typing",
    }


def test_cli_imports_no_numpy_module_at_module_level():
    # a handler that needs numpy imports its module when it runs; numpy itself
    # is never imported by name, not even inside a handler
    path = ROOT / "src" / "coinduel" / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    top = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            top.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            top.add("." * node.level + (node.module or ""))
    siblings = {name for name in top if name.startswith(".")}
    assert siblings == {".core", ".rational", ".renewal"}
    assert all(name in sys.stdlib_module_names for name in top - siblings)
    assert "numpy" not in {name.split(".")[0] for name in imported_modules(path)}


def test_every_export_resolves_to_its_module():
    import importlib

    import coinduel

    assert len(coinduel.__all__) == 56
    for name in coinduel.__all__:
        module = importlib.import_module(f"coinduel.{coinduel._EXPORTS[name]}")
        assert getattr(coinduel, name) is getattr(module, name), name
    star = {}
    exec("from coinduel import *", star)
    assert star.keys() - {"__builtins__"} == set(coinduel.__all__)
    assert set(coinduel.__all__) <= set(dir(coinduel))
    with pytest.raises(AttributeError):
        coinduel.no_such_name
    # a name outside the table falls through to the submodule
    from coinduel import verify

    assert verify is importlib.import_module("coinduel.verify")
