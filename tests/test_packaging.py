import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def imported_top_level_modules(package: Path) -> set[str]:
    """Top-level names of every absolute import in the package, including
    imports made inside functions."""
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


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
