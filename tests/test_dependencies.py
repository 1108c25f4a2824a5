"""The declared runtime dependencies are exactly the third-party packages the
source imports, and the README names the same set."""
import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wiretap_space"


def _declared() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower() for requirement in requirements}


def _imported() -> set[str]:
    """Top-level names of the absolute imports anywhere in the package's
    modules, function-level ones included, less the standard library and
    the package itself."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", PACKAGE.name}


def test_declared_dependencies_are_the_imported_ones():
    assert _imported() == _declared() == {"numpy"}


def test_readme_names_the_declared_dependencies():
    (line,) = re.findall(r"^Runtime dependencies: (.*?)\.", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.M)
    assert set(re.findall(r"`([^`]+)`", line)) == _declared()
