"""The declared runtime dependencies are exactly the third-party packages the
source imports, and the README names the same set; every Python file parses
as the declared oldest Python does, the CI workflow tests the declared
floors and each admitted Python, and the console script resolves to the CLI's
entry and runs in CI."""
import ast
import importlib.metadata
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wiretap_space"


def _project() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def _requirements() -> list[str]:
    return _project()["dependencies"]


def _declared() -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower() for requirement in _requirements()}


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


def test_numpy_floor_has_every_function_the_source_calls():
    """``orbitsim.integrated_gamma`` calls ``np.trapezoid``, which numpy has from 2.0 on."""
    (requirement,) = [r for r in _requirements() if r.startswith("numpy")]
    major, minor = re.fullmatch(r"numpy>=(\d+)\.(\d+)", requirement).groups()
    assert (int(major), int(minor)) >= (2, 0)


def test_every_file_parses_at_the_declared_python_floor():
    """Each file of ``src/``, ``tests/`` and ``bench/`` is valid syntax for the oldest
    Python that ``requires-python`` admits, checked here without that Python."""
    major, minor = map(int, re.fullmatch(r">=(\d+)\.(\d+)", _project()["requires-python"]).groups())
    paths = sorted(p for folder in ("src", "tests", "bench") for p in (ROOT / folder).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(major, minor))


def test_workflow_tests_the_declared_floors():
    """A job of the CI workflow runs the oldest Python ``requires-python`` admits with
    numpy pinned to the floor of its requirement."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    (python,) = re.fullmatch(r">=(\d+\.\d+)", _project()["requires-python"]).groups()
    (numpy,) = [re.fullmatch(r"numpy>=(\d+\.\d+)", r).group(1) for r in _requirements() if r.startswith("numpy")]
    assert f'python-version: "{python}"' in workflow
    assert f'pip install "numpy=={numpy}.*"' in workflow


def test_console_script_resolves_to_a_callable():
    """The ``wiretap-space`` script of ``[project.scripts]`` loads a callable, and both
    workflow jobs run it; every process test runs ``python -m wiretap_space.cli`` instead."""
    ((name, value),) = _project()["scripts"].items()
    assert name == "wiretap-space"
    assert callable(importlib.metadata.EntryPoint(name, value, "console_scripts").load())
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert workflow.count(f"run: {name} linkbudget\n") == 2


def test_tier1_matrix_runs_each_admitted_python():
    """The tier-1 job runs every minor Python from the ``requires-python`` floor on, with no
    gap, through 3.13 at least: the versions the project admits and that have been released."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    (matrix,) = re.findall(r"^ +python-version: \[(.*)\]$", workflow, flags=re.M)
    minors = [int(re.fullmatch(r'"3\.(\d+)"', v.strip()).group(1)) for v in matrix.split(",")]
    (floor,) = re.fullmatch(r">=3\.(\d+)", _project()["requires-python"]).groups()
    assert minors == list(range(int(floor), max(minors) + 1)) and max(minors) >= 13
