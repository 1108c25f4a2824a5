"""No module of the package is large enough that compiling it sets a process's memory peak."""
import ast
from pathlib import Path

import pytest

import wiretap_space

# FOUND 105 in CHANGES.md: a process that imports the package without cached bytecode
# (PYTHONDONTWRITEBYTECODE=1, as the benchmark runs) compiles each module it loads, and
# compiling scenario_io at 4,655 syntax-tree nodes (1.85 MB traced on Python 3.11) set the
# peak RSS of three of the four benchmark workloads; the kernel modules peak at 1 MB or
# less.  compile()'s peak follows the node count (4,655 nodes: 1.85 MB, 2,582: 0.95 MB,
# 1,230: 0.51 MB on 3.11), which, unlike the peak, is the same on every supported Python.
MAX_MODULE_NODES = 3_000
PATHS = sorted(Path(wiretap_space.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", PATHS, ids=[path.stem for path in PATHS])
def test_module_syntax_tree_is_small(path):
    nodes = sum(1 for _ in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    assert nodes <= MAX_MODULE_NODES, f"{path.name} has {nodes} syntax-tree nodes"
