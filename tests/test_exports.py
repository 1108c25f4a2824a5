"""Every exported name resolves, so a stale export fails here, not on ``import *``."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import wiretap_space

MODULES = sorted(info.name for info in pkgutil.iter_modules(wiretap_space.__path__))
LISTED = {
    name
    for module in MODULES
    for name in getattr(importlib.import_module(f"wiretap_space.{module}"), "__all__", ())
}


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"wiretap_space.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_package_exports_resolve_and_are_listed():
    names = getattr(wiretap_space, "__all__", None) or [
        name
        for name, value in vars(wiretap_space).items()
        if not name.startswith("_") and getattr(value, "__module__", "").startswith("wiretap_space.")
    ]
    assert names
    assert [name for name in names if not hasattr(wiretap_space, name)] == []
    # the package re-exports only names some module lists as public
    assert sorted(set(names) - LISTED) == []


def test_every_module_export_is_a_package_attribute():
    assert sorted(name for name in LISTED if not hasattr(wiretap_space, name)) == []


def test_cli_imports_only_public_names():
    # The CLI is a client of the library: every name it takes from a package
    # module is public.  Not every public name is in an ``__all__``
    # (``linkbudget.DEFAULT_GAMMA_TARGET``), so the test is the underscore.
    tree = ast.parse(Path(wiretap_space.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or node.module.startswith("wiretap_space"))
        for alias in node.names
    ]
    assert imported
    assert [(module, name) for module, name in imported if name.startswith("_")] == []
