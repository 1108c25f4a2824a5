"""Every exported name resolves, so a stale export fails here, not on ``import *``."""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_each_export_is_listed_by_one_module():
    owners = {}
    for module in MODULES:
        for name in getattr(importlib.import_module(f"wiretap_space.{module}"), "__all__", ()):
            owners.setdefault(name, []).append(module)
    assert {name: where for name, where in owners.items() if len(where) > 1} == {}


def test_every_module_export_is_a_package_attribute():
    assert sorted(name for name in LISTED if not hasattr(wiretap_space, name)) == []


def test_dir_and_star_import_give_exactly_the_modules_all():
    namespace = {}
    exec("from wiretap_space import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(LISTED)
    assert dir(wiretap_space) == sorted(LISTED)


def test_an_export_resolves_on_first_access():
    # The package loads its modules only when an export is asked for.
    probe = ("import sys, wiretap_space\n"
             "print('wiretap_space.secrecy' in sys.modules, wiretap_space.secrecy_points.__module__)")
    src = str(Path(wiretap_space.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["False", "wiretap_space.secrecy"]


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


def test_every_public_dataclass_has_its_own_docstring():
    # Without one, ``dataclasses`` derives ``__doc__`` from the signature
    # (``inspect.signature``) each time its module is imported.
    missing = []
    for path in sorted(Path(wiretap_space.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            decorators = [d.func if isinstance(d, ast.Call) else d for d in getattr(node, "decorator_list", ())]
            if (isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                    and any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)
                    and ast.get_docstring(node) is None):
                missing.append(f"{path.stem}.{node.name}")
    assert missing == []
