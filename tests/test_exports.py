"""Every exported name resolves, so a stale export fails here, not on ``import *``."""
import importlib
import pkgutil

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
