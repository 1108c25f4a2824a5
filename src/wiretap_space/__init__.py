"""Secrecy rates, link budgets and orbital-pass analysis for OOK
coherent-state satellite downlinks.

The package exports exactly the names its modules list in ``__all__``, each
imported on first use (PEP 562): importing the package, or its numpy-free
modules ``linkbudget``, ``config``, ``scenario_io`` and ``cli``, loads no numpy.
"""
import importlib

__version__ = "0.1.0"

# The modules whose ``__all__`` the package exports, the numpy-free ones first.
_MODULES = ("linkbudget", "config", "scenario_io", "detection", "numerics", "orbitsim", "receiver", "secrecy")


def __getattr__(name: str):
    if name in (*_MODULES, "_common", "cli"):  # ``from wiretap_space import cli`` imports that module alone
        return importlib.import_module(f"{__name__}.{name}")
    modules = (importlib.import_module(f"{__name__}.{module}") for module in _MODULES)
    if name == "__all__":
        value = [export for module in modules for export in module.__all__]
    else:
        owner = None if name.startswith("__") else next((m for m in modules if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().get("__all__") or __getattr__("__all__"))
