"""The README's "Library use" section runs and names only what exists."""
import importlib
import pkgutil
import re
from pathlib import Path

import wiretap_space
from wiretap_space.scenario_io import CAPACITY_SWEEP_OUTPUTS

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library use")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_library_use_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", _library_use(), flags=re.S)
    exec(compile(block, "README.md", "exec"), {})


def test_library_use_names_resolve():
    modules = [
        importlib.import_module(f"wiretap_space.{info.name}")
        for info in pkgutil.iter_modules(wiretap_space.__path__)
    ]
    prose = re.sub(r"```.*?```", "", _library_use(), flags=re.S)
    names = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", prose))
    assert names
    unresolved = [
        name
        for name in sorted(names)
        if name not in CAPACITY_SWEEP_OUTPUTS and not any(hasattr(m, name) for m in modules)
    ]
    assert unresolved == []
