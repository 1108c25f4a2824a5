"""The benchmark tracer wraps package functions by name; each must exist."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()
WRAPPED = [
    (module, attr)
    for table in (TRACER.SPANNED, TRACER.COUNT_ONLY)
    for module, attrs in table.items()
    for attr in attrs
]


@pytest.mark.parametrize("module,attr", WRAPPED, ids=[f"{m}.{a}" for m, a in WRAPPED])
def test_wrapped_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"wiretap_space.{module}"), attr))

