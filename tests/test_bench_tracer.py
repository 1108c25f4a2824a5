"""The benchmark reads package names and its tracer wraps package functions by name;
each must exist."""
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from wiretap_space import scenario_io

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER_PATH = BENCH / "tracer.py"


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


def test_scenario_io_names_the_bench_reads_resolve():
    # The workloads take the module as ``sio`` (``sio = m.scenario_io``); a comment may name one too.
    read = {name for path in (BENCH / "run.py", BENCH / "workloads.py")
            for name in re.findall(r"\b(?:sio|scenario_io)\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8"))}
    assert read >= {"config_from_dict", "SweepAxis", "preset_config", "resolved_gamma", "sweep", "write_csv",
                    "emit_table1", "CAPACITY_SWEEP_OUTPUTS"}
    assert sorted(name for name in read if not hasattr(scenario_io, name)) == []
