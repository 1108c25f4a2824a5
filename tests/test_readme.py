"""The README's CLI examples and "Library use" section run, the section
names only what exists, the kernel-call counts it states are counted, and
its sweepable parameters are the schema's (``test_scenario_io`` pins its
configuration table)."""
import importlib
import json
import pkgutil
import re
import shlex
from pathlib import Path

import wiretap_space
from wiretap_space import secrecy
from wiretap_space.cli import EXIT_OK, main
from wiretap_space.config import SweepAxis, config_from_dict
from wiretap_space.numerics import GRID_POINTS, SCAN_BLOCK_CELLS
from wiretap_space.scenario_io import CAPACITY_SWEEP_OUTPUTS, CAPACITY_SWEEP_PARAMS, EXCLUSION_SWEEP_PARAMS, sweep

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(heading: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(heading)
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def _cli_examples() -> list[list[str]]:
    """The argv of each ``wiretap-space`` line of the README's CLI block."""
    (block,) = re.findall(r"```sh\n(.*?)```", _section("## CLI"), flags=re.S)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "wiretap-space", line
        commands.append(argv[1:])
    return commands


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "day.json").write_text(json.dumps({"detector": {"stray_mean": 0.01}}))
    commands = _cli_examples()
    assert len(commands) == 11
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
        capsys.readouterr()


def test_library_use_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", _section("## Library use"), flags=re.S)
    exec(compile(block, "README.md", "exec"), {})


def test_library_use_names_resolve():
    modules = [
        importlib.import_module(f"wiretap_space.{info.name}")
        for info in pkgutil.iter_modules(wiretap_space.__path__)
    ]
    prose = re.sub(r"```.*?```", "", _section("## Library use"), flags=re.S)
    names = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", prose))
    assert names
    unresolved = [
        name
        for name in sorted(names)
        if name not in CAPACITY_SWEEP_OUTPUTS and not any(hasattr(m, name) for m in modules)
    ]
    assert unresolved == []


def test_stated_kernel_calls_are_counted(channel_calls):
    text = " ".join(README.read_text(encoding="utf-8").split())
    stated_sweep = int(re.search(r"A 32×16 grid takes (\d+) kernel calls", text).group(1))
    stated_photons = int(re.search(r"winning photon number: (\d+) kernel calls", text).group(1))
    first_scan = re.search(
        r"first (\d+) calls the interceptor's terms are taken on (\d+) × 32 points of each (\d+)-cell block "
        r"and the receiver's on (\d+) × 64", text).groups()
    scan_calls, interceptor, block, receiver = map(int, first_scan)
    degradation_scan = re.search(
        r"`received_mean_photons` × `gamma` grid's first (\d+) calls the receiver's terms are taken on "
        r"(\d+) × 64 points of each block and the interceptor's on (\d+) × 32", text).groups()
    config = config_from_dict({})
    for inner, (calls, receiver, interceptor) in (
        (SweepAxis("stray_mean", 1e-7, 1e-2, 16, "log"), (scan_calls, receiver, interceptor)),
        (SweepAxis("gamma", 0.02, 0.5, 16), map(int, degradation_scan)),
    ):
        channel_calls["receiver"].clear()
        channel_calls["interceptor"].clear()
        sweep(config, [SweepAxis("received_mean_photons", 0.1, 20.0, 32, "log"), inner])
        # One call of each channel per kernel call.
        assert len(channel_calls["receiver"]) == len(channel_calls["interceptor"]) == stated_sweep
        assert block == SCAN_BLOCK_CELLS and calls == 512 // block
        assert channel_calls["receiver"][:calls] == [receiver * GRID_POINTS] * calls
        # Hers on the lower half of the first scan's priors, mirrored onto the upper half.
        assert channel_calls["interceptor"][:calls] == [interceptor * GRID_POINTS // 2] * calls
    channel_calls["receiver"].clear()
    secrecy.optimal_signal_strength(config.detector, 0.1)
    assert len(channel_calls["receiver"]) == stated_photons


def test_a_sweep_along_a_point_field_has_two_shapes(capsys):
    # The README's output conventions: the axis name twice in the CSV header,
    # once in each JSON row, and the two values equal.
    text = " ".join(_section("## Output conventions").split())
    assert ("A sweep along `gamma`, `received_mean_photons` or `q` prints that name twice in the CSV header"
            in text)
    argv = ["sweep", "--axis", "gamma:0:0.5:2"]
    assert main(argv) == EXIT_OK
    header, *lines = capsys.readouterr().out.split("\r\n")[:-1]
    assert header.split(",") == ["gamma", *CAPACITY_SWEEP_OUTPUTS]
    assert CAPACITY_SWEEP_OUTPUTS[0] == "gamma"
    assert [line.split(",")[0] for line in lines] == [line.split(",")[1] for line in lines] == ["0", "0.5"]
    assert main([*argv, "--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert [list(row) for row in rows] == [list(CAPACITY_SWEEP_OUTPUTS)] * 2
    assert [row["gamma"] for row in rows] == [0.0, 0.5]


def test_sweepable_parameters_are_the_schema():
    text = " ".join(_section("## Configuration schema").split())
    sentence = re.search(r"Sweepable parameters: (.*?) \(capacity sweeps\); (.*?) \(exclusion sweeps", text)
    capacity, exclusion = sentence.groups()
    assert re.findall(r"`(\w+)`", capacity) == list(CAPACITY_SWEEP_PARAMS)
    assert re.findall(r"`(\w+)`", exclusion) == list(EXCLUSION_SWEEP_PARAMS)
