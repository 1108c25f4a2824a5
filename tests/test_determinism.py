"""CLI output does not depend on numpy's SIMD dispatch.

Each command runs in two child processes: one with every dispatch target
the host offers, one with ``NPY_DISABLE_CPU_FEATURES`` naming those above
the build's baseline, so numpy runs its baseline kernels.  Both must print
the same bytes.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wiretap_space

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # a numpy without the runtime dispatch tables
    __cpu_dispatch__, __cpu_features__ = [], {}

# Dispatch targets this host runs above the baseline.
HOST_TARGETS = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]

COMMANDS = [
    ["sweep", "--axis", "received_mean_photons:0.1:20:32:log", "--axis", "stray_mean:1e-7:1e-2:16:log"],
    ["table1"],
    ["capacity", "--optimize-photons", "--gamma", "0.1"],
    ["linkbudget"],
    ["orbit"],
    ["orbit", "--format", "json", "--solve-gamma", "0.1"],
    ["sweep", "--axis", "received_mean_photons:0.001:100:24:log", "--axis", "exclusion_radius_m:11:30:12"],
    # q-optimised near-noiseless cells, where the q-search's parabolic step
    # takes its vertex from differences of nearly equal values.
    ["sweep", "--axis", "received_mean_photons:0.001:100:24:log", "--axis", "gamma:0:0.6:13"],
]


def _stdout(argv: list[str], disabled: list[str]) -> str:
    src = str(Path(wiretap_space.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    result = subprocess.run([sys.executable, "-m", "wiretap_space.cli", *argv],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.skipif(not HOST_TARGETS, reason="numpy dispatches to no target above its baseline on this host")
@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv))
def test_stdout_is_the_same_without_simd_dispatch(argv):
    assert _stdout(argv, []) == _stdout(argv, HOST_TARGETS)
