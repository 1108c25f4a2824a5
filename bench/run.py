"""Benchmark of wiretap-space: one seeded workload per run.

Usage, from the repository root:

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
measures the per-layer metrics (see bench/NOTES.md).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with its
unit, the failure kinds and the provenance of the run.  The package is
imported from this repository's ``src/`` and nowhere else.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 1
SETUP_PROBES = 5  # fresh interpreters per run; setup_s is their median
# The reference loop of calibrate(): its length, and its time on a quiet host
# of the kind the benchmark was defined on.  Op times reported as end-to-end
# metrics are scaled to that host speed (see bench/NOTES.md).
CALIBRATION_STEPS = 30000
CALIBRATION_REFERENCE_S = 0.0055
SPEED_WINDOW = 5  # calibrations on each side of an op that set its host speed
IMPORT_PROBES = 3
THREADS_ENV_VAR = "WIRETAP_SPACE_THREADS"
MODULES = ("numerics", "receiver", "detection", "secrecy", "linkbudget", "orbitsim", "scenario_io", "cli")

sys.path.insert(0, str(BENCH_DIR))
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_package() -> SimpleNamespace:
    """Import wiretap_space from ``src/`` and refuse any other copy."""
    if not (SRC / "wiretap_space" / "__init__.py").is_file():
        raise BenchError(f"no wiretap_space package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module("wiretap_space")
        modules = {name: importlib.import_module(f"wiretap_space.{name}") for name in MODULES}
    except ImportError as exc:
        raise BenchError(f"cannot import wiretap_space: {exc}") from exc
    location = Path(package.__file__).resolve().parent
    if location != (SRC / "wiretap_space").resolve():
        raise BenchError(f"wiretap_space resolves to {location}, not to {SRC / 'wiretap_space'}")
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV_VAR}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return SimpleNamespace(package=package, modules=modules, child_env=env, root=str(ROOT), **modules)


def provenance(args, m: SimpleNamespace, threads_state: str) -> dict:
    # Git may not look above the repository root.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, env=git_env)
        toplevel = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10, env=git_env)
        is_repo = commit.returncode == 0 and Path(toplevel.stdout.strip()).resolve() == ROOT
        git_commit = commit.stdout.strip() if is_repo else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        git_commit = "unknown (git not available)"
    digest = hashlib.sha256()
    for path in sorted((SRC / "wiretap_space").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return {
        "git_commit": git_commit,
        "source_sha256": digest.hexdigest(),
        "package_path": str(Path(m.package.__file__).resolve().parent),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        THREADS_ENV_VAR: threads_state,
    }


# -- running ops ------------------------------------------------------------------

class Record:
    __slots__ = ("op", "out", "kind", "detail", "elapsed", "digest", "speed")

    def __init__(self, op, out, kind, detail, elapsed):
        self.op, self.out, self.kind, self.detail, self.elapsed = op, out, kind, detail, elapsed
        self.speed = 1.0  # host speed factor at the time of the op, see calibrate()
        payload = json.dumps({"kind": kind, "out": out}, sort_keys=True)
        self.digest = hashlib.sha256(payload.encode()).hexdigest()


def execute(workload, op, runner=None) -> Record:
    runner = runner or workload.run
    start = time.perf_counter()
    try:
        out, kind, detail = runner(op), None, ""
    except Exception as exc:  # a failed op is counted by kind, never fatal
        out, kind, detail = getattr(exc, "out", None), wl.classify(exc), repr(exc)[:300]
    return Record(op, out, kind, detail, time.perf_counter() - start)


def calibrate() -> float:
    """Seconds this host takes for a fixed pure-Python loop, now.

    The loop does the kind of work the package does (float arithmetic and
    ``math`` calls in the interpreter) and none of its code, so a change to
    the package cannot move it.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(1, CALIBRATION_STEPS):
        x = i * 1e-5
        acc += math.exp(-x) * math.sin(x) - math.log1p(x)
    return time.perf_counter() - start


def pin_to_current_cpu() -> None:
    """Keep this process and its children on the CPU it started on.

    The host slows each virtual CPU separately, so the calibration loop only
    measures the speed an op ran at when both ran on the same CPU.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass  # no affinity control here: ops may run on another CPU than the loop


def host_speed(calibrations: list[float]) -> float:
    """How much slower than the reference the host ran over some calibrations."""
    return statistics.median(calibrations) / CALIBRATION_REFERENCE_S


def measure(workload, seconds: float) -> tuple[list[Record], float]:
    """Closed loop, one client: run the ops of ``workload.cycles(seconds)`` cycles.

    The op count depends on the arguments only, never on the host's speed,
    so two runs of the same seed attempt the same ops and fail the same ones.
    A calibration loop runs between ops.  Each op gets the host speed of the
    SPEED_WINDOW calibrations on either side of it: one loop is too short to
    time the host's speed without noise, and the drift it corrects lasts far
    longer than a window.
    """
    records: list[Record] = []
    start = time.perf_counter()
    calibrations = [calibrate()]
    for _ in range(workload.cycles(seconds)):
        for op in workload.cycle():
            records.append(execute(workload, op))
            calibrations.append(calibrate())
    wall = time.perf_counter() - start
    for i, rec in enumerate(records):  # op i ran between calibrations i and i + 1
        rec.speed = host_speed(calibrations[max(0, i + 1 - SPEED_WINDOW):i + 1 + SPEED_WINDOW])
    return records, wall


def load_reference(workload, seed: int) -> list:
    if seed != DEFAULT_SEED:
        return []
    if not REFERENCE.is_file():
        raise BenchError(f"missing {REFERENCE}")
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh).get(workload.name, [])
    if len(reference) != workload.reference_ops:
        raise BenchError(f"{REFERENCE.name} holds {len(reference)} ops of {workload.name}, "
                         f"expected {workload.reference_ops}")
    return reference


def check_records(workload, records: list[Record], reference: list) -> None:
    """Check every op; a failed check turns the op into a failure of kind "check".

    A known-defect failure counts as such only on an op the defect can hit
    and, on the default seed, only where the reference op failed too: an op
    may go from a known defect to completed, never the other way.
    """
    for i, rec in enumerate(records):
        ref = reference[i] if i < len(reference) else None
        try:
            if ref is not None and ref["op"] != json.loads(json.dumps(rec.op)):
                raise wl.CheckFailed("op differs from the reference op of the same index")
            if rec.kind in wl.KNOWN_DEFECTS:
                if not workload.defect_possible(rec.op, rec.kind):
                    raise wl.CheckFailed(f"{rec.kind} on an op it cannot hit: {rec.detail}")
                if ref is not None and ref["kind"] is None:
                    raise wl.CheckFailed(f"{rec.kind} on an op that completed in the reference: {rec.detail}")
            if rec.kind is not None:
                continue
            workload.check(rec.op, rec.out)
            if ref is not None and ref["kind"] is None:
                workload.compare(rec.op, rec.out, ref["out"])
        except wl.CheckFailed as exc:
            rec.kind, rec.detail = "check", str(exc)[:300]


def replay_in_process(workload, records: list[Record]) -> tuple[list[Record], float]:
    start = time.perf_counter()
    replayed = [execute(workload, rec.op, workload.run_in_process) for rec in records]
    return replayed, time.perf_counter() - start


def compare_cli_replay(records: list[Record], replayed: list[Record]) -> None:
    """A CLI process must print what cli.main prints in this process."""
    for rec, again in zip(records, replayed):
        if rec.kind in (None, *wl.KNOWN_DEFECTS) and rec.digest != again.digest:
            rec.kind, rec.detail = "check", f"process output differs from in-process cli.main: {rec.op}"


# -- metrics ----------------------------------------------------------------------

def nearest_rank(sorted_values: list[float], p: float) -> float:
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def unit_latency(workload, records: list[Record], scaled: bool = True):
    """Sorted op times per work unit of completed unit ops, and work units per second.

    ``scaled`` divides each op time by the host speed measured around it.
    """
    unit_ops = [r for r in records if r.kind is None and workload.is_unit_op(r.op)]
    if not unit_ops:
        raise BenchError("no op completed")
    times = [r.elapsed / (r.speed if scaled else 1.0) for r in unit_ops]
    per_unit = sorted(t / workload.work(r.op) for t, r in zip(times, unit_ops))
    rate = sum(workload.work(r.op) for r in unit_ops) / sum(times)
    return per_unit, rate


def failure_counts(records: list[Record]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for rec in records:
        if rec.kind is not None:
            counts[rec.kind] = counts.get(rec.kind, 0) + 1
    return dict(sorted(counts.items()))


def is_correct(records: list[Record]) -> bool:
    return all(rec.kind is None or rec.kind in wl.KNOWN_DEFECTS for rec in records)


def warm_up(workload) -> None:
    """Run the workload's warm-up op; set-up fails if it does not complete."""
    try:
        workload.run(workload.warmup_op())
    except Exception as exc:
        raise BenchError(f"warm-up op failed: {exc!r}") from exc


def setup_times(workload_name: str, seed: int, env: dict) -> list[float]:
    """Seconds of each probe: fresh interpreter -> imports -> seeded inputs ->
    one warm-up op.  Not scaled by host speed (see bench/NOTES.md)."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(elapsed)
    return times


def import_times(env: dict) -> tuple[float, float]:
    """Cumulative import time of wiretap_space(.cli) and of scipy, median of probes."""
    totals, scipy_totals = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import wiretap_space.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        entries = []
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if match:
                entries.append((len(match.group(3)), match.group(4), int(match.group(2)) / 1e6))
        # Entries come in post-order; reversed, each entry follows its parent.
        total = scipy_total = 0.0
        stack: list[tuple[int, str]] = []
        for depth, name, cumulative in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            if name.startswith("wiretap_space") and not any(n.startswith("wiretap_space") for _, n in stack):
                total += cumulative
            if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy" for _, n in stack):
                scipy_total += cumulative
            stack.append((depth, name))
        totals.append(total)
        scipy_totals.append(scipy_total)
    return statistics.median(totals), statistics.median(scipy_totals)


def baseline_rows(workload_name: str, m: SimpleNamespace) -> dict[str, float]:
    """The fixed cases of the baseline table in ROADMAP.md that this workload's layers run."""
    rows: dict[str, float] = {}
    sio, secrecy, orbitsim = m.scenario_io, m.secrecy, m.orbitsim

    def clock(fn, *args, repeat=1):
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    config = sio.preset_config("micius-leo")
    if workload_name == "sweep-grid":
        gamma = sio.resolved_gamma(config)
        rows["baseline.private_capacity_s"] = clock(
            secrecy.private_capacity, config.detector, config.operating.received_mean_photons, gamma, repeat=21)
        rows["baseline.sweep_64_s"] = clock(
            sio.sweep, config, [sio.SweepAxis("received_mean_photons", 0.01, 20.0, 64, "log")])
        rows["baseline.sweep_32x16_s"] = clock(
            sio.sweep, config, [sio.SweepAxis("received_mean_photons", 0.1, 20.0, 32, "log"),
                                sio.SweepAxis("stray_mean", 1e-7, 1e-2, 16, "log")])
    elif workload_name == "design-search":
        rows["baseline.optimal_signal_strength_s"] = clock(secrecy.optimal_signal_strength, config.detector, 0.1)
        rows["baseline.emit_table1_s"] = clock(sio.emit_table1)
    elif workload_name == "orbit-solve":
        rows["baseline.integrated_gamma_s"] = clock(orbitsim.integrated_gamma, config.orbit)
        rows["baseline.required_orbital_exclusion_s"] = clock(orbitsim.required_orbital_exclusion, config.orbit)
    return rows


BASELINE_ROWS = ("baseline.private_capacity_s", "baseline.sweep_64_s", "baseline.sweep_32x16_s",
                 "baseline.optimal_signal_strength_s", "baseline.emit_table1_s",
                 "baseline.integrated_gamma_s", "baseline.required_orbital_exclusion_s")

# Workload-specific names of the end-to-end metrics, printed on report lines.
WORKLOAD_METRIC_NAMES = {
    "sweep-grid": {"units_per_s": ("sweep_cells_per_s", "cells/s")},
    "design-search": {"unit_p50_s": ("design_p50_s", "s"), "unit_tail_s": ("design_tail_s", "s")},
    "orbit-solve": {"unit_p50_s": ("orbit_pass_p50_s", "s"), "unit_tail_s": ("orbit_pass_tail_s", "s")},
    "cli-mix": {"unit_p50_s": ("cli_cmd_p50_s", "s"), "unit_tail_s": ("cli_cmd_tail_s", "s")},
}


# -- modes ------------------------------------------------------------------------

def run_untraced(args, workload, m) -> tuple[dict, list[Record], list[str]]:
    reference = load_reference(workload, args.seed)
    if args.workload != "cli-mix":
        warm_up(workload)
    records, wall = measure(workload, args.seconds)
    # Read before any other child runs: for cli-mix the peak over children
    # is then the peak over the measured commands.
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli-mix" else resource.RUSAGE_SELF)
    setups = setup_times(args.workload, args.seed, m.child_env)
    check_records(workload, records, reference)
    if args.workload == "cli-mix":
        replayed, _ = replay_in_process(workload, records)
        compare_cli_replay(records, replayed)
    per_unit, rate = unit_latency(workload, records, scaled=workload.scale_by_host_speed)
    raw_per_unit, raw_rate = unit_latency(workload, records, scaled=False)
    tail = workload.tail_percentile
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
        "unit_p50_s": (statistics.median(per_unit), "s"),
        "unit_tail_s": (nearest_rank(per_unit, tail), "s"),
        "units_per_s": (rate, "1/s"),
    }
    speeds = sorted(r.speed for r in records)
    notes = [
        f"setup_s samples: {', '.join(f'{t:.4f}' for t in setups)} s",
        f"host speed around ops (1 = reference): median {statistics.median(speeds):.3f}, "
        f"range {speeds[0]:.3f}..{speeds[-1]:.3f}",
        f"unscaled wall clock: unit_p50_s {statistics.median(raw_per_unit):.6g} s, "
        f"unit_tail_s {nearest_rank(raw_per_unit, tail):.6g} s, units_per_s {raw_rate:.6g} 1/s",
        f"work unit: {workload.unit}; unit samples: {len(per_unit)}; unit_tail_s is p{round(tail * 100)}, "
        f"{len(per_unit) - math.ceil(tail * len(per_unit))} samples beyond it",
        f"measured wall time: {wall:.3f} s",
    ]
    for metric, (name, unit) in WORKLOAD_METRIC_NAMES[args.workload].items():
        notes.append(f"named metric {name} = {metrics[metric][0]:.6g} {unit}")
    if args.workload == "orbit-solve":
        solves = [r.elapsed / r.speed for r in records if r.kind is None and r.op["kind"] == "solve"]
        if solves:
            notes.append(f"named metric orbit_solve_p50_s = {statistics.median(solves):.6g} s "
                         f"(n={len(solves)}, report only)")
    return metrics, records, notes


def run_traced(args, workload, m) -> tuple[dict, list[Record], list[str]]:
    reference = load_reference(workload, args.seed)
    import_s, scipy_s = import_times(m.child_env)
    if args.workload != "cli-mix":
        warm_up(workload)
    # Half the untraced run's prefix: the traced replay of it takes longer.
    ops = [op for _ in range(workload.cycles(args.seconds / 2.0)) for op in workload.cycle()]
    start = time.perf_counter()
    records = [execute(workload, op) for op in ops]
    wall_untraced = time.perf_counter() - start
    check_records(workload, records, reference)
    reference_run = records
    if args.workload == "cli-mix":
        reference_run, wall_untraced = replay_in_process(workload, records)
        compare_cli_replay(records, reference_run)
        runner = workload.run_in_process
    else:
        runner = workload.run
    tracer = Tracer()
    tracer.install(m.package, m.modules)
    traced = []
    start = time.perf_counter()
    try:
        for i, rec in enumerate(records):
            tracer.op_id = i
            traced.append(execute(workload, rec.op, runner))
    finally:
        tracer.uninstall()
    wall_traced = time.perf_counter() - start
    for rec, again, base in zip(records, traced, reference_run):
        if again.digest != base.digest and rec.kind in (None, *wl.KNOWN_DEFECTS):
            rec.kind, rec.detail = "check", f"traced output differs from untraced: {rec.op}"
    metrics = tracer.layer_metrics()
    metrics["startup.import_s"] = (import_s, "s")
    metrics["startup.scipy_import_s"] = (scipy_s, "s")
    metrics["orbitsim.step_size_warnings"] = (
        sum(r.out.get("step_size_warnings", 0) for r in traced if r.kind is None),
        "count")
    metrics["failed_op_ratio"] = (sum(r.kind is not None for r in records) / len(records), "ratio")
    metrics["trace.overhead_s"] = (wall_traced - wall_untraced, "s")
    metrics["trace.overhead_ratio"] = ((wall_traced - wall_untraced) / wall_untraced, "ratio")
    # The end-to-end times of the untraced prefix, not scaled by host speed.
    raw_per_unit, raw_rate = unit_latency(workload, records, scaled=False)
    metrics["wall.unit_p50_s"] = (statistics.median(raw_per_unit), "s")
    metrics["wall.unit_tail_s"] = (nearest_rank(raw_per_unit, workload.tail_percentile), "s")
    metrics["wall.units_per_s"] = (raw_rate, "1/s")
    rows = baseline_rows(args.workload, m)
    for name in BASELINE_ROWS:
        metrics[name] = (rows.get(name, 0.0), "s")
    notes = [
        f"traced ops: {len(records)}; spans recorded: {len(tracer.start)}",
        f"untraced wall {wall_untraced:.3f} s, traced wall {wall_traced:.3f} s",
    ]
    return metrics, records, notes


def setup_probe(args) -> int:
    """Child process of ``setup_times``: exits once set-up is done."""
    m = load_package()
    workdir = tempfile.mkdtemp(prefix="probe-", dir=ensure_tmp())
    try:
        workload = wl.WORKLOADS[args.workload](args.seed, m, workdir)
        workload.cycle()
        warm_up(workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


TMP = ROOT / ".bench_tmp"  # seeded config files of cli-mix live here during a run


def ensure_tmp() -> str:
    TMP.mkdir(exist_ok=True)
    return str(TMP)


def remove_tmp() -> None:
    try:
        TMP.rmdir()
    except OSError:
        pass  # another run still uses it


def record_reference(args, m) -> None:
    """Write the reference outputs of the first ``reference_ops`` ops of the default seed."""
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    workdir = tempfile.mkdtemp(prefix="ref-", dir=ensure_tmp())
    try:
        workload = wl.WORKLOADS[args.workload](DEFAULT_SEED, m, workdir)
        entries = []
        while len(entries) < workload.reference_ops:
            for op in workload.cycle():
                rec = execute(workload, op)
                entry = {"op": json.loads(json.dumps(op)), "kind": rec.kind, "out": None}
                if rec.kind is None:
                    workload.check(op, rec.out)
                    entry["out"] = dict(workload.reference_view(op, rec.out),
                                        **workload.reference_extra(op, rec.out))
                elif rec.kind not in wl.KNOWN_DEFECTS:
                    raise BenchError(f"unexpected failure while recording: {rec.detail}")
                entries.append(entry)
        data[args.workload] = entries[:workload.reference_ops]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        remove_tmp()
    REFERENCE.write_text(json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite bench/reference.json for this workload at the default seed")
    args = parser.parse_args(argv)
    pin_to_current_cpu()
    threads_state = os.environ.pop(THREADS_ENV_VAR, None)
    threads_state = "unset" if threads_state is None else f"was {threads_state!r}; unset for the run"
    try:
        if args.setup_probe:
            return setup_probe(args)
        m = load_package()
        if args.record_reference:
            record_reference(args, m)
            return 0
        workdir = tempfile.mkdtemp(prefix="run-", dir=ensure_tmp())
        try:
            workload = wl.WORKLOADS[args.workload](args.seed, m, workdir)
            run = run_traced if args.trace else run_untraced
            metrics, records, notes = run(args, workload, m)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            remove_tmp()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    failures = failure_counts(records)
    print("provenance: " + json.dumps(provenance(args, m, threads_state), sort_keys=True))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"ops attempted {len(records)}, failed {sum(failures.values())}, "
          f"failed_op_ratio {sum(failures.values()) / len(records):.4f}")
    for kind, count in failures.items():
        print(f"failure {kind}: {count}" + (f" ({wl.KNOWN_DEFECTS[kind]})" if kind in wl.KNOWN_DEFECTS else ""))
    for rec in records:
        if rec.kind is not None and rec.kind not in wl.KNOWN_DEFECTS:
            print(f"unexpected failure: {rec.detail}")
    result = {
        "correct": is_correct(records),
        "attempted": len(records),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
