"""Seeded workloads of the wiretap-space benchmark, their operations and checks.

Each workload turns a seed into an endless, deterministic stream of
operations grouped in fixed-shape cycles: every cycle holds the same mix of
op shapes, and only the parameters inside a shape are drawn from the seed.
Whole cycles keep the mix identical from seed to seed, so medians compare
across seeds.  The program only ever sees the generated inputs.

An op either returns an output record (a JSON-able dict) or raises.  Two
known defects of the program are expected to raise and are counted as
failures by kind (see ``failure_kind``); anything else that raises, and any
output that fails its check, makes the run incorrect.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import subprocess
import sys
import traceback
import warnings

# Tolerances equal to the accuracy the library states for each result, so
# that an exact closed form replacing a numerical search still passes.
Q_TOL = 1e-4  # secrecy.Q_SEARCH_TOL: bracket width of the q-search
# First-order terms at an optimised q move by at most Q_TOL times their
# slope in q; entropy differences on q in [0.01, 0.99] have slopes < 10 bits.
Q_FIELD_ATOL = 10 * Q_TOL
# The maximum found by the q-search moves only at second order in Q_TOL.
CAPACITY_ATOL = 1e-6
# Fixed-q points: the Helstrom angle search stops at 1e-9 in angle; the
# closed-form angle agrees to 4.7e-8, and the precision item of the roadmap
# moves info_bob by up to 2.6e-7 relative.
FIXED_ATOL = 1e-6
LOG_TOL = 1e-3  # optimal_signal_strength log_tol: both sides carry it
OFFSET_TOL_M = 25.0  # required_orbital_exclusion bisection tolerance
PASS_RTOL = 0.01  # integrated_gamma step-halving check
CLOSED_RTOL = 1e-9  # closed forms and root-finds far below their tolerance
INVARIANT_SLACK = 1e-9  # SecrecyPoint's own dw_rate <= private_capacity slack
PRINT_RTOL = 1e-8  # a CLI prints 9 significant digits; the last one may flip

KNOWN_DEFECTS = {
    "pass_window_domain": "pass_window raises 'math domain error' (asin argument "
    "rounds above 1 at psi=1e-12) for about half of non-integer-metre altitudes",
    "disk_fraction_tolerance": "gaussian_disk_fraction raises ToleranceNotReached for "
    "large interceptor telescopes close to the transmitter (the 1 km bracket end)",
}

EARTH_MU = 3.986004418e14
EARTH_RADIUS = 6.371e6


class CheckFailed(Exception):
    """An op completed but its output failed a check."""


def failure_kind(exc: BaseException) -> str:
    """Name the defect an exception comes from, or mark it unexpected."""
    if isinstance(exc, CheckFailed):
        return "check"
    frames = [frame.name for frame in traceback.extract_tb(exc.__traceback__)]
    if isinstance(exc, ValueError) and "math domain error" in str(exc) and "pass_window" in frames:
        return "pass_window_domain"
    if type(exc).__name__ == "ToleranceNotReached":
        return "disk_fraction_tolerance"
    return f"unexpected:{type(exc).__name__}"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _close(got: float, ref: float, atol: float = 0.0, rtol: float = 0.0) -> bool:
    return abs(got - ref) <= atol + rtol * abs(ref)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _check_secrecy_point(info_bob: float, private_capacity: float, dw_rate: float, where: str) -> None:
    _require(
        -INVARIANT_SLACK <= dw_rate <= private_capacity + INVARIANT_SLACK
        and private_capacity <= info_bob + INVARIANT_SLACK,
        f"{where}: 0 <= dw_rate <= private_capacity <= info_bob violated "
        f"({dw_rate!r}, {private_capacity!r}, {info_bob!r})",
    )


# Column tolerances of a capacity row (scenario_io.CAPACITY_SWEEP_OUTPUTS).
# ``q_opt`` rows come from the q-search, ``fixed`` rows from a given q.
_ROW_TOLERANCES = {
    "q_opt": {
        "gamma": (0.0, CLOSED_RTOL),
        "received_mean_photons": (0.0, CLOSED_RTOL),
        "q": (Q_TOL, 0.0),
        "info_bob": (Q_FIELD_ATOL, 0.0),
        "info_eve_helstrom": (Q_FIELD_ATOL, 0.0),
        "holevo_eve": (Q_FIELD_ATOL, 0.0),
        "private_capacity": (CAPACITY_ATOL, 0.0),
        "dw_rate": (Q_FIELD_ATOL, 0.0),
        "epsilon_star": (Q_FIELD_ATOL, 0.0),
        "phi_deg": (0.0, CLOSED_RTOL),
        "private_rate_bps": (CAPACITY_ATOL * 1e9, 0.0),
        "dw_rate_bps": (Q_FIELD_ATOL * 1e9, 0.0),
    },
}
_ROW_TOLERANCES["fixed"] = {
    name: ((FIXED_ATOL * (1e9 if name.endswith("_bps") else 1.0), CLOSED_RTOL))
    for name in _ROW_TOLERANCES["q_opt"]
}


def _compare_rows(header, rows, ref_header, ref_rows, mode: str, where: str,
                  print_rtol: float = 0.0) -> None:
    _require(list(header) == list(ref_header), f"{where}: header {header} != reference {ref_header}")
    _require(len(rows) == len(ref_rows), f"{where}: {len(rows)} rows, reference has {len(ref_rows)}")
    tolerances = _ROW_TOLERANCES[mode]
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for name, got, ref in zip(header, row, ref_row):
            atol, rtol = tolerances.get(name, (0.0, CLOSED_RTOL))
            _require(
                _close(float(got), float(ref), atol, rtol + print_rtol),
                f"{where}: row {i} {name}={got!r}, reference {ref!r}",
            )


def _sampled(rows: list, count: int = 8) -> list:
    step = max(1, len(rows) // count)
    return rows[::step]


class Workload:
    """Base class: a seeded op stream plus execution and checks."""

    name = ""
    unit = "op"  # the work unit of units_per_s and the unit latencies
    tail_percentile = 0.9
    nominal_cycle_s = 1.0  # untraced time of one cycle at the first benchmarked commit
    scale_by_host_speed = True  # divide op times by the host speed around them (run.calibrate)
    reference_ops = 0  # ops of the default seed kept in reference.json

    def __init__(self, seed: int, modules, workdir: str | None = None):
        self.seed = seed
        self.m = modules
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        # The warm-up op has its own generator so it never shifts the stream.
        self.warmup_rng = random.Random(f"{self.name}:{seed}:warmup")

    def cycle(self) -> list[dict]:
        raise NotImplementedError

    def cycles(self, seconds: float) -> int:
        """Whole cycles of a run of ``seconds`` at the first benchmarked commit.

        A run is a fixed prefix of the seed's stream, so the ops it attempts,
        and the ops a known defect fails, depend on the arguments only.
        """
        return max(1, round(seconds / self.nominal_cycle_s))

    def warmup_op(self) -> dict:
        """A small op drawn from its own generator, used once during set-up."""
        raise NotImplementedError

    def run(self, op: dict) -> dict:
        raise NotImplementedError

    def work(self, op: dict) -> int:
        return 1

    def is_unit_op(self, op: dict) -> bool:
        """Whether the op's time per work unit enters the latency metrics."""
        return True

    def defect_possible(self, op: dict, kind: str) -> bool:
        """Whether the known defect ``kind`` can hit this op at all.

        A known-defect failure on an op it cannot hit is a failed check.
        """
        return False

    def check(self, op: dict, out: dict) -> None:
        """Invariants that hold on every seed; raises CheckFailed."""

    def reference_view(self, op: dict, out: dict) -> dict:
        """The compact part of an output kept as reference."""
        return out

    def reference_extra(self, op: dict, out: dict) -> dict:
        """Values computed once, when the reference is recorded."""
        return {}

    def compare(self, op: dict, out: dict, ref: dict) -> None:
        """Compare against the reference output of the same op."""


class SweepGrid(Workload):
    name = "sweep-grid"
    unit = "cell"
    # Five cycles, 15 q-optimised sweeps, per 20 s run: p75 leaves three beyond it.
    tail_percentile = 0.75
    nominal_cycle_s = 3.8
    reference_ops = 40
    # (q mode, outer points, inner points).  Three of five configs optimise
    # q; one fixes q = 1/2 (closed-form cross-check), one fixes q != 1/2
    # (Helstrom angle search in every cell).
    SHAPES = (("opt", 16, 8), ("opt", 24, 12), ("opt", 32, 16), ("half", 32, 16), ("fixed", 24, 12))
    INNER = ("stray_mean", "gamma", "p_dark", "dist_bob_m", "exclusion_radius_m")

    @classmethod
    def _op(cls, rng: random.Random, mode: str, n_outer: int, n_inner: int) -> dict:
        inner = rng.choice(cls.INNER)
        config = {
            "detector": {
                "p_dark": _log_uniform(rng, 1e-9, 1e-5),
                "stray_mean": _log_uniform(rng, 1e-7, 1e-2),
            },
            "operating": {},
        }
        if inner == "stray_mean":
            lo = _log_uniform(rng, 1e-7, 1e-5)
            axis = [inner, lo, lo * _log_uniform(rng, 1e2, 1e4), n_inner, "log"]
        elif inner == "gamma":
            lo = rng.uniform(0.01, 0.1)
            axis = [inner, lo, rng.uniform(0.3, 0.6), n_inner, "linear"]
        elif inner == "p_dark":
            lo = _log_uniform(rng, 1e-9, 1e-7)
            axis = [inner, lo, lo * _log_uniform(rng, 1e1, 1e3), n_inner, "log"]
        elif inner == "dist_bob_m":
            # Default geometry: the derived gamma rises with range and stays
            # inside (0, 1) on [0.9e6, 1.4e6] m.
            lo = rng.uniform(0.9e6, 1.1e6)
            axis = [inner, lo, rng.uniform(1.2e6, 1.4e6), n_inner, "linear"]
        else:
            # The derived gamma falls with the radius: 0.48 at 11 m, 8e-20 at 30 m.
            lo = rng.uniform(11.0, 13.0)
            axis = [inner, lo, rng.uniform(16.0, 30.0), n_inner, "linear"]
        if inner not in ("gamma", "dist_bob_m", "exclusion_radius_m"):
            config["operating"]["gamma"] = rng.uniform(0.02, 0.4)
        if mode == "half":
            config["operating"]["q"] = 0.5
        elif mode == "fixed":
            config["operating"]["q"] = rng.uniform(0.2, 0.45)
        lo = _log_uniform(rng, 1e-3, 1e-1)
        outer = ["received_mean_photons", lo, _log_uniform(rng, 1.0, 100.0), n_outer, "log"]
        return {"mode": mode, "config": config, "axes": [outer, axis]}

    def cycle(self) -> list[dict]:
        ops = [self._op(self.rng, *shape) for shape in self.SHAPES]
        self.rng.shuffle(ops)
        return ops

    def warmup_op(self) -> dict:
        return self._op(self.warmup_rng, "opt", 8, 4)

    def work(self, op: dict) -> int:
        return op["axes"][0][3] * op["axes"][1][3]

    def is_unit_op(self, op: dict) -> bool:
        # Fixed-q cells cost 1-2% of a q-optimised cell: timed with them, the
        # cell rate would mostly count how many cheap cells a cycle holds.
        return op["mode"] == "opt"

    def run(self, op: dict) -> dict:
        sio = self.m.scenario_io
        config = sio.config_from_dict(op["config"])
        axes = [sio.SweepAxis(p, lo, hi, n, scale) for p, lo, hi, n, scale in op["axes"]]
        header, rows = sio.sweep(config, axes)
        buffer = io.StringIO()
        sio.write_csv(buffer, header, rows)
        return {"csv": buffer.getvalue(), "header": header, "rows": rows}

    def check(self, op: dict, out: dict) -> None:
        header, rows = out["header"], out["rows"]
        _require(len(rows) == self.work(op), f"{len(rows)} rows for {self.work(op)} cells")
        col = {name: i for i, name in enumerate(header)}
        csv_lines = out["csv"].split("\r\n")
        _require(len(csv_lines) == len(rows) + 2, "CSV line count does not match the rows")
        receiver, secrecy = self.m.receiver, self.m.secrecy
        for row in rows:
            _check_secrecy_point(row[col["info_bob"]], row[col["private_capacity"]],
                                 row[col["dw_rate"]], "sweep cell")
            if op["mode"] != "half":
                continue
            # Detector parameters appear as columns only when they are an axis.
            detector = receiver.DetectorModel(**{
                key: row[col[key]] if key in col else value
                for key, value in op["config"]["detector"].items()
            })
            mu, gamma = row[col["received_mean_photons"]], row[col["gamma"]]
            pc = secrecy.private_capacity_symmetric(detector, mu, gamma)
            dw = secrecy.dw_rate_symmetric(detector, mu, gamma)
            _require(
                _close(row[col["private_capacity"]], pc, INVARIANT_SLACK)
                and _close(row[col["dw_rate"]], dw, INVARIANT_SLACK),
                f"q=1/2 cell disagrees with the closed forms: ({row[col['private_capacity']]!r}, "
                f"{row[col['dw_rate']]!r}) vs ({pc!r}, {dw!r})",
            )

    def reference_view(self, op: dict, out: dict) -> dict:
        return {"header": out["header"], "rows": _sampled(out["rows"])}

    def compare(self, op: dict, out: dict, ref: dict) -> None:
        _compare_rows(out["header"], _sampled(out["rows"]), ref["header"], ref["rows"],
                      "q_opt" if op["mode"] == "opt" else "fixed", "sweep")


class DesignSearch(Workload):
    name = "design-search"
    unit = "solve"
    tail_percentile = 0.75
    nominal_cycle_s = 1.7
    reference_ops = 64
    REPEAT_EVERY = 4  # the last op of each cycle repeats an earlier input

    def __init__(self, seed: int, modules, workdir: str | None = None):
        super().__init__(seed, modules, workdir)
        self.history: list[dict] = []
        self.seen: dict[str, dict] = {}

    @staticmethod
    def _fresh(rng: random.Random) -> dict:
        return {
            "detector": {
                "p_dark": _log_uniform(rng, 1e-9, 1e-5),
                "eta_optical": rng.uniform(0.5, 1.0),
                "stray_mean": _log_uniform(rng, 1e-7, 1e-2),
            },
            "gamma": rng.uniform(0.02, 0.4),
        }

    def cycle(self) -> list[dict]:
        ops = [self._fresh(self.rng) for _ in range(self.REPEAT_EVERY - 1)]
        self.history.extend(ops)
        repeat = dict(self.rng.choice(self.history), repeat=True)
        return ops + [repeat]

    def warmup_op(self) -> dict:
        return self._fresh(self.warmup_rng)

    def run(self, op: dict) -> dict:
        detector = self.m.receiver.DetectorModel(**op["detector"])
        mu, point = self.m.secrecy.optimal_signal_strength(detector, op["gamma"])
        return {
            "mu": mu,
            "q": point.q,
            "info_bob": point.info_bob,
            "private_capacity": point.private_capacity,
            "dw_rate": point.dw_rate,
        }

    def check(self, op: dict, out: dict) -> None:
        _check_secrecy_point(out["info_bob"], out["private_capacity"], out["dw_rate"], "design")
        _require(1e-3 <= out["mu"] <= 1e2, f"photon number {out['mu']!r} outside the search bounds")
        # A repeated input must give the identical result.
        key = json.dumps([op["detector"], op["gamma"]], sort_keys=True)
        first = self.seen.setdefault(key, out)
        _require(first == out, f"repeated input gave {out}, first run gave {first}")

    def compare(self, op: dict, out: dict, ref: dict) -> None:
        _require(
            abs(math.log10(out["mu"]) - math.log10(ref["mu"])) <= 2 * LOG_TOL
            # The capacity at the optimum moves at second order in LOG_TOL.
            and _close(out["private_capacity"], ref["private_capacity"], 10 * CAPACITY_ATOL),
            f"design: (mu, capacity) = ({out['mu']!r}, {out['private_capacity']!r}), "
            f"reference ({ref['mu']!r}, {ref['private_capacity']!r})",
        )


ORBIT_PARAMETERS = ("altitude_kind", "altitude", "offset", "telescope", "divergence", "elevation")


def _orbit_scenario(draw, offset_lo: float = 2e3, whole_km: bool = False) -> dict:
    """Two-satellite scenario from ``draw(parameter)``, a uniform number in [0, 1).

    Half the altitudes are whole kilometres; the rest come from an orbital
    period as an ephemeris would give them, so they are non-integer metres.
    """
    if whole_km or draw("altitude_kind") < 0.5:
        altitude = float(400 + int(draw("altitude") * 401)) * 1e3
    else:
        period = (92.6 + 8.3 * draw("altitude")) * 60.0
        altitude = (EARTH_MU * period**2 / (4.0 * math.pi**2)) ** (1.0 / 3.0) - EARTH_RADIUS
    return {
        "alice_altitude": altitude,
        "eve_orbit_offset": offset_lo * (4e4 / offset_lo) ** draw("offset"),
        "eve_telescope_diameter": 1.0 + 3.0 * draw("telescope"),
        "divergence_full_angle": 5e-6 * 4.0 ** draw("divergence"),
        "min_elevation": math.radians(10.0 + 30.0 * draw("elevation")),
    }


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _stratified_draws(rng: random.Random, telescopes: int, offsets: int,
                      phases: list[float], cycle: int) -> list[dict]:
    """Uniform draws for the ``telescopes * offsets`` scenarios of cycle ``cycle``.

    Telescope diameter and offset set a pass's cost (the quadrature samples
    grow with the diameter over the offset), so they cover a full
    telescopes x offsets grid of bins.  Inside a bin, cycle k puts them at
    ``phase + k * GOLDEN`` (mod 1) of the bin, with one random phase per bin
    and parameter drawn into ``phases`` at the first cycle, so the cycles of
    a run spread evenly over each bin.  Whole-kilometre and ephemeris
    altitudes alternate over the grid like a checkerboard that flips every
    cycle, so every bin holds both kinds.  Every other parameter forms a
    Latin hypercube, each of ``count`` equal bins used once.  Every run then
    holds the same mix of costs, and run medians agree across seeds.
    """
    count = telescopes * offsets
    if not phases:
        phases.extend(rng.random() for _ in range(2 * count))
    rows = []
    for i in range(count):
        t, o = i % telescopes, i // telescopes
        rows.append({
            "telescope": (t + (phases[2 * i] + cycle * GOLDEN) % 1.0) / telescopes,
            "offset": (o + (phases[2 * i + 1] + cycle * GOLDEN) % 1.0) / offsets,
            "altitude_kind": 0.25 if (t + o + cycle) % 2 == 0 else 0.75,
        })
    for name in ORBIT_PARAMETERS:
        if name in rows[0]:
            continue
        order = list(range(count))
        rng.shuffle(order)
        for row, b in zip(rows, order):
            row[name] = (b + rng.random()) / count
    rng.shuffle(rows)
    return rows


class OrbitSolve(Workload):
    name = "orbit-solve"
    unit = "pass"
    tail_percentile = 0.85
    nominal_cycle_s = 4.0
    reference_ops = 147
    PASS_GRID = (4, 5)  # telescope x offset bins of one cycle's 20 pass ops
    # Pass cost grows as the offset shrinks (slower relative motion, more
    # quadrature samples); below 4 km single passes dominate a run's median.
    PASS_OFFSET_LO = 4e3

    def __init__(self, seed: int, modules, workdir: str | None = None):
        super().__init__(seed, modules, workdir)
        self.cycles_drawn = 0
        self.phases: list[float] = []

    def cycle(self) -> list[dict]:
        rows = _stratified_draws(self.rng, *self.PASS_GRID, self.phases, self.cycles_drawn)
        self.cycles_drawn += 1
        ops = [{"kind": "pass", "scenario": _orbit_scenario(row.__getitem__, self.PASS_OFFSET_LO)}
               for row in rows]
        # Over the scenario space gamma per metre of telescope is at least
        # 0.0765 at the 1 km end of the offset bracket (5e-6 rad, 400 km,
        # 10 deg) and at most 0.0212 at the 200 km end (2e-5 rad, 800 km,
        # 40 deg), so a target of 0.03..0.07 per metre always has a root.
        scenario = _orbit_scenario(lambda _: self.rng.random())
        target = self.rng.uniform(0.03, 0.07) * scenario["eve_telescope_diameter"]
        ops.append({"kind": "solve", "scenario": scenario, "gamma_target": target})
        return ops

    def warmup_op(self) -> dict:
        # Whole kilometres: the warm-up op must complete, and the
        # pass_window defect only hits non-integer altitudes.
        return {"kind": "pass", "scenario": _orbit_scenario(lambda _: self.warmup_rng.random(), self.PASS_OFFSET_LO,
                                                         whole_km=True)}

    def is_unit_op(self, op: dict) -> bool:
        return op["kind"] == "pass"

    def defect_possible(self, op: dict, kind: str) -> bool:
        if kind == "pass_window_domain":
            # The asin argument at psi=1e-12 rounds above 1 only for some
            # non-integer-metre altitudes; no whole-kilometre altitude hits it.
            return not float(op["scenario"]["alice_altitude"]).is_integer()
        # Only the offset bisection reaches the 1 km bracket end.
        return kind == "disk_fraction_tolerance" and op["kind"] == "solve"

    def run(self, op: dict) -> dict:
        orbitsim = self.m.orbitsim
        scenario = orbitsim.OrbitScenario(**op["scenario"])
        if op["kind"] == "solve":
            offset = orbitsim.required_orbital_exclusion(scenario, gamma_target=op["gamma_target"])
            return {"offset": offset}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", orbitsim.StepSizeWarning)
            profile = orbitsim.integrated_gamma(scenario)
        revisit, intercept = orbitsim.alignment_periods(scenario)
        return {
            "integrated_gamma": profile.integrated_gamma,
            "integrated_eta_bob": profile.integrated_eta_bob,
            "integrated_eta_eve": profile.integrated_eta_eve,
            "pass_half_duration": profile.pass_half_duration,
            "convergence_delta": profile.convergence_delta,
            "samples": int(profile.times.size),
            "eve_nonzero": int((profile.eta_eve > 0).sum()),
            "step_size_warnings": len(caught),
            "revisit": revisit,
            "intercept_period": intercept,
        }

    def check(self, op: dict, out: dict) -> None:
        if op["kind"] == "solve":
            _require(1e3 <= out["offset"] <= 2e5, f"offset {out['offset']!r} outside the bracket")
            return
        _require(out["integrated_gamma"] >= 0 and out["integrated_eta_bob"] > 0,
                 f"pass integrals out of range: {out}")
        _require(out["step_size_warnings"] > 0 or out["convergence_delta"] <= PASS_RTOL,
                 "step-halving delta above 1% without a StepSizeWarning")

    def reference_view(self, op: dict, out: dict) -> dict:
        if op["kind"] == "solve":
            return out
        return {k: out[k] for k in ("integrated_gamma", "integrated_eta_bob", "integrated_eta_eve",
                                    "pass_half_duration", "revisit", "intercept_period")}

    def compare(self, op: dict, out: dict, ref: dict) -> None:
        if op["kind"] == "solve":
            # The offset inherits the 1% accuracy of the pass integral through
            # the slope of gamma(offset), recorded with the reference.
            tol = OFFSET_TOL_M + PASS_RTOL * op["gamma_target"] / max(ref["slope"], 1e-300)
            _require(abs(out["offset"] - ref["offset"]) <= tol,
                     f"solve: offset {out['offset']!r}, reference {ref['offset']!r} (tol {tol:.1f} m)")
            return
        for key in ("integrated_gamma", "integrated_eta_bob", "integrated_eta_eve"):
            _require(_close(out[key], ref[key], 1e-300, PASS_RTOL),
                     f"pass: {key}={out[key]!r}, reference {ref[key]!r}")
        for key in ("pass_half_duration", "revisit", "intercept_period"):
            _require(_close(out[key], ref[key], 0.0, CLOSED_RTOL),
                     f"pass: {key}={out[key]!r}, reference {ref[key]!r}")

    def reference_extra(self, op: dict, out: dict) -> dict:
        """Slope |d gamma / d offset| at the solved offset, for the solve tolerance."""
        if op["kind"] != "solve":
            return {}
        orbitsim = self.m.orbitsim
        step = 4 * OFFSET_TOL_M
        gammas = []
        for offset in (out["offset"] - step, out["offset"] + step):
            scenario = orbitsim.OrbitScenario(**dict(op["scenario"], eve_orbit_offset=offset))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", orbitsim.StepSizeWarning)
                gammas.append(orbitsim.integrated_gamma(scenario).integrated_gamma)
        return {"slope": abs(gammas[1] - gammas[0]) / (2 * step)}


class CliMix(Workload):
    name = "cli-mix"
    unit = "command"
    # Two cycles, 18 commands (15-16 completed), per 20 s run: no percentile
    # above the median has ten samples beyond it, and p90 would rest on one
    # or two; p75 rests on three or four.
    tail_percentile = 0.75
    nominal_cycle_s = 9.5
    # A command is a fresh interpreter, mostly imports.  Like setup_s, its time
    # follows the calibration loop only in part (log-log slope 0.45 over 50
    # commands), so dividing by the host speed would over-correct.
    scale_by_host_speed = False
    reference_ops = 36
    PRESETS = ("micius-leo", "micius-meo", "micius-geo")

    def __init__(self, seed: int, modules, workdir: str | None = None):
        super().__init__(seed, modules, workdir)
        self.files = 0

    def _orbit_config(self) -> str:
        """Write a seeded orbit config; the op names it by file name only."""
        name = f"orbit-{self.files}.json"
        self.files += 1
        # Configs written from an ephemeris carry non-integer-metre altitudes.
        s = _orbit_scenario(lambda name: 0.75 if name == "altitude_kind" else self.rng.random(),
                            offset_lo=1e3)
        config = {"orbit": {
            "alice_altitude_m": s["alice_altitude"],
            "eve_orbit_offset_m": s["eve_orbit_offset"],
            "eve_telescope_diameter_m": s["eve_telescope_diameter"],
            "divergence_rad": s["divergence_full_angle"],
            "min_elevation_deg": math.degrees(s["min_elevation"]),
        }}
        with open(f"{self.workdir}/{name}", "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        return "@" + name

    def cycle(self) -> list[dict]:
        rng = self.rng
        gamma = f"{rng.uniform(0.02, 0.4):.6g}"
        lo = _log_uniform(rng, 1e-3, 1e-1)
        commands = [
            ["capacity", "--photons", f"{_log_uniform(rng, 0.05, 20.0):.6g}"],
            ["capacity", "--gamma", gamma],
            ["capacity", "--gamma", gamma, "--q", f"{rng.uniform(0.2, 0.8):.6g}"],
            ["linkbudget", "--config", rng.choice(self.PRESETS)],
            ["exclusion", "--gamma-target", f"{rng.uniform(0.02, 0.5):.6g}"],
            ["exclusion", "--axis", rng.choice([
                f"gamma_target:{rng.uniform(0.01, 0.05):.6g}:{rng.uniform(0.2, 0.5):.6g}:"
                f"{rng.randint(8, 32)}:log",
                f"dist_bob_m:{rng.uniform(5e5, 1e6):.6g}:{rng.uniform(1e7, 3.6e7):.6g}:"
                f"{rng.randint(8, 32)}:log",
            ])],
            ["sweep", "--axis", f"received_mean_photons:{lo:.6g}:{_log_uniform(rng, 1.0, 50.0):.6g}:"
             f"{rng.randint(8, 32)}:log"],
            ["orbit", "--format", "json", "--config", self._orbit_config()],
            ["orbit", "--format", "json", "--config", self._orbit_config(),
             "--offset", f"{_log_uniform(rng, 2e3, 4e4):.6g}"],
        ]
        ops = [{"argv": argv} for argv in commands]
        rng.shuffle(ops)
        return ops

    def warmup_op(self) -> dict:
        return {"argv": ["linkbudget"], "in_process": True}

    def defect_possible(self, op: dict, kind: str) -> bool:
        # Both defects live in the orbit code; every orbit config carries a
        # non-integer-metre altitude and offsets down to 1 km.
        return kind in KNOWN_DEFECTS and op["argv"][0] == "orbit"

    def run(self, op: dict) -> dict:
        if op.get("in_process"):
            return self.run_in_process(op)
        proc = subprocess.run(
            [sys.executable, "-m", "wiretap_space.cli", *self._argv(op)],
            capture_output=True, env=self.m.child_env, cwd=self.m.root, timeout=120,
        )
        return self._result(proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8"))

    def run_in_process(self, op: dict) -> dict:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.m.cli.main(self._argv(op))
        return self._result(code, stdout.getvalue(), stderr.getvalue())

    def _argv(self, op: dict) -> list[str]:
        return [f"{self.workdir}/{a[1:]}" if a.startswith("@") else a for a in op["argv"]]

    @staticmethod
    def _result(code: int, stdout: str, stderr: str) -> dict:
        out = {"code": code, "stdout": stdout}
        if code == 2 and "config error: math domain error" in stderr:
            raise CliFailure("pass_window_domain", out)
        if code == 3 and "numerical failure: disk-fraction quadrature" in stderr:
            raise CliFailure("disk_fraction_tolerance", out)
        if code != 0:
            raise CliFailure(f"unexpected:exit{code}", out, stderr)
        return out

    def check(self, op: dict, out: dict) -> None:
        command = op["argv"][0]
        if command == "orbit":
            summary = json.loads(out["stdout"])
            _require(summary["integrated_gamma"] >= 0, f"orbit summary out of range: {summary}")
            return
        lines = out["stdout"].split("\r\n")
        _require(lines[-1] == "" and len(lines) >= 3, "CSV output without header and rows")
        if command in ("capacity", "sweep"):
            header = lines[0].split(",")
            for line in lines[1:-1]:
                row = dict(zip(header, map(float, line.split(","))))
                _check_secrecy_point(row["info_bob"], row["private_capacity"], row["dw_rate"], command)

    def compare(self, op: dict, out: dict, ref: dict) -> None:
        command = op["argv"][0]
        if command == "orbit":
            got, want = json.loads(out["stdout"]), json.loads(ref["stdout"])
            for key in ("integrated_gamma", "integrated_eta_bob_s", "integrated_eta_eve_s"):
                _require(_close(got[key], want[key], 1e-300, PASS_RTOL), f"orbit: {key} differs")
            for key in ("pass_half_duration_s", "bob_revisit_s", "eve_intercept_period_s"):
                _require(_close(got[key], want[key], 0.0, CLOSED_RTOL), f"orbit: {key} differs")
            return
        got, want = out["stdout"].split("\r\n"), ref["stdout"].split("\r\n")
        if command in ("linkbudget", "exclusion"):
            _require(len(got) == len(want), f"{command}: row count differs")
            for line, ref_line in zip(got, want):
                for a, b in zip(line.split(","), ref_line.split(",")):
                    try:
                        ok = _close(float(a), float(b), 0.0, CLOSED_RTOL + PRINT_RTOL)
                    except ValueError:
                        ok = a == b
                    _require(ok, f"{command}: {a} differs from reference {b}")
            return
        rows = [list(map(float, line.split(","))) for line in got[1:-1]]
        ref_rows = [list(map(float, line.split(","))) for line in want[1:-1]]
        fixed_q = "--q" in op["argv"]
        header = got[0].split(",")
        _compare_rows(header, rows, want[0].split(","), ref_rows, "fixed" if fixed_q else "q_opt",
                      command, print_rtol=PRINT_RTOL)


class CliFailure(Exception):
    """A CLI process ended with a non-zero exit code."""

    def __init__(self, kind: str, out: dict, stderr: str = ""):
        super().__init__(f"{kind}: {stderr.strip()[-300:]}")
        self.kind = kind
        self.out = out


WORKLOADS = {cls.name: cls for cls in (SweepGrid, DesignSearch, OrbitSolve, CliMix)}


def classify(exc: BaseException) -> str:
    if isinstance(exc, CliFailure):
        return exc.kind
    return failure_kind(exc)

