"""Per-layer tracing of wiretap_space from outside the package.

``Tracer.install`` replaces public functions of the package's modules with
wrappers, in every module namespace where callers look them up, and
``uninstall`` puts the originals back; no file of the package changes.
Wrapped functions record spans (name, start, end, parent span, op id) into
flat arrays kept in memory; the per-sample scalar kernels only count calls.
A span's self time is its duration minus the durations of its child spans,
and a layer is a module of the package.
"""
from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter

# Functions that record a span, by defining module.
SPANNED = {
    "numerics": ("maximize_1d", "find_root", "gaussian_disk_fraction"),
    "receiver": ("mutual_info_bob",),
    "detection": ("helstrom_projector", "holevo_binary"),
    "secrecy": ("private_capacity", "private_capacity_fixed", "optimal_signal_strength"),
    "linkbudget": ("bob_free_space", "eve_free_space", "gamma_partial", "exclusion_radius_partial",
                   "exclusion_radius_total", "radius_vs_gamma_curve", "fraction_to_db", "db_to_fraction"),
    "orbitsim": ("pass_window", "integrated_gamma", "required_orbital_exclusion", "alignment_periods"),
    "scenario_io": ("config_from_dict", "sweep", "write_csv"),
    "cli": ("main",),
}
# Called once per kernel evaluation or more: count only, no span.
COUNT_ONLY = {"numerics": ("binary_entropy",), "receiver": ("bob_click_model",)}
LAYERS = ("cli", "scenario_io", "secrecy", "detection", "receiver", "numerics", "linkbudget", "orbitsim")

# The caller of an optimiser names the search; the caller is the enclosing span.
_MAXIMIZE_PURPOSE = {
    "detection.helstrom_projector": "helstrom",
    "secrecy.private_capacity": "q_search",
    "secrecy.optimal_signal_strength": "photon_search",
}
_ROOT_PURPOSE = {
    "orbitsim.pass_window": "pass_window",
    "linkbudget.exclusion_radius_total": "exclusion_total",
    "orbitsim.required_orbital_exclusion": "orbit_offset",
}
# Objectives of the secrecy searches run secrecy code between kernel calls;
# a span keeps that time in the secrecy layer instead of in numerics.
_OBJECTIVE_SPAN = {"q_search": "secrecy.q_objective", "photon_search": "secrecy.photon_objective"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._patched: list[tuple[object, str, object]] = []
        self._design_inputs: set = set()
        self._solve_passes: list[int] = []

    # -- spans ---------------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def current(self) -> str | None:
        return self.names[self.name_id[self.stack[-1]]] if self.stack else None

    def _span(self, name: str, fn, after=None):
        nid = self._id(name)
        failures = name + ".failures"
        # Bound methods of the span arrays keep the per-call cost low.
        stack, push, pop = self.stack, self.stack.append, self.stack.pop
        name_id, parent, op, start, end = (self.name_id.append, self.parent.append, self.op.append,
                                           self.start.append, self.end)
        end_append = end.append

        def wrapper(*args, **kwargs):
            idx = len(end)
            name_id(nid)
            parent(stack[-1] if stack else -1)
            op(self.op_id)
            end_append(0.0)
            push(idx)
            start(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[failures] += 1
                raise
            finally:
                end[idx] = perf_counter()
                pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    # -- special wrappers ----------------------------------------------------
    def _optimiser(self, name: str, fn, purposes: dict[str, str]):
        """Span an optimiser and count the evaluations of the callable it is handed."""
        spanned = self._span(name, fn)
        objective_spans = {purpose: self._span(span_name, lambda g, x: g(x))
                           for purpose, span_name in _OBJECTIVE_SPAN.items()}

        def wrapper(f, *args, **kwargs):
            purpose = purposes.get(self.current(), "other")
            self.counts[f"{name}.calls.{purpose}"] += 1
            evals = [0]
            objective_span = objective_spans.get(purpose)
            if objective_span is None:
                def counted(x):
                    evals[0] += 1
                    return f(x)
            else:
                def counted(x):
                    evals[0] += 1
                    return objective_span(f, x)
            try:
                return spanned(counted, *args, **kwargs)
            finally:
                self.counts[f"{name}.evals.{purpose}"] += evals[0]

        return functools.wraps(fn)(wrapper)

    def _wrap(self, module: str, attr: str, fn):
        name = f"{module}.{attr}"
        if name == "numerics.maximize_1d":
            return self._optimiser(name, fn, _MAXIMIZE_PURPOSE)
        if name == "numerics.find_root":
            return self._optimiser(name, fn, _ROOT_PURPOSE)
        if name == "numerics.gaussian_disk_fraction":
            def after(args, kwargs, result):
                # Below the quadrature's own 1e-11 tolerance a value carries nothing.
                if result > 1e-11:
                    self.counts[name + ".useful"] += 1
            return self._span(name, fn, after)
        if name == "orbitsim.integrated_gamma":
            def after(args, kwargs, profile):
                self.counts["orbitsim.pass_samples"] += int(profile.times.size)
                self.counts["orbitsim.eve_nonzero"] += int((profile.eta_eve > 0.0).sum())
            spanned = self._span(name, fn, after)

            def integrated_gamma(*args, **kwargs):
                if self._solve_passes:
                    self._solve_passes[-1] += 1
                return spanned(*args, **kwargs)
            return functools.wraps(fn)(integrated_gamma)
        if name == "orbitsim.required_orbital_exclusion":
            spanned = self._span(name, fn)

            def required_orbital_exclusion(*args, **kwargs):
                self._solve_passes.append(0)
                try:
                    result = spanned(*args, **kwargs)
                finally:
                    passes = self._solve_passes.pop()
                self.counts[name + ".solved"] += 1
                self.counts[name + ".passes_in_solved"] += passes
                return result
            return functools.wraps(fn)(required_orbital_exclusion)
        if name == "secrecy.optimal_signal_strength":
            spanned = self._span(name, fn)

            def optimal_signal_strength(*args, **kwargs):
                key = (args, tuple(sorted(kwargs.items())))
                if key in self._design_inputs:
                    self.counts[name + ".repeats"] += 1
                self._design_inputs.add(key)
                return spanned(*args, **kwargs)
            return functools.wraps(fn)(optimal_signal_strength)
        if name == "scenario_io.sweep":
            def after(args, kwargs, result):
                self.counts["scenario_io.sweep.cells"] += len(result[1])
            return self._span(name, fn, after)
        if name == "cli.main":
            def after(args, kwargs, code):
                if code in (2, 3):
                    self.counts["cli.exit2_on_valid" if code == 2 else "cli.exit3"] += 1
            return self._span(name, fn, after)
        return self._span(name, fn)

    # -- install -------------------------------------------------------------
    def install(self, package, modules: dict) -> None:
        """Wrap the functions in every namespace of ``package`` that holds them."""
        wrappers = {}
        for table, count_only in ((SPANNED, False), (COUNT_ONLY, True)):
            for module, attrs in table.items():
                for attr in attrs:
                    fn = getattr(modules[module], attr)
                    name = f"{module}.{attr}"
                    wrapper = self._counter(name + ".calls", fn) if count_only else self._wrap(module, attr, fn)
                    wrappers[id(fn)] = (fn, wrapper)
        for namespace in (package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(namespace, attr, entry[1])
                    self._patched.append((namespace, attr, value))

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._patched):
            setattr(namespace, attr, value)
        self._patched.clear()

    # -- results -------------------------------------------------------------
    def span_totals(self) -> dict[str, dict[str, float]]:
        """calls, total and self seconds per span name."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += duration[i]
        totals = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        names, name_id = self.names, self.name_id
        for i in range(n):
            entry = totals[names[name_id[i]]]
            entry["calls"] += 1
            entry["total_s"] += duration[i]
            entry["self_s"] += duration[i] - child[i]
        return totals

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of the benchmark, as (value, unit)."""
        spans = self.span_totals()
        c = self.counts

        def span(name, field):
            return spans.get(name, {}).get(field, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        m: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (sum(v["self_s"] for k, v in spans.items() if k.startswith(layer + ".")), "s")
        m["cli.main.calls"] = (span("cli.main", "calls"), "count")
        m["cli.main.self_s"] = (span("cli.main", "self_s"), "s")
        m["cli.exit2_on_valid"] = (c["cli.exit2_on_valid"], "count")
        m["cli.exit3"] = (c["cli.exit3"], "count")
        m["scenario_io.config_from_dict.self_s"] = (span("scenario_io.config_from_dict", "self_s"), "s")
        m["scenario_io.sweep.cells"] = (c["scenario_io.sweep.cells"], "count")
        m["scenario_io.sweep.self_s"] = (span("scenario_io.sweep", "self_s"), "s")
        m["scenario_io.write_csv.self_s"] = (span("scenario_io.write_csv", "self_s"), "s")
        pc_calls = span("secrecy.private_capacity", "calls")
        m["secrecy.private_capacity.calls"] = (pc_calls, "count")
        m["secrecy.private_capacity.self_s"] = (span("secrecy.private_capacity", "self_s"), "s")
        m["secrecy.private_capacity.evals_per_call"] = (
            ratio(c["numerics.maximize_1d.evals.q_search"], pc_calls), "count")
        m["secrecy.private_capacity_fixed.calls"] = (span("secrecy.private_capacity_fixed", "calls"), "count")
        m["secrecy.private_capacity_fixed.self_s"] = (span("secrecy.private_capacity_fixed", "self_s"), "s")
        oss_calls = span("secrecy.optimal_signal_strength", "calls")
        m["secrecy.optimal_signal_strength.calls"] = (oss_calls, "count")
        m["secrecy.optimal_signal_strength.self_s"] = (span("secrecy.optimal_signal_strength", "self_s"), "s")
        m["secrecy.optimal_signal_strength.probes_per_call"] = (
            ratio(c["numerics.maximize_1d.evals.photon_search"], oss_calls), "count")
        m["secrecy.optimal_signal_strength.repeat_share"] = (
            ratio(c["secrecy.optimal_signal_strength.repeats"], oss_calls), "ratio")
        hp_calls = span("detection.helstrom_projector", "calls")
        m["detection.helstrom_projector.calls"] = (hp_calls, "count")
        m["detection.helstrom_projector.self_s"] = (span("detection.helstrom_projector", "self_s"), "s")
        m["detection.helstrom_projector.search_share"] = (
            ratio(c["numerics.maximize_1d.calls.helstrom"], hp_calls), "ratio")
        for name in ("detection.holevo_binary", "receiver.mutual_info_bob"):
            m[name + ".calls"] = (span(name, "calls"), "count")
            m[name + ".self_s"] = (span(name, "self_s"), "s")
        m["receiver.bob_click_model.calls"] = (c["receiver.bob_click_model.calls"], "count")
        m["numerics.binary_entropy.calls"] = (c["numerics.binary_entropy.calls"], "count")
        for purpose in ("q_search", "helstrom", "photon_search"):
            m[f"numerics.maximize_1d.evals.{purpose}"] = (c[f"numerics.maximize_1d.evals.{purpose}"], "count")
        for purpose in ("pass_window", "exclusion_total", "orbit_offset"):
            m[f"numerics.find_root.evals.{purpose}"] = (c[f"numerics.find_root.evals.{purpose}"], "count")
        gdf_calls = span("numerics.gaussian_disk_fraction", "calls")
        m["numerics.gaussian_disk_fraction.calls"] = (gdf_calls, "count")
        m["numerics.gaussian_disk_fraction.self_s"] = (span("numerics.gaussian_disk_fraction", "self_s"), "s")
        m["numerics.gaussian_disk_fraction.useful_ratio"] = (
            ratio(c["numerics.gaussian_disk_fraction.useful"], gdf_calls), "ratio")
        m["numerics.gaussian_disk_fraction.failures"] = (c["numerics.gaussian_disk_fraction.failures"], "count")
        ig_calls = span("orbitsim.integrated_gamma", "calls")
        ig_ok = ig_calls - c["orbitsim.integrated_gamma.failures"]
        m["orbitsim.integrated_gamma.calls"] = (ig_calls, "count")
        m["orbitsim.integrated_gamma.self_s"] = (span("orbitsim.integrated_gamma", "self_s"), "s")
        m["orbitsim.pass_samples"] = (ratio(c["orbitsim.pass_samples"], ig_ok), "count")
        m["orbitsim.eve_nonzero_ratio"] = (ratio(c["orbitsim.eve_nonzero"], c["orbitsim.pass_samples"]), "ratio")
        m["orbitsim.required_orbital_exclusion.calls"] = (
            span("orbitsim.required_orbital_exclusion", "calls"), "count")
        m["orbitsim.required_orbital_exclusion.passes_per_solve"] = (
            ratio(c["orbitsim.required_orbital_exclusion.passes_in_solved"],
                  c["orbitsim.required_orbital_exclusion.solved"]), "count")
        m["orbitsim.pass_window.failures"] = (c["orbitsim.pass_window.failures"], "count")
        return m
