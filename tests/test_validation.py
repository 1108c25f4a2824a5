"""Argument checks of the library: each raises its own message, NaN included."""
import ast
import math
import struct
from pathlib import Path

import numpy as np
import pytest

import warnings

import wiretap_space
from wiretap_space import secrecy
from wiretap_space.detection import (
    BinaryCoherentEnsemble,
    distinguishability_angle,
    helstrom_error,
    helstrom_projector,
    holevo_binary,
    overlap,
)
from wiretap_space.linkbudget import (
    LinkGeometry,
    exclusion_radius_partial,
    exclusion_radius_total,
    fraction_to_db,
)
from wiretap_space.numerics import Interval, binary_entropy, find_root, gaussian_disk_fraction
from wiretap_space.orbitsim import OrbitScenario, PhysicalConstants
from wiretap_space.receiver import DetectorModel, _checked_prior, bob_click_model
from wiretap_space.scenario_io import OperatingPoint, SweepAxis, exclusion_sweep, preset_config, sweep, with_values
from wiretap_space.secrecy import (
    ClockedLink,
    devetak_winter_rate,
    dw_rate_symmetric,
    optimal_signal_strength,
    private_capacity,
    private_capacity_fixed,
    private_capacity_symmetric,
    private_rate,
    required_laser_power,
    secrecy_points,
)

NAN = math.nan


def _raises(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# A NaN fails every comparison, so a check written ``x < 0`` let it through.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: binary_entropy(NAN), "probability out of [0, 1]: nan"),
        (lambda: gaussian_disk_fraction(1.0, NAN, 1.0), "offset must be >= 0, got nan"),
        (lambda: gaussian_disk_fraction(1.0, 0.0, NAN), "disk_radius must be >= 0, got nan"),
        (lambda: BinaryCoherentEnsemble(mean_photons=NAN), "mean_photons must be >= 0, got nan"),
        (lambda: holevo_binary(BinaryCoherentEnsemble(NAN)), "mean_photons must be >= 0, got nan"),
        (lambda: overlap(NAN), "mean_photons must be >= 0, got nan"),
        (lambda: DetectorModel(stray_mean=NAN), "stray_mean must be >= 0, got nan"),
        (lambda: bob_click_model(DetectorModel(), NAN), "received_mean_photons must be >= 0, got nan"),
        (lambda: private_capacity(DetectorModel(), NAN, 0.1), "received_mean_photons must be >= 0, got nan"),
        (lambda: private_capacity_symmetric(DetectorModel(), NAN, 0.1),
         "received_mean_photons must be >= 0, got nan"),
        (lambda: secrecy_points([1.0, NAN], 0.1, 0.5, 1e-7, 1.0, 1e-4),
         "received_mean_photons must be >= 0, got nan"),
        (lambda: private_rate(NAN, ClockedLink()), "capacity must be >= 0, got nan"),
        (lambda: required_laser_power(NAN, 0.5, ClockedLink()), "target_received_mean_photons must be >= 0, got nan"),
        (lambda: OperatingPoint(received_mean_photons=NAN), "received_mean_photons must be >= 0, got nan"),
        (lambda: LinkGeometry(exclusion_radius=NAN), "exclusion_radius must be >= 0, got nan"),
    ],
)
def test_nan_raises_its_own_message(call, message):
    _raises(call, message)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fraction_to_db(0.0), "fraction must be in (0, 1], got 0.0"),
        (lambda: fraction_to_db(1.5), "fraction must be in (0, 1], got 1.5"),
        (lambda: exclusion_radius_partial(0.1, 0.0, 0.01, 2.0, 1e-5), "dist must be > 0, got 0.0"),
        (lambda: exclusion_radius_partial(0.1, 1e6, 0.01, -1.0, 1e-5),
         "diam_ratio_eve_over_bob must be >= 0, got -1.0"),
        (lambda: exclusion_radius_partial(0.1, 1e6, 0.0, 2.0, 1e-5), "eta_b must be in (0, 1], got 0.0"),
        (lambda: exclusion_radius_total(0.1, 1e6, 0.0, 1e-5), "diam_bob must be > 0, got 0.0"),
        (lambda: exclusion_radius_total(0.1, 1e6, 1.0, 0.0), "divergence must be > 0, got 0.0"),
        (lambda: OrbitScenario(alice_altitude=0.0),
         "alice_altitude must be > 0, got 0.0; eve_orbit_offset must be in [0.001 m, alice_altitude), "
         "got 16000.0; the pass geometry does not resolve closer orbits"),
        (lambda: OrbitScenario(eve_telescope_diameter=0.0), "eve_telescope_diameter must be > 0, got 0.0"),
        (lambda: OrbitScenario(diam_bob=-1.0), "diam_bob must be > 0, got -1.0"),
        (lambda: OrbitScenario(divergence_full_angle=0.0), "divergence_full_angle must be > 0, got 0.0"),
        (lambda: secrecy_points(1.0, 0.1, 0.5, 1.5, 1.0, 1e-4), "p_dark must be in [0, 1], got 1.5"),
        (lambda: _checked_prior(1.5), "q must be in [0, 1], got 1.5"),
        (lambda: secrecy_points([1.0, 2.0], 0.1, [0.5, 1.5], 1e-7, 1.0, 1e-4), "q must be in [0, 1], got 1.5"),
        (lambda: SweepAxis("q", 0.1, 0.9, 3, "cubic"), "scale must be linear or log, got 'cubic'"),
        (lambda: private_capacity(DetectorModel(), -1.0, 0.1), "received_mean_photons must be >= 0, got -1.0"),
        (lambda: private_capacity_symmetric(DetectorModel(), -1.0, 0.1),
         "received_mean_photons must be >= 0, got -1.0"),
        # Both of a cell's problems, joined by OperatingPoint's rule.
        (lambda: secrecy_points([1.0, -1.0], [0.1, 2.0], None, 1e-7, 1.0, 1e-4),
         "received_mean_photons must be >= 0, got -1.0; gamma must be in [0, 1), got 2.0"),
        (lambda: private_capacity(DetectorModel(), -1.0, 2.0),
         "received_mean_photons must be >= 0, got -1.0; gamma must be in [0, 1), got 2.0"),
        (lambda: private_rate(-0.1, ClockedLink()), "capacity must be >= 0, got -0.1"),
        (lambda: required_laser_power(-1.0, 0.5, ClockedLink()), "target_received_mean_photons must be >= 0, got -1.0"),
        (lambda: find_root(lambda x: x, Interval(-1.0, 1.0), 0.0), "tol must be > 0, got 0.0"),
    ],
)
def test_out_of_range_argument_raises_its_message(call, message):
    _raises(call, message)


INF = math.inf


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda config: sweep(config, [SweepAxis("gamma", 0.1, 0.5, 3.0)]), "points must be a whole number, got 3.0"),
        (lambda config: exclusion_sweep(config, SweepAxis("dist_bob_m", 1e5, 1e6, 3.5)),
         "points must be a whole number, got 3.5"),
        (lambda config: SweepAxis("gamma", 0.1, 0.5, True), "points must be a whole number, got True"),
        (lambda config: exclusion_sweep(config, SweepAxis("dist_bob_m", 1e5, INF, 3, "log")),
         "max must be finite, got inf"),
        (lambda config: SweepAxis("gamma", NAN, 0.5, 3), "min must be finite, got nan"),
    ],
)
def test_sweep_axis_needs_finite_bounds_and_an_integer_count(call, message):
    # A float count raised TypeError in grid(), True read as a count of 1,
    # and an infinite log bound ended in FloatingPointError.
    _raises(lambda: call(preset_config("micius-leo")), message)


def test_sweep_axis_takes_a_numpy_count():
    assert SweepAxis("gamma", 0.1, 0.5, np.int64(3)).grid() == SweepAxis("gamma", 0.1, 0.5, 3).grid()


@pytest.mark.parametrize(
    "call",
    [
        lambda: secrecy_points(1.0, None, None, 1e-7, 1.0, 1e-4),
        lambda: private_capacity(DetectorModel(), 1.0, None),
        lambda: private_capacity_symmetric(DetectorModel(), 1.0, None),
        lambda: dw_rate_symmetric(DetectorModel(), 1.0, None),
        lambda: optimal_signal_strength(DetectorModel(), None),
    ],
)
def test_gamma_none_raises_before_any_kernel_call(call, monkeypatch):
    # OperatingPoint reads a gamma of None as "derive it"; the kernel has no geometry to derive it from.
    def kernel(*args):
        raise AssertionError("kernel called")

    for name in ("_cell_terms", "bob_click_model"):
        monkeypatch.setattr(secrecy, name, kernel)
    with pytest.raises((TypeError, ValueError, struct.error)):  # the kernel's AssertionError is none of these
        call()


# ``x >= 0`` holds for +inf, and ``gamma * inf`` is NaN at gamma = 0.
@pytest.mark.parametrize(
    "call",
    [
        lambda: secrecy_points(INF, 0.0, 0.5, 1e-7, 1.0, 1e-4),
        lambda: secrecy_points([1.0, INF], 0.1, None, 1e-7, 1.0, 1e-4),
        lambda: private_capacity(DetectorModel(), INF, 0.1),
        lambda: private_capacity_fixed(DetectorModel(), INF, 0.0, 0.5),
        lambda: devetak_winter_rate(DetectorModel(), INF, 0.1, 0.5),
        lambda: private_capacity_symmetric(DetectorModel(), INF, 0.1),
        lambda: dw_rate_symmetric(DetectorModel(), INF, 0.0),
        lambda: OperatingPoint(received_mean_photons=INF),
    ],
)
def test_infinite_photon_number_raises_its_own_message(call):
    _raises(call, "received_mean_photons must be finite, got inf")


class TestFindRootEnds:
    @pytest.mark.parametrize("root", [-1.0, 2.0])
    def test_root_on_a_bracket_end_is_returned_unevaluated_between(self, root):
        calls = []

        def f(x):
            calls.append(x)
            return x - root

        assert find_root(f, Interval(-1.0, 2.0), 1e-9) == root
        assert calls == [-1.0, 2.0]

    def test_bracket_of_adjacent_floats_stops_at_the_midpoint(self):
        # No float lies between the ends, so the tolerance is never reached.
        lo, hi = 1.0, math.nextafter(1.0, 2.0)
        calls = []

        def f(x):
            calls.append(x)
            return -1.0 if x == lo else 1.0

        assert find_root(f, Interval(lo, hi), 1e-300) in (lo, hi)
        assert calls == [lo, hi]


# The library's other photon-number arguments and the stray light: a check
# ``x >= 0`` let +inf through, and each returned a value (a zero-capacity
# photon search for infinite stray light).
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bob_click_model(DetectorModel(), INF), "received_mean_photons must be finite, got inf"),
        (lambda: overlap(INF), "mean_photons must be finite, got inf"),
        (lambda: distinguishability_angle(INF), "mean_photons must be finite, got inf"),
        (lambda: BinaryCoherentEnsemble(INF), "mean_photons must be finite, got inf"),
        (lambda: helstrom_error(BinaryCoherentEnsemble(INF)), "mean_photons must be finite, got inf"),
        (lambda: helstrom_projector(BinaryCoherentEnsemble(INF, 0.3)), "mean_photons must be finite, got inf"),
        (lambda: holevo_binary(BinaryCoherentEnsemble(INF)), "mean_photons must be finite, got inf"),
        (lambda: required_laser_power(INF, 0.5, ClockedLink()),
         "target_received_mean_photons must be finite, got inf"),
        (lambda: DetectorModel(stray_mean=INF), "stray_mean must be finite, got inf"),
        (lambda: optimal_signal_strength(DetectorModel(stray_mean=INF), 0.1), "stray_mean must be finite, got inf"),
        (lambda: with_values(preset_config("micius-leo"), [("received_mean_photons", INF)]),
         "invalid configuration: received_mean_photons must be finite, got inf"),
    ],
)
def test_infinite_argument_raises_its_own_message(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _raises(call, message)


_VALID_DETECTOR = {"p_dark": 1e-7, "eta_optical": 1.0, "stray_mean": 1e-4}


def _detector_message(fields):
    """:class:`DetectorModel`'s message for ``fields``, or ``None`` if it accepts them."""
    try:
        DetectorModel(**fields)
    except ValueError as exc:
        return str(exc)
    return None


def _detector_values():
    """The edges of the three fields' ranges and their neighbours, then seeded values."""
    tiny = 5e-324
    edges = [0.0, -0.0, 1.0, tiny, -tiny, 2.2250738585072014e-308, math.nextafter(1.0, 0.0),
             math.nextafter(1.0, 2.0), -1.0, 0.5, 5.0, 1.7976931348623157e308, NAN, INF, -INF]
    rng = np.random.default_rng(20261019)
    magnitudes = 10.0 ** rng.uniform(-323.0, 308.0, 150)
    return edges + rng.uniform(-0.5, 1.5, 150).tolist() + (magnitudes * rng.choice([-1.0, 1.0], 150)).tolist()


# secrecy_points used to check only 0 <= eps1 <= eps0 <= 1 after the click
# model, which let eta_optical 0 or 5 and infinite stray light through.
@pytest.mark.parametrize("field", sorted(_VALID_DETECTOR))
def test_kernel_rejects_exactly_the_detectors_detector_model_rejects(field):
    for value in _detector_values():
        fields = {**_VALID_DETECTOR, field: value}
        message = _detector_message(fields)
        if message is None:
            assert len(secrecy_points(1.0, 0.1, 0.5, **fields)) == 1, value
        else:
            _raises(lambda: secrecy_points(1.0, 0.1, 0.5, **fields), message)


def test_kernel_raises_the_first_rejected_detectors_message():
    values, rng = _detector_values(), np.random.default_rng(26)
    for _ in range(300):
        cells = [{name: values[rng.integers(len(values))] if rng.random() < 0.15 else valid
                  for name, valid in _VALID_DETECTOR.items()} for _ in range(6)]
        messages = [m for m in map(_detector_message, cells) if m is not None]
        columns = {name: [cell[name] for cell in cells] for name in _VALID_DETECTOR}
        if messages:
            _raises(lambda: secrecy_points(1.0, 0.1, 0.5, **columns), messages[0])
        else:
            assert len(secrecy_points(1.0, 0.1, 0.5, **columns)) == 6


@pytest.mark.parametrize(
    "field, value, later",
    [("eta_optical", 0.0, 7.0), ("eta_optical", 5.0, 0.0), ("eta_optical", NAN, 7.0),
     ("stray_mean", -1.0, INF), ("stray_mean", NAN, -3.0), ("stray_mean", INF, -3.0),
     ("p_dark", 1.5, -2.0), ("p_dark", NAN, 2.0)],
)
def test_detector_check_comes_after_photons_and_gamma_and_before_q(field, value, later):
    fields = {**_VALID_DETECTOR, field: [_VALID_DETECTOR[field], value, later]}
    message = _detector_message({**_VALID_DETECTOR, field: value})
    _raises(lambda: secrecy_points([1.0, 2.0, 3.0], 0.1, None, **fields), message)
    _raises(lambda: secrecy_points([1.0, 2.0, -1.0], 0.1, None, **fields),
            "received_mean_photons must be >= 0, got -1.0")
    _raises(lambda: secrecy_points(1.0, [0.1, 0.1, 1.0], None, **fields), "gamma must be in [0, 1), got 1.0")
    _raises(lambda: secrecy_points(1.0, 0.1, [1.5, 0.5, 0.5], **fields), message)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: optimal_signal_strength(DetectorModel(), None), "gamma must be in [0, 1), got None"),
        (lambda: private_capacity_symmetric(DetectorModel(), 1.0, None), "gamma must be in [0, 1), got None"),
        (lambda: dw_rate_symmetric(DetectorModel(), 1.0, None), "gamma must be in [0, 1), got None"),
        (lambda: secrecy_points(1.0, None, None, 1e-7, 1.0, 1e-4), "gamma must be in [0, 1), got nan"),
    ],
)
def test_gamma_none_is_named_by_its_rule(call, message, monkeypatch):
    # optimal_signal_strength raised struct.error, the symmetric forms a bare TypeError from gamma * mu.
    def kernel(*args):
        raise AssertionError("kernel called")

    for name in ("_cell_terms", "bob_click_model", "_photon_search"):
        monkeypatch.setattr(secrecy, name, kernel)
    _raises(call, message)


def test_sections_join_every_problem_in_field_order():
    _raises(lambda: OrbitScenario(eta_b=0.0, divergence_full_angle=0.0),
            "eta_b must be in (0, 1], got 0.0; divergence_full_angle must be > 0, got 0.0")
    _raises(lambda: BinaryCoherentEnsemble(-1.0, 2.0),
            "mean_photons must be >= 0, got -1.0; prior_q must be in [0, 1], got 2.0")


# Each range of a declared rule: the message's text and values just outside it.
_OUTSIDE = {
    "[0, 1]": ("in [0, 1]", [-5e-324, math.nextafter(1.0, 2.0)]),
    "(0, 1]": ("in (0, 1]", [0.0, math.nextafter(1.0, 2.0)]),
    "[0, 1)": ("in [0, 1)", [-5e-324, 1.0]),
    "(0, 1)": ("in (0, 1)", [0.0, 1.0]),
    ">= 0": (">= 0", [-5e-324]),
    "> 0": ("> 0", [0.0, -5e-324]),
    "finite": ("finite", [INF]),
}
# Each ruled section with the fields it needs besides its defaults.
_SECTIONS = {DetectorModel: {}, OperatingPoint: {}, ClockedLink: {}, LinkGeometry: {}, OrbitScenario: {},
             BinaryCoherentEnsemble: {"mean_photons": 1.0}, PhysicalConstants: {}}
_RULED_FIELDS = [(cls, name, rule) for cls in _SECTIONS for name, rule in cls._rules.items() if isinstance(rule, str)]
# The kernel's five columns, as secrecy_points takes them.
_KERNEL_COLUMNS = ("received_mean_photons", "gamma", "p_dark", "eta_optical", "stray_mean")


@pytest.mark.parametrize("cls, name, rule", _RULED_FIELDS, ids=lambda v: getattr(v, "__name__", v))
def test_each_declared_rule_gives_its_text_in_the_section_and_the_kernel(cls, name, rule):
    ranges = rule.split(" and ")
    cases = [(value, text) for part in ranges for text, values in [_OUTSIDE[part]] for value in values]
    cases.append((NAN, _OUTSIDE[ranges[0]][0]))  # NaN breaks the first range
    for value, text in cases:
        message = f"{name} must be {text}, got {value}"
        with pytest.raises(ValueError) as exc:
            cls(**{**_SECTIONS[cls], name: value})
        assert message in str(exc.value).split("; "), (value, str(exc.value))
        if cls in (OperatingPoint, DetectorModel) and name in _KERNEL_COLUMNS:
            cells = {"received_mean_photons": 1.0, "gamma": 0.1, "q": 0.5, **_VALID_DETECTOR}
            _raises(lambda: secrecy_points(**{**cells, name: [cells[name], value]}), message)


def test_no_range_message_is_written_outside_the_rule_table():
    # Every range message comes from the one rule helper of _common, so a bound and its text cannot drift apart.
    phrases = ("must be in [", "must be in (", "must be >= 0", "must be > 0")
    package = Path(wiretap_space.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found += [f"{path.name}:{node.lineno}: {node.value!r}" for p in phrases if p in node.value]
    assert found == []
