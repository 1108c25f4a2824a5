import csv
import io
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import bisect_reference, mp_pass_geometry, mp_pass_half_width, propagated_lap_period
from wiretap_space import orbitsim
from wiretap_space.cli import EXIT_OK, main
from wiretap_space.linkbudget import LinkBudgetWarning, LinkGeometry, bob_free_space
from wiretap_space.numerics import BracketError, ConfigError, gaussian_disk_fraction
from wiretap_space.orbitsim import (
    CROSSING_PANELS,
    DEFAULT_CONSTANTS,
    MIN_EVE_ORBIT_OFFSET,
    OrbitScenario,
    PASS_PANELS,
    PhysicalConstants,
    StepSizeWarning,
    alignment_periods,
    angular_velocity,
    integrated_gamma,
    pass_window,
    required_orbital_exclusion,
    _crossing_half_time,
    _efficiencies,
    _pass_geometry,
)

LEO = OrbitScenario()  # 600 km transmitter, interceptor 16 km below
# Samples of the refined pass grid, for every input: both halves of
# 2 * CROSSING_PANELS fine and at most 2 * PASS_PANELS coarse panels.
MAX_PASS_SAMPLES = 4 * (CROSSING_PANELS + PASS_PANELS) + 1


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _bench_pass(rng) -> OrbitScenario:
    """400-800 km, offsets 1-40 km, 5e-6 - 2e-5 rad beams, 1-4 m telescopes."""
    return OrbitScenario(
        alice_altitude=rng.uniform(400e3, 800e3),
        eve_orbit_offset=_log_uniform(rng, 1e3, 40e3),
        eve_telescope_diameter=rng.uniform(1.0, 4.0),
        divergence_full_angle=_log_uniform(rng, 5e-6, 2e-5),
        min_elevation=math.radians(rng.uniform(10.0, 40.0)),
        legacy_beam_width=bool(rng.integers(2)),
    )


def _wide_pass(rng) -> OrbitScenario:
    """300-1500 km, offsets 0.2-200 km, 1e-6 - 1e-4 rad beams, 0.1-4 m telescopes."""
    return OrbitScenario(
        alice_altitude=rng.uniform(300e3, 1500e3),
        eve_orbit_offset=_log_uniform(rng, 200.0, 200e3),
        eve_telescope_diameter=_log_uniform(rng, 0.1, 4.0),
        divergence_full_angle=_log_uniform(rng, 1e-6, 1e-4),
        min_elevation=math.radians(rng.uniform(5.0, 60.0)),
        bob_aperture_model=("gaussian", "footprint")[rng.integers(2)],
        legacy_beam_width=bool(rng.integers(2)),
    )


def _at(scenario: OrbitScenario, t: float) -> tuple[float, float]:
    """(eta_bob, eta_eve) at one time, from the pass series on a one-sample grid."""
    *_, eta_bob, eta_eve = _efficiencies(scenario, DEFAULT_CONSTANTS, np.array([t]))
    return float(eta_bob[0]), float(eta_eve[0])


def _candidate_extent(scenario: OrbitScenario, sign: float) -> float:
    """Last time on one side of alignment at which the interceptor's disk is
    within 8 beam radii of the beam axis, by bisection on the pass geometry."""
    theta = scenario.divergence_full_angle
    disk = 0.5 * scenario.eve_telescope_diameter

    def clearance(t):
        _, _, along, beam_offset = _pass_geometry(scenario, DEFAULT_CONSTANTS, np.array([sign * t]))
        width = (theta if scenario.legacy_beam_width else 0.5 * theta) * along[0]
        return beam_offset[0] - disk - 8.0 * width

    half = pass_window(scenario)
    return half if clearance(half) <= 0.0 else bisect_reference(clearance, 0.0, half)


def _dense_gamma(scenario: OrbitScenario) -> float:
    """Degradation on uniform grids: 2**16 panels over the window for the
    station, 2**15 over the bisected interceptor extent for the interceptor."""
    half = pass_window(scenario)
    times = np.linspace(-half, half, 2**16 + 1)
    *_, eta_bob, _ = _efficiencies(scenario, DEFAULT_CONSTANTS, times)
    int_bob = np.trapezoid(eta_bob, times)
    times = np.linspace(-_candidate_extent(scenario, -1.0), _candidate_extent(scenario, 1.0), 2**15 + 1)
    *_, eta_eve = _efficiencies(scenario, DEFAULT_CONSTANTS, times)
    int_eve = np.trapezoid(eta_eve, times)
    return float(int_eve / int_bob)


class TestAngularVelocity:
    def test_leo_rate_and_period(self):
        omega = angular_velocity(6.971e6)
        assert omega == pytest.approx(1.0847e-3, abs=1e-6)
        assert 2 * math.pi / omega == pytest.approx(5792.0, abs=5.0)

    def test_geostationary_matches_earth_rate(self):
        omega = angular_velocity(4.2164e7)
        assert omega == pytest.approx(DEFAULT_CONSTANTS.earth_angular_velocity, rel=1e-4)

    def test_surface_skimming_period(self):
        omega = angular_velocity(DEFAULT_CONSTANTS.earth_radius * (1 + 1e-12))
        assert 2 * math.pi / omega == pytest.approx(5061.0, abs=5.0)

    def test_inside_earth_rejected(self):
        with pytest.raises(ValueError):
            angular_velocity(6e6)

    @pytest.mark.parametrize("radius", [1e103, 1e200])
    def test_radius_cube_past_float_range(self, radius):
        expected = math.sqrt(DEFAULT_CONSTANTS.earth_mu) * radius**-1.5
        assert angular_velocity(radius) == pytest.approx(expected, rel=1e-15)


class TestPassWindow:
    def test_reference_window(self):
        assert pass_window(LEO) == pytest.approx(373.2, abs=1.0)
        # paper-style 400 s within the model band
        assert abs(pass_window(LEO) - 400.0) / 400.0 < 0.15

    def test_zenith_only(self):
        scenario = replace(LEO, min_elevation=math.pi / 2)
        assert pass_window(scenario) == 0.0

    def test_monotone_in_altitude(self):
        altitudes = [400e3, 600e3, 900e3, 1500e3]
        windows = [pass_window(replace(LEO, alice_altitude=h)) for h in altitudes]
        assert all(b > a for a, b in zip(windows, windows[1:]))

    def test_capped_at_horizon(self):
        # very low cutoff: the window cannot extend below the horizon
        scenario = replace(LEO, min_elevation=math.radians(1.0))
        a = DEFAULT_CONSTANTS.earth_radius + LEO.alice_altitude
        rel = angular_velocity(a) - DEFAULT_CONSTANTS.earth_angular_velocity
        horizon = math.acos(DEFAULT_CONSTANTS.earth_radius / a) / rel
        assert pass_window(scenario) <= horizon + 1e-9

    def test_non_integer_altitudes(self):
        # The elevation's asin argument used to round above 1 near psi = 0 for
        # about half of non-integer-metre altitudes, raising a domain error.
        rng = np.random.default_rng(1406588)
        altitudes = sorted([1406588.6041677513, *rng.uniform(400e3, 800e3, 64)])
        assert not any(float(h).is_integer() for h in altitudes)
        windows = [pass_window(replace(LEO, alice_altitude=float(h))) for h in altitudes]
        assert all(b > a for a, b in zip(windows, windows[1:]))


    def test_against_mpmath_oracle(self):
        # 200-30000 km x 0.01-89.9 degrees; the corners include the near-zenith
        # cutoff at low altitude, where acos(R cos(el) / r) - el cancels.
        rng = np.random.default_rng(20261018)
        cases = [(200e3, 89.9), (200e3, 0.01), (30000e3, 89.9), (30000e3, 0.01)]
        cases += zip(rng.uniform(200e3, 30000e3, 200), rng.uniform(0.01, 89.9, 200))
        c = DEFAULT_CONSTANTS
        for altitude, elevation_deg in cases:
            scenario = replace(LEO, alice_altitude=float(altitude), min_elevation=math.radians(elevation_deg))
            expected = mp_pass_half_width(
                scenario.alice_altitude, scenario.min_elevation,
                c.earth_radius, c.earth_mu, c.earth_angular_velocity,
            )
            assert pass_window(scenario) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_orbit_radius_whose_square_overflows_is_named(self):
        # A non-rotating Earth lets so wide an orbit reach the window; its
        # ** 2 raised the bare OverflowError "(34, 'Numerical result out of range')".
        scenario = replace(LEO, alice_altitude=1e200)
        constants = replace(DEFAULT_CONSTANTS, earth_angular_velocity=0.0)
        with pytest.raises(FloatingPointError, match=r"pass window: orbit radius 1e\+200 m squared overflows"):
            pass_window(scenario, constants)


class TestInstantaneousEfficiencies:
    def test_culmination_interceptor_swallows_beam(self):
        _, eta_eve = _at(LEO, 0.0)
        assert eta_eve > 0.999

    def test_culmination_bob_gaussian(self):
        eta_bob, _ = _at(LEO, 0.0)
        w = 0.5 * 1e-5 * 600e3
        expected = 0.01 * (1.0 - math.exp(-2.0 * 0.25 / (w * w)))
        assert eta_bob == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("legacy", [False, True])
    def test_series_matches_per_sample_scalar(self, legacy):
        scenario = replace(LEO, legacy_beam_width=legacy)
        times = np.linspace(-0.02, 0.02, 401)
        d_bob, _, along, beam_offset = _pass_geometry(scenario, DEFAULT_CONSTANTS, times)
        *_, eta = _efficiencies(scenario, DEFAULT_CONSTANTS, times)
        theta = scenario.divergence_full_angle
        disk = 0.5 * scenario.eve_telescope_diameter
        expected = []
        for a, b, offset in zip(along, d_bob, beam_offset):
            w = (theta if legacy else 0.5 * theta) * a
            near = 0.0 < a < b and offset <= disk + 8.0 * w
            expected.append(gaussian_disk_fraction(float(w), float(offset), disk) if near else 0.0)
        assert eta.tolist() == expected
        assert 0 < np.count_nonzero(eta) < eta.size

    def test_culmination_footprint_matches_static_budget(self):
        def static_budget(scenario):
            return LinkGeometry(
                dist_bob=scenario.alice_altitude,
                diam_bob=scenario.diam_bob,
                divergence_full_angle=scenario.divergence_full_angle,
                eta_b=scenario.eta_b,
            )

        scenario = replace(LEO, bob_aperture_model="footprint")
        eta_bob, _ = _at(scenario, 0.0)
        assert eta_bob == scenario.eta_b * bob_free_space(static_budget(scenario))
        # A 0.6 m footprint, narrower than the 1 m aperture: both models
        # collect it whole through the same filled-aperture law.
        narrow = replace(scenario, divergence_full_angle=1e-6)
        eta_bob, _ = _at(narrow, 0.0)
        with pytest.warns(LinkBudgetWarning, match="clamped to 1"):
            assert eta_bob == narrow.eta_b * bob_free_space(static_budget(narrow)) == narrow.eta_b

    def test_interceptor_dark_away_from_alignment(self):
        _, eta_eve = _at(LEO, 30.0)
        assert eta_eve < 1e-12

    def test_footprint_inverse_square_ratio(self):
        scenario = replace(LEO, bob_aperture_model="footprint")
        t_cross = pass_window(scenario) / 2.0  # elevation hits 20 degrees here
        eta_peak, _ = _at(scenario, 0.0)
        eta_edge, _ = _at(scenario, t_cross)
        assert eta_peak / eta_edge == pytest.approx((1392.2 / 600.0) ** 2, rel=2e-3)

    def test_distance_never_below_altitude(self):
        profile = integrated_gamma(LEO)
        assert np.all(profile.d_bob >= LEO.alice_altitude - 1e-6)
        assert profile.d_bob.min() == pytest.approx(LEO.alice_altitude, rel=1e-9)

    def test_symmetry_about_culmination(self):
        profile = integrated_gamma(LEO)
        mid = len(profile.times) // 2
        assert profile.times[mid] == 0.0
        np.testing.assert_allclose(
            profile.eta_bob, profile.eta_bob[::-1], rtol=1e-9, atol=1e-18
        )


def _mp_geometry(scenario: OrbitScenario, constants: PhysicalConstants, times) -> np.ndarray:
    """The 50-digit pass geometry of ``scenario`` at ``times``, at the angular
    rates of ``_orbits`` and the radii of the scenario."""
    _, _, w_alice, w_eve = orbitsim._orbits(scenario, constants)
    rates = (w_alice, w_eve, constants.earth_angular_velocity)
    return mp_pass_geometry(constants.earth_radius, scenario.alice_altitude, scenario.eve_orbit_offset, rates, times)


class TestPassGeometry:
    def test_against_mpmath_oracle(self):
        # Positions as differences of ~7e6 m coordinates erred by up to 8.5e-7
        # relative on d_eve and beam_offset here.
        rng = np.random.default_rng(1729)
        worst = np.zeros(4)
        for _ in range(24):
            scenario = OrbitScenario(
                alice_altitude=rng.uniform(300e3, 1500e3),
                eve_orbit_offset=_log_uniform(rng, MIN_EVE_ORBIT_OFFSET, 2e5),
                min_elevation=math.radians(rng.uniform(5.0, 60.0)),
            )
            half = pass_window(scenario)
            crossing = min(_crossing_half_time(scenario, DEFAULT_CONSTANTS), half)
            times = np.concatenate([rng.uniform(-half, half, 12), rng.uniform(-1.5, 1.5, 12) * crossing])
            got = np.array(_pass_geometry(scenario, DEFAULT_CONSTANTS, times))
            want = _mp_geometry(scenario, DEFAULT_CONSTANTS, times)
            error = np.abs(got - want)
            # along is a difference near the axis's foot; its bound is in units of d_eve.
            scale = np.stack([want[0], want[1], want[1], want[3]])
            worst = np.maximum(worst, (error / scale).max(axis=1))
        assert np.all(worst <= 1e-14), worst

    def test_multi_revolution_pass(self):
        # Just below the geostationary orbit, with the interceptor 400 km up:
        # the window reaches 2.4 years either side of alignment, by when she
        # has gained 8.1e4 rad on the transmitter, passing tan's poles at
        # every odd multiple of pi of that angle.  The angle
        # itself carries a rounding of 8.1e4 * 2**-53 = 9e-12 rad, so the bound
        # is in units of d_eve: 1e-11 (1.05e-12 seen).
        scenario = OrbitScenario(alice_altitude=35786e3, eve_orbit_offset=35386e3)
        _, _, w_alice, w_eve = orbitsim._orbits(scenario, DEFAULT_CONSTANTS)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepSizeWarning)
            profile = integrated_gamma(scenario)
        assert (w_eve - w_alice) * profile.pass_half_duration > 8e4
        for series in (profile.d_bob, profile.d_eve, profile.beam_offset, profile.eta_bob, profile.eta_eve):
            assert np.isfinite(series).all()
        assert math.isfinite(profile.integrated_gamma)
        times = profile.times[::16]
        got = np.array(_pass_geometry(scenario, DEFAULT_CONSTANTS, times))
        want = _mp_geometry(scenario, DEFAULT_CONSTANTS, times)
        assert np.all(np.abs(got - want) <= 1e-11 * want[1])

    def test_no_overflow_on_the_widest_orbit(self):
        # pass_window squares a_alice and rejects orbits where that overflows,
        # above 1.34e154 m.  Just inside, with the station turning nearly as fast
        # as the transmitter, an interceptor 0.1% lower laps the transmitter
        # 375 times in the window's half: on the far side
        # d_eve = a_alice + a_eve = 2.6e154 m, whose square no float holds.
        # No coordinate is squared; the distance's root is taken of
        # (d_eve / 2)**2 <= a_alice**2.  The bound is the multi-revolution
        # pass's (9.3e-13 seen).
        altitude = 1.3e154
        rate = angular_velocity(DEFAULT_CONSTANTS.earth_radius + altitude)
        constants = PhysicalConstants(earth_angular_velocity=rate * (1.0 - 1e-6))
        scenario = OrbitScenario(alice_altitude=altitude, eve_orbit_offset=1e-3 * altitude)
        half = pass_window(scenario, constants)
        _, _, w_alice, w_eve = orbitsim._orbits(scenario, constants)
        lap = 2.0 * math.pi / (w_eve - w_alice)
        far_sides = (np.arange(8) + 0.5) * lap
        times = np.concatenate([far_sides, -far_sides, np.random.default_rng(5).uniform(-half, half, 8)])
        assert far_sides[-1] < half
        got = np.array(_pass_geometry(scenario, constants, times))
        want = _mp_geometry(scenario, constants, times)
        assert want[1].max() > 2.5e154
        assert np.isfinite(got).all()
        assert np.all(np.abs(got - want) <= 1e-11 * want[1])


class TestIntegratedGamma:
    def test_reference_scenario_below_target(self):
        profile = integrated_gamma(LEO)
        assert profile.integrated_gamma < 0.1
        assert profile.integrated_gamma > 0.01

    def test_intercept_window_subsecond(self):
        profile = integrated_gamma(LEO)
        visible = profile.times[profile.eta_eve > 1e-3]
        assert visible.size > 0
        assert visible[-1] - visible[0] < 1.0

    def test_matches_dense_reference_on_bench_passes(self):
        rng = np.random.default_rng(63)
        for _ in range(24):
            scenario = _bench_pass(rng)
            profile = integrated_gamma(scenario)
            assert profile.integrated_gamma == pytest.approx(_dense_gamma(scenario), rel=1e-6, abs=0.0)

    def test_within_convergence_delta_of_dense_reference(self):
        # Beams far narrower than the disk make the interceptor's efficiency
        # nearly a step; the step-halving delta then bounds the error.
        rng = np.random.default_rng(3000)
        for _ in range(24):
            scenario = _wide_pass(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StepSizeWarning)
                profile = integrated_gamma(scenario)
            bound = max(1e-6, profile.convergence_delta)
            assert profile.integrated_gamma == pytest.approx(_dense_gamma(scenario), rel=bound, abs=0.0)

    def test_fine_zone_covers_the_beam_crossing(self):
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            scenario = _wide_pass(rng)
            crossing = _crossing_half_time(scenario, DEFAULT_CONSTANTS)
            fine_zone = min(1.25 * crossing, pass_window(scenario))
            extent = max(_candidate_extent(scenario, -1.0), _candidate_extent(scenario, 1.0))
            assert crossing / 1.01 <= extent <= fine_zone
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StepSizeWarning)
                profile = integrated_gamma(scenario)
            assert np.all(profile.eta_eve[np.abs(profile.times) > fine_zone] == 0.0)

    def test_zero_crossing_speed_spans_the_window(self):
        # 0.1 pm apart, both orbits round to the same radius and speed.  The
        # offset floor rejects such a scenario, so it is built past the
        # validation to reach the guard.
        scenario = replace(LEO)
        object.__setattr__(scenario, "eve_orbit_offset", 1e-13)
        assert _crossing_half_time(scenario, DEFAULT_CONSTANTS) == math.inf
        assert integrated_gamma(scenario).times.size == 4 * CROSSING_PANELS + 1

    def test_window_past_the_next_alignment_warns(self):
        # Just below the geostationary orbit, with the interceptor 400 km up,
        # the half window outlasts her alignment period: every crossing but
        # the one at t = 0 falls on the coarse grid, which the step-halving
        # delta (8.5e-8 here) cannot see.
        scenario = OrbitScenario(alice_altitude=35786e3, eve_orbit_offset=35386e3)
        _, period = alignment_periods(scenario)
        message = r"7\.628e\+07 s reaches the interceptor's next alignment, 5926 s after"
        with pytest.warns(StepSizeWarning, match=message):
            profile = integrated_gamma(scenario)
        assert profile.pass_half_duration > period
        assert profile.convergence_delta < 0.01

    def test_reference_pass_does_not_warn(self):
        # (Equal angular rates never realign: test_zero_crossing_speed_spans_the_window.)
        with warnings.catch_warnings():
            warnings.simplefilter("error", StepSizeWarning)
            profile = integrated_gamma(LEO)
        assert profile.pass_half_duration < alignment_periods(LEO)[1]

    def test_reference_pass_samples(self):
        assert integrated_gamma(LEO).times.size == MAX_PASS_SAMPLES == 4097

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        altitude=st.floats(1e3, 3e7),
        offset_share=st.floats(1e-9, 1.0, exclude_max=True),
        eve_diameter=st.floats(1e-3, 1e3),
        divergence=st.floats(1e-9, 1.0),
        elevation=st.floats(1e-6, 0.5 * math.pi),
        model=st.sampled_from(["gaussian", "footprint"]),
        legacy=st.booleans(),
    )
    def test_samples_bounded_by_panel_constants(
        self, altitude, offset_share, eve_diameter, divergence, elevation, model, legacy
    ):
        scenario = OrbitScenario(
            alice_altitude=altitude,
            eve_orbit_offset=max(offset_share * altitude, MIN_EVE_ORBIT_OFFSET),
            eve_telescope_diameter=eve_diameter,
            divergence_full_angle=divergence,
            min_elevation=elevation,
            bob_aperture_model=model,
            legacy_beam_width=legacy,
        )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                profile = integrated_gamma(scenario)
        except ValueError:
            return  # no pass: GEO and beyond, or a zenith-only window
        except FloatingPointError:
            return  # a disk rim crossing a beam far narrower than the disk
        assert 4 * CROSSING_PANELS + 1 <= profile.times.size <= MAX_PASS_SAMPLES
        assert math.isfinite(profile.integrated_gamma)
        assert math.isfinite(profile.convergence_delta)

    def test_one_geometry_evaluation_per_pass(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[2].size)
            return _pass_geometry(*args)

        monkeypatch.setattr(orbitsim, "_pass_geometry", counted)
        profile = integrated_gamma(LEO)
        assert calls == [(profile.times.size + 1) // 2]

    @pytest.mark.parametrize("offset", [MIN_EVE_ORBIT_OFFSET, 1.0, LEO.eve_orbit_offset])
    def test_disk_fraction_on_the_mirrored_half(self, monkeypatch, offset):
        # Close orbits keep the interceptor near the beam for most of the
        # pass, so a full-grid evaluation would pass her more samples.
        sizes = []
        disk_fraction = orbitsim._disk_fraction

        def counted(widths, beam_offset, radius):
            sizes.append(widths.size)
            return disk_fraction(widths, beam_offset, radius)

        monkeypatch.setattr(orbitsim, "_disk_fraction", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepSizeWarning)
            profile = integrated_gamma(replace(LEO, eve_orbit_offset=offset))
        assert len(sizes) == 1
        assert 0 < sizes[0] <= (profile.times.size + 1) // 2

    def test_series_even_in_time(self):
        # integrated_gamma evaluates t >= 0 only and mirrors each series: the
        # full grid must give that mirror image bit for bit.
        rng = np.random.default_rng(2718)
        for model, legacy, whole_km in itertools.product(("gaussian", "footprint"), (False, True), (True, False)):
            for _ in range(4):
                if whole_km:
                    altitude = 1e3 * float(rng.integers(400, 801))
                else:  # from an orbital period of 92.6-100.9 min, as an ephemeris gives it
                    period = 60.0 * rng.uniform(92.6, 100.9)
                    altitude = (DEFAULT_CONSTANTS.earth_mu * (period / (2.0 * math.pi)) ** 2) ** (1.0 / 3.0)
                    altitude -= DEFAULT_CONSTANTS.earth_radius
                scenario = OrbitScenario(
                    alice_altitude=altitude,
                    eve_orbit_offset=_log_uniform(rng, MIN_EVE_ORBIT_OFFSET, 2e5),
                    eve_telescope_diameter=_log_uniform(rng, 0.1, 4.0),
                    divergence_full_angle=_log_uniform(rng, 1e-6, 1e-4),
                    min_elevation=math.radians(rng.uniform(10.0, 89.0)),
                    bob_aperture_model=model,
                    legacy_beam_width=legacy,
                )
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", StepSizeWarning)
                    times = integrated_gamma(scenario).times
                positive = times[times.size // 2:]
                assert positive[0] == 0.0
                full = _efficiencies(scenario, DEFAULT_CONSTANTS, times)
                half = _efficiencies(scenario, DEFAULT_CONSTANTS, positive)
                for whole, series in zip(full, half):
                    assert np.array_equal(whole, np.concatenate([series[:0:-1], series])), scenario

    @pytest.mark.parametrize("draw,seed", [(_bench_pass, 11), (_wide_pass, 12)])
    def test_convergence_delta_from_the_coarse_grid(self, draw, seed):
        # The coarse grid, built here: CROSSING_PANELS panels over the fine
        # zone and panels of at most T / PASS_PANELS over the rest.
        rng = np.random.default_rng(seed)
        for _ in range(16):
            scenario = draw(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StepSizeWarning)
                profile = integrated_gamma(scenario)
            half = profile.pass_half_duration
            zone = min(1.25 * _crossing_half_time(scenario, DEFAULT_CONSTANTS), half)
            outer = math.ceil(PASS_PANELS * (half - zone) / half)
            positive = np.concatenate([
                np.linspace(0.0, zone, CROSSING_PANELS + 1),
                np.linspace(zone, half, outer + 1)[1:],
            ])
            times = np.concatenate([-positive[:0:-1], positive])
            *_, eta_bob, eta_eve = _efficiencies(scenario, DEFAULT_CONSTANTS, times)
            coarse = float(np.trapezoid(eta_eve, times)) / float(np.trapezoid(eta_bob, times))
            gamma = profile.integrated_gamma
            assert profile.convergence_delta == abs(gamma - coarse) / gamma

    def test_monotone_in_offset(self):
        offsets = [5e3, 10e3, 20e3, 50e3, 100e3]
        gammas = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepSizeWarning)
            for offset in offsets:
                profile = integrated_gamma(replace(LEO, eve_orbit_offset=offset))
                gammas.append(profile.integrated_gamma)
        assert all(b < a for a, b in zip(gammas, gammas[1:]))

    def test_step_size_warning_on_unresolvable_grid(self, monkeypatch):
        # two panels cannot resolve the interceptor's beam crossing
        monkeypatch.setattr(orbitsim, "CROSSING_PANELS", 2)
        with pytest.warns(StepSizeWarning, match="does not resolve"):
            profile = integrated_gamma(LEO)
        assert profile.convergence_delta > 0.01

    def test_profile_lengths_consistent(self):
        profile = integrated_gamma(LEO)
        n = profile.times.size
        for series in (profile.eta_bob, profile.eta_eve, profile.d_bob,
                       profile.d_eve, profile.beam_offset):
            assert series.size == n
        assert profile.times[0] == -profile.pass_half_duration
        assert profile.times[-1] == profile.pass_half_duration

    def test_footprint_model_inflates_gamma(self):
        # the footprint approximation understates the station's collection
        # near culmination, so the integrated degradation comes out larger
        gaussian = integrated_gamma(LEO).integrated_gamma
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepSizeWarning)
            footprint = integrated_gamma(
                replace(LEO, bob_aperture_model="footprint")
            ).integrated_gamma
        assert footprint > 1.5 * gaussian

    def test_legacy_beam_width_flag_changes_transit_edge(self):
        # during the beam-edge transit the doubled width collects differently
        t_edge = 5.0e-3
        _, eta_half = _at(LEO, t_edge)
        _, eta_full = _at(replace(LEO, legacy_beam_width=True), t_edge)
        assert 0.0 < eta_half <= 1.0 and 0.0 < eta_full <= 1.0
        assert eta_half != pytest.approx(eta_full, rel=1e-6)

    @pytest.mark.parametrize("model", ["gaussian", "footprint"])
    def test_legacy_beam_width_leaves_the_station_alone(self, model):
        # Only the interceptor's beam widens; the station keeps theta d / 2.
        scenario = replace(LEO, bob_aperture_model=model)
        # the whole pass, and the interceptor's transit of the beam
        times = np.concatenate([np.linspace(-0.5, 0.5, 201) * pass_window(scenario), np.linspace(-0.01, 0.01, 41)])
        *_, eta_bob, eta_eve = _efficiencies(scenario, DEFAULT_CONSTANTS, times)
        *_, eta_bob_legacy, eta_eve_legacy = _efficiencies(
            replace(scenario, legacy_beam_width=True), DEFAULT_CONSTANTS, times
        )
        assert eta_bob_legacy.tobytes() == eta_bob.tobytes()
        assert not np.array_equal(eta_eve_legacy, eta_eve)


class TestRequiredOrbitalExclusion:
    def test_reference_target(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # none of its probes warns
            offset = required_orbital_exclusion(LEO, gamma_target=0.1)
        assert abs(offset - 16e3) / 16e3 < 0.25

    def test_monotone_in_target(self):
        loose = required_orbital_exclusion(LEO, gamma_target=0.5)
        tight = required_orbital_exclusion(LEO, gamma_target=0.02)
        reference = required_orbital_exclusion(LEO, gamma_target=0.1)
        assert loose < reference < tight

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            required_orbital_exclusion(LEO, gamma_target=1.0)

    def test_probe_warnings_make_one_warning(self):
        # Three of the 15 probes of a geostationary solve reach the
        # interceptor's next alignment; the solve used to hide them.
        geo = OrbitScenario(alice_altitude=35786e3)
        with pytest.warns(StepSizeWarning) as caught:
            offset = required_orbital_exclusion(geo, gamma_target=0.1)
        assert offset == 8566.95556640625
        assert len(caught) == 1
        assert str(caught[0].message).startswith(
            "3 of 15 offset probes do not resolve their pass; the first, at 200000 m: "
            "pass half-window 7.628e+07 s reaches the interceptor's next alignment"
        )

    def test_probe_warnings_of_other_kinds_pass_through(self):
        # The beam-radius products of a 1e-300 rad divergence overflow.
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(BracketError):
            required_orbital_exclusion(OrbitScenario(divergence_full_angle=1e-300), gamma_target=0.1)

    @pytest.mark.parametrize("altitude", [1.5e5, 2e5])
    def test_altitude_inside_the_bracket_is_a_config_error(self, altitude, monkeypatch):
        def no_probe(*args):
            raise AssertionError("the solve probed a pass")

        monkeypatch.setattr(orbitsim, "integrated_gamma", no_probe)
        with pytest.raises(ConfigError) as info:
            required_orbital_exclusion(OrbitScenario(alice_altitude=altitude), gamma_target=0.1)
        assert info.value.violations == [
            "the offset solve searches 1-200 km below the transmitter, "
            f"so alice_altitude must exceed 200000 m, got {altitude}"
        ]


class TestAlignmentPeriods:
    def test_reference_periods(self):
        revisit, _ = alignment_periods(LEO)
        assert revisit / 3600.0 == pytest.approx(1.73, abs=0.02)
        _, intercept = alignment_periods(replace(LEO, eve_orbit_offset=15e3))
        assert intercept / 86400.0 == pytest.approx(20.7, abs=0.5)

    def test_co_orbital_divergence(self):
        periods = []
        for offset in (15e3, 5e3, 1e3):
            _, intercept = alignment_periods(replace(LEO, eve_orbit_offset=offset))
            periods.append(intercept)
        assert all(b > a for a, b in zip(periods, periods[1:]))

    def test_against_propagated_events(self):
        revisit, intercept = alignment_periods(LEO)
        a_alice = DEFAULT_CONSTANTS.earth_radius + LEO.alice_altitude
        a_eve = a_alice - LEO.eve_orbit_offset
        step = 10.0
        revisit_sim = propagated_lap_period(
            angular_velocity(a_alice),
            DEFAULT_CONSTANTS.earth_angular_velocity,
            duration=30 * 86400.0,
            step=step,
        )
        assert abs(revisit_sim - revisit) <= step
        intercept_sim = propagated_lap_period(
            angular_velocity(a_eve), angular_velocity(a_alice), duration=60 * 86400.0, step=step
        )
        assert abs(intercept_sim - intercept) <= step


# The pass profile's CSV header, one column per series of the profile.
PASS_PROFILE_COLUMNS = ("t_s", "eta_bob", "eta_eve", "d_bob_m", "d_eve_m", "offset_m")


def _profile_csv_reference(profile) -> bytes:
    """The pass profile as CSV, written row by row: CRLF, 9 significant digits."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(PASS_PROFILE_COLUMNS)
    series = (profile.times, profile.eta_bob, profile.eta_eve,
              profile.d_bob, profile.d_eve, profile.beam_offset)
    for i in range(len(profile.times)):
        writer.writerow([f"{values[i]:.9g}" for values in series])
    return buffer.getvalue().encode("utf-8")


class TestPassProfileCsv:
    @pytest.fixture
    def cli_csv(self, tmp_path, capsys) -> bytes:
        out_path = tmp_path / "pass.csv"
        assert main(["orbit", "--out", str(out_path)]) == EXIT_OK
        capsys.readouterr()
        return out_path.read_bytes()

    def test_columns_and_shape(self, cli_csv):
        profile = integrated_gamma(LEO)
        lines = cli_csv.decode("utf-8").split("\r\n")
        assert lines[0] == ",".join(PASS_PROFILE_COLUMNS)
        assert lines[-1] == ""
        assert len(lines) == profile.times.size + 2
        first = lines[1].split(",")
        assert len(first) == len(PASS_PROFILE_COLUMNS)
        assert float(first[0]) == pytest.approx(profile.times[0], rel=1e-8)

    def test_bytes_match_row_writer(self, cli_csv):
        assert cli_csv == _profile_csv_reference(integrated_gamma(LEO))


class TestScenarioValidation:
    def test_offset_must_stay_inside_orbit(self):
        with pytest.raises(ValueError):
            OrbitScenario(eve_orbit_offset=700e3)
        with pytest.raises(ValueError):
            OrbitScenario(eve_orbit_offset=0.0)

    @pytest.mark.parametrize("offset", [1e-9, 1e-13, 0.999e-3])
    def test_offset_below_floor_rejected(self, offset):
        with pytest.raises(ValueError, match=r"eve_orbit_offset must be in \[0.001 m, alice_altitude\)"):
            OrbitScenario(eve_orbit_offset=offset)

    def test_offset_at_floor_accepted(self):
        assert OrbitScenario(eve_orbit_offset=MIN_EVE_ORBIT_OFFSET).eve_orbit_offset == 1e-3

    def test_unknown_aperture_model(self):
        with pytest.raises(ValueError):
            OrbitScenario(bob_aperture_model="exact")

    def test_elevation_bounds(self):
        with pytest.raises(ValueError):
            OrbitScenario(min_elevation=0.0)
        with pytest.raises(ValueError):
            OrbitScenario(min_elevation=2.0)
