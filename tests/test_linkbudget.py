import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from oracles import mp_gaussian_station_fraction, mp_total_exclusion_radius
from wiretap_space.numerics import ConfigError
from wiretap_space.linkbudget import (
    LinkBudgetWarning,
    LinkGeometry,
    bob_free_space,
    db_to_fraction,
    eve_free_space,
    exclusion_radius_partial,
    exclusion_radius_total,
    fraction_to_db,
    gamma_partial,
    radius_vs_gamma_curve,
    _beam_radius,
)
from wiretap_space.orbitsim import _station_fraction

MICIUS = LinkGeometry()  # 1200 km, 1 m / 2 m telescopes, 20 dB receiver loss


def micius_at(dist: float, exclusion_radius: float = 12.5) -> LinkGeometry:
    return LinkGeometry(dist_bob=dist, dist_eve=dist, exclusion_radius=exclusion_radius)


class TestBobFreeSpace:
    def test_leo_loss(self):
        value = bob_free_space(micius_at(1.2e6))
        assert value == pytest.approx(6.944e-3, rel=1e-3)
        assert fraction_to_db(value) == pytest.approx(21.58, abs=0.01)

    def test_geo_loss(self):
        value = bob_free_space(micius_at(3.6e7))
        assert value == pytest.approx(7.716e-6, rel=1e-3)
        assert fraction_to_db(value) == pytest.approx(51.13, abs=0.01)

    def test_clamped_at_footprint_equals_aperture(self):
        # 1 m aperture, footprint smaller than the aperture at short range
        geometry = micius_at(5e4)
        with pytest.warns(LinkBudgetWarning):
            assert bob_free_space(geometry) == 1.0

    def test_footprint_that_underflows_is_collected_whole(self):
        # theta d underflows to 0: narrower than any aperture, not a divisor.
        geometry = LinkGeometry(dist_bob=1e-300, divergence_full_angle=1e-300)
        with pytest.warns(LinkBudgetWarning, match="clamped to 1"):
            assert bob_free_space(geometry) == 1.0
        fractions = _station_fraction(1.0, 1e-300, np.array([1e-300, 1e302]), "footprint")
        assert fractions.tolist() == pytest.approx([1.0, 1e-4], rel=1e-15)
        assert gamma_partial(geometry) == 0.0

    @pytest.mark.parametrize(
        "geometry, ratio",
        [
            # (D / (theta d))^2 overflows a float: the warning printed "ratio inf".
            (dict(divergence_full_angle=1e-300), "6.94e+587"),
            (dict(dist_bob=1e-300, divergence_full_angle=1e-300), "1e+1200"),
            (dict(dist_bob=5e4), "4e+00"),
        ],
    )
    def test_clamp_warning_states_its_ratio(self, geometry, ratio):
        with pytest.warns(LinkBudgetWarning) as record:
            bob_free_space(LinkGeometry(**geometry))
        assert [str(w.message) for w in record] == [
            f"beam footprint smaller than receiver aperture (ratio {ratio}); clamped to 1"
        ]

    def test_underflow_raises(self):
        with pytest.raises(FloatingPointError, match="receiver fraction underflows to 0"):
            bob_free_space(LinkGeometry(diam_bob=1e-200))

    def test_exact_gaussian_variant(self):
        geometry = micius_at(1.2e6)
        w = 0.5 * geometry.divergence_full_angle * geometry.dist_bob
        expected = 1.0 - math.exp(-2.0 * 0.25 / (w * w))
        value = _station_fraction(1.0, geometry.divergence_full_angle, geometry.dist_bob, "gaussian")
        assert value == pytest.approx(expected, rel=1e-12)

    def test_gaussian_mpmath_oracle_over_wide_beams(self):
        # 1 - exp(-D^2/(2w^2)) cancelled as the beam widened: 1.2e-12 off at
        # GEO range with the default divergence, 8.3e-8 at 1e-2 rad there.
        rng = np.random.default_rng(16)
        diam = 10.0 ** rng.uniform(-1, 1, 400)
        divergence = 10.0 ** rng.uniform(-6, 0, 400)
        distance = 10.0 ** rng.uniform(5, math.log10(4e7), 400)
        cases = list(zip(diam, divergence, distance)) + [(1.0, 1e-5, 3.6e7), (1.0, 1e-2, 3.6e7), (1.0, 1.0, 6e5)]
        for d, theta, dist in cases:
            expected = mp_gaussian_station_fraction(float(d), float(theta), float(dist))
            value = _station_fraction(float(d), float(theta), float(dist), "gaussian")
            assert value == pytest.approx(expected, rel=1e-14, abs=0.0), (d, theta, dist)

    def test_gaussian_tiny_beam_and_aperture_is_finite(self):
        # D^2 and w^2 both underflowed to 0, and the fraction was 0/0.
        assert _station_fraction(1e-300, 1e-300, 1e6, "gaussian") == pytest.approx(-math.expm1(-2e-12), rel=1e-15)


class TestEveFreeSpace:
    def test_on_axis_reduces_to_footprint_ratio(self):
        geometry = micius_at(1.2e6, exclusion_radius=0.0)
        expected = 4.0 / (1e-5 * 1.2e6) ** 2
        assert eve_free_space(geometry) == pytest.approx(expected, rel=1e-12)

    def test_clamped_when_the_footprint_is_smaller_than_the_aperture(self):
        assert eve_free_space(micius_at(5e4, exclusion_radius=0.0)) == 1.0

    def test_micius_case(self):
        value = eve_free_space(MICIUS)
        expected = 4.0 * 6.944444e-3 * math.exp(-2.0 * (2.0 * 12.5 / 12.0) ** 2)
        assert value == pytest.approx(expected, rel=1e-9)
        assert value == pytest.approx(4.72e-6, rel=0.02)

    def test_vanishes_at_large_exclusion(self):
        assert eve_free_space(micius_at(1.2e6, exclusion_radius=500.0)) < 1e-200


class TestGammaPartial:
    def test_micius_reference(self):
        assert gamma_partial(MICIUS) == pytest.approx(0.068, abs=0.005)

    def test_symmetric_receivers(self):
        geometry = LinkGeometry(
            dist_bob=1.2e6,
            dist_eve=1.2e6,
            diam_bob=1.0,
            diam_eve=1.0,
            eta_b=1.0,
            exclusion_radius=0.0,
        )
        assert gamma_partial(geometry) == pytest.approx(1.0, rel=1e-12)

    def test_doubled_exclusion_radius(self):
        value = gamma_partial(micius_at(1.2e6, exclusion_radius=25.0))
        expected = 400.0 * math.exp(-2.0 * (2.0 * 25.0 / 12.0) ** 2)
        assert value == pytest.approx(expected, rel=1e-9)
        assert value == pytest.approx(3.3e-13, rel=0.05)

    def test_distance_ratio_scaling(self):
        base = gamma_partial(MICIUS)
        geometry = LinkGeometry(dist_bob=2.4e6, dist_eve=1.2e6, exclusion_radius=25.0)
        # doubling d_B doubles theta_E^-1 effects too; compare via explicit form
        reference = LinkGeometry(dist_bob=2.4e6, dist_eve=2.4e6, exclusion_radius=25.0)
        assert gamma_partial(geometry) == pytest.approx(4.0 * gamma_partial(reference), rel=1e-12)
        assert base > 0

    def test_may_exceed_one(self):
        geometry = LinkGeometry(
            dist_bob=1.2e6, dist_eve=6e5, eta_b=0.01, exclusion_radius=0.0
        )
        assert gamma_partial(geometry) > 1.0


    @pytest.mark.parametrize("exclusion_radius", [0.0, 0.3, 12.5])
    @pytest.mark.parametrize("dist_bob, dist_eve", [(5e4, 5e4), (5e4, 1.2e6), (1.2e6, 5e4)])
    def test_is_the_ratio_of_the_clamped_fractions(self, dist_bob, dist_eve, exclusion_radius):
        geometry = LinkGeometry(dist_bob=dist_bob, dist_eve=dist_eve, exclusion_radius=exclusion_radius)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinkBudgetWarning)
            expected = eve_free_space(geometry) / (geometry.eta_b * bob_free_space(geometry))
        assert gamma_partial(geometry) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "fields, expected",
        [
            # d_B/d_E overflows while a_E/a_B underflows; their product is 12.
            ({"dist_eve": 1e-300}, 144.0 / 0.01 * math.exp(-2.0 * (2.0 * 12.5 / 1.2e6 / 1e-5) ** 2)),
            # (a_E/a_B)^2 overflows while the exclusion tail underflows to 0.
            ({"diam_bob": 1e-300, "exclusion_radius": 1e300}, 0.0),
            # (d_B/d_E)^2 underflows and (a_E/a_B)^2 overflows, then the tail is 0.
            ({"dist_bob": 1e-300, "dist_eve": 1e300, "diam_eve": 1e300, "exclusion_radius": 1e-300}, 0.0),
        ],
    )
    def test_underflow_beside_overflow_is_decided(self, fields, expected):
        assert gamma_partial(LinkGeometry(**fields)) == pytest.approx(expected, rel=1e-12)

    def test_true_overflow_raises(self):
        with pytest.raises(FloatingPointError, match="degradation ratio is inf"):
            gamma_partial(LinkGeometry(diam_bob=1e-300, exclusion_radius=0.0))

    def test_unclamped_is_the_closed_form_bit_for_bit(self):
        g = LinkGeometry(dist_bob=1.1e6, dist_eve=1.3e6, diam_eve=1.7, exclusion_radius=9.0)
        tail = math.exp(-2.0 * (2.0 * g.exclusion_angle / g.divergence_full_angle) ** 2)
        closed = (1.0 / g.eta_b) * ((g.dist_bob / g.dist_eve) * (g.diam_eve / g.diam_bob)) ** 2 * tail
        assert gamma_partial(g) == closed


class TestExclusionRadiusPartial:
    def test_leo_reference(self):
        radius = exclusion_radius_partial(0.1, 1.2e6, 0.01, 2.0, 1e-5)
        assert radius == pytest.approx(12.2, abs=0.1)

    def test_meo_reference(self):
        radius = exclusion_radius_partial(0.1, 1e7, 0.01, 2.0, 1e-5)
        assert radius == pytest.approx(101.8, abs=1.0)

    def test_boundary_returns_zero(self):
        # log argument exactly 1: gamma target already met with no exclusion
        assert exclusion_radius_partial(0.25, 1.2e6, 1.0, 0.5, 1e-5) == 0.0

    def test_no_exclusion_needed_rejected(self):
        with pytest.raises(ValueError):
            exclusion_radius_partial(0.9, 1.2e6, 1.0, 0.5, 1e-5)

    @pytest.mark.parametrize("gamma, eta_b, ratio", [
        (1e-320, 0.01, 2.0),  # 1/gamma overflows
        (1e-300, 0.01, 1e160),  # the squared ratio overflows
        (0.1, 5e-324, 2.0),  # 1/eta_b overflows
    ])
    def test_overflowing_log_argument_is_the_sum_of_its_logs(self, gamma, eta_b, ratio):
        # This raised FloatingPointError naming the diameter ratio.
        radius = exclusion_radius_partial(gamma, 1.2e6, eta_b, ratio, 1e-5)
        arg = (1 / mpmath.mpf(gamma)) * (1 / mpmath.mpf(eta_b)) * mpmath.mpf(ratio) ** 2
        assert radius == pytest.approx(float(_beam_radius(1e-5, 1.2e6) * mpmath.sqrt(mpmath.log(arg) / 2)), rel=1e-14)

    @pytest.mark.parametrize("gamma, ratio, shown", [
        (1e-320, 0.0, "0"),  # a ratio of 0: inf * 0 was nan
        (0.1, 0.0, "0"),
        (1e-320, 1e-200, "exp(-179.6)"),  # 1/gamma overflows, the squared ratio underflows to 0
        (0.1, 1e-200, "exp(-914.1)"),  # the squared ratio underflows alone; this said "0"
        (1e-320, 5e-162, "exp(-1.386)"),  # 1/gamma overflows, yet the sum of the logs is below 0
    ])
    def test_log_argument_of_no_number_below_1_is_rejected(self, gamma, ratio, shown):
        # These returned nan (or raised math's domain error) where inf * 0 or a negative
        # log was taken; the sum of the factors' logs decides, and the message quotes it.
        message = f"no exclusion radius needed: degradation target already met (log argument {shown} < 1)"
        with pytest.raises(ConfigError) as raised:
            exclusion_radius_partial(gamma, 1.2e6, 0.01, ratio, 1e-5)
        assert raised.value.violations == [message]

    def test_log_argument_that_does_not_overflow_keeps_its_product(self):
        product = (1.0 / 1e-300) * (1.0 / 0.01) * (2.0 * 2.0)
        assert math.isfinite(product)
        radius = exclusion_radius_partial(1e-300, 1.2e6, 0.01, 2.0, 1e-5)
        assert radius == _beam_radius(1e-5, 1.2e6) * math.sqrt(0.5 * math.log(product))

    @pytest.mark.parametrize("gamma", [0.05, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("dist", [5e5, 1.2e6, 1e7, 3.6e7])
    def test_round_trip_against_gamma_partial(self, gamma, dist):
        radius = exclusion_radius_partial(gamma, dist, 0.01, 2.0, 1e-5)
        geometry = LinkGeometry(
            dist_bob=dist, dist_eve=dist, diam_bob=1.0, diam_eve=2.0,
            eta_b=0.01, exclusion_radius=radius,
        )
        assert gamma_partial(geometry) == pytest.approx(gamma, rel=1e-9)

    def test_round_trip_with_filled_apertures(self):
        # Footprints from a tenth to ten times each aperture, either telescope
        # the larger, at equal ranges: the curve's radius inverts gamma_partial
        # whether or not a footprint is narrower than its aperture.
        rng = np.random.default_rng(20261018)
        inverted = rejected = 0
        for _ in range(400):
            dist, theta = 10.0 ** rng.uniform(4.0, 7.5), 10.0 ** rng.uniform(-6.0, -4.0)
            footprint = theta * dist
            diam_bob, diam_eve = footprint * 10.0 ** rng.uniform(-1.0, 1.0, 2)
            geometry = LinkGeometry(
                dist_bob=dist, dist_eve=dist, diam_bob=diam_bob, diam_eve=diam_eve,
                divergence_full_angle=theta, eta_b=10.0 ** rng.uniform(-2.0, 0.0), exclusion_radius=0.0,
            )
            target = 10.0 ** rng.uniform(-2.0, -0.01)
            if gamma_partial(geometry) <= target:
                with pytest.raises(ConfigError, match="no exclusion radius needed"):
                    radius_vs_gamma_curve(geometry, [target])
                rejected += 1
                continue
            ((_, radius, _),) = radius_vs_gamma_curve(geometry, [target])
            achieved = gamma_partial(replace(geometry, exclusion_radius=radius))
            assert achieved == pytest.approx(target, rel=1e-12)
            inverted += 1
        assert inverted > 200 and rejected > 10

    def test_linear_in_distance(self):
        r1 = exclusion_radius_partial(0.1, 1e6, 0.01, 2.0, 1e-5)
        r2 = exclusion_radius_partial(0.1, 2e6, 0.01, 2.0, 1e-5)
        assert r2 == pytest.approx(2.0 * r1, rel=1e-12)


class TestExclusionRadiusTotal:
    def test_against_closed_form_inversion(self):
        # independent algebraic inversion of the implicit equation
        for dist in (5e5, 1.2e6, 1e7, 3.6e7):
            scale = 1e-5 * dist
            rhs = 0.1 * (1.0 - math.exp(-2.0 * (1.0 / scale) ** 2))
            expected = scale * math.sqrt(-0.5 * math.log(rhs))
            assert exclusion_radius_total(0.1, dist, 1.0, 1e-5) == pytest.approx(expected, rel=1e-6)

    def test_geo_below_one_kilometre(self):
        assert exclusion_radius_total(0.1, 3.6e7, 1.0, 1e-5) < 1000.0

    @pytest.mark.parametrize("dist", [5e5, 1.2e6, 3e6, 1e7, 3.6e7])
    def test_more_conservative_than_partial(self, dist):
        total = exclusion_radius_total(0.1, dist, 1.0, 1e-5)
        partial = exclusion_radius_partial(0.1, dist, 0.01, 2.0, 1e-5)
        assert total > partial

    def test_whole_beam_collection_drives_radius_to_zero(self):
        # Receiver aperture spanning the whole footprint and a target of ~1:
        # the interceptor is allowed nearly everything, so no exclusion zone.
        radius = exclusion_radius_total(0.999, 1e5, 50.0, 1e-5)
        assert radius < 0.2

    def test_against_mpmath_oracle(self):
        rng = np.random.default_rng(20261018)

        def log_uniform(lo, hi):
            return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), 200)

        cases = zip(
            log_uniform(1e-6, 0.999), log_uniform(1e4, 1e8), log_uniform(0.1, 30.0), log_uniform(1e-6, 1e-4)
        )
        for gamma, dist, diam, divergence in cases:
            expected = mp_total_exclusion_radius(gamma, dist, diam, divergence)
            assert exclusion_radius_total(gamma, dist, diam, divergence) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("aperture_ratio", [2.0, 3.0, 4.0])
    def test_target_near_one(self, aperture_ratio):
        # With gamma (1 - exp(-2 (D/(theta d))^2)) near 1 the radius has
        # condition number 1 / (2 |ln rhs|) in rhs: half an ulp of gamma
        # itself moves it by up to 5.5e-14 at gamma = 0.999.
        diam = aperture_ratio * 1e-5 * 1e6
        expected = mp_total_exclusion_radius(0.999, 1e6, diam, 1e-5)
        assert exclusion_radius_total(0.999, 1e6, diam, 1e-5) == pytest.approx(expected, rel=1e-13)

    def test_tiny_target_has_exact_radius(self):
        # A root far beyond ten beam radii: no search bracket limits it.
        radius = exclusion_radius_total(1e-300, 1.2e6, 1.0, 1e-5)
        assert radius == pytest.approx(mp_total_exclusion_radius(1e-300, 1.2e6, 1.0, 1e-5), rel=1e-14)
        assert radius == pytest.approx(223.7057, abs=1e-4)

    @pytest.mark.parametrize(
        "dist, diam, divergence",
        [(1e300, 1.0, 1e-5), (1.7e308, 1e300, 1.0)],
        ids=["right-side-underflows", "radius-overflows"],
    )
    def test_unrepresentable_radius_raises(self, dist, diam, divergence):
        with pytest.raises(FloatingPointError, match="cannot be represented"):
            exclusion_radius_total(0.1, dist, diam, divergence)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            exclusion_radius_total(1.0, 1.2e6, 1.0, 1e-5)


class TestRadiusVsGammaCurve:
    def test_monotone_decreasing(self):
        grid = list(np.linspace(0.05, 0.95, 10))
        rows = radius_vs_gamma_curve(MICIUS, grid)
        partials = [partial for _, partial, _ in rows]
        totals = [total for _, _, total in rows]
        assert all(b < a for a, b in zip(partials, partials[1:]))
        assert all(b < a for a, b in zip(totals, totals[1:]))

    def test_flat_above_one_tenth(self):
        (_, tight, _), (_, loose, _) = radius_vs_gamma_curve(MICIUS, [0.1, 0.9])
        ratio = tight / loose
        assert ratio < 1.6
        assert ratio == pytest.approx(math.sqrt(math.log(4000.0) / math.log(4000.0 * 0.1 / 0.9)), rel=1e-9)


class TestUnitsHelpers:
    def test_no_loss_is_positive_zero(self):
        assert math.copysign(1.0, fraction_to_db(1.0)) == 1.0

    def test_db_round_trip(self):
        for db in (0.0, 3.0, 20.0, 52.0):
            assert fraction_to_db(db_to_fraction(db)) == pytest.approx(db, abs=1e-12)

    def test_beam_model(self):
        assert _beam_radius(1e-5, 0.0) == 0.0
        assert _beam_radius(1e-5, 1.2e6) == pytest.approx(6.0)
        assert _beam_radius(1e-5, np.array([6e5, 1.2e6])).tolist() == pytest.approx([3.0, 6.0])
        with pytest.raises(ValueError):
            LinkGeometry(divergence_full_angle=0.0)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            LinkGeometry(dist_bob=-1.0)
        with pytest.raises(ValueError):
            LinkGeometry(eta_b=0.0)
        with pytest.raises(ValueError):
            LinkGeometry(exclusion_radius=-0.5)

    def test_exclusion_angle_identity(self):
        assert MICIUS.exclusion_angle == pytest.approx(12.5 / 1.2e6, rel=1e-12)
