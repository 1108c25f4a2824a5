import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import bisect_reference, entropy_bits, grid_argmax, mc_disk_fraction, mp_disk_fraction
from wiretap_space.numerics import (
    BracketError,
    Interval,
    _disk_fraction,
    binary_entropy,
    find_root,
    gaussian_disk_fraction,
    maximize_1d,
)


class TestBinaryEntropy:
    def test_maximum_entropy(self):
        assert binary_entropy(0.5) == 1.0

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_deterministic(self, p):
        assert binary_entropy(p) == 0.0

    def test_arbitrary_precision_reference(self):
        assert binary_entropy(0.2134) == pytest.approx(entropy_bits(0.2134), abs=1e-12)

    @pytest.mark.parametrize("p", [1e-12, 1e-6, 0.1, 0.3, 0.7, 0.99, 1 - 1e-9])
    def test_against_reference_grid(self, p):
        assert binary_entropy(p) == pytest.approx(entropy_bits(p), abs=1e-13)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=5e-12)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_bounded(self, p):
        assert 0.0 <= binary_entropy(p) <= 1.0

    @pytest.mark.parametrize("p", [-0.01, 1.01, 2.0, -1.0])
    def test_domain_error(self, p):
        with pytest.raises(ValueError):
            binary_entropy(p)

    def test_rounding_slop_clamped(self):
        assert binary_entropy(1.0 + 1e-15) == 0.0
        assert binary_entropy(-1e-15) == 0.0


class TestMaximize1d:
    def test_quadratic(self):
        x, fx = maximize_1d(lambda x: -((x - 0.3) ** 2), Interval(0.0, 1.0), tol=1e-6)
        assert x == pytest.approx(0.3, abs=1e-6)
        assert fx == pytest.approx(0.0, abs=1e-12)

    def test_entropy_peak(self):
        x, fx = maximize_1d(binary_entropy, Interval(0.0, 1.0), tol=1e-6)
        assert x == pytest.approx(0.5, abs=1e-6)
        assert fx == pytest.approx(1.0, abs=1e-9)

    def test_bump_against_brute_force(self):
        f = lambda x: x * (1.0 - x) * np.exp(-x)
        reference = grid_argmax(f, 0.0, 1.0)
        x, _ = maximize_1d(lambda x: f(float(x)), Interval(0.0, 1.0), tol=1e-6)
        assert x == pytest.approx(reference, abs=1e-5)

    def test_endpoint_maximum(self):
        x, _ = maximize_1d(lambda x: x, Interval(0.0, 1.0), tol=1e-7)
        assert x == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            maximize_1d(lambda x: x, Interval(0.0, 1.0), tol=0.0)


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 1.0, Interval(0.0, 2.0), tol=1e-9) == pytest.approx(1.0, abs=1e-9)

    def test_exponential(self):
        root = find_root(lambda x: math.exp(-x) - 0.5, Interval(0.0, 10.0), tol=1e-8)
        assert root == pytest.approx(math.log(2.0), abs=1e-6)

    def test_cubic_against_reference(self):
        f = lambda x: x**3 - 2.0 * x - 5.0
        reference = bisect_reference(f, 2.0, 3.0)
        root = find_root(f, Interval(2.0, 3.0), tol=1e-10)
        assert root == pytest.approx(reference, abs=1e-5)
        assert root == pytest.approx(2.09455, abs=1e-5)

    def test_bracket_error(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, Interval(-1.0, 1.0), tol=1e-6)

    def test_residual_bounded_by_local_slope(self):
        f = lambda x: math.sin(x) - 0.25
        tol = 1e-8
        root = find_root(f, Interval(0.0, 1.5), tol=tol)
        lipschitz = 1.0  # |cos| <= 1 on the bracket
        assert abs(f(root)) <= lipschitz * tol


class TestGaussianDiskFraction:
    def test_total_power(self):
        assert gaussian_disk_fraction(1.0, 0.0, 1e6) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("ratio", [0.1, 1.0, 3.0])
    def test_on_axis_closed_form(self, ratio):
        w = 2.0
        a = ratio * w
        expected = 1.0 - math.exp(-2.0 * a * a / (w * w))
        assert gaussian_disk_fraction(w, 0.0, a) == pytest.approx(expected, abs=1e-8)

    def test_on_axis_beam_radius_value(self):
        assert gaussian_disk_fraction(1.0, 0.0, 1.0) == pytest.approx(0.864664717, abs=1e-8)

    def test_offset_case_against_monte_carlo(self):
        estimate, stderr = mc_disk_fraction(1.0, 2.0, 0.5, n_samples=100_000_000, seed=20210623)
        value = gaussian_disk_fraction(1.0, 2.0, 0.5)
        assert abs(value - estimate) / estimate < 1e-3
        assert abs(value - estimate) < 4.0 * stderr

    def test_monotone_in_disk_radius(self):
        radii = np.linspace(0.05, 4.0, 25)
        values = [gaussian_disk_fraction(1.0, 0.7, float(a)) for a in radii]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_monotone_in_offset(self):
        offsets = np.linspace(0.0, 5.0, 25)
        values = [gaussian_disk_fraction(1.0, float(d), 0.8) for d in offsets]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_zero_radius(self):
        assert gaussian_disk_fraction(1.0, 0.5, 0.0) == 0.0

    def test_far_offset_is_zero(self):
        assert gaussian_disk_fraction(0.01, 100.0, 1.0) == 0.0

    def test_saturates_beyond_eight_beam_radii(self):
        # Picometre beams on a decimetre disk: the chi-square CDF is NaN here.
        assert gaussian_disk_fraction(1e-11, 0.095, 0.62) == 1.0
        assert gaussian_disk_fraction(1e-10, 0.7, 0.62) == 0.0

    def test_cdf_runs_on_the_edge_band_only(self, monkeypatch):
        import scipy.special

        chndtr, sizes = scipy.special.chndtr, []

        def counting(x, df, nc):
            sizes.append(np.size(x))
            return chndtr(x, df, nc)

        monkeypatch.setattr(scipy.special, "chndtr", counting)
        w, offset, radius = 0.01, np.array([0.0, 0.3, 0.5, 0.7, 2.0]), 0.5
        fraction = _disk_fraction(np.full(5, w), offset, radius)
        assert sizes == [1]  # 0.5 only: the others are 8 beam radii inside or outside
        assert fraction.tolist() == [1.0, 1.0, chndtr((2 * radius / w) ** 2, 2.0, (2 * 0.5 / w) ** 2), 0.0, 0.0]

    def test_non_finite_edge_band_raises(self):
        # The rim on the beam axis of a disk a million beam radii wide.
        with pytest.raises(FloatingPointError, match="not finite"):
            gaussian_disk_fraction(1e-6, 1.0, 1.0)

    def test_against_bessel_integral_oracle(self):
        # The accuracy stated in the gaussian_disk_fraction docstring, over its
        # domain: disks of 0.01 to 100 beam radii, offsets up to 7 beam radii
        # beyond the rim.
        rng = np.random.default_rng(20240611)
        worst_abs = worst_rel_bulk = worst_rel_tail = 0.0
        for _ in range(150):
            w = float(10.0 ** rng.uniform(-2.0, 1.0))
            radius = float(w * 10.0 ** rng.uniform(-2.0, 2.0))
            offset = float(rng.uniform(0.0, radius + 7.0 * w))
            reference = mp_disk_fraction(w, offset, radius)
            error = abs(gaussian_disk_fraction(w, offset, radius) - reference)
            worst_abs = max(worst_abs, error)
            if reference >= 1e-10:
                worst_rel_bulk = max(worst_rel_bulk, error / reference)
            elif reference >= 1e-45:
                worst_rel_tail = max(worst_rel_tail, error / reference)
        assert worst_abs <= 5e-14
        assert worst_rel_bulk <= 2e-13
        assert worst_rel_tail <= 5e-12

    def test_oracle_on_axis_closed_form(self):
        for w, a in [(1.0, 1.0), (2.0, 0.2), (0.3, 0.9)]:
            assert mp_disk_fraction(w, 0.0, a) == pytest.approx(-math.expm1(-2.0 * a * a / (w * w)), rel=1e-15)

    def test_array_helper_matches_scalar(self):
        rng = np.random.default_rng(7)
        w = 10.0 ** rng.uniform(-2.0, 1.0, 64)
        offset = rng.uniform(0.0, 5.0, 64) * w
        values = _disk_fraction(w, offset, 0.8)
        assert values.shape == (64,)
        assert values.tolist() == [gaussian_disk_fraction(float(a), float(b), 0.8) for a, b in zip(w, offset)]

    @pytest.mark.parametrize("w,offset,a", [(0.0, 0.0, 1.0), (1.0, -0.1, 1.0), (1.0, 0.0, -1.0)])
    def test_domain_errors(self, w, offset, a):
        with pytest.raises(ValueError):
            gaussian_disk_fraction(w, offset, a)


class TestDomainTypes:
    def test_interval_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_interval_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)
