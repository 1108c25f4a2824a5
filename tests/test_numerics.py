import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import bisect_reference, entropy_bits, grid_argmax, mc_disk_fraction, mp_disk_fraction
from wiretap_space.numerics import (
    GRID_POINTS,
    BracketError,
    Interval,
    _disk_fraction,
    binary_entropy,
    find_root,
    gaussian_disk_fraction,
    maximize_1d,
    maximize_lockstep,
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


class TestMaximizeLockstep:
    """Nested scans on random multimodal objectives: sums of three sines per
    cell, and a line through the origin (an endpoint maximum) in some cells."""

    @staticmethod
    def _objective(amp, freq, phase, slope):
        def f(x, cell):
            waves = sum(amp[cell, k] * np.sin(freq[cell, k] * x + phase[cell, k]) for k in range(3))
            return waves + slope[cell] * x
        return f

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        cells=st.integers(1, 300),
        lo=st.floats(-10.0, 9.0),
        width=st.floats(0.1, 10.0),
        tol=st.floats(1e-7, 1e-2),
        points=st.sampled_from([5, 7, 9, 11, 17, 65]),
    )
    def test_random_multimodal_objectives(self, seed, cells, lo, width, tol, points):
        rng = np.random.default_rng(seed)
        amp = rng.uniform(-1, 1, (cells, 3))
        freq = rng.uniform(0, 40, (cells, 3))
        phase = rng.uniform(0, 7, (cells, 3))
        linear = rng.random(cells) < 0.2
        amp[linear] = 0.0
        slope = np.where(linear, rng.choice([-1.0, 1.0], cells), 0.0)
        f = self._objective(amp, freq, phase, slope)
        domain = Interval(lo, lo + width)
        x, fx = maximize_lockstep(f, domain, tol, cells, points)

        grid = np.linspace(domain.lo, domain.hi, GRID_POINTS)
        first = f(grid, np.arange(cells)[:, np.newaxis]).max(axis=1)
        # Never below the first scan's best, up to the rounding of the
        # abscissae that the later scans put the best point on.
        lipschitz = np.abs(amp * freq).sum(axis=1) + np.abs(slope)
        assert (fx >= first - lipschitz * 1e-13 * max(abs(domain.lo), abs(domain.hi))).all()
        assert ((domain.lo <= x) & (x <= domain.hi)).all()
        # An endpoint maximum returns the bound exactly.
        assert (x[linear & (slope > 0)] == domain.hi).all()
        assert (x[linear & (slope < 0)] == domain.lo).all()
        # Each cell equals that cell searched alone, bit for bit.
        for cell in rng.choice(cells, min(cells, 5), replace=False):
            alone = maximize_lockstep(lambda v, c: f(v, c + cell), domain, tol, 1, points)
            assert (alone[0][0], alone[1][0]) == (x[cell], fx[cell])

    @pytest.mark.parametrize("hi", [1e-20, 3e-17])
    def test_upper_bound_near_zero_is_returned_exactly(self, hi):
        # The rescans' low + k (high - low) / (points - 1) misses a bound this
        # close to 0 below it.
        x, _ = maximize_lockstep(lambda x, cell: x + 0.0 * cell, Interval(-0.1, hi), 1e-6, 1)
        assert x[0] == hi

    @pytest.mark.parametrize("points", [3, 4, 8, 1])
    def test_rejects_points_that_cannot_narrow(self, points):
        with pytest.raises(ValueError, match="points"):
            maximize_lockstep(lambda x, cell: x + 0.0 * cell, Interval(0.0, 1.0), 1e-3, 1, points)


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
