import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import bisect_reference, entropy_bits, grid_argmax, mc_disk_fraction, mp_disk_fraction
from wiretap_space import numerics
from wiretap_space.numerics import (
    GRID_POINTS,
    BracketError,
    Interval,
    _disk_fraction,
    _entropy,
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


def _where_entropy(p):
    """The kernel's entropy as a masked expression: the oracle of its NaN-to-0 form."""
    inside = (p > 0.0) & (p < 1.0)
    p = np.where(inside, p, 0.5)
    return np.where(inside, -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p), 0.0)


# The bounds, rounding slop past them, signed zeros, subnormals, the floats next
# to 1, and values no probability takes.
ENTROPY_EDGES = [
    0.0, -0.0, 1.0, 1e-13, -1e-13, 1.0 + 1e-13, 1.0 - 1e-13, 5e-324, -5e-324, 1e-320,
    2.2250738585072014e-308, 2.225073858507201e-308, 1.0 - 2.0**-53, 1.0 - 2.0**-52, 1.0 + 2.0**-52,
    0.5, 2.0, -1.0, math.inf, -math.inf, math.nan,
]


class TestEntropyKernel:
    def test_bit_identical_to_the_masked_form(self):
        rng = np.random.default_rng(20261019)
        low = 10.0 ** rng.uniform(-320.0, 0.0, 50_000)  # log-uniform from 1e-320
        high = 1.0 - 10.0 ** rng.uniform(-17.0, 0.0, 50_000)  # up to 1 - 1e-17
        p = np.concatenate((ENTROPY_EDGES, low, high))
        assert np.array_equal(_entropy(p).view(np.int64), _where_entropy(p).view(np.int64))
        # The batched kernel's 2-D rows.
        rows = p[: p.size // 2 * 2].reshape(2, -1)
        assert np.array_equal(_entropy(rows).view(np.int64), _where_entropy(rows).view(np.int64))

    @pytest.mark.parametrize("p", ENTROPY_EDGES)
    def test_scalar_inputs_match_the_masked_form(self, p):
        expected = _where_entropy(np.float64(p))
        for value in (p, np.float64(p), np.array(p)):
            assert np.float64(_entropy(value)).view(np.int64) == expected.view(np.int64)


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

    @pytest.mark.parametrize("offset", [0.0, 1e-200, 1.0])
    def test_speck_of_a_disk_collects_nothing(self, offset):
        # The exact share is below 1e-279; the rim integral would be 0 / 0.
        assert gaussian_disk_fraction(1.0, offset, 1e-200) == 0.0

    def test_far_offset_is_zero(self):
        assert gaussian_disk_fraction(0.01, 100.0, 1.0) == 0.0

    def test_saturates_beyond_eight_beam_radii(self):
        # Picometre beams on a decimetre disk, 1e10 beam radii: saturated.
        assert gaussian_disk_fraction(1e-11, 0.095, 0.62) == 1.0
        assert gaussian_disk_fraction(1e-10, 0.7, 0.62) == 0.0

    def test_rim_integral_runs_on_the_edge_band_only(self, monkeypatch):
        rim_fraction, sizes = numerics._rim_fraction, []

        def counting(a, b, d):
            sizes.append(np.size(a))
            return rim_fraction(a, b, d)

        monkeypatch.setattr(numerics, "_rim_fraction", counting)
        w, offset, radius = 0.01, np.array([0.0, 0.3, 0.5, 0.7, 2.0]), 0.5
        fraction = _disk_fraction(np.full(5, w), offset, radius)
        assert sizes == [1]  # 0.5 only: the others are 8 beam radii inside or outside
        a, b = np.array([2 * 0.5 / w]), np.array([2 * radius / w])
        assert fraction.tolist() == [1.0, 1.0, float(rim_fraction(a, b, a - b)[0]), 0.0, 0.0]

    def test_rim_of_a_wide_disk_on_the_axis(self):
        # The rim on the beam axis of a disk a million beam radii wide: half
        # the beam, less the sliver beyond the curved rim (the CDF this
        # replaced was NaN here).
        assert gaussian_disk_fraction(1e-6, 1.0, 1.0) == pytest.approx(mp_disk_fraction(1e-6, 1.0, 1.0), rel=2e-13, abs=0.0)

    def test_non_finite_edge_band_raises(self):
        # 2 / w overflows for a subnormal beam radius.  (Elsewhere the band
        # spans at most ~1e17 beam radii, where a float can still tell the
        # rim from 8 beam radii off it, and nothing overflows.)
        with pytest.raises(FloatingPointError, match="not finite"):
            gaussian_disk_fraction(1e-310, 0.0, 5e-310)
        with pytest.raises(FloatingPointError, match="not finite"):
            gaussian_disk_fraction(1e-310, 1e-310, 5e-310)

    def test_non_finite_rim_integral_raises(self, monkeypatch):
        monkeypatch.setattr(numerics, "_rim_fraction", lambda a, b, d: np.full(np.shape(a), math.nan))
        with pytest.raises(FloatingPointError, match="not finite"):
            gaussian_disk_fraction(1.0, 1.0, 1.0)

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

    def test_large_disks_against_bessel_integral_oracle(self):
        # The same bounds on disks of 1e2 to 1e7 beam radii, offsets within
        # 8 beam radii of the rim either way (the CDF this replaced was off by
        # 5e-13 here, and NaN on most disks beyond 1e4 beam radii).
        rng = np.random.default_rng(20261019)
        worst_abs = worst_rel_bulk = worst_rel_tail = 0.0
        for _ in range(24):
            w = float(10.0 ** rng.uniform(-2.0, 1.0))
            radius = float(w * 10.0 ** rng.uniform(2.0, 7.0))
            offset = float(radius + w * rng.uniform(-8.0, 8.0))
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

    def test_small_disks_against_bessel_integral_oracle(self):
        # Disks of 1e-8 to 0.01 beam radii take the small-disk series.  The rim
        # integral erred here by up to 1.3e-11 relative above 1e-10 and 7.5e-9
        # below, its two halves cancelling to a share ~ (disk / beam)^2.  What
        # remains is the fraction's own condition, 4 (offset / w)^2 ulp.
        rng = np.random.default_rng(20261020)
        worst_abs = worst_rel_bulk = worst_rel_tail = 0.0
        for _ in range(200):
            w = float(10.0 ** rng.uniform(-2.0, 1.0))
            radius = float(w * 10.0 ** rng.uniform(-8.0, -2.0))
            offset = float(rng.uniform(0.0, radius + 7.0 * w))
            reference = mp_disk_fraction(w, offset, radius)
            error = abs(gaussian_disk_fraction(w, offset, radius) - reference)
            worst_abs = max(worst_abs, error)
            if reference >= 1e-10:
                worst_rel_bulk = max(worst_rel_bulk, error / reference)
            elif reference >= 1e-100:
                worst_rel_tail = max(worst_rel_tail, error / reference)
        assert worst_abs <= 1e-18
        assert worst_rel_bulk <= 1e-14
        assert worst_rel_tail <= 1e-13

    def test_rim_rule_is_leggauss(self):
        # The committed literals are the positive half of the 32-point rule, to 1 ulp.
        nodes, weights = np.polynomial.legendre.leggauss(numerics.RIM_POINTS)
        half = numerics.RIM_POINTS // 2
        for exact, literal in ((nodes[half:], numerics._RIM_HALF_NODES), (weights[half:], numerics._RIM_HALF_WEIGHTS)):
            assert len(literal) == half
            assert np.all(np.abs(exact - np.array(literal)) <= np.spacing(exact))
        assert np.array_equal(numerics._RIM_WEIGHTS, weights)
        assert np.allclose(numerics._RIM_NODES, 0.5 + 0.5 * nodes, rtol=0.0, atol=1e-16)

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


def _rim_expression(a, b, d):
    """The rim integral of ``numerics._rim_fraction`` in fresh arrays, one per
    step, with the small-disk series on disks below 0.01 beam radii."""
    ab = a * b
    cut = 20.0 / np.maximum(ab, 20.0)
    near = d < 2.0
    swept = np.where(near, np.arctan2(2.0 * b * np.sqrt(cut * (1.0 - cut)), d + 2.0 * b * cut), 0.0)
    half = np.arcsin(np.sqrt(cut))
    sigma = np.square(np.tan(numerics._RIM_NODES[:, np.newaxis] * half))
    sigma = sigma / (1.0 + sigma)
    exponent = sigma * (-2.0 * ab) - 0.5 * d * d
    flow = (sigma * -ab + 0.5 * b * d) / exponent
    flow = flow * np.where(near, np.expm1(exponent), np.exp(exponent)) * numerics._RIM_WEIGHTS[:, np.newaxis]
    while flow.shape[0] > 1:
        flow = flow[: flow.shape[0] // 2] + flow[flow.shape[0] // 2 :]
    rim = np.clip((swept - half * flow[0]) / math.pi, 0.0, 1.0)
    return np.where(b < 0.02, numerics._small_disk_fraction(a, b), rim)


class TestInPlaceRim:
    """The in-place rim integral gives the fresh-array expression's result bit for bit."""

    @staticmethod
    def _band(rng, n):
        # Lengths in units of w / 2: disks of 0.005 to 1e4 beam radii, the
        # offset within 8 beam radii of the rim, on both sides of d = 2 and
        # of ab = 20.
        b = 10.0 ** rng.uniform(-2.0, 4.3, n)
        d = rng.uniform(-16.0, 16.0, n)
        a = np.maximum(b + d, 0.0)
        return a, b, a - b

    @staticmethod
    def _check(a, b, d):
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = numerics._rim_fraction(a, b, d), _rim_expression(a, b, d)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_seeded_band(self):
        a, b, d = self._band(np.random.default_rng(20261019), 4000)
        assert (d < 2.0).any() and (d >= 2.0).any() and (a * b < 20.0).any() and (a * b >= 20.0).any()
        assert (b < 0.02).any()
        self._check(a, b, d)

    @pytest.mark.parametrize("a,b", [(3.0, 1.0), (0.5, 0.01), (40.0, 30.0), (5e3, 5e3 + 1.0)])
    def test_single_sample(self, a, b):
        self._check(np.array([a]), np.array([b]), np.array([a - b]))

    def test_batches_mixing_near_and_far_columns(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 17, 64, 257):
            a, b, d = self._band(rng, n)
            d[::2] = rng.uniform(-16.0, 2.0, d[::2].size)  # near: inside the rim or within 1 beam radius
            d[1::2] = rng.uniform(2.0, 16.0, d[1::2].size)  # far
            a = np.maximum(b + d, 0.0)
            self._check(a, b, a - b)


class TestDomainTypes:
    def test_interval_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_interval_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)
