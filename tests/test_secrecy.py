import math
from dataclasses import astuple

import mpmath
import numpy as np
import pytest

from oracles import grid_argmax
from wiretap_space import secrecy
from wiretap_space.cli import main
from wiretap_space.detection import BinaryCoherentEnsemble, helstrom_projector, holevo_binary
from wiretap_space.numerics import GRID_POINTS, REFINE_POINTS, SCAN_BLOCK_CELLS, binary_entropy
from wiretap_space.receiver import DetectorModel, bob_click_model, mutual_info_bob
from wiretap_space.scenario_io import PRESET_NAMES, SweepAxis, config_from_dict, preset_config, sweep
from wiretap_space.secrecy import (
    LOG_TOL,
    PHOTON_SEARCH_BOUNDS,
    Q_SEARCH_BOUNDS,
    Q_SEARCH_TOL,
    ClockedLink,
    devetak_winter_rate,
    dw_rate_symmetric,
    optimal_signal_strength,
    plob_bound,
    private_capacity,
    private_capacity_fixed,
    private_capacity_symmetric,
    private_rate,
    required_laser_power,
    secrecy_points,
)


class TestPrivateCapacityFixed:
    def test_reference_point(self, day_detector):
        point = private_capacity_fixed(day_detector, 4.0, 0.1, 0.5)
        assert point.private_capacity == pytest.approx(0.681, abs=0.01)

    def test_no_signal_no_information(self, day_detector):
        point = private_capacity_fixed(day_detector, 0.0, 0.3, 0.5)
        assert point.info_bob == pytest.approx(0.0, abs=1e-12)
        assert point.private_capacity == 0.0
        assert point.dw_rate == 0.0

    def test_near_unity_degradation_clips(self):
        detector = DetectorModel(p_dark=0.0, eta_optical=1.0, stray_mean=0.0)
        point = private_capacity_fixed(detector, 4.0, 0.999, 0.5)
        assert point.private_capacity < 0.02

    def test_invalid_gamma(self, day_detector):
        for gamma in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError, match=r"gamma must be in \[0, 1\)"):
                private_capacity_fixed(day_detector, 4.0, gamma, 0.5)

    # 0.4998: the q of the photon search at degradation 0, where the Helstrom
    # angle's rounding residue used to credit the interceptor 2.9e-27 bits.
    @pytest.mark.parametrize("q", [0.2, 0.4998, 0.5, 0.8, None])
    def test_zero_degradation_is_the_best_case(self, day_detector, q):
        # The interceptor receives no photons, so it learns nothing.
        if q is None:
            point = private_capacity(day_detector, 4.0, 0.0)
        else:
            point = private_capacity_fixed(day_detector, 4.0, 0.0, q)
        assert (point.gamma, point.info_eve_helstrom, point.holevo_eve) == (0.0, 0.0, 0.0)
        assert point.private_capacity == point.dw_rate == point.info_bob > 0.6

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    def test_point_fields_consistent(self, day_detector, q):
        point = private_capacity_fixed(day_detector, 4.0, 0.1, q)
        assert point.q == q
        assert point.private_capacity == pytest.approx(
            max(point.info_bob - point.info_eve_helstrom, 0.0), abs=1e-15
        )
        assert point.dw_rate == pytest.approx(
            max(point.info_bob - point.holevo_eve, 0.0), abs=1e-15
        )


class TestClosedFormConsistency:
    """The general-prior machinery and the uniform-prior closed forms are
    independent code paths; at q = 1/2 they must agree to 1e-9."""

    @pytest.mark.parametrize("gamma", [0.05, 0.1, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("photons", [0.1, 1.0, 4.0, 12.0])
    def test_capacity_paths_agree(self, day_detector, gamma, photons):
        general = private_capacity_fixed(day_detector, photons, gamma, 0.5).private_capacity
        closed = private_capacity_symmetric(day_detector, photons, gamma)
        assert general == pytest.approx(closed, abs=1e-9)

    @pytest.mark.parametrize("gamma", [0.05, 0.1, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("photons", [0.1, 1.0, 4.0, 12.0])
    def test_dw_paths_agree(self, day_detector, gamma, photons):
        general = devetak_winter_rate(day_detector, photons, gamma, 0.5)
        closed = dw_rate_symmetric(day_detector, photons, gamma)
        assert general == pytest.approx(closed, abs=1e-9)

    def test_dw_reference_value(self):
        detector = DetectorModel(p_dark=1e-9, eta_optical=1.0, stray_mean=1e-4)
        assert dw_rate_symmetric(detector, 4.0, 0.1) == pytest.approx(0.494, abs=0.01)


class TestDevetakWinter:
    def test_zero_at_no_signal(self, day_detector):
        assert devetak_winter_rate(day_detector, 0.0, 0.1, 0.5) == 0.0

    @pytest.mark.parametrize("gamma", np.linspace(0.05, 0.95, 7))
    @pytest.mark.parametrize("photons", [0.2, 2.0, 8.0, 18.0])
    def test_never_exceeds_capacity(self, day_detector, gamma, photons):
        point = private_capacity_fixed(day_detector, photons, float(gamma), 0.5)
        assert point.dw_rate <= point.private_capacity + 1e-9


class TestQOptimisation:
    def test_optimum_near_uniform(self, day_detector):
        point = private_capacity(day_detector, 4.0, 0.1)
        assert 0.4 <= point.q <= 0.6
        fixed = private_capacity_fixed(day_detector, 4.0, 0.1, 0.5)
        assert point.private_capacity >= fixed.private_capacity - 1e-12

    def test_positive_capacity_at_heavy_degradation(self, day_detector):
        mu, best = optimal_signal_strength(day_detector, 0.6)
        assert best.private_capacity > 0.0


class TestSignalStrengthOptimisation:
    def test_peak_location_and_value(self, day_detector):
        mu, best = optimal_signal_strength(day_detector, 0.1)
        assert mu == pytest.approx(4.0, abs=1.5)
        assert best.private_capacity == pytest.approx(0.68, abs=0.02)

    def test_monotone_in_gamma(self, day_detector):
        gammas = [0.05, 0.2, 0.4, 0.6, 0.8, 0.95]
        caps = [private_capacity(day_detector, 4.0, g).private_capacity for g in gammas]
        assert all(b <= a + 1e-9 for a, b in zip(caps, caps[1:]))

    def test_noise_degrades_capacity(self):
        caps = []
        for stray in (1e-7, 1e-4, 1e-2):
            detector = DetectorModel(p_dark=1e-7, eta_optical=1.0, stray_mean=stray)
            caps.append(private_capacity(detector, 4.0, 0.1).private_capacity)
        assert caps[0] > caps[1] > caps[2]
        assert caps[2] > 0.0  # cloudy-day stray light still leaves a positive rate


class TestPlobBound:
    def test_opaque_channel(self):
        assert plob_bound(0.0) == 0.0

    def test_reference_values(self):
        expected_22db = float(-mpmath.log(1 - mpmath.mpf(10) ** mpmath.mpf("-2.2"), 2))
        assert plob_bound(10**-2.2) == pytest.approx(expected_22db, rel=1e-12)
        assert plob_bound(10**-2.2) == pytest.approx(9.13e-3, abs=1e-5)
        expected_40db = float(-mpmath.log(1 - mpmath.mpf(10) ** -4, 2))
        assert plob_bound(1e-4) == pytest.approx(expected_40db, rel=1e-12)
        assert plob_bound(1e-4) == pytest.approx(1.443e-4, abs=1e-7)

    def test_diverges_at_unit_transmission(self):
        with pytest.raises(ValueError):
            plob_bound(1.0)
        with pytest.raises(ValueError):
            plob_bound(1.2)


class TestRateAndPower:
    def test_private_rate(self):
        link = ClockedLink(clock_rate=1e9)
        assert private_rate(0.68, link) == pytest.approx(680e6)
        assert private_rate(0.0, link) == 0.0
        assert private_rate(9.13e-3, link) == pytest.approx(9.13e6)

    def test_laser_power_leo(self):
        link = ClockedLink(clock_rate=1e9, wavelength=850e-9)
        power = required_laser_power(4.0, 10**-4.2, link)
        assert power == pytest.approx(14.8e-6, rel=0.2)

    def test_laser_power_geo(self):
        link = ClockedLink(clock_rate=1e9, wavelength=850e-9)
        power = required_laser_power(4.0, 10**-7.2, link)
        assert power == pytest.approx(14.8e-3, rel=0.2)

    def test_zero_target(self):
        assert required_laser_power(0.0, 0.5, ClockedLink()) == 0.0

    def test_efficiency_bounds(self):
        with pytest.raises(ValueError):
            required_laser_power(4.0, 0.0, ClockedLink())
        with pytest.raises(ValueError):
            required_laser_power(4.0, 1.5, ClockedLink())


class TestUnclippedContinuity:
    def test_difference_continuous_through_zero(self, day_detector):
        # The clipped capacity has a flat zero plateau; the underlying
        # difference crosses it smoothly.  Scan gamma through the transition.
        gammas = np.linspace(0.55, 0.75, 41)
        diffs = []
        for gamma in gammas:
            point = private_capacity_fixed(day_detector, 1.0, float(gamma), 0.5)
            diffs.append(point.info_bob - point.info_eve_helstrom)
        steps = np.abs(np.diff(diffs))
        assert steps.max() < 0.02


def _bits(point):
    return [value.hex() for value in astuple(point)]


class TestBatchInvariance:
    """A cell's point does not depend on the batch it is evaluated in."""

    CELLS = 512

    @pytest.fixture(scope="class")
    def cells(self):
        rng = np.random.default_rng(20261018)
        # Half the cells take a preset's detector, half a seeded one.
        detectors = [preset_config(name).detector for name in PRESET_NAMES]
        detectors += [
            DetectorModel(
                p_dark=float(10.0 ** rng.uniform(-9, -5)),
                eta_optical=float(rng.uniform(0.5, 1.0)),
                stray_mean=float(10.0 ** rng.uniform(-7, -2)),
            )
            for _ in range(len(detectors))
        ]
        chosen = [detectors[i] for i in rng.integers(len(detectors), size=self.CELLS)]
        return {
            "detectors": chosen,
            "mu": 10.0 ** rng.uniform(-3.0, 2.0, self.CELLS),
            "gamma": rng.uniform(0.01, 0.9, self.CELLS),
        }

    @staticmethod
    def _grid(cells, q, order):
        fields = [np.array([getattr(d, name) for d in cells["detectors"]])[order]
                  for name in ("p_dark", "eta_optical", "stray_mean")]
        return secrecy_points(cells["mu"][order], cells["gamma"][order], q, *fields)

    @pytest.mark.parametrize("q", [None, 0.5, 0.3])
    def test_alone_in_grid_and_reversed_agree(self, cells, q):
        forward = self._grid(cells, q, slice(None))
        reverse = self._grid(cells, q, slice(None, None, -1))[::-1]
        for i, detector in enumerate(cells["detectors"]):
            mu, gamma = float(cells["mu"][i]), float(cells["gamma"][i])
            if q is None:
                alone = private_capacity(detector, mu, gamma)
            else:
                alone = private_capacity_fixed(detector, mu, gamma, q)
            assert _bits(alone) == _bits(forward[i]) == _bits(reverse[i]), i

    def test_optimal_q_matches_dense_grid(self, cells):
        points = self._grid(cells, None, slice(None))
        for i in range(0, self.CELLS, 16):
            detector = cells["detectors"][i]
            mu, gamma = cells["mu"][i], cells["gamma"][i]

            terms = secrecy._cell_terms(mu, gamma, detector.p_dark, detector.eta_optical, detector.stray_mean)

            def unclipped(qs):
                info_bob, info_eve = secrecy._prior_terms(terms, qs)
                return info_bob - info_eve

            reference = grid_argmax(unclipped, *Q_SEARCH_BOUNDS, n=98_001)
            assert abs(points[i].q - reference) <= Q_SEARCH_TOL, i


@pytest.fixture
def calls(monkeypatch):
    """Sizes of the kernel's prior-dependent calls, one entry per call."""
    sizes = []
    kernel = secrecy._prior_terms

    def counted(terms, q):
        sizes.append(np.broadcast(terms[0], q).size)
        return kernel(terms, q)

    monkeypatch.setattr(secrecy, "_prior_terms", counted)
    return sizes


class TestKernelCalls:
    """The batched paths evaluate whole arrays; a fall-back to one kernel
    call per cell and q would show as hundreds or thousands of calls.
    ``calls`` counts the kernel's prior-dependent step, ``cell_calls`` its
    prior-free step, which a q-search takes once.  Each test starts with an
    empty photon-search memo (``fresh_photon_memo``)."""

    @pytest.fixture
    def cell_calls(self, monkeypatch):
        sizes = []
        step = secrecy._cell_terms

        def counted(*args):
            sizes.append(np.broadcast(*args).size)
            return step(*args)

        monkeypatch.setattr(secrecy, "_cell_terms", counted)
        return sizes

    def test_sweep_grid_budget(self, calls):
        axes = [
            SweepAxis("received_mean_photons", 0.1, 20.0, 32, "log"),
            SweepAxis("stray_mean", 1e-7, 1e-2, 16, "log"),
        ]
        _, rows = sweep(config_from_dict({}), axes)
        assert len(rows) == 512
        scan_calls = math.ceil(512 / SCAN_BLOCK_CELLS)
        assert calls[:scan_calls] == [SCAN_BLOCK_CELLS * GRID_POINTS] * scan_calls
        # Each rescan cuts the step by 4, from 0.0156 to 6.1e-5 <= Q_SEARCH_TOL
        # in four, each one call over every cell; then one evaluation of every
        # cell at its optimum.
        step = (Q_SEARCH_BOUNDS[1] - Q_SEARCH_BOUNDS[0]) / (GRID_POINTS - 1)
        rescans = math.ceil(math.log(step / Q_SEARCH_TOL) / math.log((REFINE_POINTS - 1) / 2))
        assert rescans == 4
        assert calls[scan_calls:] == [512 * REFINE_POINTS] * rescans + [512]
        assert len(calls) == 9

    def test_photon_scan_is_one_batch(self, calls, day_detector):
        optimal_signal_strength(day_detector, 0.1)
        # The 64 photon numbers of the scan form one 64-cell q-search.
        assert calls[0] == GRID_POINTS * GRID_POINTS
        # Three scans of 5 calls each (one scan call, four rescans), then the
        # evaluation of the optimum at the q its cell's q-search found.
        q_search = lambda cells: [cells * GRID_POINTS] + [cells * REFINE_POINTS] * 4
        assert calls == q_search(GRID_POINTS) + 2 * q_search(GRID_POINTS + 1) + [1]
        assert len(calls) == 16

    def test_photon_optimised_capacity_table_reuses_the_searched_prior(self, calls, capsys):
        assert main(["capacity", "--optimize-photons"]) == 0
        # The photon search's 16 calls, then the table evaluates its one cell at
        # the q the search found: no second q-search.
        assert len(calls) == 17 and calls[-1] == 1
        capsys.readouterr()

    def test_table1_runs_one_photon_search(self, calls, capsys):
        assert len({preset_config(name).detector for name in PRESET_NAMES}) == 1
        assert main(["table1"]) == 0
        # The three presets share one detector and gamma, so one search of 16 calls.
        assert len(calls) == 16
        capsys.readouterr()

    def test_one_cell_budget(self, calls):
        private_capacity(DetectorModel(), 4.0, 0.1)
        # One scan call, four rescans, one evaluation at the optimum.
        assert calls == [GRID_POINTS] + [REFINE_POINTS] * 4 + [1]

    def test_prior_free_terms_once_per_search(self, cell_calls, day_detector):
        rng = np.random.default_rng(7)
        secrecy._optimal_q(secrecy._cell_terms(*(rng.uniform(0.1, 0.5, 64) for _ in range(5))))
        assert cell_calls == [64]
        cell_calls.clear()
        axes = [
            SweepAxis("received_mean_photons", 0.1, 20.0, 32, "log"),
            SweepAxis("stray_mean", 1e-7, 1e-2, 16, "log"),
        ]
        sweep(config_from_dict({}), axes)
        # One set of prior-free terms, shared by the q-search over the grid and
        # the evaluation at the optima.
        assert cell_calls == [512]
        cell_calls.clear()
        optimal_signal_strength(day_detector, 0.1)
        # Three scans, one q-search each, then the optimum.
        assert cell_calls == [GRID_POINTS, GRID_POINTS + 1, GRID_POINTS + 1, 1]

    def test_search_maximises_the_kernel_bitwise(self):
        # Seeded cells over the design search's detectors and photon range.
        rng = np.random.default_rng(12)
        mu = 10.0 ** rng.uniform(*np.log10(PHOTON_SEARCH_BOUNDS), 64)
        gamma = rng.uniform(0.0, 0.9, 64)
        fields = (10.0 ** rng.uniform(-9, -5, 64), rng.uniform(0.5, 1.0, 64), 10.0 ** rng.uniform(-7, -2, 64))
        terms = secrecy._cell_terms(mu, gamma, *fields)
        q, best = secrecy._optimal_q(terms)
        info_bob, info_eve = secrecy._prior_terms(terms, q)
        assert (best == info_bob - info_eve).all()


class TestOnePointFunctions:
    def test_share_the_kernel_bitwise(self):
        # Seeded cells over the design search's photon range and detectors.
        rng = np.random.default_rng(13)
        cells = 200
        mu = 10.0 ** rng.uniform(-3.0, 2.0, cells)
        gamma = rng.uniform(0.0, 0.9, cells)
        q = rng.uniform(0.01, 0.99, cells)
        detectors = [
            DetectorModel(
                p_dark=float(10.0 ** rng.uniform(-9, -5)),
                eta_optical=float(rng.uniform(0.5, 1.0)),
                stray_mean=float(10.0 ** rng.uniform(-7, -2)),
            )
            for _ in range(cells)
        ]
        fields = [np.array([getattr(d, name) for d in detectors])
                  for name in ("p_dark", "eta_optical", "stray_mean")]
        points = secrecy_points(mu, gamma, q, *fields)
        for i, (detector, point) in enumerate(zip(detectors, points)):
            m, g, p = float(mu[i]), float(gamma[i]), float(q[i])
            assert mutual_info_bob(p, bob_click_model(detector, m)) == point.info_bob, i
            ensemble = BinaryCoherentEnsemble(g * m, p)
            assert holevo_binary(ensemble) == point.holevo_eve, i
            solution = helstrom_projector(ensemble)
            e0, e1 = solution.error_given_0, solution.error_given_1
            out = p * (1.0 - e0) + (1.0 - p) * e1
            info_eve = binary_entropy(out) - p * binary_entropy(e0) - (1.0 - p) * binary_entropy(e1)
            assert max(info_eve, 0.0) == point.info_eve_helstrom, i


class TestPhotonSearch:
    def test_matches_a_dense_local_scan(self):
        # Seeded draws over the detectors and degradations of the design search.
        rng = np.random.default_rng(20)
        for _ in range(20):
            detector = DetectorModel(
                p_dark=10 ** rng.uniform(-9, -5), eta_optical=rng.uniform(0.5, 1.0),
                stray_mean=10 ** rng.uniform(-7, -2),
            )
            gamma = rng.uniform(0.02, 0.4)
            mu, best = optimal_signal_strength(detector, gamma)
            # A 1e-4-decade lattice aligned to tenths of a decade, not to mu.
            log_mu = round(math.log10(mu), 1) + np.linspace(-0.15, 0.15, 3001)
            points = secrecy_points(
                10.0**log_mu, gamma, None, detector.p_dark, detector.eta_optical, detector.stray_mean
            )
            capacity = [p.private_capacity for p in points]
            dense = log_mu[int(np.argmax(capacity))]
            assert abs(math.log10(mu) - dense) <= LOG_TOL / 2, (detector, gamma)
            # The capacity moves at second order in the distance to the optimum.
            assert best.private_capacity >= max(capacity) - 1e-8

    def test_zero_capacity_returns_the_lower_bound(self, day_detector):
        # Near-unit degradation: the capacity is 0 at every photon number.
        mu, best = optimal_signal_strength(day_detector, 0.999)
        assert (mu, best.private_capacity) == (PHOTON_SEARCH_BOUNDS[0], 0.0)

    def test_point_is_private_capacity_at_the_searched_photon_number(self):
        # The point comes from the winning cell's own q-search in the last scan;
        # it must be the one-cell q-search and evaluation there, bit for bit.
        rng = np.random.default_rng(25)
        inputs = [
            (DetectorModel(p_dark=10 ** rng.uniform(-9, -5), eta_optical=rng.uniform(0.5, 1.0),
                           stray_mean=10 ** rng.uniform(-7, -2)), rng.uniform(0.02, 0.4))
            for _ in range(44)
        ]
        inputs += [
            (DetectorModel(p_dark=10 ** rng.uniform(-9, -1), eta_optical=rng.uniform(0.05, 1.0),
                           stray_mean=10 ** rng.uniform(-7, 1)), rng.uniform(0.0, 0.999))
            for _ in range(6)
        ]
        # Capacity 0 everywhere: the search ends on its lower bound.
        inputs += [(DetectorModel(), 0.999), (DetectorModel(0.5, 1.0, 5.0), 0.9),
                   (DetectorModel(1.0, 1.0, 1e-4), 0.1), (DetectorModel(1e-7, 1.0, 3.0), 0.5)]
        zero = 0
        for detector, gamma in inputs:
            mu, point = optimal_signal_strength(detector, float(gamma))
            assert point.received_mean_photons == mu
            assert _bits(point) == _bits(private_capacity(detector, mu, float(gamma))), (detector, gamma)
            zero += point.private_capacity == 0.0 and mu == PHOTON_SEARCH_BOUNDS[0]
        assert zero >= 4


def _result_bits(result):
    mu, point = result
    return [mu.hex()] + _bits(point)


class TestPhotonSearchMemo:
    """``optimal_signal_strength`` keeps its searches per process, keyed on the
    bits of the detector's fields and gamma; ``fresh_photon_memo`` empties it
    before each test."""

    def test_repeat_is_identical_and_makes_no_kernel_call(self, calls, day_detector):
        first = optimal_signal_strength(day_detector, 0.1)
        assert len(calls) == 16
        calls.clear()
        equal = DetectorModel(p_dark=1e-7, eta_optical=1.0, stray_mean=1e-4)
        for detector in (day_detector, equal):
            assert repr(optimal_signal_strength(detector, 0.1)) == repr(first)
        assert calls == []

    def test_recomputation_after_clearing_is_bitwise_equal(self, calls, day_detector):
        first = optimal_signal_strength(day_detector, 0.25)
        secrecy._photon_search.cache_clear()
        calls.clear()
        again = optimal_signal_strength(day_detector, 0.25)
        assert len(calls) == 16
        assert _result_bits(again) == _result_bits(first)

    def test_neighbouring_keys_get_their_own_search(self):
        base = DetectorModel(p_dark=1e-7, eta_optical=0.9, stray_mean=1e-4)
        up = lambda x: math.nextafter(x, math.inf)
        inputs = [
            (DetectorModel(0.0, 1.0, 0.0), 0.0),
            (DetectorModel(0.0, 1.0, 0.0), -0.0),  # the point's gamma keeps the sign
            (base, 0.1),
            (DetectorModel(up(base.p_dark), base.eta_optical, base.stray_mean), 0.1),
            (DetectorModel(base.p_dark, up(base.eta_optical), base.stray_mean), 0.1),
            (DetectorModel(base.p_dark, base.eta_optical, up(base.stray_mean)), 0.1),
            (base, up(0.1)),
        ]
        kept = [optimal_signal_strength(*args) for args in inputs]
        assert secrecy._photon_search.cache_info().currsize == len(inputs)
        for args, result in zip(inputs, kept):
            secrecy._photon_search.cache_clear()
            assert _result_bits(optimal_signal_strength(*args)) == _result_bits(result), args
        assert repr(kept[0]) != repr(kept[1])

    @pytest.mark.parametrize("gamma", [1.0, -0.1, math.nan, math.inf])
    def test_invalid_input_raises_on_every_call(self, day_detector, gamma):
        for _ in range(2):
            with pytest.raises(ValueError, match="^gamma must be in"):
                optimal_signal_strength(day_detector, gamma)
        assert secrecy._photon_search.cache_info().currsize == 0

    def test_size_is_bounded(self, calls, day_detector):
        size = secrecy.PHOTON_SEARCH_MEMO_SIZE
        gammas = np.linspace(0.01, 0.5, size + 1).tolist()
        for gamma in gammas:
            optimal_signal_strength(day_detector, gamma)
        assert secrecy._photon_search.cache_info().currsize == size
        calls.clear()
        optimal_signal_strength(day_detector, gammas[-1])  # the newest is kept
        assert calls == []
        optimal_signal_strength(day_detector, gammas[0])  # the oldest was dropped
        assert len(calls) == 16
