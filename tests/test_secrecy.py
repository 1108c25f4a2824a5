import math
from dataclasses import astuple

import mpmath
import numpy as np
import pytest

from oracles import grid_argmax
from wiretap_space import secrecy
from wiretap_space.cli import main
from wiretap_space.detection import BinaryCoherentEnsemble, _helstrom_split, _overlap_terms, helstrom_projector, holevo_binary, holevo_bound
from wiretap_space.numerics import GRID_POINTS, REFINE_POINTS, SCAN_BLOCK_CELLS, Interval, binary_entropy, maximize_lockstep
from wiretap_space.numerics import _channel_information, _entropy_in_place
from wiretap_space.receiver import DetectorModel, bob_click_model, mutual_info_bob
from wiretap_space.config import PRESET_NAMES, SweepAxis, config_from_dict, preset_config
from wiretap_space.scenario_io import sweep
from wiretap_space.secrecy import (
    PHOTON_SEARCH_BOUNDS,
    Q_SCAN_STEP,
    Q_SEARCH_BOUNDS,
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
        # The parabolic step puts q within 1.6e-6 of a 1e-7 lattice's argmax on
        # these cells (the scans alone: 3.1e-5), far inside the last scan's
        # step of 9.7e-4.
        points = self._grid(cells, None, slice(None))
        for i in range(self.CELLS):
            detector = cells["detectors"][i]
            mu, gamma = cells["mu"][i], cells["gamma"][i]

            terms = secrecy._cell_terms(mu, gamma, detector.p_dark, detector.eta_optical, detector.stray_mean)

            def unclipped(qs):
                info_bob, info_eve = secrecy._prior_terms(terms, qs)
                return info_bob - info_eve

            coarse = grid_argmax(unclipped, *Q_SEARCH_BOUNDS, n=9_801)
            lo, hi = max(coarse - 2e-4, Q_SEARCH_BOUNDS[0]), min(coarse + 2e-4, Q_SEARCH_BOUNDS[1])
            reference = grid_argmax(unclipped, lo, hi, n=round((hi - lo) / 1e-7) + 1)
            assert abs(points[i].q - reference) <= 3e-6, i


@pytest.fixture
def calls(monkeypatch):
    """Sizes of the kernel's prior-dependent calls, one entry per call."""
    sizes = []
    kernel = secrecy._prior_terms

    def counted(terms, q, **kwargs):
        sizes.append(np.broadcast(terms[0], q).size)
        return kernel(terms, q, **kwargs)

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

    def test_sweep_grid_budget(self, calls, channel_calls):
        axes = [
            SweepAxis("received_mean_photons", 0.1, 20.0, 32, "log"),
            SweepAxis("stray_mean", 1e-7, 1e-2, 16, "log"),
        ]
        _, rows = sweep(config_from_dict({}), axes)
        assert len(rows) == 512
        scan_calls = math.ceil(512 / SCAN_BLOCK_CELLS)
        assert calls[:scan_calls] == [SCAN_BLOCK_CELLS * GRID_POINTS] * scan_calls
        # Each rescan cuts the step by 4, from 0.0156 to 9.7e-4 <= Q_SCAN_STEP
        # in two, each one call over every cell; then the parabolic step, one
        # call over the cells whose vertex it takes (here every cell), and one
        # evaluation of every cell at its optimum.
        step = (Q_SEARCH_BOUNDS[1] - Q_SEARCH_BOUNDS[0]) / (GRID_POINTS - 1)
        rescans = math.ceil(math.log(step / Q_SCAN_STEP) / math.log((REFINE_POINTS - 1) / 2))
        assert rescans == 2
        later = [512 * REFINE_POINTS] * rescans + [512, 512]
        assert calls[scan_calls:] == later
        assert len(calls) == 8
        # The first scan's priors are one row that every cell of a block
        # shares: the receiver's information is taken on each cell's 64
        # points, the interceptor's once per photon number, 8 of a block's 128
        # cells (the 16 stray-light values of one photon number share it), on
        # the row's lower 32 priors, mirrored onto the upper 32.
        photon_numbers = SCAN_BLOCK_CELLS // 16
        assert channel_calls["receiver"] == [SCAN_BLOCK_CELLS * GRID_POINTS] * scan_calls + later
        assert channel_calls["interceptor"] == [photon_numbers * GRID_POINTS // 2] * scan_calls + later

    def test_gamma_axis_sweep_budget(self, calls, channel_calls):
        axes = [
            SweepAxis("received_mean_photons", 0.1, 20.0, 32, "log"),
            SweepAxis("gamma", 0.02, 0.5, 16),
        ]
        _, rows = sweep(config_from_dict({}), axes)
        assert len(rows) == 512
        scan_calls = 512 // SCAN_BLOCK_CELLS
        # The parabolic step skips the two cells whose optimum is q's lower
        # bound (20 photons at gamma 0.468 and 0.5).
        later = [512 * REFINE_POINTS] * 2 + [510, 512]
        assert calls == [SCAN_BLOCK_CELLS * GRID_POINTS] * scan_calls + later
        # Along gamma it is the receiver's first-scan information that repeats:
        # taken once per photon number, 8 of a block's 128 cells, while each
        # cell's interceptor photon number gamma * mu is its own, her
        # information taken on the lower 32 priors of the row.
        photon_numbers = SCAN_BLOCK_CELLS // 16
        assert channel_calls["receiver"] == [photon_numbers * GRID_POINTS] * scan_calls + later
        assert channel_calls["interceptor"] == [SCAN_BLOCK_CELLS * GRID_POINTS // 2] * scan_calls + later

    def test_photon_scan_is_one_batch(self, calls, day_detector):
        optimal_signal_strength(day_detector, 0.1)
        # The 64 photon numbers of the scan form one 64-cell q-search.
        assert calls[0] == GRID_POINTS * GRID_POINTS
        # Two scans and the vertex's one-cell q-search, 4 calls each (one scan
        # call, two rescans, a parabolic step over at most every cell), then
        # the evaluation of the optimum at the q its cell's q-search found.
        q_search = lambda cells: [cells * GRID_POINTS] + [cells * REFINE_POINTS] * 2
        searches = [calls[:3], calls[4:7], calls[8:11]]
        assert searches == [q_search(GRID_POINTS), q_search(GRID_POINTS + 1), q_search(1)]
        assert [calls[3], calls[7], calls[11]] <= [GRID_POINTS, GRID_POINTS + 1, 1]
        assert 0 < min(calls[3], calls[7], calls[11]) and calls[12] == 1
        assert len(calls) == 13

    def test_photon_optimised_capacity_table_reuses_the_searched_prior(self, calls, capsys):
        assert main(["capacity", "--optimize-photons"]) == 0
        # The photon search's 13 calls, then the table evaluates its one cell at
        # the q the search found: no second q-search.
        assert len(calls) == 14 and calls[-1] == 1
        capsys.readouterr()

    def test_table1_runs_one_photon_search(self, calls, capsys):
        assert len({preset_config(name).detector for name in PRESET_NAMES}) == 1
        assert main(["table1"]) == 0
        # The three presets share one detector and gamma, so one search of 13 calls.
        assert len(calls) == 13
        capsys.readouterr()

    def test_one_cell_budget(self, calls):
        private_capacity(DetectorModel(), 4.0, 0.1)
        # One scan call, two rescans, the parabolic step, one evaluation at the optimum.
        assert calls == [GRID_POINTS] + [REFINE_POINTS] * 2 + [1, 1]

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
        # Two scans and the vertex, one q-search each, then the optimum.
        assert cell_calls == [GRID_POINTS, GRID_POINTS + 1, 1, 1]

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


class TestSharedPhotonNumbers:
    """Cells that share the interceptor's ``(s, y)`` take her first-scan terms
    once, gathered back to each of them, and cells that share the receiver's
    ``(eps0, eps1)`` take his once; every cell's point is still that cell
    evaluated alone, bit for bit."""

    @staticmethod
    def _check_sweep_cells(axes, gamma=0.1):
        config = config_from_dict({"operating": {"gamma": gamma}})
        header, rows = sweep(config, axes)
        named = [axis.param for axis in axes]
        assert header[: len(axes)] == named
        for row in rows:
            fields = dict(zip(named, row))
            detector = DetectorModel(**{
                name: fields.get(name, getattr(config.detector, name))
                for name in ("p_dark", "eta_optical", "stray_mean")
            })
            mu = fields.get("received_mean_photons", config.operating.received_mean_photons)
            alone = private_capacity(detector, mu, gamma)
            assert [v.hex() for v in row[len(axes) : len(axes) + 8]] == _bits(alone), row
        return rows

    @pytest.mark.parametrize("inner", [
        SweepAxis("stray_mean", 1e-7, 1e-2, 9, "log"),
        SweepAxis("p_dark", 1e-9, 1e-5, 9, "log"),
    ], ids=["stray_mean", "p_dark"])
    def test_noise_axis_sweeps(self, channel_calls, inner):
        # 20 x 9 = 180 cells: two blocks, the first cut inside a photon number's run.
        rows = self._check_sweep_cells([SweepAxis("received_mean_photons", 0.01, 50.0, 20, "log"), inner])
        assert len(rows) == 180 > SCAN_BLOCK_CELLS
        # Block one holds photon numbers 0-14 (the 15th in part), block two 14-19.
        assert channel_calls["interceptor"][:2] == [15 * GRID_POINTS // 2, 6 * GRID_POINTS // 2]

    def test_one_noise_axis_shares_one_photon_number(self, channel_calls):
        rows = self._check_sweep_cells([SweepAxis("stray_mean", 1e-7, 1e-2, 200, "log")])
        assert len(rows) == 200
        assert channel_calls["interceptor"][:2] == [GRID_POINTS // 2, GRID_POINTS // 2]
        assert channel_calls["receiver"][:2] == [SCAN_BLOCK_CELLS * GRID_POINTS, 72 * GRID_POINTS]

    @pytest.mark.parametrize("inner", [
        SweepAxis("gamma", 0.02, 0.6, 9),
        SweepAxis("dist_bob_m", 0.9e6, 1.4e6, 9),
        SweepAxis("exclusion_radius_m", 11.0, 30.0, 9),
    ], ids=lambda axis: axis.param)
    def test_degradation_axis_sweeps(self, channel_calls, inner):
        # Along an axis that moves only the degradation the receiver's terms
        # are shared instead: each row is still its cell's own private_capacity.
        config = config_from_dict({})
        header, rows = sweep(config, [SweepAxis("received_mean_photons", 0.01, 50.0, 20, "log"), inner])
        assert len(rows) == 180 and header[2:4] == ["gamma", "received_mean_photons"]
        for row in rows:
            alone = private_capacity(config.detector, row[3], row[2])
            assert [v.hex() for v in row[2:10]] == _bits(alone), row
        # Block one holds photon numbers 0-14 (the 15th in part), block two 14-19.
        assert channel_calls["receiver"][:2] == [15 * GRID_POINTS, 6 * GRID_POINTS]
        assert channel_calls["interceptor"][:2] == [SCAN_BLOCK_CELLS * GRID_POINTS // 2, 52 * GRID_POINTS // 2]

    @staticmethod
    def _check_batch(mu, gamma, stray_mean):
        points = secrecy_points(mu, gamma, None, 1e-7, 0.8, stray_mean)
        for i, point in enumerate(points):
            alone = private_capacity(DetectorModel(1e-7, 0.8, float(stray_mean[i])), float(mu[i]), gamma)
            assert _bits(point) == _bits(alone), i

    def test_repeats_that_are_not_adjacent(self, channel_calls):
        rng = np.random.default_rng(37)
        mu = rng.permutation(np.repeat([0.0, 0.3, 2.0, 7.5, 40.0], 6))
        assert 1 + (mu[1:] != mu[:-1]).sum() > 5  # more runs than values: some copies lie apart
        self._check_batch(mu, 0.2, 10.0 ** rng.uniform(-7, -2, mu.size))
        assert channel_calls["receiver"][0] == 30 * GRID_POINTS
        assert channel_calls["interceptor"][0] == 5 * GRID_POINTS // 2

    def test_equal_s_but_different_y(self, channel_calls):
        # From about 37.4 photons on, the interceptor's s = -expm1(-n) rounds
        # to 1.0 while y = 2 e^(-n/2) sqrt(s), and with it her first-scan
        # terms, still differs: the pairs are keyed on both rows.
        mu = np.array([76.0, 120.0, 76.0, 120.0, 120.0])  # 38 and 60 photons at gamma 1/2
        stray_mean = np.geomspace(1e-6, 1e-3, mu.size)
        terms = secrecy._cell_terms(mu, 0.5, 1e-7, 0.8, stray_mean)
        s, y = terms[4:]
        assert (s == 1.0).all() and y[0] != y[1]
        q = np.linspace(*Q_SEARCH_BOUNDS, GRID_POINTS)[np.newaxis]
        shared = secrecy._prior_terms(terms[:, :, np.newaxis], q)[1]
        assert channel_calls["interceptor"] == [2 * GRID_POINTS]
        alone = np.array([secrecy._prior_terms(terms[:, [i], np.newaxis], q)[1][0] for i in range(mu.size)])
        assert (alone[0] != alone[1]).all()
        assert np.array_equal(shared.view(np.int64), alone.view(np.int64))
        self._check_batch(mu, 0.5, stray_mean)


def _entropy_expression(p):
    """Binary entropy as one expression of fresh arrays: the oracle of the in-place kernel."""
    with np.errstate(invalid="ignore", divide="ignore"):
        q = 1.0 - p
        h = -p * np.log2(p)
        h -= q * np.log2(q)
    return np.fmax(h, 0.0)


def _helstrom_errors_expression(s, y, q):
    """Her two conditional errors, each from its own arctan2 of fresh arrays: the oracle of
    :func:`detection._helstrom_split`'s one arctan2 over a pair of rows."""
    d, p, s2 = 2.0 * q - 1.0, 1.0 - q, s + s
    phi0 = 0.5 * np.arctan2(p * y, d + p * s2)
    phi1 = 0.5 * np.arctan2(q * y, -(d - q * s2))
    return np.square(np.sin(phi0)), np.square(np.sin(phi1)), phi0, phi1


def _prior_terms_expression(terms, q):
    """:func:`secrecy._prior_terms` as expressions of fresh arrays, the same
    operations in the same order: the oracle of its in-place evaluation."""
    eps0, eps1, h_eps0, h_eps1, s, y = terms
    e0, e1, _, _ = _helstrom_errors_expression(s, y, q)
    p_bob, p_eve = q * eps0 + (1.0 - q) * eps1, q * (1.0 - e0) + (1.0 - q) * e1
    h_bob, h_eve, h_e0, h_e1 = map(_entropy_expression, (p_bob, p_eve, e0, e1))
    info_bob = np.maximum(h_bob - q * h_eps0 - (1.0 - q) * h_eps1, 0.0)
    info_eve = np.maximum(h_eve - q * h_e0 - (1.0 - q) * h_e1, 0.0)
    return info_bob, info_eve


class TestInPlaceKernel:
    """The in-place prior step and the first scan's shared row of priors give
    the fresh-array expressions' results bit for bit."""

    @pytest.fixture(scope="class")
    def terms(self):
        rng = np.random.default_rng(20261019)
        cells = 2000
        mu = 10.0 ** rng.uniform(-4.0, 2.3, cells)
        gamma = rng.uniform(0.0, 0.999, cells)
        fields = [10.0 ** rng.uniform(-10, -2, cells), rng.uniform(0.05, 1.0, cells), 10.0 ** rng.uniform(-9, -1, cells)]
        # Corners: no photons, subnormal photon numbers, eps1 = 0 (a detector that always
        # clicks, or a pulse too bright to miss), no stray light and no dark counts.
        mu[:4], mu[4:8], mu[8] = 0.0, [5e-324, 1e-310, 2.2e-308, 1e-300], 800.0
        fields[0][9], fields[0][10:12] = 1.0, 0.0
        fields[2][10:12] = 0.0
        return secrecy._cell_terms(mu, gamma, *fields)

    @pytest.mark.parametrize("q", ["seeded", 0.0, 0.5, 1.0])
    def test_prior_terms_match_the_expressions(self, terms, q):
        q = np.random.default_rng(3).uniform(0.0, 1.0, terms.shape[1]) if q == "seeded" else np.full(terms.shape[1], q)
        for got, want in zip(secrecy._prior_terms(terms, q), _prior_terms_expression(terms, q)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_a_shared_row_of_priors_matches_the_expressions(self, terms):
        # The first scan's shape: rows (6, cells, 1) against one (1, GRID_POINTS) row.
        q = np.linspace(0.0, 1.0, GRID_POINTS)[np.newaxis]
        got = secrecy._prior_terms(terms[:, :, np.newaxis], q)
        want = _prior_terms_expression(terms[:, :, np.newaxis], np.broadcast_to(q, (terms.shape[1], GRID_POINTS)))
        for got, want in zip(got, want):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_q_search_on_a_shared_row_matches_one_row_per_cell(self, terms):
        def unclipped(q, cell):
            first = q.shape == (1, GRID_POINTS)
            q = np.broadcast_to(q, np.broadcast_shapes(q.shape, cell.shape))  # one row of priors per cell
            info_bob, info_eve = _prior_terms_expression(terms[:, cell], q)
            if first:  # the kernel's mirrored first scan: her lower 32 values, then the same reversed
                half = GRID_POINTS // 2
                info_eve = np.concatenate((info_eve[:, :half], info_eve[:, half - 1 :: -1]), axis=1)
            return info_bob - info_eve

        got = secrecy._optimal_q(terms)
        want = maximize_lockstep(unclipped, Interval(*Q_SEARCH_BOUNDS), Q_SCAN_STEP, terms.shape[1])
        for got, want in zip(got, want):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_the_mirror_moves_only_an_exact_tie(self, terms):
        # Against the q-search that takes her first-scan information on all 64
        # priors only cell 9 moves: p_dark = 1, so the receiver learns nothing and
        # the objective -I(X;Z) is symmetric.  The mirror makes its q = 0.01 and
        # 0.99 an exact tie, which keeps the lower point.
        got, want = secrecy._optimal_q(terms), _unmirrored_q(terms)
        moved = [np.flatnonzero(g.view(np.int64) != w.view(np.int64)).tolist() for g, w in zip(got, want)]
        assert moved == [[9], [9]]
        assert terms[0, 9] == terms[1, 9]  # eps0 = eps1
        assert (got[0][9], want[0][9]) == Q_SEARCH_BOUNDS
        assert got[1][9] == pytest.approx(want[1][9], rel=1e-12)


def _unmirrored_q(terms):
    """:func:`secrecy._optimal_q` with her first-scan information taken on every prior of the row."""
    def unclipped(q, cell):
        info_bob, info_eve = secrecy._prior_terms(terms[:, cell], q)
        return info_bob - info_eve

    return maximize_lockstep(unclipped, Interval(*secrecy.Q_SEARCH_BOUNDS), Q_SCAN_STEP, terms.shape[1])


def _assert_same_bits(got, want):
    for got, want in zip(got, want):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _cell_terms_expression(mu, gamma, p_dark, eta_optical, stray_mean):
    """:func:`secrecy._cell_terms` as expressions of fresh arrays stacked at the end: the oracle
    of its rows written in place."""
    stray, no_dark = eta_optical * stray_mean, 1.0 - p_dark
    eps0, eps1, n = np.broadcast_arrays(no_dark * np.exp(-stray), no_dark * np.exp(-(mu + stray)), gamma * mu)
    s = -np.expm1(-n)
    y = 2.0 * np.exp(-0.5 * n) * np.sqrt(s)
    return np.stack((eps0, eps1, _entropy_expression(eps0), _entropy_expression(eps1), s, y))


class TestStepsMatchTheirExpressions:
    """Each step the kernel takes over blocks of rows in place gives, bit for bit, the
    expressions of fresh arrays it stands for, one row at a time: her two Helstrom errors from
    one arctan2, her three entropies in one call, the channel information from the kernel's
    ``p``, the prior-free rows and the mirrored first scan.  Seeded cells, and the edges:
    no photons (``s = 0``) at ``q = 1/2``, an overlap that underflows (``c = 0``) and ``q`` at 0 and 1."""

    @pytest.fixture(scope="class")
    def cells(self):
        rng = np.random.default_rng(20261021)
        n = 600
        mu = 10.0 ** rng.uniform(-4.0, 2.3, n)
        gamma = rng.uniform(0.0, 0.999, n)
        fields = [10.0 ** rng.uniform(-10, -2, n), rng.uniform(0.05, 1.0, n), 10.0 ** rng.uniform(-9, -1, n)]
        q = rng.uniform(0.0, 1.0, n)
        mu[:3], q[:3] = 0.0, 0.5  # s = 0 at q = 1/2: both angles atan2(0, 0)
        mu[3:6], gamma[3:6], q[3:6] = 2000.0, 0.9, [0.0, 0.5, 1.0]  # c = exp(-900) = 0
        q[6:9], q[9:12] = 0.0, 1.0
        return mu, gamma, fields, q

    def test_prior_free_rows(self, cells):
        mu, gamma, fields, _ = cells
        got = secrecy._cell_terms(mu, gamma, *fields)
        assert got.shape == (6, mu.size)
        _assert_same_bits(got, _cell_terms_expression(mu, gamma, *fields))
        # Broadcast inputs, and one cell of scalars.
        mixed = (mu[:50], 0.3, 1e-7, fields[1][:50], 1e-4)
        _assert_same_bits(secrecy._cell_terms(*mixed), _cell_terms_expression(*mixed))
        one = secrecy._cell_terms(2.0, 0.1, 1e-7, 0.8, 1e-4)
        assert one.shape == (6,)
        assert np.array_equal(one, _cell_terms_expression(2.0, 0.1, 1e-7, 0.8, 1e-4))

    def test_helstrom_errors_and_angles(self, cells):
        mu, gamma, fields, q = cells
        _, _, _, _, s, y = secrecy._cell_terms(mu, gamma, *fields)
        assert s[0] == y[0] == 0.0 and y[3] == 0.0 and s[3] == 1.0
        errors, angles = _helstrom_split(s, y, q, 1.0 - q)
        e0, e1, phi0, phi1 = _helstrom_errors_expression(s, y, q)
        _assert_same_bits((*errors, *angles), (e0, e1, phi0, phi1))
        # phi1's abscissa is -0 at s = 0 and q = 1/2, so the split is (0, pi/2).
        assert (angles[0][0], angles[1][0]) == (0.0, math.pi / 2)
        # One prior shared by every cell, and one float cell (helstrom_projector's).
        _assert_same_bits(_helstrom_split(s, y, 0.3, 0.7)[0], _helstrom_errors_expression(s, y, 0.3)[:2])
        got = [v.tolist() for v in _helstrom_split(*_overlap_terms(0.7), 0.2, 0.8)]
        want = [float(v) for v in _helstrom_errors_expression(*_overlap_terms(0.7), 0.2)]
        assert got == [want[:2], want[2:]]

    def test_her_three_entropies_in_one_call(self, cells):
        mu, gamma, fields, q = cells
        _, _, _, _, s, y = secrecy._cell_terms(mu, gamma, *fields)
        e0, e1, _, _ = _helstrom_errors_expression(s, y, q)
        rows = [q * (1.0 - e0) + (1.0 - q) * e1, e0, e1]
        block = np.array(rows)
        with np.errstate(invalid="ignore", divide="ignore"):
            _entropy_in_place(block, np.empty_like(block), np.empty_like(block))
        _assert_same_bits(block, [_entropy_expression(row) for row in rows])

    def test_channel_information_from_p(self, cells):
        mu, gamma, fields, q = cells
        h_out, h_0, h_1 = np.random.default_rng(5).uniform(0.0, 1.0, (3, mu.size))
        got = _channel_information(q, 1.0 - q, h_out, h_0, h_1)
        _assert_same_bits([got], [np.maximum(h_out - q * h_0 - (1.0 - q) * h_1, 0.0)])

    def test_prior_terms(self, cells):
        mu, gamma, fields, q = cells
        terms = secrecy._cell_terms(mu, gamma, *fields)
        _assert_same_bits(secrecy._prior_terms(terms, q), _prior_terms_expression(terms, q))

    @pytest.mark.parametrize("shared", [False, True])
    def test_mirrored_first_scan_rows(self, cells, shared):
        # The first scan's shape, on cells of their own photon numbers or, shared, on 8
        # photon numbers of 75 cells each (her half-width rows taken once per number).
        mu, gamma, fields, _ = cells
        if shared:
            mu, gamma = np.repeat(mu[:8], 75), 0.2
        terms = secrecy._cell_terms(mu, gamma, *fields)[:, :, np.newaxis]
        row = np.linspace(*Q_SEARCH_BOUNDS, GRID_POINTS)[np.newaxis]
        info_bob, info_eve = secrecy._prior_terms(terms, row, mirrored=True)
        want_bob, want_eve = _prior_terms_expression(terms, np.broadcast_to(row, (mu.size, GRID_POINTS)))
        half = GRID_POINTS // 2
        _assert_same_bits((info_bob, info_eve), (want_bob, np.concatenate((want_eve[:, :half], want_eve[:, half - 1 :: -1]), axis=1)))


class TestMirroredFirstScan:
    """The q-search's first scan takes the interceptor's information on the
    lower half of its priors and mirrors it onto the upper half, by her
    q <-> 1 - q symmetry; a search's ``(q*, value)`` stays the unmirrored one
    bit for bit unless q and 1 - q tie exactly."""

    @pytest.fixture
    def searches(self, monkeypatch):
        """``(terms, result)`` of each q-search."""
        recorded, search = [], secrecy._optimal_q

        def recording(terms):
            recorded.append((terms, search(terms)))
            return recorded[-1][1]

        monkeypatch.setattr(secrecy, "_optimal_q", recording)
        return recorded

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("inner", ["stray_mean", "p_dark", "gamma", "dist_bob_m", "exclusion_radius_m"])
    def test_sweeps_match_the_unmirrored_search(self, searches, inner, seed):
        # 32x16 sweeps over seeded ranges, those of the sweep-grid benchmark: no exact tie.
        rng = np.random.default_rng(seed)
        log_uniform = lambda lo, hi: float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))
        low = {
            "stray_mean": log_uniform(1e-7, 1e-5), "p_dark": log_uniform(1e-9, 1e-7),
            "gamma": rng.uniform(0.01, 0.1), "dist_bob_m": rng.uniform(0.9e6, 1.1e6),
            "exclusion_radius_m": rng.uniform(11.0, 13.0),
        }[inner]
        high = {
            "stray_mean": low * log_uniform(1e2, 1e4), "p_dark": low * log_uniform(1e1, 1e3),
            "gamma": rng.uniform(0.3, 0.6), "dist_bob_m": rng.uniform(1.2e6, 1.4e6),
            "exclusion_radius_m": rng.uniform(16.0, 30.0),
        }[inner]
        scale = "log" if inner in ("stray_mean", "p_dark") else "linear"
        operating = {"gamma": rng.uniform(0.02, 0.4)} if scale == "log" else {}
        config = config_from_dict({"operating": operating})
        outer = SweepAxis("received_mean_photons", log_uniform(1e-3, 1e-1), log_uniform(1.0, 100.0), 32, "log")
        sweep(config, [outer, SweepAxis(inner, low, high, 16, scale)])
        ((terms, got),) = searches
        assert terms.shape[1] == 512
        _assert_same_bits(got, _unmirrored_q(terms))

    @pytest.mark.parametrize("bounds", [(1e-3, 1.0 - 1e-3), (0.0, 1.0)])
    def test_widened_symmetric_bounds_keep_the_mirror(self, monkeypatch, bounds):
        rng = np.random.default_rng(41)
        mu = 10.0 ** rng.uniform(-3.0, 2.0, 300)
        fields = (10.0 ** rng.uniform(-9, -5, mu.size), rng.uniform(0.5, 1.0, mu.size), 10.0 ** rng.uniform(-7, -2, mu.size))
        terms = secrecy._cell_terms(mu, rng.uniform(0.0, 0.9, mu.size), *fields)
        monkeypatch.setattr(secrecy, "Q_SEARCH_BOUNDS", bounds)
        _assert_same_bits(secrecy._optimal_q(terms), _unmirrored_q(terms))

    @pytest.mark.parametrize("name, value", [
        ("GRID_POINTS", GRID_POINTS - 1),
        ("Q_SEARCH_BOUNDS", (0.01, 0.98)),
        ("Q_SEARCH_BOUNDS", (0.02, 0.99)),
    ])
    def test_an_asymmetric_first_scan_raises(self, monkeypatch, name, value):
        monkeypatch.setattr(secrecy, name, value)
        with pytest.raises(ValueError, match="must be symmetric about 1/2"):
            private_capacity(DetectorModel(), 4.0, 0.1)

    def test_her_information_is_symmetric_in_the_prior(self):
        # Seeded cells from 1e-6 to 100 of her photons, at priors with 1 - q
        # exact (multiples of 2^-20), so that only the kernel's rounding can
        # tell q from 1 - q.  chi is exactly symmetric: q (1 - q) is one
        # product either way.  I(X;Z) agrees within 1e-7 relative (5.5e-8
        # measured, at the fewest photons, where its entropies cancel) and
        # within 1e-10 from 1e-3 photons on (4.6e-11 measured).
        rng = np.random.default_rng(16)
        n_eve = 10.0 ** rng.uniform(-6.0, 2.0, 2000)
        gamma = rng.uniform(0.05, 0.95, n_eve.size)
        q = np.round(rng.uniform(0.001, 0.999, n_eve.size) * 2**20) / 2**20
        assert (1.0 - (1.0 - q) == q).all()
        terms = secrecy._cell_terms(n_eve / gamma, gamma, 1e-7, 0.8, 1e-4)
        at_q, at_flip = secrecy._prior_terms(terms, q)[1], secrecy._prior_terms(terms, 1.0 - q)[1]
        assert (at_q > 0.0).all()
        relative = np.abs(at_q - at_flip) / np.maximum(at_q, at_flip)
        assert relative.max() <= 1e-7
        assert relative[n_eve >= 1e-3].max() <= 1e-10
        assert np.array_equal(holevo_bound(terms[4], q), holevo_bound(terms[4], 1.0 - q))

    def test_photon_search_halves_her_first_scans(self, channel_calls, day_detector):
        optimal_signal_strength(day_detector, 0.1)
        # Three q-searches of 4 calls (the 64 and 65 photon numbers of the
        # scans, then the vertex) and the optimum: each search's first call
        # takes her information on 32 of the 64 priors of each photon number.
        her = channel_calls["interceptor"]
        assert len(her) == 13
        assert [her[0], her[4], her[8]] == [n * GRID_POINTS // 2 for n in (GRID_POINTS, GRID_POINTS + 1, 1)]
        assert channel_calls["receiver"][0] == GRID_POINTS * GRID_POINTS


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
        # The parabolic step puts mu within 6.2e-6 relative of the lattices'
        # optimum on these draws (the scans alone: 8.6e-5), far inside the last
        # scan's step of 2.5e-3 decades.
        rng = np.random.default_rng(20)
        for _ in range(30):
            detector = DetectorModel(
                p_dark=10 ** rng.uniform(-9, -5), eta_optical=rng.uniform(0.5, 1.0),
                stray_mean=10 ** rng.uniform(-7, -2),
            )
            gamma = rng.uniform(0.02, 0.4)
            mu, best = optimal_signal_strength(detector, gamma)

            def capacity(log_mu):
                points = secrecy_points(
                    10.0**log_mu, gamma, None, detector.p_dark, detector.eta_optical, detector.stray_mean
                )
                return np.array([p.private_capacity for p in points])

            # A 1e-4-decade lattice aligned to tenths of a decade, not to mu,
            # then a 1e-7-decade one around its optimum.
            centre = round(math.log10(mu), 1)
            coarse = grid_argmax(capacity, centre - 0.15, centre + 0.15, n=3001)
            log_mu = coarse + np.linspace(-2e-4, 2e-4, 4001)
            dense = capacity(log_mu)
            assert abs(mu / 10.0 ** log_mu[np.argmax(dense)] - 1.0) <= 1e-5, (detector, gamma)
            # The capacity moves at second order in the distance to the optimum.
            assert best.private_capacity >= dense.max() - 1e-10

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
        assert len(calls) == 13
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
        assert len(calls) == 13
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
        assert len(calls) == 13
