import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    entropy_bits,
    grid_argmax,
    mp_distinguishability_angle,
    mp_helstrom_conditional_errors,
    mp_helstrom_error,
)
from wiretap_space.detection import (
    BinaryCoherentEnsemble,
    distinguishability_angle,
    helstrom_error,
    helstrom_projector,
    holevo_binary,
    overlap,
)
from wiretap_space.numerics import binary_entropy


def eve_channel_information(q: float, solution) -> float:
    """I(X;Z) of the binary channel induced by the measurement."""
    e0, e1 = solution.error_given_0, solution.error_given_1
    out0 = q * (1.0 - e0) + (1.0 - q) * e1
    return binary_entropy(out0) - q * binary_entropy(e0) - (1.0 - q) * binary_entropy(e1)


class TestOverlap:
    def test_identical_states(self):
        assert overlap(0.0) == 1.0

    def test_reference_value(self):
        assert overlap(0.4) == pytest.approx(math.exp(-0.2), rel=1e-15)
        assert overlap(0.4) == pytest.approx(0.81873, abs=1e-4)

    def test_strong_pulse(self):
        assert overlap(100.0) == pytest.approx(math.exp(-50.0), rel=1e-12)
        assert overlap(100.0) == pytest.approx(1.93e-22, abs=1e-24)

    def test_monotone_decreasing(self):
        photons = np.linspace(0.0, 30.0, 40)
        values = [overlap(float(n)) for n in photons]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            overlap(-0.5)


class TestDistinguishabilityAngle:
    def test_indistinguishable(self):
        assert distinguishability_angle(0.0) == 0.0

    def test_reference_point(self):
        # 35 degrees at 0.4 received photons
        assert math.degrees(distinguishability_angle(0.4)) == pytest.approx(35.0, abs=0.5)

    def test_orthogonal_limit(self):
        photons = [1.0, 5.0, 10.0, 20.0, 50.0]
        angles = [distinguishability_angle(n) for n in photons]
        assert all(b > a for a, b in zip(angles, angles[1:]))
        assert distinguishability_angle(500.0) == pytest.approx(math.pi / 2, abs=1e-10)

    def test_mpmath_oracle(self):
        # arccos of an overlap near 1 returned 0 below ~1e-16 photons
        rng = np.random.default_rng(8)
        photons = np.concatenate([10.0 ** rng.uniform(-18, math.log10(160.0), 400), [1e-18, 1e-12, 160.0]])
        for n in photons:
            expected = mp_distinguishability_angle(float(n))
            assert distinguishability_angle(float(n)) == pytest.approx(expected, rel=1e-15, abs=0.0)


class TestHelstromError:
    def test_guessing_between_identical(self):
        assert helstrom_error(BinaryCoherentEnsemble(0.0, 0.5)) == 0.5

    def test_reference_point(self):
        value = helstrom_error(BinaryCoherentEnsemble(0.4, 0.5))
        expected = 0.5 * (1.0 - math.sqrt(1.0 - math.exp(-0.4)))
        assert value == pytest.approx(expected, rel=1e-14)
        assert value == pytest.approx(0.2134, abs=5e-4)

    def test_certain_prior(self):
        assert helstrom_error(BinaryCoherentEnsemble(1.7, 0.0)) == 0.0
        assert helstrom_error(BinaryCoherentEnsemble(1.7, 1.0)) == 0.0

    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_guessing_bound(self, photons, q):
        error = helstrom_error(BinaryCoherentEnsemble(photons, q))
        assert error <= min(q, 1.0 - q) + 1e-12

    def test_monotone_in_photons(self):
        photons = np.linspace(0.0, 20.0, 50)
        errors = [helstrom_error(BinaryCoherentEnsemble(float(n), 0.5)) for n in photons]
        assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))

    def test_mpmath_oracle(self):
        # 1 - sqrt(1 - x) cancelled at high photon numbers: 1.3e-3 relative at 30, 0 at 100
        rng = np.random.default_rng(8)
        photons = 10.0 ** rng.uniform(-18, math.log10(160.0), 400)
        priors = np.concatenate([
            rng.uniform(0.0, 1.0, 200),
            0.5 + rng.choice([-1.0, 1.0], 100) * 10.0 ** rng.uniform(-16, -1, 100),
            10.0 ** rng.uniform(-200, -1, 100),
        ])
        cases = list(zip(photons, priors)) + [(20.0, 0.5), (30.0, 0.5), (100.0, 0.01), (160.0, 0.5)]
        for n, q in cases:
            expected = mp_helstrom_error(float(n), float(q))
            value = helstrom_error(BinaryCoherentEnsemble(float(n), float(q)))
            assert value == pytest.approx(expected, rel=1e-15, abs=0.0), (n, q)


class TestHelstromProjector:
    def test_symmetric_split_reference(self):
        sol = helstrom_projector(BinaryCoherentEnsemble(0.4, 0.5))
        assert math.degrees(sol.projector_angle_0) == pytest.approx(27.5, abs=0.3)
        assert math.degrees(sol.projector_angle_1) == pytest.approx(27.5, abs=0.3)
        assert sol.avg_error == pytest.approx(0.2134, abs=5e-4)

    def test_identical_states_even_split(self):
        # The even split is the limit of vanishing photon numbers.  At 0
        # photons every split is optimal, and atan2(0, 0) picks phi0 = 0.
        sol = helstrom_projector(BinaryCoherentEnsemble(1e-300, 0.5))
        assert math.degrees(sol.projector_angle_0) == pytest.approx(45.0, abs=1e-9)
        assert sol.error_given_0 == pytest.approx(0.5, abs=1e-12)
        assert sol.error_given_1 == pytest.approx(0.5, abs=1e-12)
        tie = helstrom_projector(BinaryCoherentEnsemble(0.0, 0.5))
        assert (tie.avg_error, tie.error_given_0, tie.error_given_1) == (0.5, 0.0, 1.0)

    def test_skewed_prior_matches_closed_form(self):
        ens = BinaryCoherentEnsemble(0.4, 0.3)
        sol = helstrom_projector(ens)
        assert sol.avg_error == pytest.approx(helstrom_error(ens), abs=5e-10)

    @pytest.mark.parametrize("q", [0.1, 0.25, 0.5, 0.75, 0.9])
    @pytest.mark.parametrize("photons", [0.01, 0.1, 0.5, 1.0, 4.0, 10.0])
    def test_closed_form_agreement_grid(self, q, photons):
        ens = BinaryCoherentEnsemble(photons, q)
        sol = helstrom_projector(ens)
        assert sol.avg_error == pytest.approx(helstrom_error(ens), abs=1e-6)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("photons", [0.05, 0.4, 3.0])
    def test_solution_identities(self, q, photons):
        sol = helstrom_projector(BinaryCoherentEnsemble(photons, q))
        avg = q * sol.error_given_0 + (1.0 - q) * sol.error_given_1
        assert sol.avg_error == pytest.approx(avg, abs=1e-12)
        angle_sum = sol.projector_angle_0 + sol.projector_angle_1
        assert angle_sum == pytest.approx(math.pi / 2 - sol.angle_phi, abs=1e-12)
        assert 0.0 <= sol.avg_error <= 0.5
        assert 0.0 <= sol.error_given_0 <= 1.0
        assert 0.0 <= sol.error_given_1 <= 1.0

    def test_orthogonal_limit(self):
        sol = helstrom_projector(BinaryCoherentEnsemble(3000.0, 0.5))
        assert sol.avg_error == 0.0

    @pytest.mark.parametrize(
        "q,photons", [(0.1, 0.05), (0.3, 0.4), (0.5, 1.0), (0.7, 3.0), (0.9, 0.2), (0.02, 6.0)]
    )
    def test_closed_form_angle_against_brute_force(self, q, photons):
        sol = helstrom_projector(BinaryCoherentEnsemble(photons, q))
        beta = math.pi / 2 - sol.angle_phi
        n = 1_000_001

        def neg_avg_error(angle):
            return -(q * np.sin(angle) ** 2 + (1.0 - q) * np.sin(beta - angle) ** 2)

        reference = grid_argmax(neg_avg_error, 0.0, beta, n)
        assert sol.projector_angle_0 == pytest.approx(reference, abs=1.5 * beta / (n - 1))

    def test_conditional_errors_mpmath_oracle(self):
        # phi1 = b - phi0 cancelled as phi0 neared b: 1,050 of these draws were
        # off by more than 1e-12 relative in error_given_1, the worst by 2e5.
        rng = np.random.default_rng(39)
        photons = 10.0 ** rng.uniform(-18, math.log10(160.0), 3000)
        priors = rng.uniform(0.0, 1.0, 3000)
        for n, q in zip(photons.tolist(), priors.tolist()):
            sol = helstrom_projector(BinaryCoherentEnsemble(n, q))
            expected = mp_helstrom_conditional_errors(n, q)
            assert (sol.error_given_0, sol.error_given_1) == pytest.approx(expected, rel=1e-12, abs=0.0), (n, q)

    @pytest.mark.parametrize("q", [0.2, 0.8])
    def test_identical_states_guess_likelier_symbol(self, q):
        sol = helstrom_projector(BinaryCoherentEnsemble(0.0, q))
        assert sol.avg_error == pytest.approx(min(q, 1.0 - q), abs=1e-15)


class TestHolevoBinary:
    def test_pure_average_state(self):
        assert holevo_binary(BinaryCoherentEnsemble(0.0, 0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_reference_point(self):
        expected = entropy_bits(0.5 * (1.0 + math.exp(-0.2)))
        value = holevo_binary(BinaryCoherentEnsemble(0.4, 0.5))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.4388, abs=1e-3)

    def test_orthogonal_limit(self):
        assert holevo_binary(BinaryCoherentEnsemble(3000.0, 0.5)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("photons", [0.01, 0.1, 1.0, 4.0, 10.0])
    def test_accessible_information_bounded(self, q, photons):
        ens = BinaryCoherentEnsemble(photons, q)
        sol = helstrom_projector(ens)
        assert eve_channel_information(q, sol) <= holevo_binary(ens) + 1e-12


class TestEnsembleValidation:
    def test_negative_photons(self):
        with pytest.raises(ValueError):
            BinaryCoherentEnsemble(-1.0, 0.5)

    def test_prior_out_of_range(self):
        with pytest.raises(ValueError):
            BinaryCoherentEnsemble(1.0, 1.5)
