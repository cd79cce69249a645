"""Tests for the detection-weighted probability calculus.

The backbone identity under test: every absolute probability is the product
of a detection probability and a conditional (Born) probability, and the
no-registration outcome absorbs exactly the undetected mass.
"""
import math

import numpy as np
import pytest

from belltally import (
    ConfigurationError,
    DensityState,
    DetectionModel,
    Direction,
    GeneralizedObservable,
    InputValidationError,
    OutcomeDistribution,
    X_AXIS,
    Z_AXIS,
    born_joint_probability,
    born_probability,
    generalized_correlation,
    generalized_expectation,
    joint_detection_probability,
    outcome_distribution,
    quantum_expectation_product,
    sequential_distribution_factored,
    sequential_distribution_general,
    singlet_state,
    spin_observable,
)

from conftest import random_density_state, random_direction


def spin_z1():
    return GeneralizedObservable(spin_observable(Z_AXIS, 1))


class TestGeneralizedObservable:
    def test_outcome_collision_rejected(self):
        with pytest.raises(InputValidationError):
            GeneralizedObservable(spin_observable(Z_AXIS, 1), no_registration_outcome=1.0)

    def test_passthrough_fields(self):
        obs = spin_z1()
        assert obs.outcomes == (1.0, -1.0)
        assert obs.label == spin_observable(Z_AXIS, 1).label
        assert obs.no_registration_outcome == 0.0


class TestDetectionModel:
    def test_uniform(self):
        det = DetectionModel.uniform(0.8)
        assert det.probability("any-state", "any-observable") == 0.8

    def test_apparatus_factor_scales_entries(self):
        det = DetectionModel(entries={("s", "o"): 0.8}, apparatus_factor=0.5)
        assert det.probability("s", "o") == pytest.approx(0.4)

    def test_lookup_precedence(self):
        # exact label beats role alias beats default
        det = DetectionModel(entries={("s", "lab"): 0.3, ("s", "a"): 0.6}, default=0.9)
        assert det.probability("s", "lab", role="a") == 0.3
        assert det.probability("s", "other", role="a") == 0.6
        assert det.probability("s", "other", role="b") == 0.9

    def test_missing_entry_raises(self):
        det = DetectionModel(entries={("s", "lab"): 0.3})
        with pytest.raises(ConfigurationError):
            det.probability("s", "other")

    def test_invalid_probability_rejected(self):
        with pytest.raises(InputValidationError):
            DetectionModel(entries={("s", "o"): 1.2})
        with pytest.raises(InputValidationError):
            DetectionModel.uniform(0.5, apparatus_factor=1.5).probability("s", "o")


class TestOutcomeDistributionType:
    def test_rejects_bad_total(self):
        with pytest.raises(InputValidationError):
            OutcomeDistribution(((1.0, 0.6), (-1.0, 0.3)), "single")

    def test_rejects_duplicates(self):
        with pytest.raises(InputValidationError):
            OutcomeDistribution(((1.0, 0.5), (1.0, 0.5)), "single")

    def test_rejects_negative_probability(self):
        with pytest.raises(InputValidationError):
            OutcomeDistribution(((1.0, 1.1), (-1.0, -0.1)), "single")

    def test_kind_guards(self):
        single = OutcomeDistribution(((1.0, 1.0),), "single")
        with pytest.raises(InputValidationError):
            single.product_mean()
        pair = OutcomeDistribution((((1.0, 1.0), 1.0),), "sequential")
        with pytest.raises(InputValidationError):
            pair.mean()


class TestJointDetectionProbability:
    def test_arithmetic(self):
        assert joint_detection_probability(0.5, 1.0) == 0.5
        assert joint_detection_probability(0.7, 0.0) == 0.0
        assert joint_detection_probability(0.5, 0.8) == pytest.approx(0.4)

    def test_range_validation(self):
        with pytest.raises(InputValidationError):
            joint_detection_probability(1.5, 0.5)
        with pytest.raises(InputValidationError):
            joint_detection_probability(0.5, -0.1)


class TestOutcomeDistribution:
    def test_perfect_detection_reduces_to_born(self):
        dist = outcome_distribution(singlet_state(), spin_z1(), DetectionModel.uniform(1.0))
        assert dist.probability(1.0) == pytest.approx(0.5, abs=1e-12)
        assert dist.probability(-1.0) == pytest.approx(0.5, abs=1e-12)
        assert dist.probability(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_partial_detection(self):
        """0.8 detection on symmetric Born marginals: 0.4 / 0.4 / 0.2."""
        dist = outcome_distribution(singlet_state(), spin_z1(), DetectionModel.uniform(0.8))
        assert dist.as_dict() == pytest.approx({1.0: 0.4, -1.0: 0.4, 0.0: 0.2})

    def test_zero_detection(self):
        dist = outcome_distribution(singlet_state(), spin_z1(), DetectionModel.uniform(0.0))
        assert dist.probability(0.0) == 1.0

    def test_registered_entries_factorize_exactly(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            state = random_density_state(rng)
            obs = GeneralizedObservable(spin_observable(random_direction(rng), 1))
            p = rng.uniform(0.0, 1.0)
            dist = outcome_distribution(state, obs, DetectionModel.uniform(p))
            for value in obs.outcomes:
                born = born_probability(state, obs.base, value)
                assert dist.probability(value) == joint_detection_probability(born, p)
            assert dist.total() == pytest.approx(1.0, abs=1e-12)

    def test_missing_detection_entry(self):
        with pytest.raises(ConfigurationError):
            outcome_distribution(singlet_state(), spin_z1(), DetectionModel())


class TestGeneralizedExpectation:
    def test_perfect_detection_matches_quantum(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            state = random_density_state(rng)
            obs = GeneralizedObservable(spin_observable(random_direction(rng), 2))
            result = generalized_expectation(state, obs, DetectionModel.uniform(1.0))
            assert result.absolute == pytest.approx(result.conditional, abs=1e-12)

    def test_scaling_with_certain_conditional(self):
        # first qubit definitely down: conditional -1, absolute -0.841
        state = DensityState(np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex), "down-up")
        result = generalized_expectation(state, spin_z1(), DetectionModel.uniform(0.841))
        assert result.conditional == pytest.approx(-1.0, abs=1e-12)
        assert result.absolute == pytest.approx(-0.841, abs=1e-12)

    def test_nonzero_no_registration_outcome(self):
        """Outcome 5 for the undetected half of trials contributes 2.5;
        cross-checked against the distribution mean."""
        obs = GeneralizedObservable(spin_observable(Z_AXIS, 1), no_registration_outcome=5.0)
        det = DetectionModel.uniform(0.5)
        result = generalized_expectation(singlet_state(), obs, det)
        assert result.conditional == pytest.approx(0.0, abs=1e-12)
        assert result.absolute == pytest.approx(2.5, abs=1e-12)
        dist = outcome_distribution(singlet_state(), obs, det)
        assert dist.mean() == pytest.approx(result.absolute, abs=1e-12)

    def test_absolute_is_detection_scaled_conditional(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            state = random_density_state(rng)
            obs = GeneralizedObservable(spin_observable(random_direction(rng), 1))
            p = rng.uniform(0.0, 1.0)
            result = generalized_expectation(state, obs, DetectionModel.uniform(p))
            assert result.absolute == pytest.approx(p * result.conditional, abs=1e-12)
            assert abs(result.absolute) <= abs(result.conditional) + 1e-12


def _factored_inputs(rng):
    state = random_density_state(rng)
    obs_a = GeneralizedObservable(spin_observable(random_direction(rng), 1))
    obs_b = GeneralizedObservable(spin_observable(random_direction(rng), 2))
    pa, pb = rng.uniform(0.0, 1.0, size=2)
    det = DetectionModel(entries={(state.label, "a"): pa, (state.label, "b"): pb})
    return state, obs_a, obs_b, pa, pb, det


class TestSequentialGeneral:
    def test_unit_detection_reduces_to_quantum_joint(self):
        state = singlet_state()
        obs_a = spin_z1()
        obs_b = GeneralizedObservable(spin_observable(Z_AXIS, 2))
        dist = sequential_distribution_general(
            state,
            obs_a,
            obs_b,
            detect_a=1.0,
            detect_b_after={1.0: 1.0, -1.0: 1.0},
            detect_b_after_none=1.0,
            conditional_b_after_none={1.0: 0.5, -1.0: 0.5},
        )
        assert dist.probability((1.0, -1.0)) == pytest.approx(0.5, abs=1e-12)
        assert dist.probability((1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)
        assert dist.total() == pytest.approx(1.0, abs=1e-12)

    def test_double_no_registration_mass(self):
        dist = sequential_distribution_general(
            singlet_state(),
            spin_z1(),
            GeneralizedObservable(spin_observable(X_AXIS, 2)),
            detect_a=0.8,
            detect_b_after={1.0: 0.9, -1.0: 0.9},
            detect_b_after_none=0.5,
            conditional_b_after_none={1.0: 0.5, -1.0: 0.5},
        )
        assert dist.probability((0.0, 0.0)) == pytest.approx(0.2 * 0.5, abs=1e-12)

    def test_rejects_non_distribution_tail(self):
        with pytest.raises(InputValidationError):
            sequential_distribution_general(
                singlet_state(),
                spin_z1(),
                GeneralizedObservable(spin_observable(Z_AXIS, 2)),
                detect_a=0.8,
                detect_b_after={1.0: 0.9, -1.0: 0.9},
                detect_b_after_none=0.5,
                conditional_b_after_none={1.0: 0.6, -1.0: 0.3},
            )

    def test_rejects_missing_branch_detection(self):
        with pytest.raises(InputValidationError):
            sequential_distribution_general(
                singlet_state(),
                spin_z1(),
                GeneralizedObservable(spin_observable(Z_AXIS, 2)),
                detect_a=0.8,
                detect_b_after={1.0: 0.9},
                detect_b_after_none=0.5,
                conditional_b_after_none={1.0: 0.5, -1.0: 0.5},
            )

    def test_impossible_first_branch_emits_zeros(self):
        # pure up-down: spin z on qubit 1 never comes out -1
        state = DensityState(np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex), "up-down")
        dist = sequential_distribution_general(
            state,
            spin_z1(),
            GeneralizedObservable(spin_observable(Z_AXIS, 2)),
            detect_a=1.0,
            detect_b_after={1.0: 1.0, -1.0: 1.0},
            detect_b_after_none=1.0,
            conditional_b_after_none={1.0: 0.5, -1.0: 0.5},
        )
        assert dist.probability((-1.0, 1.0)) == 0.0
        assert dist.probability((-1.0, -1.0)) == 0.0
        assert dist.total() == pytest.approx(1.0, abs=1e-12)

    def test_matches_factored_form_under_its_assumptions(self):
        """With outcome-independent second detection and Born margins for
        the no-registration branch, the general form must reproduce the
        factored one entry by entry."""
        rng = np.random.default_rng(67)
        for _ in range(10):
            state, obs_a, obs_b, pa, pb, det = _factored_inputs(rng)
            margins = {
                v: born_probability(state, obs_b.base, v) for v in obs_b.outcomes
            }
            total = sum(margins.values())
            margins = {v: p / total for v, p in margins.items()}
            general = sequential_distribution_general(
                state,
                obs_a,
                obs_b,
                detect_a=pa,
                detect_b_after={v: pb for v in obs_a.outcomes},
                detect_b_after_none=pb,
                conditional_b_after_none=margins,
            )
            factored = sequential_distribution_factored(state, obs_a, obs_b, det)
            for key, prob in factored.as_dict().items():
                assert general.probability(key) == pytest.approx(prob, abs=1e-12)


class TestSequentialFactored:
    def test_unit_detection_reduces_to_quantum_joint(self):
        state = singlet_state()
        obs_a = spin_z1()
        obs_b = GeneralizedObservable(spin_observable(X_AXIS, 2))
        det = DetectionModel.uniform(1.0)
        dist = sequential_distribution_factored(state, obs_a, obs_b, det)
        for va in obs_a.outcomes:
            for vb in obs_b.outcomes:
                expected = born_joint_probability(state, obs_a.base, va, obs_b.base, vb)
                assert dist.probability((va, vb)) == pytest.approx(expected, abs=1e-12)
        assert dist.probability((0.0, 0.0)) == 0.0

    def test_partial_detection_table(self):
        """0.8 x 0.5 detection on the anticorrelated parallel-axis singlet:
        P(+, -) = 0.8 * 0.5 * 0.5 and P(0, 0) = 0.2 * 0.5."""
        det = DetectionModel(entries={("singlet", "a"): 0.8, ("singlet", "b"): 0.5})
        dist = sequential_distribution_factored(
            singlet_state(), spin_z1(), GeneralizedObservable(spin_observable(Z_AXIS, 2)), det
        )
        assert dist.probability((1.0, -1.0)) == pytest.approx(0.2, abs=1e-12)
        assert dist.probability((0.0, 0.0)) == pytest.approx(0.1, abs=1e-12)
        assert dist.total() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_same_subsystem(self):
        det = DetectionModel.uniform(1.0)
        with pytest.raises(InputValidationError):
            sequential_distribution_factored(
                singlet_state(),
                spin_z1(),
                GeneralizedObservable(spin_observable(X_AXIS, 1)),
                det,
            )

    def test_marginals_scale_with_own_detection_only(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            state, obs_a, obs_b, pa, pb, det = _factored_inputs(rng)
            dist = sequential_distribution_factored(state, obs_a, obs_b, det)
            for va in obs_a.outcomes:
                margin = sum(
                    dist.probability((va, vb)) for vb in obs_b.outcomes
                ) + dist.probability((va, 0.0))
                assert margin == pytest.approx(
                    pa * born_probability(state, obs_a.base, va), abs=1e-12
                )
            no_reg = sum(
                dist.probability((0.0, vb)) for vb in obs_b.outcomes
            ) + dist.probability((0.0, 0.0))
            assert no_reg == pytest.approx(1.0 - pa, abs=1e-12)


class TestGeneralizedCorrelation:
    def test_perfect_detection_parallel_singlet(self):
        det = DetectionModel.uniform(1.0)
        value = generalized_correlation(
            singlet_state(), spin_z1(), GeneralizedObservable(spin_observable(Z_AXIS, 2)), det
        )
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_detection_scaling(self):
        det = DetectionModel(entries={("singlet", "a"): 0.5, ("singlet", "b"): 1.0})
        value = generalized_correlation(
            singlet_state(), spin_z1(), GeneralizedObservable(spin_observable(Z_AXIS, 2)), det
        )
        assert value == pytest.approx(-0.5, abs=1e-12)

    def test_vanishing_quantum_correlation(self):
        det = DetectionModel(entries={("singlet", "a"): 0.37, ("singlet", "b"): 0.91})
        value = generalized_correlation(
            singlet_state(), spin_z1(), GeneralizedObservable(spin_observable(X_AXIS, 2)), det
        )
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_equals_table_product_mean(self):
        rng = np.random.default_rng(73)
        for _ in range(15):
            state, obs_a, obs_b, _, _, det = _factored_inputs(rng)
            table = sequential_distribution_factored(state, obs_a, obs_b, det)
            value = generalized_correlation(state, obs_a, obs_b, det)
            assert value == pytest.approx(table.product_mean(), abs=1e-12)

    def test_nonzero_no_registration_outcomes(self):
        """The no-registration values weight the undetected branches; the
        table mean stays the single source of truth."""
        rng = np.random.default_rng(79)
        state = random_density_state(rng)
        obs_a = GeneralizedObservable(
            spin_observable(random_direction(rng), 1), no_registration_outcome=5.0
        )
        obs_b = GeneralizedObservable(
            spin_observable(random_direction(rng), 2), no_registration_outcome=-2.0
        )
        det = DetectionModel(entries={(state.label, "a"): 0.6, (state.label, "b"): 0.85})
        table = sequential_distribution_factored(state, obs_a, obs_b, det)
        value = generalized_correlation(state, obs_a, obs_b, det)
        assert value == pytest.approx(table.product_mean(), abs=1e-12)

    def test_rejects_same_subsystem(self):
        with pytest.raises(InputValidationError):
            generalized_correlation(
                singlet_state(),
                spin_z1(),
                GeneralizedObservable(spin_observable(X_AXIS, 1)),
                DetectionModel.uniform(1.0),
            )
