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
    DetectionModel,
    Direction,
    GeneralizedObservable,
    InputValidationError,
    OutcomeDistribution,
    X_AXIS,
    Z_AXIS,
    SpinObservable,
    generalized_correlation,
    sequential_distribution_factored,
    singlet_state,
    spin_observable,
)

from conftest import random_density_state, random_direction
from projector_oracle import born_joint_probability, born_probability


def spin_z1():
    return GeneralizedObservable(spin_observable(Z_AXIS, 1))


class TestGeneralizedObservable:
    def test_outcome_collision_rejected(self):
        with pytest.raises(InputValidationError):
            GeneralizedObservable(spin_observable(Z_AXIS, 1), no_registration_outcome=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_no_registration_outcome_rejected(self, bad):
        """Such an outcome would turn every correlation into NaN."""
        with pytest.raises(InputValidationError, match="must be finite"):
            GeneralizedObservable(spin_observable(Z_AXIS, 1), no_registration_outcome=bad)

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
            OutcomeDistribution((((1.0, 1.0), 0.6), ((-1.0, 1.0), 0.3)))

    def test_rejects_duplicates(self):
        with pytest.raises(InputValidationError):
            OutcomeDistribution((((1.0, 1.0), 0.5), ((1.0, 1.0), 0.5)))

    def test_rejects_negative_probability(self):
        with pytest.raises(InputValidationError):
            OutcomeDistribution((((1.0, 1.0), 1.1), ((-1.0, 1.0), -0.1)))

def _factored_inputs(rng):
    state = random_density_state(rng)
    obs_a = GeneralizedObservable(spin_observable(random_direction(rng), 1))
    obs_b = GeneralizedObservable(spin_observable(random_direction(rng), 2))
    pa, pb = rng.uniform(0.0, 1.0, size=2)
    det = DetectionModel(entries={(state.label, "a"): pa, (state.label, "b"): pb})
    return state, obs_a, obs_b, pa, pb, det


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

    def test_builds_no_projectors(self):
        """The factored form reads each observable's direction only: a spin
        observable has no projectors to build."""
        obs_a, obs_b = spin_z1(), GeneralizedObservable(spin_observable(X_AXIS, 2))
        sequential_distribution_factored(singlet_state(), obs_a, obs_b, DetectionModel.uniform(0.9))
        assert not hasattr(SpinObservable, "projectors")
        assert not hasattr(obs_a.base, "projectors") and not hasattr(obs_b.base, "projectors")

    def test_fano_tables_match_the_born_route(self):
        """With detection 1 or 0 per side the table holds the Fano form's
        conditional probabilities unscaled; they equal the projector route's
        Born probabilities to 1e-15, also with obs_a on subsystem 2."""
        rng = np.random.default_rng(83)
        for trial in range(50):
            state = random_density_state(rng)
            side_a = 1 + trial % 2
            base_a = spin_observable(random_direction(rng), side_a)
            base_b = spin_observable(random_direction(rng), 3 - side_a)
            obs_a, obs_b = GeneralizedObservable(base_a), GeneralizedObservable(base_b)

            def table(pa, pb):
                det = DetectionModel(entries={(state.label, "a"): pa, (state.label, "b"): pb})
                return sequential_distribution_factored(state, obs_a, obs_b, det)

            both, only_a, only_b = table(1.0, 1.0), table(1.0, 0.0), table(0.0, 1.0)
            for va in obs_a.outcomes:
                expected = born_probability(state, base_a, va)
                assert abs(only_a.probability((va, 0.0)) - expected) <= 1e-15
                for vb in obs_b.outcomes:
                    expected = born_joint_probability(state, base_a, va, base_b, vb)
                    assert abs(both.probability((va, vb)) - expected) <= 1e-15
            for vb in obs_b.outcomes:
                expected = born_probability(state, base_b, vb)
                assert abs(only_b.probability((0.0, vb)) - expected) <= 1e-15

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
        """The no-registration values weight the undetected branches, and the
        correlation is the table's product mean, to the bit."""
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
        assert value == table.product_mean()

    def test_rejects_same_subsystem(self):
        with pytest.raises(InputValidationError):
            generalized_correlation(
                singlet_state(),
                spin_z1(),
                GeneralizedObservable(spin_observable(X_AXIS, 1)),
                DetectionModel.uniform(1.0),
            )
