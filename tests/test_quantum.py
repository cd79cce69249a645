"""Tests for the two-qubit state and measurement layer."""
import math

import numpy as np
import pytest

from belltally import (
    Direction,
    InputValidationError,
    X_AXIS,
    Z_AXIS,
    acting_subsystem,
    born_joint_probability,
    born_probability,
    observables_commute,
    quantum_expectation_product,
    singlet_state,
    spin_observable,
)
from belltally.quantum import DensityState, ProjectiveObservable

from conftest import random_density_state, random_direction

SQRT2 = math.sqrt(2.0)

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def su2_rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    # exp(-i angle/2 n.sigma), built from scratch so the oracle does not
    # depend on package internals.
    n_dot_sigma = axis[0] * _PAULI["x"] + axis[1] * _PAULI["y"] + axis[2] * _PAULI["z"]
    return math.cos(angle / 2.0) * np.eye(2) - 1j * math.sin(angle / 2.0) * n_dot_sigma


class TestDirection:
    def test_requires_unit_norm(self):
        with pytest.raises(InputValidationError):
            Direction(1.0, 1.0, 0.0)

    def test_normalized_rescales(self):
        d = Direction.normalized(3.0, 4.0, 0.0)
        assert d.x == pytest.approx(0.6)
        assert d.y == pytest.approx(0.8)
        assert d.z == 0.0

    def test_normalized_rejects_zero_vector(self):
        with pytest.raises(InputValidationError):
            Direction.normalized(0.0, 0.0, 0.0)

    def test_in_plane_angles(self):
        assert Direction.in_plane(0.0).dot(Z_AXIS) == pytest.approx(1.0)
        assert Direction.in_plane(math.pi / 2.0).dot(X_AXIS) == pytest.approx(1.0)

    def test_plane_angle_roundtrip(self):
        for deg in (0.0, 45.0, 135.0, 271.5):
            assert Direction.from_plane_degrees(deg).plane_angle_deg() == pytest.approx(deg)

    def test_plane_angle_none_off_plane(self):
        assert Direction(0.0, 1.0, 0.0).plane_angle_deg() is None

    def test_dot(self):
        a = Direction.from_plane_degrees(0.0)
        b = Direction.from_plane_degrees(45.0)
        assert a.dot(b) == pytest.approx(math.cos(math.pi / 4.0), abs=1e-12)


class TestSingletState:
    def test_matrix_entries(self):
        """Oracle: outer product of (0, 1, -1, 0)/sqrt(2) with itself."""
        ket = np.array([0.0, 1.0, -1.0, 0.0]) / SQRT2
        np.testing.assert_allclose(singlet_state().matrix, np.outer(ket, ket), atol=1e-15)

    def test_unit_trace(self):
        assert np.trace(singlet_state().matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_simultaneous_rotation(self):
        """Rotating both qubits by the same SU(2) element leaves the state
        fixed; checked for the y rotation by 0.7 rad and two random axes."""
        rho = singlet_state().matrix
        rng = np.random.default_rng(11)
        cases = [(np.array([0.0, 1.0, 0.0]), 0.7)]
        for _ in range(2):
            cases.append((random_direction(rng).as_array(), rng.uniform(0.0, 2.0 * math.pi)))
        for axis, angle in cases:
            u = su2_rotation(axis, angle)
            uu = np.kron(u, u)
            np.testing.assert_allclose(uu @ rho @ uu.conj().T, rho, atol=1e-12)


class TestSpinObservable:
    def test_z_on_first_subsystem(self):
        obs = spin_observable(Z_AXIS, 1)
        assert obs.outcomes == (1.0, -1.0)
        np.testing.assert_allclose(obs.projector_for(1.0), np.diag([1, 1, 0, 0]), atol=1e-15)
        np.testing.assert_allclose(obs.projector_for(-1.0), np.diag([0, 0, 1, 1]), atol=1e-15)

    def test_x_on_second_subsystem(self):
        """Oracle: I (x) (I + sigma_x)/2 expanded by hand."""
        obs = spin_observable(X_AXIS, 2)
        half = np.full((2, 2), 0.5)
        np.testing.assert_allclose(obs.projector_for(1.0), np.kron(np.eye(2), half), atol=1e-15)

    def test_projector_invariants_random_direction(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            obs = spin_observable(random_direction(rng), rng.integers(1, 3))
            total = np.zeros((4, 4), dtype=complex)
            for proj in obs.projectors:
                np.testing.assert_allclose(proj, proj.conj().T, atol=1e-12)
                np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
                total += proj
            np.testing.assert_allclose(total, np.eye(4), atol=1e-12)

    def test_completeness_diagonal_direction(self):
        obs = spin_observable(Direction.normalized(1.0, 1.0, 1.0), 1)
        np.testing.assert_allclose(sum(obs.projectors), np.eye(4), atol=1e-12)

    def test_invalid_subsystem(self):
        with pytest.raises(InputValidationError):
            spin_observable(Z_AXIS, 3)

    def test_projector_for_unknown_outcome(self):
        with pytest.raises(InputValidationError):
            spin_observable(Z_AXIS, 1).projector_for(0.5)


class TestDensityStateValidation:
    def test_rejects_non_hermitian(self):
        mat = np.eye(4, dtype=complex) / 4.0
        mat[0, 1] = 0.5
        with pytest.raises(InputValidationError):
            DensityState(mat, "bad")

    def test_rejects_wrong_trace(self):
        with pytest.raises(InputValidationError):
            DensityState(np.eye(4, dtype=complex), "bad")

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InputValidationError):
            DensityState(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex), "bad")

    def test_matrix_is_read_only(self):
        state = singlet_state()
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 1.0


class TestProjectiveObservableValidation:
    def test_rejects_duplicate_outcomes(self):
        proj = spin_observable(Z_AXIS, 1).projectors
        with pytest.raises(InputValidationError):
            ProjectiveObservable((1.0, 1.0), proj, "dup")

    def test_rejects_incomplete_family(self):
        p_plus = spin_observable(Z_AXIS, 1).projector_for(1.0)
        with pytest.raises(InputValidationError):
            ProjectiveObservable((1.0,), (p_plus,), "half")

    def test_rejects_non_idempotent(self):
        with pytest.raises(InputValidationError):
            ProjectiveObservable((1.0,), (np.eye(4) * 0.5,), "scaled")


class TestBornProbability:
    def test_singlet_marginal(self):
        assert born_probability(singlet_state(), spin_observable(Z_AXIS, 1), 1.0) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_joint_parallel_axes(self):
        """Oracle: (1 - alpha beta a.b)/4 = 0 for a = b, alpha = beta = +1;
        cross-checked with a direct 4x4 trace."""
        state = singlet_state()
        obs_a = spin_observable(Z_AXIS, 1)
        obs_b = spin_observable(Z_AXIS, 2)
        value = born_joint_probability(state, obs_a, 1.0, obs_b, 1.0)
        direct = np.trace(
            state.matrix @ obs_a.projector_for(1.0) @ obs_b.projector_for(1.0)
        ).real
        assert value == pytest.approx(0.0, abs=1e-12)
        assert value == pytest.approx(max(direct, 0.0), abs=1e-12)

    def test_joint_orthogonal_axes(self):
        """Oracle: (1 - z.x)/4 = 0.25."""
        value = born_joint_probability(
            singlet_state(), spin_observable(Z_AXIS, 1), 1.0, spin_observable(X_AXIS, 2), 1.0
        )
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            state = random_density_state(rng)
            obs = spin_observable(random_direction(rng), rng.integers(1, 3))
            total = sum(born_probability(state, obs, v) for v in obs.outcomes)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_joint_probabilities_sum_to_one(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            state = random_density_state(rng)
            obs_a = spin_observable(random_direction(rng), 1)
            obs_b = spin_observable(random_direction(rng), 2)
            total = sum(
                born_joint_probability(state, obs_a, va, obs_b, vb)
                for va in obs_a.outcomes
                for vb in obs_b.outcomes
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_noncommuting_pair(self):
        with pytest.raises(InputValidationError):
            born_joint_probability(
                singlet_state(), spin_observable(Z_AXIS, 1), 1.0, spin_observable(X_AXIS, 1), 1.0
            )

    def test_rejects_unknown_outcome(self):
        with pytest.raises(InputValidationError):
            born_probability(singlet_state(), spin_observable(Z_AXIS, 1), 2.0)


class TestQuantumExpectationProduct:
    def test_singlet_parallel(self):
        value = quantum_expectation_product(
            singlet_state(), spin_observable(Z_AXIS, 1), spin_observable(Z_AXIS, 2)
        )
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_singlet_orthogonal(self):
        value = quantum_expectation_product(
            singlet_state(), spin_observable(Z_AXIS, 1), spin_observable(X_AXIS, 2)
        )
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_singlet_45_degrees_dual_route(self):
        """-cos(pi/4), recomputed independently as the signed sum of the
        four joint Born probabilities."""
        state = singlet_state()
        obs_a = spin_observable(Direction.from_plane_degrees(0.0), 1)
        obs_b = spin_observable(Direction.from_plane_degrees(45.0), 2)
        value = quantum_expectation_product(state, obs_a, obs_b)
        by_sum = sum(
            va * vb * born_joint_probability(state, obs_a, va, obs_b, vb)
            for va in obs_a.outcomes
            for vb in obs_b.outcomes
        )
        assert value == pytest.approx(-math.cos(math.pi / 4.0), abs=1e-12)
        assert value == pytest.approx(by_sum, abs=1e-12)

    def test_singlet_closed_form_random_pairs(self):
        rng = np.random.default_rng(31)
        state = singlet_state()
        for _ in range(25):
            a = random_direction(rng)
            b = random_direction(rng)
            value = quantum_expectation_product(
                state, spin_observable(a, 1), spin_observable(b, 2)
            )
            assert value == pytest.approx(-a.dot(b), abs=1e-12)

    def test_rejects_noncommuting_pair(self):
        with pytest.raises(InputValidationError):
            quantum_expectation_product(
                singlet_state(), spin_observable(Z_AXIS, 1), spin_observable(X_AXIS, 1)
            )


class TestActingSubsystem:
    def test_spin_observables(self):
        rng = np.random.default_rng(43)
        d = random_direction(rng)
        assert acting_subsystem(spin_observable(d, 1)) == 1
        assert acting_subsystem(spin_observable(d, 2)) == 2

    def test_entangled_projector_family_is_neither(self):
        rho = singlet_state().matrix
        obs = ProjectiveObservable((1.0, 0.0), (rho, np.eye(4) - rho), "singlet-filter")
        assert acting_subsystem(obs) is None

    def test_commutation_checks(self):
        assert observables_commute(spin_observable(Z_AXIS, 1), spin_observable(X_AXIS, 2))
        assert not observables_commute(spin_observable(Z_AXIS, 1), spin_observable(X_AXIS, 1))
