"""Tests for the two-qubit state and measurement layer."""
import math

import numpy as np
import pytest

from belltally import (
    Direction,
    InputValidationError,
    X_AXIS,
    Z_AXIS,
    born_joint_probability,
    born_probability,
    observables_commute,
    quantum_expectation_product,
    singlet_state,
    spin_label,
    spin_observable,
)
from belltally.quantum import DensityState, plane_components

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

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_normalized_neither_overflows_nor_underflows(self, scale):
        """The squares of these components overflow to inf or underflow to 0."""
        assert Direction.normalized(scale, 0.0, 0.0) == X_AXIS
        assert Direction.normalized(0.0, 0.0, -scale) == Direction(0.0, 0.0, -1.0)
        d = Direction.normalized(3.0 * scale, 4.0 * scale, 0.0)
        assert (d.x, d.y, d.z) == pytest.approx((0.6, 0.8, 0.0), abs=1e-15)

    def test_normalized_rejects_zero_vector(self):
        with pytest.raises(InputValidationError):
            Direction.normalized(0.0, 0.0, 0.0)

    def test_in_plane_angles(self):
        assert Direction.from_plane_degrees(0.0) == Z_AXIS
        assert Direction.from_plane_degrees(90.0) == X_AXIS

    @pytest.mark.parametrize("k", range(-8, 17))
    def test_octant_angles_are_exact(self, k):
        """Multiples of 45 degrees give components 0, +-1 or sqrt(0.5)
        exactly, never -0.0, so spin labels never print -0.000000."""
        d = Direction.from_plane_degrees(k * 45)
        exact = {0.0, 1.0, -1.0, math.sqrt(0.5), -math.sqrt(0.5)}
        assert {d.x, d.y, d.z} <= exact
        assert not any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in (d.x, d.y, d.z))
        assert "-0.000000" not in spin_label(d, 1) + spin_label(d, 2)

    def test_plane_components_match_sine_and_cosine(self):
        """Away from the octants the components are sin and cos of the angle,
        up to the rounding of the reference's radians, beyond one turn too."""
        angles = np.arange(-725.0, 725.0, 0.37)
        got = plane_components(angles)
        radians = np.radians(np.fmod(angles, 360.0))
        np.testing.assert_allclose(got[:, 0], np.sin(radians), rtol=0, atol=1e-15)
        np.testing.assert_allclose(got[:, 1], np.cos(radians), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_plane_angle_must_be_finite(self, angle):
        with pytest.raises(InputValidationError, match="finite"):
            Direction.from_plane_degrees(angle)

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

    def test_fano_form_is_exactly_zero_zero_minus_identity(self):
        """Unit trace, r_A = r_B = 0 and T = -I, every entry exact."""
        assert singlet_state().fano.tolist() == [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
        ]


class TestFanoForm:
    def test_entries_are_pauli_traces(self):
        """Oracle: Tr[rho s_i (x) s_j] from the test's own Pauli matrices."""
        state = random_density_state(np.random.default_rng(17))
        paulis = [np.eye(2), _PAULI["x"], _PAULI["y"], _PAULI["z"]]
        expected = [[np.trace(state.matrix @ np.kron(p, q)).real for q in paulis] for p in paulis]
        np.testing.assert_allclose(state.fano, expected, rtol=0.0, atol=1e-15)

    def test_cached_and_read_only(self):
        state = singlet_state()
        assert state.fano is state.fano
        with pytest.raises(ValueError):
            state.fano[1, 1] = 0.0


class TestSpinObservable:
    def test_records_direction_and_subsystem(self):
        d = random_direction(np.random.default_rng(43))
        obs = spin_observable(d, 2)
        assert (obs.direction, obs.subsystem) == (d, 2)

    def test_projectors_cached_and_read_only(self):
        obs = spin_observable(X_AXIS, 1)
        born_probability(singlet_state(), obs, 1.0)
        assert obs.projectors is obs.projectors
        with pytest.raises(ValueError):
            obs.projectors[0][0, 0] = 0.0

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


class TestObservablesCommute:
    def test_commutation_checks(self):
        assert observables_commute(spin_observable(Z_AXIS, 1), spin_observable(X_AXIS, 2))
        assert not observables_commute(spin_observable(Z_AXIS, 1), spin_observable(X_AXIS, 1))
