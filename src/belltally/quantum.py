"""Two-qubit states, spin observables, their Fano form and Born probabilities.

Conventions
-----------
* Hilbert space: C^2 (x) C^2 with product basis ordered (++, +-, -+, --).
  Subsystem 1 is the left tensor factor, subsystem 2 the right.
* A measurement direction is a unit vector in R^3.  A spin observable is a
  (direction, subsystem) pair with outcomes +1 and -1; along direction ``a``
  on subsystem 1 its projectors are ((I + sigma.a)/2) (x) I and
  ((I - sigma.a)/2) (x) I, built only when something reads them.
* States are density operators: Hermitian, unit trace, positive semidefinite
  up to a small numerical floor.
* Every number the package reports depends on a state only through its
  Fano form F[i, j] = Tr[rho sigma_i (x) sigma_j], with sigma_0 = I
  (Fano, Rev. Mod. Phys. 55, 855 (1983)): the Bloch vectors r_A = F[1:, 0]
  and r_B = F[0, 1:] and the correlation tensor T = F[1:, 1:].  It is
  computed once per state and cached as DensityState.fano.
* born_probability, born_joint_probability and quantum_expectation_product
  follow the Born rule Tr[rho P1 P2] over spin projectors, defined only for
  commuting observables.  No command uses them: they are the projector
  route that the Fano form is tested against.

Algebraic identities are enforced at tolerance 1e-12; the positive
semidefiniteness floor is -1e-10 on the smallest eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputValidationError

ALGEBRA_TOL = 1e-12
PSD_FLOOR = -1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def plane_components(angles_deg) -> np.ndarray:
    """(x, z) components of the x-z plane directions at angles_deg degrees
    from the z axis, one row per angle.

    fmod, then Sterbenz's lemma, reduce each angle exactly to r in
    [-45, 45] about a multiple k of 90 degrees, and the components are those
    of r turned by k quarter turns.  Multiples of 90 degrees thus give exact
    0 and +-1, odd multiples of 45 give sqrt(0.5), and no component is -0.0.
    """
    angles = np.asarray(angles_deg, dtype=float)
    bad = angles[~np.isfinite(angles)]
    if bad.size:
        raise InputValidationError(f"angle must be finite, got {float(bad[0])!r}")
    turns = np.fmod(angles, 360.0)
    quarters = np.rint(turns / 90.0)
    rest = turns - 90.0 * quarters
    half = np.abs(rest) == 45.0
    sin = np.where(half, np.copysign(math.sqrt(0.5), rest), np.sin(np.radians(rest)))
    cos = np.where(half, math.sqrt(0.5), np.cos(np.radians(rest)))
    # Turning (sin, cos) by k quarter turns gives (cycle[k], cycle[k + 1]).
    cycle, k = np.stack([sin, cos, -sin, -cos]), quarters.astype(int) % 4
    return np.stack([np.choose(k, cycle), np.choose((k + 1) % 4, cycle)], axis=-1) + 0.0


def _frozen_copy(matrix: np.ndarray) -> np.ndarray:
    out = np.array(matrix, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Direction:
    """Unit vector in R^3 specifying a spin measurement axis."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        norm = math.hypot(self.x, self.y, self.z)  # no overflow or underflow
        # Written so that a NaN component fails the check.
        if not abs(norm - 1.0) <= ALGEBRA_TOL:
            raise InputValidationError(
                f"direction must be unit length, got |v| = {norm!r}"
            )

    @classmethod
    def from_plane_degrees(cls, angle_deg: float) -> "Direction":
        """Direction at ``angle_deg`` degrees from the z axis inside the x-z plane."""
        x, z = plane_components([angle_deg])[0].tolist()
        return cls(x, 0.0, z)

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "Direction":
        """The direction of (x, y, z), by a norm that cannot overflow or underflow."""
        norm = math.hypot(x, y, z)
        if norm <= 0.0:
            raise InputValidationError("cannot normalize the zero vector")
        return cls(x / norm, y / norm, z / norm)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def dot(self, other: "Direction") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


X_AXIS = Direction(1.0, 0.0, 0.0)
Y_AXIS = Direction(0.0, 1.0, 0.0)
Z_AXIS = Direction(0.0, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class DensityState:
    """Density operator on the two-qubit space, with a label used as a
    lookup key by detection models."""

    matrix: np.ndarray
    label: str

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (4, 4):
            raise InputValidationError(f"state matrix must be 4x4, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise InputValidationError("state matrix has non-finite entries")
        if np.max(np.abs(mat - mat.conj().T)) > ALGEBRA_TOL:
            raise InputValidationError("state matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > ALGEBRA_TOL or abs(np.trace(mat).imag) > ALGEBRA_TOL:
            raise InputValidationError("state matrix does not have unit trace")
        eigenvalues = np.linalg.eigvalsh(mat)
        if eigenvalues.min() < PSD_FLOOR:
            raise InputValidationError(
                f"state matrix is not positive semidefinite (min eigenvalue {eigenvalues.min():.3e})"
            )
        object.__setattr__(self, "matrix", _frozen_copy(mat))

    @cached_property
    def fano(self) -> np.ndarray:
        """The read-only 4x4 Fano form F[i, j] = Tr[rho sigma_i (x) sigma_j]:
        the trace at [0, 0], r_A = F[1:, 0], r_B = F[0, 1:], T = F[1:, 1:].

        Spin projectors along a on subsystem 1 and b on subsystem 2 give
        Tr[rho P_s (x) Q_t] = u^T F v / 4 with u = (1, s a), v = (1, t b).
        """
        paulis = (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)
        fano = np.empty((4, 4))
        for i, left in enumerate(paulis):
            for j, right in enumerate(paulis):
                fano[i, j] = float(np.trace(self.matrix @ np.kron(left, right)).real)
        fano.setflags(write=False)
        return fano


@dataclass(frozen=True)
class SpinObservable:
    """Spin component along ``direction`` on one subsystem, with outcomes
    +1 and -1.  Its projectors are built on first read."""

    direction: Direction
    subsystem: int
    outcomes = (1.0, -1.0)

    def __post_init__(self) -> None:
        if self.subsystem not in (1, 2):
            raise InputValidationError(f"subsystem must be 1 or 2, got {self.subsystem!r}")

    @property
    def label(self) -> str:
        return spin_label(self.direction, self.subsystem)

    @cached_property
    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only projectors onto the +1 and -1 outcomes."""
        d = self.direction
        pauli = d.x * SIGMA_X + d.y * SIGMA_Y + d.z * SIGMA_Z
        halves = ((IDENTITY_2 + pauli) / 2.0, (IDENTITY_2 - pauli) / 2.0)
        if self.subsystem == 1:
            return tuple(_frozen_copy(np.kron(h, IDENTITY_2)) for h in halves)
        return tuple(_frozen_copy(np.kron(IDENTITY_2, h)) for h in halves)

    def projector_for(self, outcome: float) -> np.ndarray:
        for value, proj in zip(self.outcomes, self.projectors):
            if value == float(outcome):
                return proj
        raise InputValidationError(
            f"outcome {outcome!r} is not in the spectrum {self.outcomes} of {self.label!r}"
        )


def singlet_state(label: str = "singlet") -> DensityState:
    """Projector onto (|+-> - |-+>)/sqrt(2), from its exact entries +-0.5."""
    ket = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex)
    return DensityState(0.5 * np.outer(ket, ket), label)


def spin_label(direction: Direction, subsystem: int) -> str:
    """Canonical observable label used as a detection-model lookup key."""
    return f"spin{subsystem}({direction.x:.6f},{direction.y:.6f},{direction.z:.6f})"


def spin_observable(direction: Direction, subsystem: int) -> SpinObservable:
    """Spin component along ``direction`` acting on one subsystem."""
    return SpinObservable(direction, subsystem)


def observables_commute(obs1: SpinObservable, obs2: SpinObservable) -> bool:
    """Whether every projector of obs1 commutes with every projector of obs2."""
    for p in obs1.projectors:
        for q in obs2.projectors:
            if np.max(np.abs(p @ q - q @ p)) > ALGEBRA_TOL:
                return False
    return True


def _clamp_probability(value: float) -> float:
    return min(1.0, max(0.0, value))


def born_probability(state: DensityState, observable: SpinObservable, outcome: float) -> float:
    """Tr[rho P_outcome], clamped to [0, 1]."""
    proj = observable.projector_for(outcome)
    return _clamp_probability(float(np.trace(state.matrix @ proj).real))


def born_joint_probability(
    state: DensityState,
    obs1: SpinObservable,
    outcome1: float,
    obs2: SpinObservable,
    outcome2: float,
) -> float:
    """Joint Born probability Tr[rho P1 P2] for compatible observables."""
    if not observables_commute(obs1, obs2):
        raise InputValidationError(
            f"observables {obs1.label!r} and {obs2.label!r} do not commute; "
            "joint Born probabilities are undefined"
        )
    p1 = obs1.projector_for(outcome1)
    p2 = obs2.projector_for(outcome2)
    return _clamp_probability(float(np.trace(state.matrix @ p1 @ p2).real))


def quantum_expectation_product(
    state: DensityState, obs1: SpinObservable, obs2: SpinObservable
) -> float:
    """<O1 O2> = sum_np a_n b_p Tr[rho P_n Q_p] for compatible observables."""
    if not observables_commute(obs1, obs2):
        raise InputValidationError(
            f"observables {obs1.label!r} and {obs2.label!r} do not commute; "
            "the product expectation is undefined"
        )
    total = 0.0
    for a_value, a_proj in zip(obs1.outcomes, obs1.projectors):
        for b_value, b_proj in zip(obs2.outcomes, obs2.projectors):
            total += a_value * b_value * float(np.trace(state.matrix @ a_proj @ b_proj).real)
    return total
