"""Two-qubit states, spin observables and Born probabilities.

Conventions
-----------
* Hilbert space: C^2 (x) C^2 with product basis ordered (++, +-, -+, --).
  Subsystem 1 is the left tensor factor, subsystem 2 the right.
* A measurement direction is a unit vector in R^3; the spin observable along
  direction ``a`` on subsystem 1 has projectors ((I + sigma.a)/2) (x) I and
  ((I - sigma.a)/2) (x) I with outcomes +1 and -1.
* States are density operators: Hermitian, unit trace, positive semidefinite
  up to a small numerical floor.
* Joint probabilities follow the Born rule Tr[rho P1 P2] and are only defined
  for commuting projector families.

Algebraic identities are enforced at tolerance 1e-12; the positive
semidefiniteness floor is -1e-10 on the smallest eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputValidationError

ALGEBRA_TOL = 1e-12
PSD_FLOOR = -1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


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
        norm = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        # Written so that a NaN component fails the check.
        if not abs(norm - 1.0) <= ALGEBRA_TOL:
            raise InputValidationError(
                f"direction must be unit length, got |v| = {norm!r}"
            )

    @classmethod
    def in_plane(cls, angle_rad: float) -> "Direction":
        """Direction at ``angle_rad`` from the z axis inside the x-z plane."""
        if not math.isfinite(angle_rad):
            raise InputValidationError(f"angle must be finite, got {angle_rad!r}")
        return cls(math.sin(angle_rad), 0.0, math.cos(angle_rad))

    @classmethod
    def from_plane_degrees(cls, angle_deg: float) -> "Direction":
        return cls.in_plane(math.radians(angle_deg))

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "Direction":
        norm = math.sqrt(x * x + y * y + z * z)
        if norm <= 0.0:
            raise InputValidationError("cannot normalize the zero vector")
        return cls(x / norm, y / norm, z / norm)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def dot(self, other: "Direction") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def plane_angle_deg(self) -> float | None:
        """In-plane angle from the z axis in degrees, or None if out of plane."""
        if abs(self.y) > ALGEBRA_TOL:
            return None
        return math.degrees(math.atan2(self.x, self.z)) % 360.0


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


@dataclass(frozen=True, eq=False)
class ProjectiveObservable:
    """Observable given by real outcomes and an orthogonal, complete family of
    projectors on the two-qubit space."""

    outcomes: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]
    label: str

    def __post_init__(self) -> None:
        outcomes = tuple(float(v) for v in self.outcomes)
        if len(outcomes) == 0:
            raise InputValidationError("observable needs at least one outcome")
        if len(set(outcomes)) != len(outcomes):
            raise InputValidationError(f"outcomes must be distinct, got {outcomes}")
        if len(self.projectors) != len(outcomes):
            raise InputValidationError("one projector required per outcome")
        projectors = []
        for proj in self.projectors:
            mat = np.asarray(proj, dtype=complex)
            if mat.shape != (4, 4):
                raise InputValidationError(f"projector must be 4x4, got {mat.shape}")
            if np.max(np.abs(mat - mat.conj().T)) > ALGEBRA_TOL:
                raise InputValidationError("projector is not Hermitian")
            if np.max(np.abs(mat @ mat - mat)) > ALGEBRA_TOL:
                raise InputValidationError("projector is not idempotent")
            projectors.append(mat)
        for i in range(len(projectors)):
            for j in range(i + 1, len(projectors)):
                if np.max(np.abs(projectors[i] @ projectors[j])) > ALGEBRA_TOL:
                    raise InputValidationError("projectors are not pairwise orthogonal")
        total = sum(projectors)
        if np.max(np.abs(total - np.eye(4))) > ALGEBRA_TOL:
            raise InputValidationError("projectors do not sum to the identity")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "projectors", tuple(_frozen_copy(p) for p in projectors))

    def projector_for(self, outcome: float) -> np.ndarray:
        for value, proj in zip(self.outcomes, self.projectors):
            if value == float(outcome):
                return proj
        raise InputValidationError(
            f"outcome {outcome!r} is not in the spectrum {self.outcomes} of {self.label!r}"
        )


def singlet_state(label: str = "singlet") -> DensityState:
    """Projector onto (|+-> - |-+>)/sqrt(2)."""
    ket = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    return DensityState(np.outer(ket, ket.conj()), label)


def spin_label(direction: Direction, subsystem: int) -> str:
    """Canonical observable label used as a detection-model lookup key."""
    return f"spin{subsystem}({direction.x:.6f},{direction.y:.6f},{direction.z:.6f})"


def spin_observable(direction: Direction, subsystem: int) -> ProjectiveObservable:
    """Spin component along ``direction`` acting on one subsystem."""
    if subsystem not in (1, 2):
        raise InputValidationError(f"subsystem must be 1 or 2, got {subsystem!r}")
    pauli = direction.x * SIGMA_X + direction.y * SIGMA_Y + direction.z * SIGMA_Z
    plus = (IDENTITY_2 + pauli) / 2.0
    minus = (IDENTITY_2 - pauli) / 2.0
    if subsystem == 1:
        projectors = (np.kron(plus, IDENTITY_2), np.kron(minus, IDENTITY_2))
    else:
        projectors = (np.kron(IDENTITY_2, plus), np.kron(IDENTITY_2, minus))
    return ProjectiveObservable((1.0, -1.0), projectors, spin_label(direction, subsystem))


def observables_commute(
    obs1: ProjectiveObservable, obs2: ProjectiveObservable, tol: float = ALGEBRA_TOL
) -> bool:
    """Whether every projector of obs1 commutes with every projector of obs2."""
    for p in obs1.projectors:
        for q in obs2.projectors:
            if np.max(np.abs(p @ q - q @ p)) > tol:
                return False
    return True


def _clamp_probability(value: float) -> float:
    return min(1.0, max(0.0, value))


def born_probability(state: DensityState, observable: ProjectiveObservable, outcome: float) -> float:
    """Tr[rho P_outcome], clamped to [0, 1]."""
    proj = observable.projector_for(outcome)
    return _clamp_probability(float(np.trace(state.matrix @ proj).real))


def born_joint_probability(
    state: DensityState,
    obs1: ProjectiveObservable,
    outcome1: float,
    obs2: ProjectiveObservable,
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
    state: DensityState, obs1: ProjectiveObservable, obs2: ProjectiveObservable
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


def acting_subsystem(observable: ProjectiveObservable) -> int | None:
    """Which tensor factor an observable acts on: 1, 2, or None if neither.

    Returns 1 when every projector has the form Q (x) I, 2 for I (x) Q,
    None for genuinely bipartite projector families.
    """
    on_first = True
    on_second = True
    for proj in observable.projectors:
        tensor = proj.reshape(2, 2, 2, 2)  # [i, k, j, l]: row (i,k), column (j,l)
        left = np.einsum("ikjk->ij", tensor) / 2.0
        right = np.einsum("ikil->kl", tensor) / 2.0
        if np.max(np.abs(proj - np.kron(left, np.eye(2)))) > ALGEBRA_TOL:
            on_first = False
        if np.max(np.abs(proj - np.kron(np.eye(2), right))) > ALGEBRA_TOL:
            on_second = False
    if on_first and not on_second:
        return 1
    if on_second and not on_first:
        return 2
    return None
