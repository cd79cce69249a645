"""Bell-CHSH functionals with and without detection weighting.

The standard functional |E(a,b) - E(a,b')| + |E(a',b) + E(a',b')| is built
from conditional (registered-trials) correlations and is bounded by 2 for
local models under fair sampling.  The weighted functional multiplies each
correlation by its pair of detection probabilities,

    |p_a (p_b E(a,b) - p_b' E(a,b'))| + |p_a' (p_b E(a',b) + p_b' E(a',b'))|,

and the same bound of 2 then applies to all-trials statistics of local
models even without fair sampling.  Setting the singlet correlations equal
to -a.b turns the equal-detection-probability case of that bound into a
threshold on the detection probability itself:

    p <= sqrt(2 / (|a.b - a.b'| + |a'.b + a'.b'|)),

whose global minimum over settings is 2**(-1/4) at the maximally violating
angles.

Angle grids are coplanar (x-z plane) quadruples.  Grid extrema exploit the
separability of the two absolute-value terms: the first depends on (a, b, b')
only and the second on (a', b, b'), so the maximum over the full four-angle
grid is found from two running maxima in O(N^3) operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .detection import DetectionModel
from .errors import ConfigurationError, InputValidationError
from .quantum import (
    ALGEBRA_TOL,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityState,
    Direction,
    spin_label,
)

# Margin above the algebraic limit 2 before a value counts as a violation.
VIOLATION_TOL = 1e-12

ROLE_A = "a"
ROLE_A_PRIME = "a_prime"
ROLE_B = "b"
ROLE_B_PRIME = "b_prime"


@dataclass(frozen=True)
class ChshSetting:
    """Four measurement directions: a, a' on subsystem 1; b, b' on subsystem 2."""

    a: Direction
    a_prime: Direction
    b: Direction
    b_prime: Direction

    @classmethod
    def from_plane_angles(
        cls, a_deg: float, a_prime_deg: float, b_deg: float, b_prime_deg: float
    ) -> "ChshSetting":
        return cls(
            Direction.from_plane_degrees(a_deg),
            Direction.from_plane_degrees(a_prime_deg),
            Direction.from_plane_degrees(b_deg),
            Direction.from_plane_degrees(b_prime_deg),
        )

    @classmethod
    def tsirelson(cls) -> "ChshSetting":
        """Coplanar angles 0, 90, 45, 135 degrees: the maximally violating preset."""
        return cls.from_plane_angles(0.0, 90.0, 45.0, 135.0)

    def directions(self) -> tuple[Direction, Direction, Direction, Direction]:
        return (self.a, self.a_prime, self.b, self.b_prime)

    def plane_angles_deg(self) -> tuple[float, float, float, float] | None:
        """The four in-plane angles in degrees, or None if any direction is
        out of the x-z plane."""
        angles = tuple(d.plane_angle_deg() for d in self.directions())
        if any(v is None for v in angles):
            return None
        return angles  # type: ignore[return-value]


@dataclass(frozen=True)
class ChshReport:
    """One evaluation of both functionals at a setting."""

    setting: ChshSetting
    e_ab: float
    e_ab_prime: float
    e_a_prime_b: float
    e_a_prime_b_prime: float
    standard_lhs: float
    modified_lhs: float
    detection_probs: tuple[float, float, float, float]
    bound: float
    standard_violated: bool
    modified_violated: bool

    def __post_init__(self) -> None:
        if self.standard_lhs < 0.0 or self.modified_lhs < 0.0:
            raise InputValidationError("functional values cannot be negative")
        if not 0.0 < self.bound <= 1.0:
            raise InputValidationError(f"bound must lie in (0, 1], got {self.bound!r}")


def standard_chsh_lhs(
    e_ab: float, e_ab_prime: float, e_a_prime_b: float, e_a_prime_b_prime: float
) -> float:
    """|E(a,b) - E(a,b')| + |E(a',b) + E(a',b')| for correlations in [-1, 1]."""
    values = (e_ab, e_ab_prime, e_a_prime_b, e_a_prime_b_prime)
    for value in values:
        if abs(value) > 1.0 + 1e-9:
            raise InputValidationError(f"correlation {value!r} lies outside [-1, 1]")
    e1, e2, e3, e4 = (min(1.0, max(-1.0, v)) for v in values)
    return abs(e1 - e2) + abs(e3 + e4)


def conditional_expectations(
    state: DensityState, setting: ChshSetting
) -> tuple[float, float, float, float]:
    """The four registered-trials correlations (ab, ab', a'b, a'b')."""
    left = np.array([setting.a.as_array(), setting.a_prime.as_array()])
    right = np.array([setting.b.as_array(), setting.b_prime.as_array()])
    (e1, e2), (e3, e4) = _correlations(_correlation_tensor(state), left, right).tolist()
    return e1, e2, e3, e4


def resolve_setting_detection(
    det: DetectionModel, state_label: str, setting: ChshSetting
) -> tuple[float, float, float, float]:
    """Detection probabilities for the four setting roles.

    Each role resolves through the spin-observable label for its direction,
    then the role alias ("a", "a_prime", "b", "b_prime"), then the model
    default.
    """
    labels = (
        spin_label(setting.a, 1),
        spin_label(setting.a_prime, 1),
        spin_label(setting.b, 2),
        spin_label(setting.b_prime, 2),
    )
    roles = (ROLE_A, ROLE_A_PRIME, ROLE_B, ROLE_B_PRIME)
    return tuple(
        det.probability(state_label, label, role=role) for label, role in zip(labels, roles)
    )  # type: ignore[return-value]


def _resolve_role_detection(
    det: DetectionModel, state_label: str
) -> tuple[float, float, float, float]:
    # Direction-independent resolution (role alias or default only), for
    # paths where the directions vary continuously.
    values = []
    for role in (ROLE_A, ROLE_A_PRIME, ROLE_B, ROLE_B_PRIME):
        try:
            values.append(det.probability(state_label, role))
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"cannot resolve a direction-independent detection probability for "
                f"role {role!r}: {exc}"
            ) from None
    return tuple(values)  # type: ignore[return-value]


def _weighted_lhs(
    e1: float, e2: float, e3: float, e4: float, p: tuple[float, float, float, float]
) -> float:
    pa, pap, pb, pbp = p
    return abs(pa * (pb * e1 - pbp * e2)) + abs(pap * (pb * e3 + pbp * e4))


def modified_chsh_lhs(
    setting: ChshSetting, state: DensityState, det: DetectionModel
) -> ChshReport:
    """Evaluate both functionals at one setting and flag violations.

    The report's bound field carries the equal-detection threshold of the
    setting (see detection_bound); it reads as a bound on a shared detection
    probability only when the four resolved values coincide.
    """
    e1, e2, e3, e4 = conditional_expectations(state, setting)
    probs = resolve_setting_detection(det, state.label, setting)
    standard = standard_chsh_lhs(e1, e2, e3, e4)
    weighted = _weighted_lhs(e1, e2, e3, e4, probs)
    return ChshReport(
        setting=setting,
        e_ab=e1,
        e_ab_prime=e2,
        e_a_prime_b=e3,
        e_a_prime_b_prime=e4,
        standard_lhs=standard,
        modified_lhs=weighted,
        detection_probs=probs,
        bound=detection_bound(setting),
        standard_violated=standard > 2.0 + VIOLATION_TOL,
        modified_violated=weighted > 2.0 + VIOLATION_TOL,
    )


def detection_bound(setting: ChshSetting) -> float:
    """Largest shared detection probability with no all-trials violation.

    sqrt(2 / (|a.b - a.b'| + |a'.b + a'.b'|)), capped at 1.  A vanishing
    denominator places no constraint, so the cap applies.
    """
    a, a_prime, b, b_prime = setting.directions()
    denominator = abs(a.dot(b) - a.dot(b_prime)) + abs(a_prime.dot(b) + a_prime.dot(b_prime))
    if denominator <= ALGEBRA_TOL:
        return 1.0
    return min(1.0, math.sqrt(2.0 / denominator))


def _grid_angles_deg(grid_step_deg: float) -> np.ndarray:
    if not 0.0 < grid_step_deg <= 90.0 + ALGEBRA_TOL:
        raise InputValidationError(
            f"grid step must lie in (0, 90] degrees, got {grid_step_deg!r}"
        )
    return np.arange(0.0, 360.0 - 1e-9, grid_step_deg)


def _separable_grid_max(row_minus, row_plus, n: int) -> tuple[tuple[int, int, int, int], float]:
    # row_minus(a)[j, k] and row_plus(a')[j, k] are produced one row index at
    # a time; the two terms share only (j, k), so maximize each over its row
    # index first, then jointly over (j, k).  Memory stays O(n^2).
    best_minus = np.full((n, n), -np.inf)
    best_plus = np.full((n, n), -np.inf)
    arg_minus = np.zeros((n, n), dtype=np.intp)
    arg_plus = np.zeros((n, n), dtype=np.intp)
    for i in range(n):
        row = row_minus(i)
        mask = row > best_minus
        best_minus[mask] = row[mask]
        arg_minus[mask] = i
        row = row_plus(i)
        mask = row > best_plus
        best_plus[mask] = row[mask]
        arg_plus[mask] = i
    total = best_minus + best_plus
    j, k = np.unravel_index(int(np.argmax(total)), total.shape)
    return (int(arg_minus[j, k]), int(arg_plus[j, k]), int(j), int(k)), float(total[j, k])


def _correlation_tensor(state: DensityState) -> np.ndarray:
    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    tensor = np.empty((3, 3))
    for i, left in enumerate(paulis):
        for j, right in enumerate(paulis):
            tensor[i, j] = float(np.trace(state.matrix @ np.kron(left, right)).real)
    return tensor


def _plane_block(state: DensityState) -> np.ndarray:
    tensor = _correlation_tensor(state)
    return np.array([[tensor[0, 0], tensor[0, 2]], [tensor[2, 0], tensor[2, 2]]])


def _correlations(tensor: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    # E(a, b) = a . T b for every row a of left and row b of right, with T
    # the 3x3 correlation tensor or its x-z block.
    return left @ tensor @ right.T


def _plane_components(angles_rad: np.ndarray) -> np.ndarray:
    # (x, z) components of in-plane directions, matching _plane_block.
    return np.stack([np.sin(angles_rad), np.cos(angles_rad)], axis=1)


def _lhs_grid_max(
    state: DensityState,
    weights: tuple[float, float, float, float],
    grid_step_deg: float,
) -> tuple[ChshSetting, float]:
    angles_deg = _grid_angles_deg(grid_step_deg)
    components = _plane_components(np.radians(angles_deg))
    corr = _correlations(_plane_block(state), components, components)
    pa, pap, pb, pbp = weights
    n = len(angles_deg)
    scaled_b = pb * corr
    scaled_bp = pbp * corr

    def row_minus(i: int) -> np.ndarray:
        return np.abs(pa * (scaled_b[i][:, None] - scaled_bp[i][None, :]))

    def row_plus(i: int) -> np.ndarray:
        return np.abs(pap * (scaled_b[i][:, None] + scaled_bp[i][None, :]))

    (ia, iap, ib, ibp), value = _separable_grid_max(row_minus, row_plus, n)
    setting = ChshSetting.from_plane_angles(
        angles_deg[ia], angles_deg[iap], angles_deg[ib], angles_deg[ibp]
    )
    return setting, value


def standard_lhs_grid_max(
    state: DensityState, grid_step_deg: float = 1.0
) -> tuple[ChshSetting, float]:
    """Maximum of the standard functional over the coplanar angle grid."""
    return _lhs_grid_max(state, (1.0, 1.0, 1.0, 1.0), grid_step_deg)


def modified_lhs_grid_max(
    state: DensityState,
    detection_probs: float | Sequence[float],
    grid_step_deg: float = 1.0,
) -> tuple[ChshSetting, float]:
    """Maximum of the weighted functional over the coplanar angle grid.

    detection_probs is a shared scalar or the four role values
    (a, a', b, b'); direction-resolved models cannot apply across a whole
    grid, so values are taken per role here.
    """
    if np.isscalar(detection_probs):
        weights = (float(detection_probs),) * 4  # type: ignore[arg-type]
    else:
        weights = tuple(float(v) for v in detection_probs)  # type: ignore[assignment]
        if len(weights) != 4:
            raise InputValidationError("detection_probs needs 1 or 4 values")
    for w in weights:
        if not 0.0 <= w <= 1.0:
            raise InputValidationError(f"detection probability {w!r} outside [0, 1]")
    return _lhs_grid_max(state, weights, grid_step_deg)


def min_detection_bound(grid_step_deg: float = 1.0) -> float:
    """Global minimum of detection_bound over the coplanar angle grid.

    The separable maximum of the bound's denominator over all four grid
    angles gives it in O(N^3) operations.  The denominator depends only on
    angle differences, so fixing the first angle would give the same value
    in exact arithmetic, but not in floating point: the result would move
    by 1-2 ulp on most grids.
    """
    angles = np.radians(_grid_angles_deg(grid_step_deg))
    cosines = np.cos(angles[:, None] - angles[None, :])
    n = len(angles)

    def row_minus(i: int) -> np.ndarray:
        return np.abs(cosines[i][:, None] - cosines[i][None, :])

    def row_plus(i: int) -> np.ndarray:
        return np.abs(cosines[i][:, None] + cosines[i][None, :])

    _, denominator = _separable_grid_max(row_minus, row_plus, n)
    if denominator <= ALGEBRA_TOL:
        return 1.0
    return min(1.0, math.sqrt(2.0 / denominator))


# The two-angle pattern search stops once its step falls below this many
# degrees; the reduced objective is smooth near its maximum, so the value has
# then converged far below 1e-12.
_PATTERN_STEP_FLOOR_DEG = 1e-9
_PATTERN_MOVES = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def optimize_chsh_angles(
    state: DensityState,
    det: DetectionModel | None,
    objective: str = "standard",
    *,
    grid_step_deg: float = 10.0,
) -> tuple[ChshSetting, float]:
    """Deterministically maximize a functional over coplanar settings.

    For fixed b and b' the maximum over a and a' is analytic.  With M the
    x-z block of the correlation tensor, the functional reaches
    p_a |M(p_b b - p_b' b')| + p_a' |M(p_b b + p_b' b')| when a and a' point
    along those two vectors.  The remaining two angles are searched on the
    grid_step_deg grid, then by a pattern search whose step halves from
    grid_step_deg down to 1e-9 degrees.  objective "standard" maximizes the
    unweighted functional; "modified" weights each correlation by
    direction-independent detection probabilities resolved from det.  The
    returned value is the functional evaluated at the returned setting.
    """
    if objective not in ("standard", "modified"):
        raise InputValidationError(f"unknown objective {objective!r}")
    if objective == "modified":
        if det is None:
            raise InputValidationError("objective 'modified' requires a detection model")
        weights = _resolve_role_detection(det, state.label)
    else:
        weights = (1.0, 1.0, 1.0, 1.0)
    block = _plane_block(state)
    pa, pap, pb, pbp = weights

    def images(points_deg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Columns M(p_b b - p_b' b') and M(p_b b + p_b' b') for each (b, b')
        # row; the x and z axes as left directions read both components off
        # the kernel.
        b = pb * _plane_components(np.radians(points_deg[:, 0]))
        b_prime = pbp * _plane_components(np.radians(points_deg[:, 1]))
        return (
            _correlations(block, np.eye(2), b - b_prime),
            _correlations(block, np.eye(2), b + b_prime),
        )

    # The first pass scores the whole (b, b') grid; each later pass scores
    # the four pattern moves around the best point so far.
    angles = _grid_angles_deg(grid_step_deg)
    candidates = np.stack(np.meshgrid(angles, angles, indexing="ij"), axis=-1).reshape(-1, 2)
    best, step = -np.inf, float(grid_step_deg)
    while step >= _PATTERN_STEP_FLOOR_DEG:
        minus, plus = images(candidates)
        values = pa * np.hypot(*minus) + pap * np.hypot(*plus)
        k = int(np.argmax(values))
        if values[k] > best:
            point, best = candidates[k], values[k]
        else:
            step /= 2.0
        candidates = point + step * _PATTERN_MOVES

    minus, plus = images(point[None, :])
    a_deg, a_prime_deg = np.degrees(np.arctan2(*np.hstack([minus, plus]))) % 360.0
    b_deg, b_prime_deg = point % 360.0
    setting = ChshSetting.from_plane_angles(a_deg, a_prime_deg, b_deg, b_prime_deg)
    return setting, _weighted_lhs(*conditional_expectations(state, setting), weights)


def _scan_grid(state: DensityState, det: DetectionModel, grid_step: float) -> tuple:
    """Check and lay out the coplanar scan with grid_step radians.

    Returns the grid directions; the detection probabilities of each grid
    angle per role (a, a', b, b'), resolved through spin_label; the
    correlation matrix E[i, j] = E(angle i, angle j); and the lazy
    _scan_blocks iterator.  Every input check runs before this returns.
    """
    if not 0.0 < grid_step <= math.pi / 2.0 + ALGEBRA_TOL:
        raise InputValidationError(
            f"grid step must lie in (0, pi/2] radians, got {grid_step!r}"
        )
    count = int(math.floor(2.0 * math.pi / grid_step + 1e-9))
    angles = np.arange(count) * grid_step
    components = _plane_components(angles)
    corr = _correlations(_plane_block(state), components, components)
    outside = np.abs(corr) > 1.0 + 1e-9
    if outside.any():
        raise InputValidationError(f"correlation {float(corr[outside][0])!r} lies outside [-1, 1]")
    cosines = np.cos(angles[:, None] - angles[None, :])
    directions = [Direction.in_plane(theta) for theta in angles.tolist()]
    probs = []
    for role, subsystem in ((ROLE_A, 1), (ROLE_A_PRIME, 1), (ROLE_B, 2), (ROLE_B_PRIME, 2)):
        try:
            probs.append(
                [det.probability(state.label, spin_label(d, subsystem), role) for d in directions]
            )
        except ConfigurationError as exc:
            raise ConfigurationError(f"scan cannot resolve role {role!r}: {exc}") from None
    return directions, probs, corr, _scan_blocks(corr, cosines, probs)


def _scan_blocks(
    corr: np.ndarray, cosines: np.ndarray, probs: Sequence[Sequence[float]]
) -> Iterator[tuple]:
    """Yield (ia, iap, standard, modified, bound, standard_violated,
    modified_violated) for each (a, a') pair in lexicographic order, the
    last five as arrays indexed [b, b'].

    The functionals take the same elementwise float operations, in the same
    order, as standard_chsh_lhs and _weighted_lhs, so they equal the scalar
    results bit for bit.  The bound applies detection_bound's formula to
    a.b = cos(angle a - angle b); detection_bound sums the components
    instead, so the two can differ in the last bit.
    """
    pa, pap, pb, pbp = (np.array(p, dtype=float) for p in probs)
    clipped = np.clip(corr, -1.0, 1.0)
    scaled_b, scaled_bp = pb * corr, pbp * corr
    for ia in range(len(corr)):
        # The first term of each column depends on a only.
        standard_a = np.abs(clipped[ia][:, None] - clipped[ia][None, :])
        modified_a = np.abs(pa[ia] * (scaled_b[ia][:, None] - scaled_bp[ia][None, :]))
        denominator_a = np.abs(cosines[ia][:, None] - cosines[ia][None, :])
        for iap in range(len(corr)):
            standard = standard_a + np.abs(clipped[iap][:, None] + clipped[iap][None, :])
            modified = modified_a + np.abs(
                pap[iap] * (scaled_b[iap][:, None] + scaled_bp[iap][None, :])
            )
            denominator = denominator_a + np.abs(cosines[iap][:, None] + cosines[iap][None, :])
            # The floor only avoids dividing by zero where np.where picks 1 anyway.
            bound = np.where(
                denominator <= ALGEBRA_TOL,
                1.0,
                np.minimum(1.0, np.sqrt(2.0 / np.maximum(denominator, ALGEBRA_TOL))),
            )
            # ChshReport's range checks, on the whole block.
            if standard.min() < 0.0 or modified.min() < 0.0:
                raise InputValidationError("functional values cannot be negative")
            outside = ~((bound > 0.0) & (bound <= 1.0))
            if outside.any():
                raise InputValidationError(
                    f"bound must lie in (0, 1], got {float(bound[outside][0])!r}"
                )
            yield (
                ia, iap, standard, modified, bound,
                standard > 2.0 + VIOLATION_TOL, modified > 2.0 + VIOLATION_TOL,
            )


def angle_scan(
    state: DensityState, det: DetectionModel, grid_step: float
) -> Iterator[ChshReport]:
    """Stream reports for every coplanar angle quadruple on the grid.

    grid_step is in radians, in (0, pi/2].  Rows are ordered
    lexicographically in (a, a', b, b').  Detection probabilities resolve
    per direction with role-alias and default fallback; an unresolvable
    entry raises a ConfigurationError naming the role.
    """
    directions, (pa, pap, pb, pbp), corr, blocks = _scan_grid(state, det, grid_step)
    e = corr.tolist()
    grid = range(len(directions))
    for ia, iap, *columns in blocks:
        rows = zip(product(grid, grid), *(column.ravel().tolist() for column in columns))
        for (ib, ibp), standard, modified, bound, *flags in rows:
            setting = ChshSetting(directions[ia], directions[iap], directions[ib], directions[ibp])
            correlations = (e[ia][ib], e[ia][ibp], e[iap][ib], e[iap][ibp])
            probs = (pa[ia], pap[iap], pb[ib], pbp[ibp])
            yield ChshReport(setting, *correlations, standard, modified, probs, bound, *flags)
