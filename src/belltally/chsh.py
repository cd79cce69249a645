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

The standard functional and the bound's denominator are the weighted one at
unit weights, on clipped correlations and on a.b.  Multiplying by 1.0 is
exact, so one routine, _combination, evaluates all three to the bit.

Angle grids are coplanar (x-z plane) quadruples.  Grid extrema exploit the
separability of the two absolute-value terms: the first depends on (a, b, b')
only and the second on (a', b, b'), so the maximum over the full four-angle
grid adds each term's maximum over its first angle, in O(N^3) operations.
The detection-bound minimum takes O(N^2) on grids closed under rotation.
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
# Rows per scan slab, unless one (a, a') block of n**2 rows is larger.
_SLAB_ROWS = 1 << 13

# Role and subsystem of each setting direction, in the order a, a', b, b'.
_ROLES = (("a", 1), ("a_prime", 1), ("b", 2), ("b_prime", 2))


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
        # Written so that NaN fails the check; the clip below would turn it into -1.
        if not abs(value) <= 1.0 + 1e-9:
            raise InputValidationError(f"correlation {value!r} lies outside [-1, 1]")
    return _combination(*(min(1.0, max(-1.0, v)) for v in values))


def _combination(e1, e2, e3, e4, weights=(1.0, 1.0, 1.0, 1.0)):
    """|p_a (p_b e1 - p_b' e2)| + |p_a' (p_b e3 + p_b' e4)| with weights
    (p_a, p_a', p_b, p_b'), over floats or arrays that broadcast together."""
    pa, pap, pb, pbp = weights
    return abs(pa * (pb * e1 - pbp * e2)) + abs(pap * (pb * e3 + pbp * e4))


def _bound_from_denominator(denominator):
    """min(1, sqrt(2 / d)) elementwise, and 1 where d <= ALGEBRA_TOL."""
    # The floor only avoids dividing by zero where np.where picks 1 anyway.
    return np.where(
        denominator <= ALGEBRA_TOL,
        1.0,
        np.minimum(1.0, np.sqrt(2.0 / np.maximum(denominator, ALGEBRA_TOL))),
    )


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
    return tuple(
        det.probability(state_label, spin_label(d, subsystem), role=role)
        for d, (role, subsystem) in zip(setting.directions(), _ROLES)
    )  # type: ignore[return-value]


def _resolve_role_detection(
    det: DetectionModel, state_label: str
) -> tuple[float, float, float, float]:
    # Direction-independent resolution (role alias or default only), for
    # paths where the directions vary continuously.
    values = []
    for role, _ in _ROLES:
        try:
            values.append(det.probability(state_label, role))
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"cannot resolve a direction-independent detection probability for "
                f"role {role!r}: {exc}"
            ) from None
    return tuple(values)  # type: ignore[return-value]


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
    weighted = _combination(e1, e2, e3, e4, probs)
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
    denominator = _combination(a.dot(b), a.dot(b_prime), a_prime.dot(b), a_prime.dot(b_prime))
    return float(_bound_from_denominator(denominator))


def _check_grid_step(step: float, turn: float, domain: str) -> None:
    # Before any allocation: step in (0, turn / 4], and n x n floats indexable.
    if not 0.0 < step <= turn / 4.0 + ALGEBRA_TOL:
        raise InputValidationError(f"grid step must lie in {domain}, got {step!r}")
    if (turn / step) * (turn / step) * 8.0 > np.iinfo(np.intp).max:
        raise InputValidationError(f"grid step is too fine: {turn / step:.3g} angles per turn")


def _grid_angles_deg(grid_step_deg: float) -> np.ndarray:
    _check_grid_step(grid_step_deg, 360.0, "(0, 90] degrees")
    return np.arange(0.0, 360.0 - 1e-9, grid_step_deg)


def _grid_max(
    left: np.ndarray, right: np.ndarray, pa: float, pap: float
) -> tuple[tuple[int, int, int, int], float]:
    # Max over (i, i', j, k) of pa|left[i, j] - right[i, k]| +
    # pap|left[i', j] + right[i', k]|, at the first (j, k) in row-major order
    # and the first i and i' for it.  The terms share only (j, k), so each
    # column j maximizes both over their row index for every k at once.
    # pa * max|d| equals max|pa * d| exactly: rounding is monotone for pa >= 0.
    # When left equals right both terms are symmetric in (j, k) and the first
    # row-major maximizer has j <= k, so only k >= j is evaluated.  One scratch
    # array serves every column, since a fresh n x n temporary per column is
    # page-faulted anew each time.
    symmetric = np.array_equal(left, right)
    scratch = np.empty(right.shape)
    best, where = -np.inf, (0, 0)
    for j in range(left.shape[1]):
        k0 = j if symmetric else 0
        x, ys, d = left[:, j, None], right[:, k0:], scratch[:, k0:]
        total = pa * np.abs(np.subtract(x, ys, out=d), out=d).max(axis=0)
        total += pap * np.abs(np.add(x, ys, out=d), out=d).max(axis=0)
        k = int(np.argmax(total))
        if total[k] > best:
            best, where = total[k], (j, k0 + k)
    j, k = where
    i = int(np.argmax(pa * np.abs(left[:, j] - right[:, k])))
    i_prime = int(np.argmax(pap * np.abs(left[:, j] + right[:, k])))
    return (i, i_prime, j, k), float(best)


def _correlation_tensor(state: DensityState) -> np.ndarray:
    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    tensor = np.empty((3, 3))
    for i, left in enumerate(paulis):
        for j, right in enumerate(paulis):
            tensor[i, j] = float(np.trace(state.matrix @ np.kron(left, right)).real)
    return tensor


def _plane_block(state: DensityState) -> np.ndarray:
    return _correlation_tensor(state)[np.ix_((0, 2), (0, 2))]


def _correlations(tensor: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    # E(a, b) = a . T b for every row a of left and row b of right, with T
    # the 3x3 correlation tensor or its x-z block.
    return left @ tensor @ right.T


def _dot_matrix(directions: Sequence[Direction]) -> np.ndarray:
    # Every a.b, summed elementwise in Direction.dot's order: a.dot(b) to the bit.
    x, y, z = (np.array(v)[:, None] for v in zip(*((d.x, d.y, d.z) for d in directions)))
    return x * x.T + y * y.T + z * z.T


def _plane_components(angles_rad: np.ndarray) -> np.ndarray:
    # (x, z) components of in-plane directions, matching _plane_block.
    return np.stack([np.sin(angles_rad), np.cos(angles_rad)], axis=1)


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
    angles_deg = _grid_angles_deg(grid_step_deg)
    components = _plane_components(np.radians(angles_deg))
    corr = _correlations(_plane_block(state), components, components)
    pa, pap, pb, pbp = weights
    (ia, iap, ib, ibp), value = _grid_max(pb * corr, pbp * corr, pa, pap)
    setting = ChshSetting.from_plane_angles(
        angles_deg[ia], angles_deg[iap], angles_deg[ib], angles_deg[ibp]
    )
    return setting, value


def min_detection_bound(grid_step_deg: float = 1.0) -> float:
    """Global minimum of detection_bound over the coplanar angle grid.

    _grid_max, the kernel the functional grid maxima share, maximizes the
    denominator |a.b - a.b'| + |a'.b + a'.b'|, with a.b from _dot_matrix.
    It depends only on angle differences, so on a grid closed under rotation
    (angle count times step is 360 degrees) b = 0 loses nothing, and only
    column 0 of a.b goes in as the kernel's left matrix: O(N^2) operations.
    Every step dividing 45 degrees then gives 2**(-1/4) correctly rounded.
    An open grid has no such symmetry: it keeps the full symmetric matrix,
    of which only b' >= b is evaluated, in O(N^3 / 2).
    """
    angles = _grid_angles_deg(grid_step_deg)
    dots = _dot_matrix([Direction.from_plane_degrees(v) for v in angles.tolist()])
    left = dots[:, :1] if len(angles) * grid_step_deg == 360.0 else dots
    _, denominator = _grid_max(left, dots, 1.0, 1.0)
    return float(_bound_from_denominator(denominator))


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
    return setting, _combination(*conditional_expectations(state, setting), weights)


def _scan_grid(state: DensityState, det: DetectionModel, grid_step: float) -> tuple:
    """Check and lay out the coplanar scan with grid_step radians.

    Returns the grid directions; the detection probabilities of each grid
    angle per role (a, a', b, b'), resolved through spin_label; the
    correlation matrix E[i, j] = E(angle i, angle j); and the lazy
    _scan_slabs iterator, holding one slab of at most max(_SLAB_ROWS,
    n**2) rows at a time.  Every input check runs before this returns.
    """
    _check_grid_step(grid_step, 2.0 * math.pi, "(0, pi/2] radians")
    count = int(math.floor(2.0 * math.pi / grid_step + 1e-9))
    angles = np.arange(count) * grid_step
    components = _plane_components(angles)
    corr = _correlations(_plane_block(state), components, components)
    outside = np.abs(corr) > 1.0 + 1e-9
    if outside.any():
        raise InputValidationError(f"correlation {float(corr[outside][0])!r} lies outside [-1, 1]")
    directions = [Direction.in_plane(theta) for theta in angles.tolist()]
    probs = []
    for role, subsystem in _ROLES:
        try:
            probs.append(
                [det.probability(state.label, spin_label(d, subsystem), role) for d in directions]
            )
        except ConfigurationError as exc:
            raise ConfigurationError(f"scan cannot resolve role {role!r}: {exc}") from None
    return directions, probs, corr, _scan_slabs(corr, _dot_matrix(directions), probs)


def _scan_slabs(
    corr: np.ndarray, dots: np.ndarray, probs: Sequence[Sequence[float]]
) -> Iterator[tuple]:
    """Yield (ia, aps, standard, modified, bound, standard_violated,
    modified_violated) per slab in lexicographic order: one a and a slice aps
    of k = max(1, min(n, _SLAB_ROWS // n**2)) a' (fewer at the end of a's
    run), the last five as arrays indexed [a' - aps.start, b, b'].

    Each slab is one _combination call per functional, the same one
    standard_chsh_lhs, modified_chsh_lhs and detection_bound make (with a.b
    from _dot_matrix), so every row equals the scalar results bit for bit.
    """
    n = len(corr)
    k = max(1, min(n, _SLAB_ROWS // (n * n)))
    pa, pap, pb, pbp = (np.array(p, dtype=float) for p in probs)
    # Row i as a column over b and as a row over b' (rows aps: axis 0 is a').
    clipped = np.clip(corr, -1.0, 1.0)
    clipped_b, clipped_bp = clipped[:, :, None], clipped[:, None, :]
    corr_b, corr_bp = corr[:, :, None], corr[:, None, :]
    dots_b, dots_bp = dots[:, :, None], dots[:, None, :]
    pap, pb, pbp = pap[:, None, None], pb[:, None], pbp[None, :]
    for ia, start in product(range(n), range(0, n, k)):
        aps = slice(start, min(start + k, n))
        standard = _combination(clipped_b[ia], clipped_bp[ia], clipped_b[aps], clipped_bp[aps])
        modified = _combination(
            corr_b[ia], corr_bp[ia], corr_b[aps], corr_bp[aps], (pa[ia], pap[aps], pb, pbp)
        )
        bound = _bound_from_denominator(
            _combination(dots_b[ia], dots_bp[ia], dots_b[aps], dots_bp[aps])
        )
        # ChshReport's range checks, on the whole slab.
        if standard.min() < 0.0 or modified.min() < 0.0:
            raise InputValidationError("functional values cannot be negative")
        outside = ~((bound > 0.0) & (bound <= 1.0))
        if outside.any():
            raise InputValidationError(
                f"bound must lie in (0, 1], got {float(bound[outside][0])!r}"
            )
        yield (
            ia, aps, standard, modified, bound,
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
    directions, (pa, pap, pb, pbp), corr, slabs = _scan_grid(state, det, grid_step)
    e = corr.tolist()
    grid = range(len(directions))
    for ia, aps, *columns in slabs:
        rows = zip(product(grid[aps], grid, grid), *(c.ravel().tolist() for c in columns))
        for (iap, ib, ibp), standard, modified, bound, *flags in rows:
            setting = ChshSetting(directions[ia], directions[iap], directions[ib], directions[ibp])
            correlations = (e[ia][ib], e[ia][ibp], e[iap][ib], e[iap][ibp])
            probs = (pa[ia], pap[iap], pb[ib], pbp[ibp])
            yield ChshReport(setting, *correlations, standard, modified, probs, bound, *flags)
