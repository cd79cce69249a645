"""Bell-CHSH functionals with and without detection weighting.

The standard functional |E(a,b) - E(a,b')| + |E(a',b) + E(a',b')| is built
from conditional (registered-trials) correlations and is bounded by 2 for
local models under fair sampling.  The weighted functional multiplies each
correlation by its pair of detection probabilities,

    |p_a (p_b E(a,b) - p_b' E(a,b'))| + |p_a' (p_b E(a',b) + p_b' E(a',b'))|,

and the same bound of 2 then applies to all-trials statistics of local
models even without fair sampling.  With one shared detection probability
p the weighted functional is p**2 times the standard one S, so the state
shows no all-trials violation at a setting exactly when

    p <= min(1, sqrt(2 / S)),

which for the singlet has its minimum 2**(-1/4) at the maximally violating
angles.  Every correlation is E(a, b) = a . T b, with T the correlation
tensor of the state's cached Fano form (DensityState.fano), and every bound
comes from the standard functional.

The standard functional is the weighted one at unit weights on clipped
correlations.  Multiplying by 1.0 is exact, so one routine, _combination,
evaluates both to the bit.

Angle grids are coplanar (x-z plane) quadruples.  Grid extrema exploit the
separability of the two absolute-value terms: the first depends on (a, b, b')
only and the second on (a', b, b'), so the maximum over the full four-angle
grid adds each term's maximum over its first angle, in O(N^3) operations,
or O(N^2) where the state and the grid are symmetric under rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, InputValidationError
from .quantum import (
    ALGEBRA_TOL,
    DensityState,
    Direction,
    plane_components,
    singlet_state,
    spin_label,
)

if TYPE_CHECKING:
    from .detection import DetectionModel

# Margin above the algebraic limit 2 before a value counts as a violation.
VIOLATION_TOL = 1e-12
# Rows per scan slab, unless one (a, a') block of n**2 rows is larger.
_SLAB_ROWS = 1 << 13

# Role and subsystem of each setting direction, in the order a, a', b, b'.
_ROLES = (("a", 1), ("a_prime", 1), ("b", 2), ("b_prime", 2))
# The tsirelson preset's x-z plane angles in degrees, in the same order.
_TSIRELSON_DEG = (0.0, 90.0, 45.0, 135.0)


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
        return cls(*map(Direction.from_plane_degrees, (a_deg, a_prime_deg, b_deg, b_prime_deg)))

    @classmethod
    def tsirelson(cls) -> "ChshSetting":
        """The maximally violating preset, at the coplanar angles _TSIRELSON_DEG."""
        return cls.from_plane_angles(*_TSIRELSON_DEG)

    def directions(self) -> tuple[Direction, Direction, Direction, Direction]:
        return (self.a, self.a_prime, self.b, self.b_prime)


@dataclass(frozen=True)
class ChshReport:
    """One evaluation of both functionals at a setting; bound is the state's
    equal-detection threshold there, min(1, sqrt(2 / standard_lhs))."""

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
    """min(1, sqrt(2 / d)) elementwise, as sqrt(2 / max(d, 2)): 1 for d <= 2."""
    return np.sqrt(2.0 / np.maximum(denominator, 2.0))


def conditional_expectations(
    state: DensityState, setting: ChshSetting
) -> tuple[float, float, float, float]:
    """The four registered-trials correlations (ab, ab', a'b, a'b')."""
    left = np.array([setting.a.as_array(), setting.a_prime.as_array()])
    right = np.array([setting.b.as_array(), setting.b_prime.as_array()])
    (e1, e2), (e3, e4) = _correlations(state.fano[1:, 1:], left, right).tolist()
    return e1, e2, e3, e4


def _role_probabilities(
    det: DetectionModel, state_label: str, directions_by_role: Iterable[Sequence[Direction]]
) -> list[list[float]]:
    """Detection probabilities of each direction given per role (a, a', b, b').

    Each resolves through the spin-observable label for its direction, then
    the role alias ("a", "a_prime", "b", "b_prime"), then the model default;
    an unresolvable one raises a ConfigurationError naming the role.
    """
    probs = []
    for (role, subsystem), directions in zip(_ROLES, directions_by_role):
        labels = [spin_label(d, subsystem) for d in directions]
        try:
            probs.append([det.probability(state_label, label, role) for label in labels])
        except ConfigurationError as exc:
            raise ConfigurationError(f"cannot resolve role {role!r}: {exc}") from None
    return probs


def modified_chsh_lhs(
    setting: ChshSetting, state: DensityState, det: DetectionModel
) -> ChshReport:
    """Evaluate both functionals at one setting and flag violations.

    The report's bound field is min(1, sqrt(2 / standard_lhs)) (see
    detection_bound); it reads as a bound on a shared detection probability
    only when the four resolved values coincide.
    """
    e1, e2, e3, e4 = conditional_expectations(state, setting)
    probs = tuple(p for (p,) in _role_probabilities(det, state.label, zip(setting.directions())))
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
        bound=float(_bound_from_denominator(standard)),
        standard_violated=standard > 2.0 + VIOLATION_TOL,
        modified_violated=weighted > 2.0 + VIOLATION_TOL,
    )


def detection_bound(setting: ChshSetting, state: DensityState | None = None) -> float:
    """Largest shared detection probability with no all-trials violation.

    min(1, sqrt(2 / S)), with S the standard functional of the state's
    conditional correlations at the setting; the state defaults to the
    singlet.  A vanishing S places no constraint, so the cap applies.
    """
    e = conditional_expectations(singlet_state() if state is None else state, setting)
    return float(_bound_from_denominator(standard_chsh_lhs(*e)))


def _grid_angles_deg(step_deg: float) -> np.ndarray:
    """The one coplanar grid of every maximum and scan: the floor(360 / step)
    angles k * step, so a step not dividing 360 degrees drops the last partial one."""
    # Before any allocation: step in (0, 90], and n x n floats indexable.
    if not 0.0 < step_deg <= 90.0 + ALGEBRA_TOL:
        raise InputValidationError(f"grid step must lie in (0, 90] degrees, got {step_deg!r}")
    if (360.0 / step_deg) * (360.0 / step_deg) * 8.0 > np.iinfo(np.intp).max:
        raise InputValidationError(f"grid step is too fine: {360.0 / step_deg:.3g} angles per turn")
    return np.arange(int(math.floor(360.0 / step_deg + 1e-9))) * step_deg


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


def _plane_block(state: DensityState) -> np.ndarray:
    # The x-z block of the correlation tensor.
    return state.fano[np.ix_((1, 3), (1, 3))]


def _correlations(tensor: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    # E(a, b) = a . T b for every row a of left and row b of right, with T
    # the 3x3 correlation tensor or its x-z block.
    return left @ tensor @ right.T


def modified_lhs_grid_max(
    state: DensityState,
    detection_probs: float | Sequence[float],
    grid_step_deg: float = 1.0,
) -> tuple[ChshSetting, float]:
    """Maximum of the weighted functional over the coplanar angle grid of
    _grid_angles_deg, the grid a scan at the same step lays.

    detection_probs is a shared scalar or the four role values
    (a, a', b, b'); direction-resolved models cannot apply across a whole
    grid, so values are taken per role here.

    When the state's x-z correlation block is exactly t I, as for the
    singlet, and the grid is closed under rotation (count times step is 360
    degrees), E depends only on angle differences and b = 0 loses nothing:
    only column 0 of E goes in as _grid_max's left matrix, in O(N^2).  Other
    states and open grids take the full O(N^3 / 2) kernel.
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
    components = plane_components(angles_deg)
    block = _plane_block(state)
    corr = _correlations(block, components, components)
    closed = len(angles_deg) * grid_step_deg == 360.0
    columns = 1 if closed and np.array_equal(block, block[0, 0] * np.eye(2)) else None
    pa, pap, pb, pbp = weights
    (ia, iap, ib, ibp), value = _grid_max(pb * corr[:, :columns], pbp * corr, pa, pap)
    setting = ChshSetting.from_plane_angles(
        angles_deg[ia], angles_deg[iap], angles_deg[ib], angles_deg[ibp]
    )
    return setting, value


def min_detection_bound(grid_step_deg: float = 1.0, state: DensityState | None = None) -> float:
    """Global minimum of detection_bound over the coplanar angle grid.

    The bound of the standard functional's grid maximum,
    modified_lhs_grid_max(state, 1.0, grid_step_deg), so the smallest bound
    cell of a scan of the state at the same step; the state defaults to the
    singlet, for which every step dividing 45 degrees gives 2**(-1/4)
    correctly rounded.
    """
    state = singlet_state() if state is None else state
    _, standard = modified_lhs_grid_max(state, 1.0, grid_step_deg)
    return float(_bound_from_denominator(standard))


def _scan_grid(state: DensityState, det: DetectionModel, grid_step_deg: float) -> tuple:
    """Check and lay out the coplanar scan with grid_step_deg degrees.

    Returns the grid angles k * step in degrees, as floats; the detection
    probabilities of each grid angle per role (a, a', b, b'), resolved
    through spin_label; the correlation matrix E[i, j] = E(angle i, angle j);
    and the lazy _scan_slabs iterator, holding one slab of at most
    max(_SLAB_ROWS, n**2) rows at a time.  Every input check runs before
    this returns.
    """
    angles = _grid_angles_deg(grid_step_deg)
    components = plane_components(angles)
    corr = _correlations(_plane_block(state), components, components)
    outside = np.abs(corr) > 1.0 + 1e-9
    if outside.any():
        raise InputValidationError(f"correlation {float(corr[outside][0])!r} lies outside [-1, 1]")
    directions = [Direction(x, 0.0, z) for x, z in components.tolist()]
    probs = _role_probabilities(det, state.label, [directions] * 4)
    return angles.tolist(), probs, corr, _scan_slabs(corr, probs)


def _scan_slabs(corr: np.ndarray, probs: Sequence[Sequence[float]]) -> Iterator[tuple]:
    """Yield (ia, aps, standard, modified, bound, standard_violated,
    modified_violated) per slab in lexicographic order: one a and a slice aps
    of k a' (fewer at the end of a's run), the last five as arrays indexed
    [a' - aps.start, b, b'].  k = ceil(n / ceil(n / k0)) evens out the runs
    of k0 = max(1, min(n, _SLAB_ROWS // n**2)): 12 + 12 at 15 degrees.

    Each slab is one _combination call per functional and the bound of the
    standard one, as in standard_chsh_lhs and modified_chsh_lhs, so every
    row equals the scalar results bit for bit.
    """
    n = len(corr)
    k = max(1, min(n, _SLAB_ROWS // (n * n)))
    k = -(-n // -(-n // k))
    pa, pap, pb, pbp = (np.array(p, dtype=float) for p in probs)
    # Row i as a column over b and as a row over b' (rows aps: axis 0 is a').
    clipped = np.clip(corr, -1.0, 1.0)
    clipped_b, clipped_bp = clipped[:, :, None], clipped[:, None, :]
    corr_b, corr_bp = corr[:, :, None], corr[:, None, :]
    pap, pb, pbp = pap[:, None, None], pb[:, None], pbp[None, :]
    for ia, start in product(range(n), range(0, n, k)):
        aps = slice(start, min(start + k, n))
        standard = _combination(clipped_b[ia], clipped_bp[ia], clipped_b[aps], clipped_bp[aps])
        modified = _combination(
            corr_b[ia], corr_bp[ia], corr_b[aps], corr_bp[aps], (pa[ia], pap[aps], pb, pbp)
        )
        yield (
            ia, aps, standard, modified, _bound_from_denominator(standard),
            standard > 2.0 + VIOLATION_TOL, modified > 2.0 + VIOLATION_TOL,
        )


def angle_scan(
    state: DensityState, det: DetectionModel, grid_step: float
) -> Iterator[ChshReport]:
    """Stream reports for every coplanar angle quadruple on the grid of
    _grid_angles_deg, the one modified_lhs_grid_max searches.

    grid_step is in radians, in (0, pi/2].  Its value in degrees is
    rounded to 12 significant digits, since math.degrees(math.radians(30.0))
    is 29.999999999999996: math.radians(30.0) then gives the grid of the
    CLI's --grid-step 30.  Rows are ordered lexicographically in
    (a, a', b, b').  Detection probabilities resolve per direction with
    role-alias and default fallback; an unresolvable entry raises a
    ConfigurationError naming the role.
    """
    step_deg = float(f"{math.degrees(grid_step):.12g}")
    angles, (pa, pap, pb, pbp), corr, slabs = _scan_grid(state, det, step_deg)
    directions = [Direction(x, 0.0, z) for x, z in plane_components(angles).tolist()]
    e = corr.tolist()
    grid = range(len(directions))
    for ia, aps, *columns in slabs:
        rows = zip(product(grid[aps], grid, grid), *(c.ravel().tolist() for c in columns))
        for (iap, ib, ibp), standard, modified, bound, *flags in rows:
            setting = ChshSetting(directions[ia], directions[iap], directions[ib], directions[ibp])
            correlations = (e[ia][ib], e[ia][ibp], e[iap][ib], e[iap][ibp])
            probs = (pa[ia], pap[iap], pb[ib], pbp[ibp])
            yield ChshReport(setting, *correlations, standard, modified, probs, bound, *flags)
