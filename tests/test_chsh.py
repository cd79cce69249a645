"""Tests for the standard and detection-weighted CHSH functionals.

The grid extremum functions use a separable reduction, so the key oracles
here are a literal four-way maximum over a coarse angle grid built from
independently computed correlations, and a row-by-row reference reduction
that the array kernel must match exactly, indices included.
"""
import json
import math
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

from belltally import (
    ChshReport,
    ChshSetting,
    ConfigurationError,
    DensityState,
    DetectionModel,
    Direction,
    InputValidationError,
    angle_scan,
    conditional_expectations,
    detection_bound,
    min_detection_bound,
    modified_chsh_lhs,
    modified_lhs_grid_max,
    singlet_state,
    spin_label,
    spin_observable,
    standard_chsh_lhs,
    quantum_expectation_product,
)
from belltally import chsh
from belltally.cli import main
from belltally.chsh import (
    _correlations,
    _grid_angles_deg,
    _combination,
    _grid_max,
    _plane_block,
)
from belltally.quantum import plane_components
from conftest import random_density_state, random_direction, werner_state

TSIRELSON = 2.0 * math.sqrt(2.0)
QUARTER_ROOT = 2.0 ** -0.25


def plane_correlations(state: DensityState, angles_deg) -> np.ndarray:
    """Correlation table over in-plane directions, by the projector route."""
    obs_1 = [spin_observable(Direction.from_plane_degrees(t), 1) for t in angles_deg]
    obs_2 = [spin_observable(Direction.from_plane_degrees(t), 2) for t in angles_deg]
    return np.array(
        [[quantum_expectation_product(state, oa, ob) for ob in obs_2] for oa in obs_1]
    )


def grid_correlations(state: DensityState, step: float) -> np.ndarray:
    """The kernel's correlation matrix over the grid of modified_lhs_grid_max."""
    components = plane_components(_grid_angles_deg(step))
    return _correlations(_plane_block(state), components, components)


def brute_force_grid_max(corr: np.ndarray, weights=(1.0, 1.0, 1.0, 1.0), b_count=None) -> float:
    """Literal maximum over every (a, a', b, b'), or over the first b_count b."""
    pa, pap, pb, pbp = weights
    corr_b = corr[:, :b_count]
    term_minus = np.abs(pa * (pb * corr_b[:, None, :, None] - pbp * corr[:, None, None, :]))
    term_plus = np.abs(pap * (pb * corr_b[None, :, :, None] + pbp * corr[None, :, None, :]))
    return float((term_minus + term_plus).max())


def row_loop_grid_max(left: np.ndarray, right: np.ndarray, pa: float, pap: float):
    """Reference for _grid_max: the row-by-row running maxima it replaced.

    Each row index i updates both terms' running maxima, and their argmax, on
    strict improvement; (j, k) is then the first maximizer of the sum.
    """
    shape = (left.shape[1], right.shape[1])
    best_minus = np.full(shape, -np.inf)
    best_plus = np.full(shape, -np.inf)
    arg_minus = np.zeros(shape, dtype=np.intp)
    arg_plus = np.zeros(shape, dtype=np.intp)
    for i in range(left.shape[0]):
        row = np.abs(pa * (left[i][:, None] - right[i][None, :]))
        mask = row > best_minus
        best_minus[mask] = row[mask]
        arg_minus[mask] = i
        row = np.abs(pap * (left[i][:, None] + right[i][None, :]))
        mask = row > best_plus
        best_plus[mask] = row[mask]
        arg_plus[mask] = i
    total = best_minus + best_plus
    j, k = np.unravel_index(int(np.argmax(total)), total.shape)
    return (int(arg_minus[j, k]), int(arg_plus[j, k]), int(j), int(k)), float(total[j, k])


class TestChshSetting:
    def test_tsirelson_preset_angles(self):
        """The preset's one angle list, each angle in its role with exact
        x-z components."""
        h = math.sqrt(0.5)
        assert chsh._TSIRELSON_DEG == (0.0, 90.0, 45.0, 135.0)
        assert ChshSetting.tsirelson() == ChshSetting(
            Direction(0.0, 0.0, 1.0), Direction(1.0, 0.0, 0.0),
            Direction(h, 0.0, h), Direction(h, 0.0, -h),
        )


def test_import_does_not_load_scipy():
    code = "import sys, belltally; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_cli_import_does_not_load_monte_carlo_machinery():
    """Only simulate needs numpy.random and a thread pool; the other commands
    should not pay for importing them."""
    code = (
        "import sys, belltally.cli; "
        "print(sorted(m for m in ('numpy.random', 'concurrent.futures') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


class TestConditionalExpectations:
    def test_matches_projector_route_out_of_plane(self):
        """The tensor kernel agrees with sum_np a_n b_p Tr[rho P_n Q_p] for
        arbitrary directions, not only in-plane ones."""
        rng = np.random.default_rng(113)
        for _ in range(10):
            state = random_density_state(rng)
            a, a_prime, b, b_prime = (random_direction(rng) for _ in range(4))
            setting = ChshSetting(a, a_prime, b, b_prime)
            expected = [
                quantum_expectation_product(
                    state, spin_observable(left, 1), spin_observable(right, 2)
                )
                for left, right in ((a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime))
            ]
            assert conditional_expectations(state, setting) == pytest.approx(
                expected, abs=1e-12
            )


class TestStandardLhs:
    def test_tsirelson_value(self):
        """The four singlet correlations at the 0/90/45/135 preset combine
        to 2 sqrt(2)."""
        values = conditional_expectations(singlet_state(), ChshSetting.tsirelson())
        assert standard_chsh_lhs(*values) == TSIRELSON

    def test_all_directions_equal(self):
        d = Direction.from_plane_degrees(30.0)
        values = conditional_expectations(singlet_state(), ChshSetting(d, d, d, d))
        assert standard_chsh_lhs(*values) == pytest.approx(2.0, abs=1e-12)

    def test_zero_correlations(self):
        assert standard_chsh_lhs(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(InputValidationError):
            standard_chsh_lhs(1.5, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, position, value):
        values = [0.0] * 4
        values[position] = value
        with pytest.raises(InputValidationError):
            standard_chsh_lhs(*values)


class TestModifiedLhs:
    def test_unit_detection_reduces_to_standard(self):
        report = modified_chsh_lhs(
            ChshSetting.tsirelson(), singlet_state(), DetectionModel.uniform(1.0)
        )
        assert report.modified_lhs == pytest.approx(report.standard_lhs, abs=1e-12)
        assert report.standard_lhs == pytest.approx(TSIRELSON, abs=1e-12)
        assert report.standard_violated
        assert report.modified_violated

    def test_quarter_root_detection_hits_the_classical_ceiling(self):
        report = modified_chsh_lhs(
            ChshSetting.tsirelson(), singlet_state(), DetectionModel.uniform(QUARTER_ROOT)
        )
        assert report.modified_lhs == pytest.approx(2.0, abs=1e-9)
        assert not report.modified_violated

    def test_zero_detection(self):
        report = modified_chsh_lhs(
            ChshSetting.tsirelson(), singlet_state(), DetectionModel.uniform(0.0)
        )
        assert report.modified_lhs == 0.0
        assert report.standard_violated

    def test_uniform_detection_scales_quadratically(self):
        """Shared detection probability p multiplies every term by p^2."""
        rng = np.random.default_rng(83)
        state = singlet_state()
        for _ in range(25):
            setting = ChshSetting(*(random_direction(rng) for _ in range(4)))
            p = rng.uniform(0.0, 1.0)
            report = modified_chsh_lhs(setting, state, DetectionModel.uniform(p))
            assert report.modified_lhs == pytest.approx(
                p * p * report.standard_lhs, abs=1e-12
            )
            assert report.modified_lhs <= report.standard_lhs + 1e-12

    def test_asymmetric_weights_recomputed_directly(self):
        rng = np.random.default_rng(89)
        state = singlet_state()
        for _ in range(10):
            setting = ChshSetting(*(random_direction(rng) for _ in range(4)))
            pa, pap, pb, pbp = rng.uniform(0.0, 1.0, size=4)
            det = DetectionModel(
                entries={
                    ("singlet", "a"): pa,
                    ("singlet", "a_prime"): pap,
                    ("singlet", "b"): pb,
                    ("singlet", "b_prime"): pbp,
                }
            )
            report = modified_chsh_lhs(setting, state, det)
            e1, e2, e3, e4 = conditional_expectations(state, setting)
            expected = abs(pa * (pb * e1 - pbp * e2)) + abs(pap * (pb * e3 + pbp * e4))
            assert report.modified_lhs == pytest.approx(expected, abs=1e-12)
            assert report.detection_probs == (pa, pap, pb, pbp)

    def test_per_direction_detection_entries_win_over_roles(self):
        setting = ChshSetting.tsirelson()
        special = spin_label(setting.a, 1)
        det = DetectionModel(entries={("singlet", special): 0.25}, default=0.75)
        report = modified_chsh_lhs(setting, singlet_state(), det)
        assert report.detection_probs == (0.25, 0.75, 0.75, 0.75)

    def test_report_validation(self):
        with pytest.raises(InputValidationError):
            ChshReport(
                setting=ChshSetting.tsirelson(),
                e_ab=0.0,
                e_ab_prime=0.0,
                e_a_prime_b=0.0,
                e_a_prime_b_prime=0.0,
                standard_lhs=0.0,
                modified_lhs=0.0,
                detection_probs=(1.0, 1.0, 1.0, 1.0),
                bound=1.5,
                standard_violated=False,
                modified_violated=False,
            )


class TestDetectionBound:
    def test_tsirelson_value(self):
        assert detection_bound(ChshSetting.tsirelson()) == QUARTER_ROOT
        assert 1.0 - detection_bound(ChshSetting.tsirelson()) == pytest.approx(
            0.159104, abs=1e-6
        )

    def test_degenerate_setting_is_unconstrained(self):
        d = Direction.from_plane_degrees(17.0)
        assert detection_bound(ChshSetting(d, d, d, d)) == 1.0

    def test_squared_bound_saturates_the_singlet_functional(self):
        """bound^2 times the singlet value never exceeds 2, with equality
        whenever the cap at 1 is not active."""
        rng = np.random.default_rng(97)
        state = singlet_state()
        for _ in range(25):
            setting = ChshSetting.from_plane_angles(*rng.uniform(0.0, 360.0, size=4))
            bound = detection_bound(setting)
            standard = standard_chsh_lhs(*conditional_expectations(state, setting))
            assert bound * bound * standard <= 2.0 + 1e-12
            if bound < 1.0 - 1e-12:
                assert bound * bound * standard == pytest.approx(2.0, abs=1e-9)

    def test_grid_minimum_on_coarse_grid(self):
        # 45 is a multiple of 5, so the coarse grid already contains the
        # minimizing quadruple
        assert min_detection_bound(5.0) == pytest.approx(QUARTER_ROOT, abs=1e-12)

    @pytest.mark.parametrize(
        "step, expected",
        [
            (0.75, 2 ** -0.25),
            (1.0, 2 ** -0.25),
            (2.0, 0.8409604588679301),
            (3.3, 0.8409279791074584),
            (5.0, 2 ** -0.25),
            (7.5, 2 ** -0.25),
            (13.0, 0.8419522980629391),
            (15.0, 2 ** -0.25),
            (30.0, 0.8555996771673522),
            (45.0, 2 ** -0.25),
            (60.0, 0.8944271909999159),
            (90.0, 1.0),
        ],
    )
    def test_grid_minimum_to_the_bit(self, step, expected):
        """Every closed grid whose step divides 45 degrees contains the
        minimizing angles and gives 2**(-1/4) correctly rounded; the other
        grids miss them, and their floats are pinned as computed."""
        assert min_detection_bound(step) == expected

    @staticmethod
    def recorded_grid_max(monkeypatch, state, step):
        """The (left, right) matrices that min_detection_bound passes _grid_max."""
        calls = []

        def recorder(left, right, pa, pap):
            calls.append((left.copy(), right.copy()))
            return _grid_max(left, right, pa, pap)

        monkeypatch.setattr(chsh, "_grid_max", recorder)
        min_detection_bound(step, state)
        [(left, right)] = calls
        return left, right

    @pytest.mark.parametrize(
        "step, columns", [(1.0, 1), (2.0, 1), (7.5, 1), (90.0, 1), (3.3, 109), (13.0, 27)]
    )
    def test_closed_grids_pass_one_column(self, monkeypatch, step, columns):
        """A grid closed under rotation passes only column 0 of the singlet's
        E as the kernel's left matrix; 3.3 and 13 degrees do not close, so
        they pass the whole matrix as both arguments."""
        left, right = self.recorded_grid_max(monkeypatch, singlet_state(), step)
        corr = grid_correlations(singlet_state(), step)
        assert left.shape == (len(corr), columns)
        assert np.array_equal(left, corr[:, :columns])
        assert np.array_equal(right, corr)

    @pytest.mark.parametrize(
        "state, step, columns",
        [
            ("werner-0.8", 5.0, 1),
            ("werner-0.95", 15.0, 1),
            ("werner-0.8", 13.0, 27),
            ("random", 5.0, 72),
            ("random", 15.0, 24),
        ],
    )
    def test_only_isotropic_states_pass_one_column(self, monkeypatch, state, step, columns):
        """Werner states, whose x-z block is exactly t I, take the one-column
        path on closed grids as the singlet does; an anisotropic state passes
        the whole matrix on every grid."""
        if state == "random":
            rho = random_density_state(np.random.default_rng(331))
        else:
            rho = werner_state(float(state.split("-")[1]))
        left, right = self.recorded_grid_max(monkeypatch, rho, step)
        corr = grid_correlations(rho, step)
        assert left.shape == (len(corr), columns)
        assert np.array_equal(left, corr[:, :columns])
        assert np.array_equal(right, corr)

    def test_invalid_grid_step(self):
        with pytest.raises(InputValidationError):
            min_detection_bound(0.0)

    @pytest.mark.parametrize("step", [1.0, 0.25, 7.0, 13.0, 15.0])
    def test_grid_components_match_setting_directions(self, step):
        """The grid's components equal those of Direction.from_plane_degrees
        at each grid angle byte for byte, so a grid maximum's setting holds
        the directions its value was computed from."""
        angles = _grid_angles_deg(step).tolist()
        expected = [[d.x, d.z] for d in map(Direction.from_plane_degrees, angles)]
        assert plane_components(angles).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("visibility", [0.8, 0.95])
    @pytest.mark.parametrize("step", [1.0, 5.0, 9.0, 15.0, 45.0])
    def test_werner_grid_minimum_is_the_closed_form(self, visibility, step):
        """A Werner state's coplanar maximum is 2 sqrt(2) V, reached on every
        grid whose step divides 45 degrees, so its bound is (sqrt(2) V)**-1/2
        (Horodecki, Phys. Lett. A 200, 340 (1995))."""
        bound = min_detection_bound(step, werner_state(visibility))
        assert bound == pytest.approx((math.sqrt(2.0) * visibility) ** -0.5, abs=1e-15)

    def test_bound_belongs_to_the_state(self):
        """At the Tsirelson angles a Werner state of visibility 0.8 has
        S = 2 sqrt(2) 0.8, and detection_bound takes it from that S."""
        setting, werner = ChshSetting.tsirelson(), werner_state(0.8)
        standard = standard_chsh_lhs(*conditional_expectations(werner, setting))
        assert standard == pytest.approx(2.0 * math.sqrt(2.0) * 0.8, abs=1e-15)
        assert detection_bound(setting, werner) == math.sqrt(2.0 / standard)
        assert f"{detection_bound(setting, werner):.6f}" == "0.940151"


class TestGridMax:
    # The literal maxima run on the kernel's own correlation matrix, which
    # the projector route confirms to 1e-15; the two round differently in
    # the last bit.
    def test_standard_matches_brute_force_singlet(self):
        """Separable reduction vs a literal four-way maximum at 30 degrees.
        The singlet's closed grid searches b = 0 only, which the literal
        maximum over b = 0 matches exactly and the full one bounds to ulps."""
        corr = grid_correlations(singlet_state(), 30.0)
        np.testing.assert_allclose(
            corr, plane_correlations(singlet_state(), np.arange(0.0, 360.0, 30.0)), atol=1e-15
        )
        setting, value = modified_lhs_grid_max(singlet_state(), 1.0, 30.0)
        assert value == brute_force_grid_max(corr, b_count=1)
        assert 0.0 <= brute_force_grid_max(corr) - value <= 4.0 * math.ulp(value)
        achieved = standard_chsh_lhs(*conditional_expectations(singlet_state(), setting))
        assert achieved == pytest.approx(value, abs=1e-10)

    def test_standard_matches_brute_force_random_state(self):
        rng = np.random.default_rng(101)
        state = random_density_state(rng)
        corr = grid_correlations(state, 30.0)
        np.testing.assert_allclose(
            corr, plane_correlations(state, np.arange(0.0, 360.0, 30.0)), atol=1e-15
        )
        _, value = modified_lhs_grid_max(state, 1.0, 30.0)
        assert value == brute_force_grid_max(corr)

    def test_weighted_matches_brute_force(self):
        rng = np.random.default_rng(103)
        state = random_density_state(rng)
        weights = tuple(rng.uniform(0.2, 1.0, size=4))
        corr = grid_correlations(state, 30.0)
        np.testing.assert_allclose(
            corr, plane_correlations(state, np.arange(0.0, 360.0, 30.0)), atol=1e-15
        )
        _, value = modified_lhs_grid_max(state, weights, 30.0)
        assert value == brute_force_grid_max(corr, weights)

    # The reference loop takes about 0.5 s per call at 1 degree, so that grid
    # runs only a cosine matrix and the one-column left matrix that
    # modified_lhs_grid_max passes for the singlet on closed grids.  An integer matrix is the
    # seed of a random state.
    @pytest.mark.parametrize(
        "matrix, step",
        [("cosine", 1.0), ("column", 1.0), ("column", 5.0)]
        + [(m, s) for s in (5.0, 7.0, 13.0) for m in ("cosine", "singlet", 211, 212)],
    )
    def test_kernel_matches_row_loop_reference(self, matrix, step):
        """Value and all four indices equal the row-loop reduction's, bit for
        bit, including weights that tie every total, or one term, at 0."""
        angles = np.radians(_grid_angles_deg(step))
        columns = None
        if matrix == "column":
            corr = grid_correlations(singlet_state(), step)
            columns = 1
        elif matrix == "cosine":
            corr = np.cos(angles[:, None] - angles[None, :])
        else:
            if matrix == "singlet":
                state = singlet_state()
            else:
                state = random_density_state(np.random.default_rng(matrix))
            corr = grid_correlations(state, step)
        unequal = tuple(np.random.default_rng(223).uniform(0.2, 1.0, size=4))
        for pa, pap, pb, pbp in [
            (1.0, 1.0, 1.0, 1.0),
            (0.9, 0.9, 0.9, 0.9),
            unequal,
            (0.8, 0.35, 0.6, 0.6),
            (0.5, 0.5, 0.0, 0.0),
            (0.0, 0.6, 0.7, 0.4),
            (0.6, 0.0, 0.7, 0.4),
        ]:
            left, right = pb * corr[:, :columns], pbp * corr
            assert _grid_max(left, right, pa, pap) == row_loop_grid_max(left, right, pa, pap)

    def test_never_beats_the_plane_ceiling(self):
        """Closed-form ceiling for coplanar settings: twice the root of the
        summed squared singular values of the in-plane correlation matrix.
        The 5-degree grid maximum lies just below it."""
        rng = np.random.default_rng(107)
        for _ in range(20):
            state = random_density_state(rng)
            block = plane_correlations(state, (90.0, 0.0))
            ceiling = 2.0 * math.sqrt(float((np.linalg.svd(block, compute_uv=False) ** 2).sum()))
            _, value = modified_lhs_grid_max(state, 1.0, 5.0)
            assert 0.0 <= ceiling - value <= 1e-3

    def test_one_degree_grid_reaches_the_plane_ceiling(self):
        """The coplanar maximum 2 sqrt(t1**2 + t2**2), t1 and t2 the singular
        values of the Fano form's x-z block (Horodecki, Phys. Lett. A 200,
        340 (1995)), is reached on the 1-degree grid to 1e-5 and never
        exceeded."""
        rng = np.random.default_rng(109)
        for _ in range(3):
            state = random_density_state(rng)
            block = state.fano[np.ix_((1, 3), (1, 3))]
            ceiling = 2.0 * math.sqrt(float((np.linalg.svd(block, compute_uv=False) ** 2).sum()))
            _, value = modified_lhs_grid_max(state, 1.0, 1.0)
            assert ceiling * (1.0 - 1e-5) <= value <= ceiling + 1e-12

    def test_singlet_fine_grid_reaches_tsirelson(self):
        _, value = modified_lhs_grid_max(singlet_state(), 1.0, 5.0)
        assert value == pytest.approx(TSIRELSON, abs=1e-12)

    def test_scalar_weight_equals_uniform_tuple(self):
        state = singlet_state()
        _, scalar = modified_lhs_grid_max(state, 0.9, 15.0)
        _, spelled = modified_lhs_grid_max(state, (0.9, 0.9, 0.9, 0.9), 15.0)
        assert scalar == spelled

    def test_weight_validation(self):
        with pytest.raises(InputValidationError):
            modified_lhs_grid_max(singlet_state(), (0.9, 0.9), 15.0)
        with pytest.raises(InputValidationError):
            modified_lhs_grid_max(singlet_state(), 1.2, 15.0)


def reference_scan_blocks(corr, probs):
    """Reference for chsh._scan_slabs: the per-(a, a') block loop it replaced.

    Yields (ia, iap, standard, modified, bound, standard_violated,
    modified_violated) for each (a, a') pair in lexicographic order, the
    last five as arrays indexed [b, b'].
    """
    pa, pap, pb, pbp = (np.array(p, dtype=float) for p in probs)
    clipped = np.clip(corr, -1.0, 1.0)
    clipped_b, clipped_bp = clipped[:, :, None], clipped[:, None, :]
    corr_b, corr_bp = corr[:, :, None], corr[:, None, :]
    pb, pbp = pb[:, None], pbp[None, :]
    for ia, iap in product(range(len(corr)), repeat=2):
        standard = _combination(clipped_b[ia], clipped_bp[ia], clipped_b[iap], clipped_bp[iap])
        modified = _combination(
            corr_b[ia], corr_bp[ia], corr_b[iap], corr_bp[iap], (pa[ia], pap[iap], pb, pbp)
        )
        with np.errstate(divide="ignore"):
            bound = np.minimum(1.0, np.sqrt(2.0 / standard))
        yield (
            ia, iap, standard, modified, bound,
            standard > 2.0 + chsh.VIOLATION_TOL, modified > 2.0 + chsh.VIOLATION_TOL,
        )


class TestAngleScan:
    def test_quarter_pi_grid_contains_tsirelson(self):
        reports = angle_scan(singlet_state(), DetectionModel.uniform(1.0), math.pi / 4.0)
        rows = list(zip(product(range(8), repeat=4), reports, strict=True))
        assert len(rows) == 8**4
        # Rows run lexicographically in (a, a', b, b'), row angles k * 45.
        hits = [r for index, r in rows if [45.0 * k for k in index] == [0.0, 90.0, 45.0, 135.0]]
        assert len(hits) == 1
        assert hits[0].setting == ChshSetting.tsirelson()
        assert hits[0].standard_lhs == pytest.approx(TSIRELSON, abs=1e-12)
        assert hits[0].standard_violated

    def test_half_pi_grid_stays_classical(self):
        reports = list(angle_scan(singlet_state(), DetectionModel.uniform(1.0), math.pi / 2.0))
        assert len(reports) == 4**4
        assert all(r.standard_lhs <= 2.0 + 1e-12 for r in reports)
        assert not any(r.standard_violated for r in reports)

    def test_zero_detection_zeroes_the_weighted_column(self):
        reports = angle_scan(singlet_state(), DetectionModel.uniform(0.0), math.pi / 2.0)
        assert all(r.modified_lhs == 0.0 for r in reports)

    def test_rows_match_direct_evaluation(self):
        """Every row equals modified_chsh_lhs at its setting exactly, for a
        mixed state and detection entries keyed by spin_label on some grid
        angles, with role fallback on the rest."""
        rng = np.random.default_rng(2718)
        state = random_density_state(rng, "mixed")
        roles = ("a", "a_prime", "b", "b_prime")
        entries = {("mixed", role): p for role, p in zip(roles, (0.9, 0.8, 0.85, 0.95))}
        entries[("mixed", spin_label(Direction.from_plane_degrees(45.0), 1))] = 0.5
        entries[("mixed", spin_label(Direction.from_plane_degrees(270.0), 1))] = 0.6
        entries[("mixed", spin_label(Direction.from_plane_degrees(90.0), 2))] = 0.7
        det = DetectionModel(entries=entries, apparatus_factor=0.97)
        keyed = set()
        for step_deg in (90.0, 45.0):
            reports = list(angle_scan(state, det, math.radians(step_deg)))
            assert len(reports) == round(360.0 / step_deg) ** 4
            for report in reports:
                direct = modified_chsh_lhs(report.setting, state, det)
                assert report.bound == direct.bound
                assert report == direct
                keyed.update(report.detection_probs)
        assert {0.5 * 0.97, 0.6 * 0.97, 0.7 * 0.97, 0.9 * 0.97, 0.95 * 0.97} <= keyed

    def test_standard_column_clips_correlations_past_one(self, monkeypatch):
        """Correlations in (1, 1 + 1e-9] pass the scan's range check; the
        standard column must clip them as standard_chsh_lhs does, to the bit."""
        unscaled = chsh._correlations
        monkeypatch.setattr(chsh, "_correlations", lambda *args: unscaled(*args) * (1.0 + 5e-10))
        state, det = singlet_state(), DetectionModel.uniform(1.0)
        _, _, corr, slabs = chsh._scan_grid(state, det, 45.0)
        assert 1.0 < np.abs(corr).max() <= 1.0 + 1e-9
        e, grid = corr.tolist(), range(len(corr))
        rows = 0
        for ia, aps, standard, *_ in slabs:
            expected = [
                standard_chsh_lhs(e[ia][ib], e[ia][ibp], e[iap][ib], e[iap][ibp])
                for iap, ib, ibp in product(grid[aps], grid, grid)
            ]
            assert standard.tobytes() == np.array(expected).tobytes()
            rows += standard.size
        assert rows == len(grid) ** 4

    def test_radian_step_lays_the_cli_grid(self, capsys):
        """math.radians(30.0) gives the grid of the CLI's --grid-step 30:
        exact directions, and every row equal to the CLI's JSON row, whose
        angle cells are the grid's k * 30 degrees."""
        reports = list(angle_scan(singlet_state(), DetectionModel.uniform(1.0), math.radians(30.0)))
        assert reports[3 * 12**3].setting.a == Direction(1.0, 0.0, 0.0)
        assert main(["scan", "--grid-step", "30", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == len(reports) == 12**4
        grid = [k * 30.0 for k in range(12)]
        for indices, report, row in zip(product(range(12), repeat=4), reports, rows):
            assert list(row.values()) == [
                *(grid[i] for i in indices), *report.detection_probs, report.standard_lhs, report.modified_lhs,
                report.bound, report.standard_violated, report.modified_violated,
            ]

    def test_unresolvable_detection_raises(self):
        with pytest.raises(ConfigurationError, match="role"):
            next(angle_scan(singlet_state(), DetectionModel(), math.pi / 2.0))

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda state, det: modified_chsh_lhs(ChshSetting.tsirelson(), state, det),
            lambda state, det: chsh._scan_grid(state, det, 45.0),
            lambda state, det: next(angle_scan(state, det, math.pi / 4.0)),
        ],
        ids=["point", "scan-grid", "angle-scan"],
    )
    def test_unresolvable_role_is_named(self, evaluate):
        """Point and grid evaluation resolve roles in one place, and a model
        with an entry for role a alone and no default fails on a' first."""
        det = DetectionModel(entries={("singlet", "a"): 0.9})
        with pytest.raises(ConfigurationError, match=r"^cannot resolve role 'a_prime': no "):
            evaluate(singlet_state(), det)

    def test_step_validation(self):
        with pytest.raises(InputValidationError):
            next(angle_scan(singlet_state(), DetectionModel.uniform(1.0), 2.0))


class TestScanSlabs:
    @pytest.mark.parametrize(
        "slab_rows, k",
        [(1, 1), (64, 1), (3 * 64 + 63, 3), (5 * 64, 4), (8 * 64, 8), (10**6, 8)],
        ids=["below-one-block", "one-block", "k-3-not-dividing-8", "k-5-evened-to-4", "k-n",
             "capped-at-n"],
    )
    def test_slabs_match_per_block_reference(self, monkeypatch, slab_rows, k):
        """On the 8-angle grid every slab holds k a' indices (fewer at the end
        of a's run): a row cap of 5 blocks gives two runs of 4, not 5 + 3.
        Each (a, a') block equals the per-block reference to the byte, for a
        mixed state and detection keyed by spin_label on some grid angles."""
        monkeypatch.setattr(chsh, "_SLAB_ROWS", slab_rows)
        state = random_density_state(np.random.default_rng(314), "mixed")
        roles = ("a", "a_prime", "b", "b_prime")
        entries = {("mixed", role): p for role, p in zip(roles, (0.9, 0.8, 0.85, 0.95))}
        entries[("mixed", spin_label(Direction.from_plane_degrees(45.0), 1))] = 0.5
        entries[("mixed", spin_label(Direction.from_plane_degrees(90.0), 2))] = 0.7
        det = DetectionModel(entries=entries, apparatus_factor=0.97)
        angles, probs, corr, slabs = chsh._scan_grid(state, det, 45.0)
        n = len(angles)
        reference = reference_scan_blocks(corr, probs)
        runs = []
        for ia, aps, *columns in slabs:
            runs.append((ia, aps.start, aps.stop))
            for offset, iap in enumerate(range(aps.start, aps.stop)):
                ref_ia, ref_iap, *ref_columns = next(reference)
                assert (ia, iap) == (ref_ia, ref_iap)
                for got, want in zip(columns, ref_columns, strict=True):
                    assert got.shape == (aps.stop - aps.start, n, n)
                    assert got.dtype == want.dtype
                    assert got[offset].tobytes() == want.tobytes()
        assert next(reference, None) is None
        starts = range(0, n, k)
        assert runs == [(ia, j, min(j + k, n)) for ia in range(n) for j in starts]


class TestOneGrid:
    """bound and scan lay one coplanar grid, so at steps that do not divide
    360 degrees the grid maximum is still the largest scan cell."""

    @pytest.mark.parametrize("step", [50.0, 70.0, 80.0])
    def test_grid_maximum_is_the_largest_scan_cell(self, step):
        rng = np.random.default_rng(5)
        det = DetectionModel.uniform(1.0)
        for _ in range(20):
            state = random_density_state(rng, "mixed")
            *_, slabs = chsh._scan_grid(state, det, step)
            cells = [(standard.max(), bound.min()) for _, _, standard, _, bound, *_ in slabs]
            standard, bound = max(c[0] for c in cells), min(c[1] for c in cells)
            assert modified_lhs_grid_max(state, 1.0, step)[1] == standard
            assert min_detection_bound(step, state) == bound
