"""Tests for the standard and detection-weighted CHSH functionals.

The grid extremum functions use a separable two-pass reduction, so the key
oracle here is a literal four-way loop over a coarse angle grid built from
independently computed correlations.
"""
import dataclasses
import math
import subprocess
import sys

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
    optimize_chsh_angles,
    singlet_state,
    spin_label,
    spin_observable,
    standard_chsh_lhs,
    standard_lhs_grid_max,
    quantum_expectation_product,
)

from conftest import random_density_state, random_direction

TSIRELSON = 2.0 * math.sqrt(2.0)
QUARTER_ROOT = 2.0 ** -0.25


def plane_correlations(state: DensityState, angles_deg) -> np.ndarray:
    """Correlation table over in-plane directions, by the projector route."""
    obs_1 = [spin_observable(Direction.from_plane_degrees(t), 1) for t in angles_deg]
    obs_2 = [spin_observable(Direction.from_plane_degrees(t), 2) for t in angles_deg]
    return np.array(
        [[quantum_expectation_product(state, oa, ob) for ob in obs_2] for oa in obs_1]
    )


def brute_force_grid_max(corr: np.ndarray, weights=(1.0, 1.0, 1.0, 1.0)) -> float:
    pa, pap, pb, pbp = weights
    term_minus = np.abs(pa * (pb * corr[:, None, :, None] - pbp * corr[:, None, None, :]))
    term_plus = np.abs(pap * (pb * corr[None, :, :, None] + pbp * corr[None, :, None, :]))
    return float((term_minus + term_plus).max())


class TestChshSetting:
    def test_tsirelson_preset_angles(self):
        assert ChshSetting.tsirelson().plane_angles_deg() == pytest.approx(
            (0.0, 90.0, 45.0, 135.0), abs=1e-9
        )

    def test_from_plane_angles_roundtrip(self):
        setting = ChshSetting.from_plane_angles(10.0, 100.0, 55.0, 145.0)
        assert setting.plane_angles_deg() == pytest.approx((10.0, 100.0, 55.0, 145.0))

    def test_out_of_plane_setting_has_no_angles(self):
        y = Direction(0.0, 1.0, 0.0)
        setting = ChshSetting(y, y, y, y)
        assert setting.plane_angles_deg() is None


def test_import_does_not_load_scipy():
    code = "import sys, belltally; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


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
        assert standard_chsh_lhs(*values) == pytest.approx(TSIRELSON, abs=1e-12)

    def test_all_directions_equal(self):
        d = Direction.from_plane_degrees(30.0)
        values = conditional_expectations(singlet_state(), ChshSetting(d, d, d, d))
        assert standard_chsh_lhs(*values) == pytest.approx(2.0, abs=1e-12)

    def test_zero_correlations(self):
        assert standard_chsh_lhs(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(InputValidationError):
            standard_chsh_lhs(1.5, 0.0, 0.0, 0.0)


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
        assert detection_bound(ChshSetting.tsirelson()) == pytest.approx(
            QUARTER_ROOT, abs=1e-12
        )
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

    def test_invalid_grid_step(self):
        with pytest.raises(InputValidationError):
            min_detection_bound(0.0)


class TestGridMax:
    def test_standard_matches_brute_force_singlet(self):
        """Separable reduction vs a literal four-way maximum at 30 degrees."""
        angles = np.arange(0.0, 360.0, 30.0)
        corr = plane_correlations(singlet_state(), angles)
        setting, value = standard_lhs_grid_max(singlet_state(), 30.0)
        assert value == pytest.approx(brute_force_grid_max(corr), abs=1e-10)
        achieved = standard_chsh_lhs(*conditional_expectations(singlet_state(), setting))
        assert achieved == pytest.approx(value, abs=1e-10)

    def test_standard_matches_brute_force_random_state(self):
        rng = np.random.default_rng(101)
        state = random_density_state(rng)
        angles = np.arange(0.0, 360.0, 30.0)
        corr = plane_correlations(state, angles)
        _, value = standard_lhs_grid_max(state, 30.0)
        assert value == pytest.approx(brute_force_grid_max(corr), abs=1e-10)

    def test_weighted_matches_brute_force(self):
        rng = np.random.default_rng(103)
        state = random_density_state(rng)
        weights = tuple(rng.uniform(0.2, 1.0, size=4))
        angles = np.arange(0.0, 360.0, 30.0)
        corr = plane_correlations(state, angles)
        _, value = modified_lhs_grid_max(state, weights, 30.0)
        assert value == pytest.approx(brute_force_grid_max(corr, weights), abs=1e-10)

    def test_singlet_fine_grid_reaches_tsirelson(self):
        _, value = standard_lhs_grid_max(singlet_state(), 5.0)
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


class TestOptimizer:
    def test_singlet_standard_optimum(self):
        _, value = optimize_chsh_angles(singlet_state(), None, "standard")
        assert value == pytest.approx(TSIRELSON, abs=1e-6)

    def test_product_state_stays_classical(self):
        state = DensityState(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), "up-up")
        _, value = optimize_chsh_angles(state, None, "standard")
        assert value <= 2.0 + 1e-9
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_modified_objective_scales(self):
        det = DetectionModel.uniform(0.5)
        _, value = optimize_chsh_angles(singlet_state(), det, "modified")
        assert value == pytest.approx(0.25 * TSIRELSON, abs=1e-6)

    def test_never_beats_the_plane_ceiling(self):
        """Closed-form ceiling for coplanar settings: twice the root of the
        summed squared singular values of the in-plane correlation matrix."""
        rng = np.random.default_rng(107)
        for _ in range(3):
            state = random_density_state(rng)
            block = plane_correlations(state, (90.0, 0.0))
            ceiling = 2.0 * math.sqrt(float((np.linalg.svd(block, compute_uv=False) ** 2).sum()))
            setting, value = optimize_chsh_angles(state, None, "standard")
            assert value <= ceiling + 1e-9
            achieved = standard_chsh_lhs(*conditional_expectations(state, setting))
            assert achieved == pytest.approx(value, abs=1e-9)

    def test_refinement_lands_between_grid_and_ceiling(self):
        """The refined value dominates the fine grid but cannot pass the
        closed-form continuum maximum."""
        rng = np.random.default_rng(109)
        state = random_density_state(rng)
        _, value = optimize_chsh_angles(state, None, "standard")
        _, fine = standard_lhs_grid_max(state, 1.0)
        block = plane_correlations(state, (90.0, 0.0))
        ceiling = 2.0 * math.sqrt(float((np.linalg.svd(block, compute_uv=False) ** 2).sum()))
        assert fine - 1e-9 <= value <= ceiling + 1e-9

    def test_modified_objective_unequal_weights(self):
        """With unequal role weights the optimum dominates the fine four-angle
        grid, and the returned value is the functional at the returned
        setting."""
        rng = np.random.default_rng(127)
        roles = ("a", "a_prime", "b", "b_prime")
        for _ in range(3):
            state = random_density_state(rng)
            weights = tuple(float(w) for w in rng.uniform(0.2, 1.0, size=4))
            det = DetectionModel(entries={("random", r): w for r, w in zip(roles, weights)})
            setting, value = optimize_chsh_angles(state, det, "modified")
            _, fine = modified_lhs_grid_max(state, weights, 1.0)
            assert value >= fine - 1e-9
            direct = modified_chsh_lhs(setting, state, det).modified_lhs
            assert value == pytest.approx(direct, abs=1e-9)

    def test_deterministic(self):
        state = singlet_state()
        first = optimize_chsh_angles(state, None, "standard")
        second = optimize_chsh_angles(state, None, "standard")
        assert first[1] == second[1]
        assert first[0].plane_angles_deg() == second[0].plane_angles_deg()

    def test_objective_validation(self):
        with pytest.raises(InputValidationError):
            optimize_chsh_angles(singlet_state(), None, "best")
        with pytest.raises(InputValidationError):
            optimize_chsh_angles(singlet_state(), None, "modified")


class TestAngleScan:
    def test_quarter_pi_grid_contains_tsirelson(self):
        reports = list(angle_scan(singlet_state(), DetectionModel.uniform(1.0), math.pi / 4.0))
        assert len(reports) == 8**4
        hits = [
            r
            for r in reports
            if r.setting.plane_angles_deg() == pytest.approx((0.0, 90.0, 45.0, 135.0), abs=1e-9)
        ]
        assert len(hits) == 1
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
        angles, with role fallback on the rest.  The bound is exact on the
        90-degree grid; elsewhere the scan takes a.b as cos(a - b) while
        detection_bound sums components, which can differ in the last bit."""
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
                if step_deg != 90.0:
                    assert report.bound == pytest.approx(direct.bound, rel=1e-15, abs=0.0)
                    direct = dataclasses.replace(direct, bound=report.bound)
                assert report == direct
                keyed.update(report.detection_probs)
        assert {0.5 * 0.97, 0.6 * 0.97, 0.7 * 0.97, 0.9 * 0.97, 0.95 * 0.97} <= keyed

    def test_unresolvable_detection_raises(self):
        with pytest.raises(ConfigurationError, match="role"):
            next(angle_scan(singlet_state(), DetectionModel(), math.pi / 2.0))

    def test_step_validation(self):
        with pytest.raises(InputValidationError):
            next(angle_scan(singlet_state(), DetectionModel.uniform(1.0), 2.0))
