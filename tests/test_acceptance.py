"""Acceptance gate: ten numbered end-to-end checks with runtime budgets.

Each test exercises one headline claim of the package at its stated
tolerance and prints a single summary line.  Run with -s to see the lines:

    python3 -m pytest tests/test_acceptance.py -v -s
"""
import contextlib
import io
import math
import time

import numpy as np
import pytest

from belltally import (
    ChshSetting,
    DetectionModel,
    Direction,
    GeneralizedObservable,
    born_joint_probability,
    born_probability,
    conditional_expectations,
    detection_bound,
    fair_sampling_check,
    generalized_correlation,
    gisin_gisin_model,
    min_detection_bound,
    modified_lhs_grid_max,
    quantum_expectation_product,
    random_microstate_model,
    run_experiment,
    sequential_distribution_factored,
    simulate_chsh,
    singlet_state,
    spin_observable,
    standard_chsh_lhs,
    summary_chsh,
    chsh_pairs,
    angle_scan,
)
from belltally.cli import main

from conftest import random_density_state, random_direction

QUARTER_ROOT = 2.0 ** -0.25


class Stopwatch:
    def __init__(self, limit: float):
        self.limit = limit
        self.start = time.monotonic()

    def check(self) -> float:
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"budget {self.limit}s exceeded: {elapsed:.1f}s"
        return elapsed


def test_01_singlet_product_closed_form():
    clock = Stopwatch(1.0)
    state = singlet_state()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        a, b = random_direction(rng), random_direction(rng)
        value = quantum_expectation_product(
            state, spin_observable(a, 1), spin_observable(b, 2)
        )
        worst = max(worst, abs(value - (-a.dot(b))))
    assert worst < 1e-12
    elapsed = clock.check()
    print(f"[acceptance 01] PASS product expectation = -a.b, max error {worst:.2e}, {elapsed:.2f}s")


def test_02_tsirelson_value():
    clock = Stopwatch(1.0)
    expectations = conditional_expectations(singlet_state(), ChshSetting.tsirelson())
    value = standard_chsh_lhs(*expectations)
    assert value == 2 * math.sqrt(2)
    elapsed = clock.check()
    print(f"[acceptance 02] PASS tsirelson combination {value:.12f}, {elapsed:.2f}s")


def test_03_detection_bound_and_grid_minimum():
    clock = Stopwatch(60.0)
    bound = detection_bound(ChshSetting.tsirelson())
    assert bound == pytest.approx(0.840896, abs=1e-6)
    assert bound == 2 ** -0.25
    assert 1.0 - bound == pytest.approx(0.159104, abs=1e-6)
    grid_min = min_detection_bound(1.0)
    assert grid_min == 2 ** -0.25
    elapsed = clock.check()
    print(
        f"[acceptance 03] PASS bound {bound:.6f}, floor {1.0 - bound:.6f}, "
        f"1-degree grid min {grid_min:.6f}, {elapsed:.2f}s"
    )


def test_04_threshold_detection_never_violates():
    clock = Stopwatch(60.0)
    state = singlet_state()
    _, top = modified_lhs_grid_max(state, QUARTER_ROOT, grid_step_deg=1.0)
    assert top == pytest.approx(2.0, abs=1e-9)
    # the violation flag requires exceeding 2 by more than the tolerance,
    # so a grid maximum at or below 2 rules out a flag anywhere on the grid
    assert top <= 2.0 + 1e-12
    det = DetectionModel.uniform(QUARTER_ROOT)
    flags = sum(
        report.modified_violated
        for report in angle_scan(state, det, math.radians(30.0))
    )
    assert flags == 0
    elapsed = clock.check()
    print(
        f"[acceptance 04] PASS threshold-detection grid max {top:.12f}, "
        f"no violation flag over {12**4} coarse reports, {elapsed:.2f}s"
    )


def test_05_sequential_tables():
    clock = Stopwatch(5.0)
    rng = np.random.default_rng(505)
    for _ in range(50):
        state = random_density_state(rng)
        a, b = random_direction(rng), random_direction(rng)
        pa, pb = rng.uniform(0.05, 1.0, size=2)
        base_a, base_b = spin_observable(a, 1), spin_observable(b, 2)
        obs_a, obs_b = GeneralizedObservable(base_a), GeneralizedObservable(base_b)
        det = DetectionModel(entries={(state.label, "a"): pa, (state.label, "b"): pb})
        table = sequential_distribution_factored(state, obs_a, obs_b, det)
        assert table.total() == pytest.approx(1.0, abs=1e-12)
        for (alpha, beta), prob in table.entries:
            if alpha != 0.0 and beta != 0.0:
                expected = pa * pb * born_joint_probability(state, base_a, alpha, base_b, beta)
            elif alpha != 0.0:
                expected = pa * (1.0 - pb) * born_probability(state, base_a, alpha)
            elif beta != 0.0:
                expected = (1.0 - pa) * pb * born_probability(state, base_b, beta)
            else:
                expected = (1.0 - pa) * (1.0 - pb)
            assert prob == pytest.approx(expected, abs=1e-12)
        correlation = generalized_correlation(state, obs_a, obs_b, det)
        assert table.product_mean() == pytest.approx(correlation, abs=1e-12)
    elapsed = clock.check()
    print(f"[acceptance 05] PASS 50 random sequential tables factor and sum, {elapsed:.2f}s")


def test_06_monte_carlo_reproduces_quantum_correlations():
    clock = Stopwatch(30.0)
    rng = np.random.default_rng(606)
    pairs = [(random_direction(rng), random_direction(rng)) for _ in range(20)]
    summary = run_experiment(gisin_gisin_model(), pairs, 1_000_000, 66)
    worst_pull = 0.0
    for i, (a, b) in enumerate(pairs):
        sigma = summary.conditional_correlation_se(i)
        gap = abs(summary.conditional_correlation(i) - (-a.dot(b)))
        assert gap <= 3.0 * sigma, f"pair {i}: gap {gap:.5f} vs 3 sigma {3 * sigma:.5f}"
        if sigma > 0.0:
            worst_pull = max(worst_pull, gap / sigma)
        freq_sigma = summary.detection_frequency_se(i, "a")
        assert abs(summary.detection_frequency(i, "a") - 0.5) <= 3.0 * freq_sigma
    elapsed = clock.check()
    print(
        f"[acceptance 06] PASS 20 pairs at 1e6 trials track -a.b, "
        f"worst pull {worst_pull:.2f} sigma, {elapsed:.2f}s"
    )


def test_07_three_level_separation():
    clock = Stopwatch(30.0)
    sim = simulate_chsh(gisin_gisin_model(), ChshSetting.tsirelson(), 1_000_000, 77)
    micro, micro_err = sim.micro_chsh, sim.micro_chsh_error
    cond, cond_err = sim.conditional_chsh, sim.conditional_chsh_error
    assert micro == pytest.approx(math.sqrt(2.0), abs=4.0 * micro_err)
    assert micro <= 2.0
    assert cond == pytest.approx(2.0 * math.sqrt(2.0), abs=4.0 * cond_err)
    assert cond > 2.0
    assert cond <= 2.0 * math.sqrt(2.0)
    gap = abs(sim.weighted_chsh_predicted - micro)
    assert gap <= 4.0 * (sim.weighted_chsh_predicted_error + micro_err)
    elapsed = clock.check()
    print(
        f"[acceptance 07] PASS micro {micro:.4f} <= 2 < conditional {cond:.4f}, "
        f"weighted prediction gap {gap:.5f}, {elapsed:.2f}s"
    )


def test_08_micro_chsh_property_suite():
    clock = Stopwatch(120.0)
    rng = np.random.default_rng(808)
    settings = [
        ChshSetting(*(random_direction(rng) for _ in range(4))) for _ in range(50)
    ]
    top = -10.0
    # Product of the A and B outcomes (-1, 0, +1) of each tally cell.
    products = np.outer([-1, 0, 1], [-1, 0, 1])
    slack = 2 * 20_000
    for model_index in range(50):
        model = random_microstate_model(model_index)
        for setting_index, setting in enumerate(settings):
            summary = run_experiment(
                model, chsh_pairs(setting), 20_000, 1000 + 50 * model_index + setting_index
            )
            value, sigma = summary_chsh(summary)
            assert value <= 2.0 + 4.0 * sigma, (
                f"model {model_index}, setting {setting_index}: {value:.4f} "
                f"exceeds 2 + 4x{sigma:.4f}"
            )
            # Exact for a local model evaluating all four pairs on every trial
            # (Clauser, Horne, Shimony and Holt, PRL 23, 880 (1969)).
            n1, n2, n3, n4 = (int((t * products).sum()) for t in summary.tallies)
            assert abs(n1 - n2) + abs(n3 + n4) <= 2 * summary.n_trials, (
                f"model {model_index}, setting {setting_index}: integer CHSH sum "
                f"{abs(n1 - n2) + abs(n3 + n4)} exceeds 2n = {2 * summary.n_trials}"
            )
            slack = min(slack, 2 * summary.n_trials - abs(n1 - n2) - abs(n3 + n4))
            top = max(top, value)
    elapsed = clock.check()
    print(
        f"[acceptance 08] PASS 2500 local-model estimates bounded by 2, "
        f"largest {top:.4f}, least integer slack {slack}, {elapsed:.1f}s"
    )


def test_09_unfair_sampling_diagnostic():
    clock = Stopwatch(10.0)
    result = fair_sampling_check(
        gisin_gisin_model(),
        Direction.from_plane_degrees(0.0),
        Direction.from_plane_degrees(45.0),
        1_000_000,
        99,
    )
    assert result.all_sample_freq == pytest.approx(0.125, abs=0.005)
    assert result.detected_freq == pytest.approx(0.0732, abs=0.005)
    assert result.divergence > 0.04
    elapsed = clock.check()
    print(
        f"[acceptance 09] PASS possession {result.all_sample_freq:.4f} vs "
        f"registered {result.detected_freq:.4f}, divergence {result.divergence:.4f}, "
        f"{elapsed:.2f}s"
    )


def test_10_worker_count_reproducibility():
    clock = Stopwatch(90.0)
    outputs = []
    for workers in ("1", "4", "8"):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(
                [
                    "simulate", "--trials", "500000", "--seed", "11",
                    "--workers", workers,
                ]
            )
        assert code == 0
        outputs.append(buffer.getvalue())
    assert outputs[0] != ""
    assert outputs[0] == outputs[1] == outputs[2]
    elapsed = clock.check()
    print(
        f"[acceptance 10] PASS byte-identical simulate output for 1/4/8 workers, "
        f"{elapsed:.2f}s"
    )
