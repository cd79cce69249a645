"""Tests for the hidden-variable models and the Monte Carlo machinery.

Statistical checks use fixed seeds, so they are deterministic; tolerance
bands are at least four standard errors wide for the chosen trial counts.
The sphere closed forms used as oracles: a sign-sign correlation of
1 - 2 theta / pi for an angle theta between the axes, and a mean alignment
E[|a.lam|] of one half.
"""
import dataclasses
import math
import os
import threading

import numpy as np
import pytest

from belltally import (
    ChshSetting,
    DetectionModel,
    Direction,
    GeneralizedObservable,
    InputValidationError,
    MicrostateModel,
    SimulationSummary,
    X_AXIS,
    Z_AXIS,
    ZeroProbabilityError,
    chsh_pairs,
    constant_model,
    fair_sampling_check,
    generalized_correlation,
    gisin_gisin_model,
    random_microstate_model,
    run_experiment,
    sample_hidden_uniform,
    sign_model,
    simulate_chsh,
    singlet_state,
    spin_observable,
    standard_chsh_lhs,
    summary_chsh,
)

from belltally import lhv
from conftest import random_direction


def plane(deg: float) -> Direction:
    return Direction.from_plane_degrees(deg)


def _possess_plus(alignment):
    return np.ones(len(alignment), dtype=np.int64)


def _never_detect(alignment, u):
    return np.zeros(len(u), dtype=bool)


def _always_detect(alignment, u):
    return np.ones(len(u), dtype=bool)


def effective(model, side, direction):
    """The vector a side's alignment is taken with: direction in its frame."""
    frame = getattr(model, f"frame_{side}")
    return direction.as_array() if frame is None else frame @ direction.as_array()


def registered_outcome(model, side, axis, u, direction):
    """Registered outcome in {-1, 0, +1} of one microstate, from a side's
    batch callables on a one-row alignment."""
    possess = getattr(model, f"possess_{side}")
    detect = getattr(model, f"detect_{side}")
    alignment = axis.as_array()[None, :] @ effective(model, side, direction)
    value = int(possess(alignment)[0])
    return value if detect(alignment, np.array([u]))[0] else 0


def _whole_array_sampler(rng, count):
    """Reference for the row-blocked sampler: the same float operations on
    whole arrays."""
    draws = rng.random((count, 4))
    axes = np.empty((count, 3))
    z = axes[:, 2]
    np.multiply(2.0, draws[:, 0], out=z)
    z -= 1.0
    azimuth = 2.0 * math.pi * draws[:, 1]
    radial = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    np.multiply(radial, np.cos(azimuth), out=axes[:, 0])
    np.multiply(radial, np.sin(azimuth), out=axes[:, 1])
    return axes, draws[:, 2], draws[:, 3]


class TestSampler:
    @pytest.mark.parametrize(
        "count", [1, lhv._BLOCK - 1, lhv._BLOCK, lhv._BLOCK + 1, 40000, lhv.CHUNK_SIZE]
    )
    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
    def test_blocks_match_whole_array_reference(self, count, seed):
        blocked = sample_hidden_uniform(np.random.default_rng(seed), count)
        whole = _whole_array_sampler(np.random.default_rng(seed), count)
        for got, want in zip(blocked, whole, strict=True):
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [1, lhv._BLOCK + 1, 40000, lhv.CHUNK_SIZE])
    def test_reused_buffers_keep_the_draw_stream(self, count):
        """Chunk-sized buffers, filled with NaN and then with a first sample,
        give the same bytes and leave the generator where fresh arrays do."""
        buffers = lhv._sampler_buffers(lhv.CHUNK_SIZE)
        for buffer in buffers:
            buffer.fill(np.nan)
        for seed in (0, 2**40 + 3):
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            reused = sample_hidden_uniform(rng, count, out=buffers)
            whole = _whole_array_sampler(reference_rng, count)
            for got, want in zip(reused, whole, strict=True):
                assert (got.shape, got.dtype) == (want.shape, want.dtype)
                assert got.tobytes() == want.tobytes()
                assert any(np.shares_memory(got, buffer) for buffer in buffers)
            assert rng.random() == reference_rng.random()

    @pytest.mark.parametrize("count", [1, lhv._BLOCK + 1, lhv.CHUNK_SIZE])
    def test_unread_components_are_zero_and_the_rest_unchanged(self, count):
        """On reused NaN-filled buffers, every call writes exact +0.0 into
        each unread column of axes and the reference bytes everywhere else."""
        buffers = lhv._sampler_buffers(lhv.CHUNK_SIZE)
        for buffer in buffers:
            buffer.fill(np.nan)
        sequence = [(True, False, True), (True, True, True), (True, False, True),
                    (False, False, True), (False, True, True)]
        for seed, reads in enumerate(sequence):
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_hidden_uniform(rng, count, out=buffers, reads=reads)
            want = _whole_array_sampler(reference_rng, count)
            for k, read in enumerate(reads):
                if read:
                    assert got[0][:, k].tobytes() == want[0][:, k].tobytes()
                else:
                    assert got[0][:, k].tobytes() == bytes(8 * count)
            for got_u, want_u in zip(got[1:], want[1:], strict=True):
                assert got_u.tobytes() == want_u.tobytes()
            assert rng.random() == reference_rng.random()

    def test_consecutive_calls_continue_one_stream(self):
        """Block-sized calls on one generator, into reused NaN-filled buffers,
        give the bytes of one whole-array call and leave the generator where
        it leaves it."""
        counts = (1, lhv._BLOCK - 1, lhv._BLOCK, 7)
        buffers = lhv._sampler_buffers(lhv._BLOCK)
        for buffer in buffers:
            buffer.fill(np.nan)
        rng, reference_rng = np.random.default_rng(13), np.random.default_rng(13)
        parts = [[got.copy() for got in sample_hidden_uniform(rng, n, out=buffers)]
                 for n in counts]
        whole = _whole_array_sampler(reference_rng, sum(counts))
        for got, want in zip(zip(*parts), whole, strict=True):
            assert np.concatenate(got).tobytes() == want.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_calls_without_buffers_do_not_alias(self):
        first = sample_hidden_uniform(np.random.default_rng(1), 100)
        second = sample_hidden_uniform(np.random.default_rng(1), 100)
        for got in first:
            assert not any(np.shares_memory(got, other) for other in second)

    def test_shapes_and_ranges(self):
        rng = np.random.default_rng(5)
        axes, u_a, u_b = sample_hidden_uniform(rng, 1000)
        assert axes.shape == (1000, 3)
        np.testing.assert_allclose(np.linalg.norm(axes, axis=1), 1.0, atol=1e-12)
        assert u_a.shape == u_b.shape == (1000,)
        assert np.all((0.0 <= u_a) & (u_a < 1.0))
        assert np.all((0.0 <= u_b) & (u_b < 1.0))

    def test_roughly_isotropic(self):
        rng = np.random.default_rng(6)
        axes, _, _ = sample_hidden_uniform(rng, 200000)
        # component means are 0 with sd 1/sqrt(3n)
        assert np.all(np.abs(axes.mean(axis=0)) < 0.006)


class TestGisinGisinModel:
    def test_scalar_responses(self):
        model = gisin_gisin_model()
        assert registered_outcome(model, "a", Z_AXIS, 0.3, Z_AXIS) == 1  # aligned, 0.3 < 1
        assert registered_outcome(model, "a", Z_AXIS, 0.3, X_AXIS) == 0  # orthogonal, never detected
        assert registered_outcome(model, "b", Z_AXIS, 0.9, Z_AXIS) == -1  # B always registers

    def test_b_side_always_registers(self):
        summary = run_experiment(gisin_gisin_model(), [(plane(20.0), plane(70.0))], 50000, 2)
        assert summary.detection_frequency(0, "b") == 1.0

    def test_a_side_detection_frequency(self):
        """Oracle: mean alignment over the sphere is one half."""
        summary = run_experiment(gisin_gisin_model(), [(plane(33.0), plane(70.0))], 400000, 3)
        freq = summary.detection_frequency(0, "a")
        assert freq == pytest.approx(0.5, abs=4.0 * summary.detection_frequency_se(0, "a"))

    def test_conditional_correlation_parallel(self):
        # with both axes equal the registered product is -1 on every trial
        summary = run_experiment(gisin_gisin_model(), [(Z_AXIS, Z_AXIS)], 1000000, 4)
        assert -1.0 <= summary.conditional_correlation(0) <= -0.995

    def test_conditional_correlation_45_degrees(self):
        summary = run_experiment(gisin_gisin_model(), [(plane(0.0), plane(45.0))], 400000, 5)
        estimate = summary.conditional_correlation(0)
        band = 4.0 * summary.conditional_correlation_se(0)
        assert estimate == pytest.approx(-math.cos(math.pi / 4.0), abs=band)

    def test_micro_correlation_halves_the_quantum_value(self):
        summary = run_experiment(
            gisin_gisin_model(), [(Z_AXIS, Z_AXIS), (Z_AXIS, X_AXIS)], 400000, 6
        )
        assert summary.micro_correlation(0) == pytest.approx(-0.5, abs=0.005)
        assert summary.micro_correlation(1) == pytest.approx(0.0, abs=0.005)

    def test_micro_correlation_matches_detection_weighted_quantum(self):
        """Monte Carlo vs the detection-weighted correlation with A at one
        half and B at one: both give -(a.b)/2."""
        a, b = plane(30.0), plane(75.0)
        summary = run_experiment(gisin_gisin_model(), [(a, b)], 400000, 7)
        det = DetectionModel(entries={("singlet", "a"): 0.5, ("singlet", "b"): 1.0})
        predicted = generalized_correlation(
            singlet_state(),
            GeneralizedObservable(spin_observable(a, 1)),
            GeneralizedObservable(spin_observable(b, 2)),
            det,
        )
        band = 4.0 * summary.micro_correlation_se(0)
        assert summary.micro_correlation(0) == pytest.approx(predicted, abs=band)


class TestSignModel:
    def test_chsh_reaches_the_classical_ceiling(self):
        """Sign-sign sphere correlations give each term magnitude one half
        at the preset angles, so the combination sits exactly at 2."""
        pairs = chsh_pairs(ChshSetting.tsirelson())
        value, _ = summary_chsh(run_experiment(sign_model(), pairs, 1000000, 8))
        assert value == pytest.approx(2.0, abs=0.01)

    def test_sign_correlation_closed_form(self):
        summary = run_experiment(sign_model(), [(plane(0.0), plane(60.0))], 400000, 9)
        assert summary.micro_correlation(0) == pytest.approx(-(1.0 - 2.0 / 3.0), abs=0.006)
        # everything registers, so micro and conditional agree exactly
        assert summary.micro_correlation(0) == summary.conditional_correlation(0)


class TestConstantModel:
    def test_degenerate_statistics(self):
        summary = run_experiment(constant_model(), [(Z_AXIS, X_AXIS)], 1000, 10)
        assert summary.micro_correlation(0) == 1.0
        assert summary.conditional_correlation(0) == 1.0
        assert summary.detection_frequency(0, "a") == 1.0
        assert summary.tallies[0, 2, 2] == 1000


class TestLocality:
    def test_a_side_ignores_b_direction(self):
        """Direct evaluation: the A response is unchanged no matter which B
        directions are evaluated in between."""
        rng = np.random.default_rng(17)
        models = [gisin_gisin_model(), sign_model(), random_microstate_model(3)]
        axes, u_a, u_b = sample_hidden_uniform(rng, 10)
        for model in models:
            for i in range(10):
                axis = Direction(*axes[i])
                a = random_direction(rng)
                before = registered_outcome(model, "a", axis, u_a[i], a)
                for _ in range(5):
                    registered_outcome(model, "b", axis, u_b[i], random_direction(rng))
                assert registered_outcome(model, "a", axis, u_a[i], a) == before
                assert registered_outcome(model, "a", axis, u_a[i], a) in (-1, 0, 1)


class TestRunExperiment:
    def test_same_seed_reproduces_tallies(self):
        settings = [(Z_AXIS, X_AXIS), (plane(10.0), plane(55.0))]
        first = run_experiment(gisin_gisin_model(), settings, 30000, 21)
        second = run_experiment(gisin_gisin_model(), settings, 30000, 21)
        np.testing.assert_array_equal(first.tallies, second.tallies)

    def test_worker_count_does_not_change_tallies(self):
        # spans four chunks of the substream scheme
        settings = [(plane(5.0), plane(50.0))]
        serial = run_experiment(gisin_gisin_model(), settings, 200001, 22, n_workers=1)
        threaded = run_experiment(gisin_gisin_model(), settings, 200001, 22, n_workers=3)
        more = run_experiment(gisin_gisin_model(), settings, 200001, 22, n_workers=7)
        np.testing.assert_array_equal(serial.tallies, threaded.tallies)
        np.testing.assert_array_equal(serial.tallies, more.tallies)

    def test_different_seeds_differ(self):
        settings = [(Z_AXIS, X_AXIS)]
        first = run_experiment(gisin_gisin_model(), settings, 10000, 1)
        second = run_experiment(gisin_gisin_model(), settings, 10000, 2)
        assert not np.array_equal(first.tallies, second.tallies)

    def test_tallies_account_for_every_trial(self):
        summary = run_experiment(gisin_gisin_model(), [(Z_AXIS, Z_AXIS)], 12345, 23)
        assert summary.tallies.shape == (1, 3, 3)
        assert summary.tallies.sum() == 12345

    def test_argument_validation(self):
        model = gisin_gisin_model()
        with pytest.raises(InputValidationError):
            run_experiment(model, [(Z_AXIS, Z_AXIS)], 0, 1)
        with pytest.raises(InputValidationError):
            run_experiment(model, [(Z_AXIS, Z_AXIS)], 10, 1, n_workers=0)
        with pytest.raises(InputValidationError):
            run_experiment(model, [(Z_AXIS, Z_AXIS)], 10, -1)
        with pytest.raises(InputValidationError):
            run_experiment(model, [], 10, 1)

    @pytest.mark.parametrize("entry", ["run_experiment", "simulate_chsh", "fair_sampling_check"])
    @pytest.mark.parametrize("name", ["n_trials", "seed", "n_workers"])
    @pytest.mark.parametrize("value", [True, 2.5, math.nan, math.inf], ids=str)
    def test_counts_must_be_whole_numbers(self, entry, name, value):
        """Bools, fractions and non-finite values are refused, not truncated."""
        arguments = {"n_trials": 1000, "seed": 3, "n_workers": 1, name: value}
        calls = {
            "run_experiment": lambda model, **kw: run_experiment(model, [(Z_AXIS, X_AXIS)], **kw),
            "simulate_chsh": lambda model, **kw: simulate_chsh(model, ChshSetting.tsirelson(), **kw),
            "fair_sampling_check": lambda model, **kw: fair_sampling_check(model, Z_AXIS, X_AXIS, **kw),
        }
        with pytest.raises(InputValidationError, match=name):
            calls[entry](gisin_gisin_model(), **arguments)

    def test_integral_floats_run_as_integers(self):
        settings = [(Z_AXIS, X_AXIS)]
        summary = run_experiment(gisin_gisin_model(), settings, 1000.0, 3.0, 2.0)
        assert type(summary.n_trials) is int and type(summary.seed) is int
        expected = run_experiment(gisin_gisin_model(), settings, 1000, 3, 2)
        np.testing.assert_array_equal(summary.tallies, expected.tallies)

    def test_summary_validation(self):
        with pytest.raises(InputValidationError):
            SimulationSummary(
                n_trials=10,
                settings=((Z_AXIS, Z_AXIS),),
                cells=np.zeros((1, 4, 4), dtype=np.int64),
                seed=0,
            )
        with pytest.raises(InputValidationError):
            SimulationSummary(
                n_trials=10,
                settings=((Z_AXIS, Z_AXIS),),
                cells=np.zeros((2, 2), dtype=np.int64),
                seed=0,
            )

    def test_conditional_correlation_needs_detected_pairs(self):
        model = MicrostateModel(
            name="dark", possess_a=_possess_plus, possess_b=_possess_plus,
            detect_a=_never_detect, detect_b=_always_detect,
        )
        summary = run_experiment(model, [(Z_AXIS, Z_AXIS)], 100, 1)
        with pytest.raises(ZeroProbabilityError):
            summary.conditional_correlation(0)


# One setting's hand-built code cells, code = 2 * detected + positive: codes
# 0 and 1 register 0, code 2 registers -1 and code 3 registers +1.
HAND_CELLS = np.array([
    [5, 1, 2, 0],
    [3, 4, 0, 6],
    [7, 0, 10, 2],
    [1, 8, 3, 20],
])
HAND_N = 72


def _hand_summary(*blocks):
    blocks = blocks or (HAND_CELLS,)
    return SimulationSummary(
        int(blocks[0].sum()), ((Z_AXIS, X_AXIS),) * len(blocks), np.stack(blocks), 0
    )


class TestSummaryFromCells:
    """Every statistic of a summary against closed forms of hand-built cells.

    In HAND_CELLS, 35 trials register on both sides (10 + 2 + 3 + 20), their
    product sum is 10 - 2 - 3 + 20 = 25, 51 trials register on A (rows 2
    and 3) and 43 on B (columns 2 and 3), and 38 possess (+1, +1) (the
    odd-odd cells 4 + 6 + 8 + 20), of which 20 register it."""

    def test_correlations(self):
        summary = _hand_summary()
        assert summary.n_trials == HAND_N
        assert summary.micro_correlation(0) == 25 / 72
        assert summary.micro_correlation_se(0) == pytest.approx(
            math.sqrt((35 / 72 - (25 / 72) ** 2) / 72), rel=1e-14
        )
        assert summary.both_detected_count(0) == 35
        assert type(summary.both_detected_count(0)) is int
        assert summary.conditional_correlation(0) == 25 / 35
        assert summary.conditional_correlation_se(0) == pytest.approx(
            math.sqrt((1.0 - (25 / 35) ** 2) / 35), rel=1e-14
        )

    def test_detection_frequencies(self):
        summary = _hand_summary()
        assert summary.detection_frequency(0, "a") == 51 / 72
        assert summary.detection_frequency(0, "b") == 43 / 72
        assert summary.detection_frequency_se(0, "a") == pytest.approx(
            math.sqrt(51 / 72 * 21 / 72 / 72), rel=1e-14
        )
        with pytest.raises(InputValidationError, match="side"):
            summary.detection_frequency(0, "c")

    def test_fair_sampling(self):
        result = _hand_summary().fair_sampling(0)
        assert result.all_sample_freq == 38 / 72
        assert result.detected_freq == 20 / 35
        assert result.divergence == abs(38 / 72 - 20 / 35)

    def test_tallies_sum_cells_by_registered_outcome(self):
        summary = _hand_summary()
        # rows: A registers -1 (code 2), 0 (codes 0 and 1), +1 (code 3); columns alike for B
        expected = [[10, 7 + 0, 2], [2 + 0, 5 + 1 + 3 + 4, 0 + 6], [3, 1 + 8, 20]]
        np.testing.assert_array_equal(summary.tallies, [expected])
        assert summary.tallies.dtype == np.int64
        assert summary.tallies is summary.tallies

    def test_cells_and_tallies_are_read_only(self):
        summary = _hand_summary()
        for counts in (summary.cells, summary.tallies):
            with pytest.raises(ValueError, match="read-only"):
                counts[0, 0, 0] = 1

    def test_each_setting_reads_its_own_cells(self):
        """The B-A transpose of the cells swaps the sides' statistics."""
        summary = _hand_summary(HAND_CELLS, HAND_CELLS.T)
        assert summary.micro_correlation(1) == summary.micro_correlation(0)
        assert summary.detection_frequency(1, "a") == 43 / 72
        assert summary.detection_frequency(1, "b") == 51 / 72
        assert summary.fair_sampling(1) == summary.fair_sampling(0)
        np.testing.assert_array_equal(summary.tallies[1], summary.tallies[0].T)

    def test_constant_summary_is_certain(self):
        cells = np.zeros((4, 4), dtype=np.int64)
        cells[3, 3] = 1000
        summary = _hand_summary(cells)
        assert (summary.micro_correlation(0), summary.micro_correlation_se(0)) == (1.0, 0.0)
        assert (summary.conditional_correlation(0), summary.conditional_correlation_se(0)) == (
            1.0, 0.0
        )
        assert summary.fair_sampling(0) == (1.0, 1.0, 0.0)
        run = run_experiment(constant_model(), [(Z_AXIS, X_AXIS)], 1000, 10)
        np.testing.assert_array_equal(run.cells, summary.cells)

    def test_no_double_detection_raises(self):
        """A never registers: codes 0 and 1 on its side only."""
        cells = np.zeros((4, 4), dtype=np.int64)
        cells[0, 2], cells[1, 3], cells[1, 1] = 3, 4, 5
        summary = _hand_summary(cells)
        assert summary.micro_correlation(0) == 0.0
        assert summary.detection_frequency(0, "a") == 0.0
        assert summary.detection_frequency(0, "b") == 7 / 12
        for statistic in (
            summary.conditional_correlation, summary.conditional_correlation_se,
            summary.fair_sampling,
        ):
            with pytest.raises(ZeroProbabilityError):
                statistic(0)

    @pytest.mark.parametrize("n_trials", [0, 2.5, True])
    def test_trial_count_is_a_positive_integer(self, n_trials):
        """An empty summary would divide every statistic by zero."""
        with pytest.raises(InputValidationError, match="n_trials"):
            SimulationSummary(n_trials, ((Z_AXIS, X_AXIS),), np.zeros((1, 4, 4)), 0)

    def test_negative_cells_are_refused(self):
        cells = HAND_CELLS.copy()
        cells[0, 0], cells[0, 1] = -1, 7
        with pytest.raises(InputValidationError, match="negative"):
            _hand_summary(cells)


def _reference_tallies(model, settings, size, seed, chunk_index):
    """Per-pair loop on a fully filled sample: alignments taken anew for each
    call, registered values via np.where, then separate 9-bin registered and
    4-bin possession bincounts."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))
    axes, u_a, u_b = model.sampler(rng, size)
    registered = np.zeros((len(settings), 3, 3), dtype=np.int64)
    possession = np.zeros((len(settings), 2, 2), dtype=np.int64)
    for s_idx, (a, b) in enumerate(settings):
        a_vec, b_vec = effective(model, "a", a), effective(model, "b", b)
        value_a = np.asarray(model.possess_a(axes @ a_vec), dtype=np.int64)
        value_b = np.asarray(model.possess_b(axes @ b_vec), dtype=np.int64)
        reg_a = np.where(model.detect_a(axes @ a_vec, u_a), value_a, 0)
        reg_b = np.where(model.detect_b(axes @ b_vec, u_b), value_b, 0)
        cells = (reg_a + 1) * 3 + (reg_b + 1)
        registered[s_idx] = np.bincount(cells, minlength=9).reshape(3, 3)
        cells = (value_a + 1) // 2 * 2 + (value_b + 1) // 2
        possession[s_idx] = np.bincount(cells, minlength=4).reshape(2, 2)
    return registered, possession


def _int_model():
    """Custom model whose possession is int64 and whose detection is a
    non-bool 0/1 array."""

    def possess(alignment):
        return np.where(alignment >= 0.25, 1, -1).astype(np.int64)

    def detect(alignment, u):
        return (u < 0.4 + 0.5 * np.abs(alignment)).astype(np.int32)

    return MicrostateModel("int", possess, possess, detect, detect)


def _counting(model):
    """The model with every response callable counting its calls."""
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn)
            return fn(*args)

        return wrapper

    wrapped = dataclasses.replace(
        model,
        possess_a=counted(model.possess_a),
        possess_b=counted(model.possess_b),
        detect_a=counted(model.detect_a),
        detect_b=counted(model.detect_b),
    )
    return wrapped, calls


def _chsh_rectangle(setting):
    return (setting.a, setting.a_prime), (setting.b, setting.b_prime)


def _pairs(rectangles):
    """The pairs of a run of rectangles, in tally order."""
    return [(a, b) for side_a, side_b in rectangles for a in side_a for b in side_b]


def _pair_sets():
    rng = np.random.default_rng(71)
    random_setting = ChshSetting(*(random_direction(rng) for _ in range(4)))
    distinct = [((random_direction(rng),), (random_direction(rng),)) for _ in range(4)]
    a, b, c, d = (random_direction(rng) for _ in range(4))
    down = Direction(0.0, 0.0, -1.0)
    z_pairs = ((Z_AXIS, Z_AXIS), (down, Z_AXIS), (Z_AXIS, down), (down, down))
    # (rectangles, distinct directions on side A and on side B, components
    # read without a frame)
    return {
        "chsh-tsirelson": ([_chsh_rectangle(ChshSetting.tsirelson())], (2, 2),
                           (True, False, True)),
        "chsh-random": ([_chsh_rectangle(random_setting)], (2, 2), (True, True, True)),
        "distinct": (distinct, (4, 4), (True, True, True)),
        "z-only": ([((x,), (y,)) for x, y in z_pairs], (2, 2), (False, False, True)),
        "one-by-three": ([((a,), (b, c, d))], (1, 3), (True, True, True)),
        "repeated-pair": ([((a,), (b,)), ((c,), (d,)), ((a,), (b,)), ((a, c), (b,))], (2, 2),
                          (True, True, True)),
    }


class TestChunkTallies:
    @pytest.mark.parametrize(
        "factory",
        [gisin_gisin_model, sign_model, constant_model, lambda: random_microstate_model(3), _int_model],
        ids=["gisin-gisin", "sign", "constant", "random-3", "int"],
    )
    @pytest.mark.parametrize("size", [lhv.CHUNK_SIZE, 1234, lhv._BLOCK + 1, 1])
    @pytest.mark.parametrize(
        "pair_set",
        ["chsh-tsirelson", "chsh-random", "distinct", "z-only", "one-by-three", "repeated-pair"],
    )
    def test_fused_cells_match_per_pair_reference(self, factory, size, pair_set):
        """Cells read off each rectangle's joint count, from the sample filled
        as the run reads it, equal those of a fully filled sample, and the
        per-pair reference on it."""
        rectangles, (directions_a, directions_b), plain_reads = _pair_sets()[pair_set]
        settings = _pairs(rectangles)
        model, calls = _counting(factory())
        turned, reads = lhv._effective_rectangles(model, rectangles)
        if model.frame_a is None:
            assert reads == plain_reads
        cells = lhv._chunk_tallies(model, turned, size, 5, 3, reads)
        # each side's possess and detect run once per distinct direction per block
        calls_per_block = 2 * (directions_a + directions_b)
        assert len(calls) == calls_per_block * math.ceil(size / lhv._BLOCK)
        full = lhv._chunk_tallies(factory(), turned, size, 5, 3, (True, True, True))
        np.testing.assert_array_equal(cells, full)
        registered, possession = _reference_tallies(factory(), settings, size, 5, 3)
        assert cells.shape == (len(settings), 4, 4)
        summary = SimulationSummary(size, tuple(settings), cells, 5)
        np.testing.assert_array_equal(summary.tallies, registered)
        # code = 2 * detected + positive, so axes 2 and 4 are the possessed signs
        np.testing.assert_array_equal(cells.reshape(-1, 2, 2, 2, 2).sum(axis=(1, 3)), possession)
        assert cells.sum() == len(settings) * size

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_each_worker_thread_reuses_its_sampler_buffers(self, n_workers):
        """The sampler runs once per block, and every block of one thread
        draws into the same block-sized buffers."""
        calls = []

        def sampler(rng, count, *, out=None, reads=(True, True, True)):
            calls.append((threading.get_ident(), out))  # held, so no id is reused
            assert reads == (True, False, True)  # the preset lies in the x-z plane
            return sample_hidden_uniform(rng, count, out=out, reads=reads)

        model = dataclasses.replace(gisin_gisin_model(), sampler=sampler)
        setting = ChshSetting.tsirelson()
        summary = run_experiment(model, chsh_pairs(setting), 5 * lhv.CHUNK_SIZE + 7, 3, n_workers)
        plain = run_experiment(gisin_gisin_model(), chsh_pairs(setting), 5 * lhv.CHUNK_SIZE + 7, 3)
        np.testing.assert_array_equal(summary.tallies, plain.tallies)
        # 4 blocks per full chunk, and 1 for the 7-trial chunk
        assert len(calls) == 5 * lhv.CHUNK_SIZE // lhv._BLOCK + 1 == 21
        buffers_by_thread = {}
        for thread, buffers in calls:
            assert buffers_by_thread.setdefault(thread, buffers) is buffers
            assert len(buffers[0]) == len(buffers[1]) == lhv._BLOCK

    def test_a_response_cannot_write_into_its_alignment(self):
        """Alignments are shared between callables, so they are read-only."""

        def negate_in_place(alignment):
            alignment *= -1.0
            return np.sign(alignment)

        model = dataclasses.replace(sign_model(), possess_a=negate_in_place)
        with pytest.raises(ValueError, match="read-only"):
            run_experiment(model, [(Z_AXIS, X_AXIS)], 100, 1)


class _Merged:
    """Work result that counts how many results the fold has added."""

    def __init__(self, value, log):
        self.value = value
        self.log = log

    def __radd__(self, total):
        self.log["merged"] += 1
        return total + self.value


class TestOrderedSum:
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_bounded_in_flight_and_exact(self, n_workers):
        log = {"merged": 0, "ahead": 0}

        def jobs():
            for index in range(1000):
                log["ahead"] = max(log["ahead"], index - log["merged"])
                yield index

        total = lhv._ordered_sum(lambda job: _Merged(job * job, log), jobs(), n_workers)
        assert total == sum(i * i for i in range(1000))
        assert log["merged"] == 1000
        # a job is pulled only while fewer than 2 * n_workers are unmerged
        assert log["ahead"] < 2 * n_workers

    def test_worker_error_propagates(self):
        def work(job):
            if job == 7:
                raise ZeroProbabilityError("boom")
            return job

        with pytest.raises(ZeroProbabilityError):
            lhv._ordered_sum(work, range(100), 2)


class TestWorkerCap:
    """The fold gets min(workers, chunks, usable CPUs); the fold is replaced
    by a recorder that runs the jobs serially, so no thread is started."""

    @pytest.mark.parametrize(
        "affinity, cpu_count, n_chunks, n_workers, expected",
        [
            ({0, 1, 2}, 8, 5, 5000, 3),
            ({0, 1, 2}, 8, 2, 5000, 2),
            ({0, 1, 2}, 8, 5, 2, 2),
            (None, 4, 5, 5000, 4),
            (None, None, 5, 5000, 1),
        ],
    )
    def test_workers_capped(self, monkeypatch, affinity, cpu_count, n_chunks, n_workers, expected):
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        counts = []
        ordered_sum = lhv._ordered_sum

        def record(work, jobs, workers):
            counts.append(workers)
            return ordered_sum(work, jobs, 1)

        monkeypatch.setattr(lhv, "_ordered_sum", record)
        n_trials = (n_chunks - 1) * lhv.CHUNK_SIZE + 1
        summary = run_experiment(sign_model(), [(Z_AXIS, X_AXIS)], n_trials, 4, n_workers)
        assert counts == [expected]
        assert summary.n_trials == n_trials


class TestSummaryChsh:
    def test_requires_four_pairs(self):
        summary = run_experiment(gisin_gisin_model(), [(Z_AXIS, Z_AXIS)], 100, 1)
        with pytest.raises(InputValidationError):
            summary_chsh(summary)

    def test_micro_chsh_roundtrip(self):
        setting = ChshSetting.tsirelson()
        summary = run_experiment(gisin_gisin_model(), chsh_pairs(setting), 50000, 31)
        value, sigma = summary_chsh(summary)
        assert value == simulate_chsh(gisin_gisin_model(), setting, 50000, 31).micro_chsh
        assert 0.0 < sigma < 0.02


class TestFairSampling:
    def test_always_detecting_model_is_fair(self):
        result = fair_sampling_check(sign_model(), plane(0.0), plane(45.0), 50000, 41)
        assert result.divergence == 0.0
        assert result.all_sample_freq == result.detected_freq

    def test_gisin_gisin_unfair_at_45_degrees(self):
        """Possession pair frequency theta/(2 pi) = 1/8 against the
        registered-pair frequency (1 - cos theta)/4."""
        result = fair_sampling_check(gisin_gisin_model(), plane(0.0), plane(45.0), 200000, 42)
        assert result.all_sample_freq == pytest.approx(0.125, abs=0.01)
        assert result.detected_freq == pytest.approx((1.0 - math.cos(math.pi / 4.0)) / 4.0, abs=0.01)
        assert result.divergence > 0.03

    def test_gisin_gisin_fair_at_90_degrees(self):
        result = fair_sampling_check(gisin_gisin_model(), plane(0.0), plane(90.0), 200000, 43)
        assert result.divergence == pytest.approx(0.0, abs=0.01)

    def test_no_detected_pairs_raises(self):
        model = MicrostateModel(
            name="dark", possess_a=_possess_plus, possess_b=_possess_plus,
            detect_a=_never_detect, detect_b=_always_detect,
        )
        with pytest.raises(ZeroProbabilityError):
            fair_sampling_check(model, Z_AXIS, Z_AXIS, 100, 1)


def _b_misses_model():
    """gisin-gisin with B registering when u_b < 0.7, independently of lam."""
    return dataclasses.replace(
        gisin_gisin_model(), name="b-misses", detect_b=lambda alignment, u: u < 0.7
    )


class TestSimulateChsh:
    def test_tsirelson_statistics(self):
        sim = simulate_chsh(gisin_gisin_model(), ChshSetting.tsirelson(), 200000, 51)
        assert sim.conditional_chsh == pytest.approx(
            2.0 * math.sqrt(2.0), abs=4.0 * sim.conditional_chsh_error
        )
        assert sim.micro_chsh == pytest.approx(
            math.sqrt(2.0), abs=4.0 * sim.micro_chsh_error
        )
        assert sim.micro_chsh <= 2.0
        # the weighted functional built from measured frequencies must agree
        # with the direct all-trials estimate
        gap = abs(sim.weighted_chsh_predicted - sim.micro_chsh)
        assert gap <= 4.0 * (sim.weighted_chsh_predicted_error + sim.micro_chsh_error)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_weighted_prediction_when_b_misses_at_random(self, seed):
        """gisin-gisin's B always registers, so there the prediction equals
        the micro CHSH count for count.  Here B registers when u_b < 0.7,
        independently of lam, so the prediction is an estimate of its own,
        and the two sides' detections are still independent."""
        sim = simulate_chsh(_b_misses_model(), ChshSetting.tsirelson(), 200000, seed)
        gap = abs(sim.weighted_chsh_predicted - sim.micro_chsh)
        assert 0.0 < gap <= 4.0 * (sim.weighted_chsh_predicted_error + sim.micro_chsh_error)

    @pytest.mark.parametrize("factory", [gisin_gisin_model, _b_misses_model])
    def test_fair_sampling_check_equals_the_ab_rows(self, factory):
        """One pair run alone and the ab pair of a CHSH run read the same
        cells, so their fair-sampling values agree bit for bit."""
        setting = ChshSetting.tsirelson()
        result = fair_sampling_check(factory(), setting.a, setting.b, 70000, 7)
        sim = simulate_chsh(factory(), setting, 70000, 7)
        rows = {metric: value for metric, pair, value, _ in sim.rows if pair == "ab"}
        assert rows["all_sample_pair_frequency"] == result.all_sample_freq
        assert rows["detected_pair_frequency"] == result.detected_freq
        assert rows["fair_sampling_divergence"] == result.divergence
        assert sim.summary.settings == chsh_pairs(setting)

    def test_role_frequency_errors_divide_by_n(self):
        """Both pairs a role enters count the same n trials, so the
        prediction propagates each role's detection_frequency_se."""
        sim = simulate_chsh(_b_misses_model(), ChshSetting.tsirelson(), 50000, 5)
        summary = sim.summary
        role = [(0, "a"), (2, "a"), (0, "b"), (1, "b")]  # a, a', b, b'
        pa, pap, pb, pbp = (summary.detection_frequency(i, side) for i, side in role)
        se_pa, se_pap, se_pb, se_pbp = (summary.detection_frequency_se(i, side) for i, side in role)
        assert se_pb == math.sqrt(pb * (1.0 - pb) / 50000) > 0.0
        c1, c2, c3, c4 = (summary.conditional_correlation(i) for i in range(4))
        s1, s2, s3, s4 = (summary.conditional_correlation_se(i) for i in range(4))
        expected = math.sqrt(
            (pa * pb * s1) ** 2 + (pa * pbp * s2) ** 2 + (pap * pb * s3) ** 2
            + (pap * pbp * s4) ** 2 + ((pb * c1 - pbp * c2) * se_pa) ** 2
            + ((pb * c3 + pbp * c4) * se_pap) ** 2
            + ((abs(pa * c1) + abs(pap * c3)) * se_pb) ** 2
            + ((abs(pa * c2) + abs(pap * c4)) * se_pbp) ** 2
        )
        assert sim.weighted_chsh_predicted_error == pytest.approx(expected, rel=1e-12)

    def test_fields_match_summary(self):
        sim = simulate_chsh(gisin_gisin_model(), ChshSetting.tsirelson(), 30000, 52)
        rows = {(metric, pair): (value, error) for metric, pair, value, error in sim.rows}
        summary = sim.summary
        for i, pair in enumerate(lhv.PAIR_NAMES):
            assert rows["micro_correlation", pair] == (
                summary.micro_correlation(i), summary.micro_correlation_se(i)
            )
            assert rows["conditional_correlation", pair] == (
                summary.conditional_correlation(i), summary.conditional_correlation_se(i)
            )
            assert rows["detection_frequency_a", pair] == (
                summary.detection_frequency(i, "a"), summary.detection_frequency_se(i, "a")
            )
            assert rows["detection_frequency_b", pair] == (1.0, 0.0)
            all_sample, _ = rows["all_sample_pair_frequency", pair]
            detected, _ = rows["detected_pair_frequency", pair]
            assert 0.0 <= all_sample <= 1.0
            assert rows["fair_sampling_divergence", pair][0] == abs(all_sample - detected)
        for name in ("micro", "conditional"):
            values = [rows[f"{name}_correlation", pair][0] for pair in lhv.PAIR_NAMES]
            assert getattr(sim, f"{name}_chsh") == standard_chsh_lhs(*values)

    @pytest.mark.parametrize(
        "model, setting",
        [
            (gisin_gisin_model(), ChshSetting.tsirelson()),
            (
                random_microstate_model(5),
                ChshSetting(
                    Z_AXIS, X_AXIS,
                    Direction.normalized(0.6, 0.8, 0.0), Direction.normalized(0.0, 0.6, 0.8),
                ),
            ),
        ],
        ids=["gisin-gisin", "random-frames-out-of-plane"],
    )
    def test_chsh_fields_equal_their_rows(self, model, setting):
        sim = simulate_chsh(model, setting, 40000, 53)
        per_pair = [
            "micro_correlation", "conditional_correlation", "detection_frequency_a",
            "detection_frequency_b", "all_sample_pair_frequency", "detected_pair_frequency",
            "fair_sampling_divergence",
        ]
        chsh = ["micro_chsh", "conditional_chsh", "weighted_chsh_predicted"]
        assert [row[:2] for row in sim.rows] == [
            (metric, pair) for metric in per_pair for pair in lhv.PAIR_NAMES
        ] + [(name, "") for name in chsh]
        for (_, _, value, error), name in zip(sim.rows[-3:], chsh):
            assert (value, error) == (getattr(sim, name), getattr(sim, f"{name}_error"))


class TestRandomModels:
    def test_reproducible_construction(self):
        settings = [(Z_AXIS, X_AXIS)]
        first = run_experiment(random_microstate_model(77), settings, 20000, 1)
        second = run_experiment(random_microstate_model(77), settings, 20000, 1)
        np.testing.assert_array_equal(first.tallies, second.tallies)

    def test_micro_chsh_respects_the_local_bound(self):
        """Every deterministic local model keeps the all-trials combination
        at or below 2; checked here on a small model/setting sample."""
        rng = np.random.default_rng(61)
        for model_seed in range(5):
            model = random_microstate_model(model_seed)
            for _ in range(5):
                setting = ChshSetting(*(random_direction(rng) for _ in range(4)))
                summary = run_experiment(model, chsh_pairs(setting), 20000, 600 + model_seed)
                value, sigma = summary_chsh(summary)
                assert value <= 2.0 + 4.0 * sigma
