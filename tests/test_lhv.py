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
    MicrostateEnsemble,
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
    mixture_probabilities,
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


def _possess_plus(axes, direction):
    return np.ones(len(axes), dtype=np.int64)


def _never_detect(axes, u, direction):
    return np.zeros(len(u), dtype=bool)


def _always_detect(axes, u, direction):
    return np.ones(len(u), dtype=bool)


def registered_outcome(model, side, axis, u, direction):
    """Registered outcome in {-1, 0, +1} of one microstate, from a side's
    batch callables on one-row arrays."""
    possess = getattr(model, f"possess_{side}")
    detect = getattr(model, f"detect_{side}")
    axes = axis.as_array()[None, :]
    value = int(possess(axes, direction.as_array())[0])
    return value if detect(axes, np.array([u]), direction.as_array())[0] else 0


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


class TestMixtureProbabilities:
    def test_certain_detection(self):
        result = mixture_probabilities(
            MicrostateEnsemble((0.3, 0.7), (1.0, 1.0), (1.0, 0.0))
        )
        assert result == pytest.approx((0.3, 1.0, 0.3))

    def test_mixed_detection(self):
        """0.5 * 0.4 * 1 = 0.2 absolute over 0.6 detected is one third."""
        result = mixture_probabilities(
            MicrostateEnsemble((0.5, 0.5), (0.4, 0.8), (1.0, 0.0))
        )
        assert result.absolute == pytest.approx(0.2, abs=1e-12)
        assert result.detection == pytest.approx(0.6, abs=1e-12)
        assert result.conditional == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_product_identity_random_ensembles(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = rng.integers(1, 6)
            weights = rng.uniform(0.1, 1.0, size=n)
            weights /= weights.sum()
            detect = rng.uniform(0.1, 1.0, size=n)
            possess = rng.integers(0, 2, size=n).astype(float)
            result = mixture_probabilities(
                MicrostateEnsemble(tuple(weights), tuple(detect), tuple(possess))
            )
            assert result.absolute == pytest.approx(
                result.detection * result.conditional, rel=1e-12, abs=1e-15
            )

    def test_never_registering_ensemble(self):
        with pytest.raises(ZeroProbabilityError):
            mixture_probabilities(MicrostateEnsemble((1.0,), (0.0,), (1.0,)))

    def test_ensemble_validation(self):
        with pytest.raises(InputValidationError):
            MicrostateEnsemble((0.6, 0.6), (1.0, 1.0), (1.0, 0.0))
        with pytest.raises(InputValidationError):
            MicrostateEnsemble((0.5, 0.5), (1.0, 1.2), (1.0, 0.0))
        with pytest.raises(InputValidationError):
            MicrostateEnsemble((0.5, 0.5), (1.0, 1.0), (0.5, 0.5))


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

    def test_summary_validation(self):
        with pytest.raises(InputValidationError):
            SimulationSummary(
                n_trials=10,
                settings=((Z_AXIS, Z_AXIS),),
                tallies=np.zeros((1, 3, 3), dtype=np.int64),
                seed=0,
            )
        with pytest.raises(InputValidationError):
            SimulationSummary(
                n_trials=10,
                settings=((Z_AXIS, Z_AXIS),),
                tallies=np.zeros((2, 2), dtype=np.int64),
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


def _reference_tallies(model, direction_pairs, size, seed, chunk_index):
    """Per-pair loop: registered values via np.where, then separate 9-bin
    registered and 4-bin possession bincounts."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))
    axes, u_a, u_b = model.sampler(rng, size)
    registered = np.zeros((len(direction_pairs), 3, 3), dtype=np.int64)
    possession = np.zeros((len(direction_pairs), 2, 2), dtype=np.int64)
    for s_idx, (a_vec, b_vec) in enumerate(direction_pairs):
        value_a = np.asarray(model.possess_a(axes, a_vec), dtype=np.int64)
        value_b = np.asarray(model.possess_b(axes, b_vec), dtype=np.int64)
        reg_a = np.where(model.detect_a(axes, u_a, a_vec), value_a, 0)
        reg_b = np.where(model.detect_b(axes, u_b, b_vec), value_b, 0)
        cells = (reg_a + 1) * 3 + (reg_b + 1)
        registered[s_idx] = np.bincount(cells, minlength=9).reshape(3, 3)
        cells = (value_a + 1) // 2 * 2 + (value_b + 1) // 2
        possession[s_idx] = np.bincount(cells, minlength=4).reshape(2, 2)
    return registered, possession


def _int_model():
    """Custom model whose possession is int64 and whose detection is a
    non-bool 0/1 array."""

    def possess(axes, direction):
        return np.where(axes @ direction >= 0.25, 1, -1).astype(np.int64)

    def detect(axes, u, direction):
        return (u < 0.4 + 0.5 * np.abs(axes @ direction)).astype(np.int32)

    return MicrostateModel("int", possess, possess, detect, detect)


def _counting(model):
    """The model with every response callable counting its calls."""
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn)
            return fn(*args)

        return wrapper

    wrapped = MicrostateModel(
        model.name,
        counted(model.possess_a),
        counted(model.possess_b),
        counted(model.detect_a),
        counted(model.detect_b),
        model.sampler,
    )
    return wrapped, calls


def _pair_sets():
    rng = np.random.default_rng(71)
    random_setting = ChshSetting(*(random_direction(rng) for _ in range(4)))
    distinct = [(random_direction(rng), random_direction(rng)) for _ in range(4)]
    # (pairs, distinct directions per side)
    return {
        "chsh-tsirelson": (chsh_pairs(ChshSetting.tsirelson()), 2),
        "chsh-random": (chsh_pairs(random_setting), 2),
        "distinct": (tuple(distinct), 4),
    }


class TestChunkTallies:
    @pytest.mark.parametrize(
        "factory",
        [gisin_gisin_model, sign_model, constant_model, lambda: random_microstate_model(3), _int_model],
        ids=["gisin-gisin", "sign", "constant", "random-3", "int"],
    )
    @pytest.mark.parametrize("size", [lhv.CHUNK_SIZE, 1234, lhv._BLOCK + 1, 1])
    @pytest.mark.parametrize("pair_set", ["chsh-tsirelson", "chsh-random", "distinct"])
    def test_fused_cells_match_per_pair_reference(self, factory, size, pair_set):
        settings, directions_per_side = _pair_sets()[pair_set]
        pairs = [(a.as_array(), b.as_array()) for a, b in settings]
        model, calls = _counting(factory())
        cells = lhv._chunk_tallies(model, pairs, size, 5, 3)
        # each side's possess and detect run once per distinct direction per block
        assert len(calls) == 4 * directions_per_side * math.ceil(size / lhv._BLOCK)
        registered, possession = _reference_tallies(factory(), pairs, size, 5, 3)
        assert cells.shape == (len(pairs), 4, 4)
        np.testing.assert_array_equal(lhv._registered(cells), registered)
        # code = 2 * detected + positive, so axes 2 and 4 are the possessed signs
        np.testing.assert_array_equal(cells.reshape(-1, 2, 2, 2, 2).sum(axis=(1, 3)), possession)
        assert cells.sum() == len(pairs) * size


    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_each_worker_thread_reuses_its_sampler_buffers(self, n_workers):
        """The sampler runs once per chunk, and every chunk of one thread
        draws into the same buffers."""
        calls = []

        def sampler(rng, count, *, out=None):
            calls.append((threading.get_ident(), out))  # held, so no id is reused
            return sample_hidden_uniform(rng, count, out=out)

        model = dataclasses.replace(gisin_gisin_model(), sampler=sampler)
        setting = ChshSetting.tsirelson()
        summary = run_experiment(model, chsh_pairs(setting), 5 * lhv.CHUNK_SIZE + 7, 3, n_workers)
        plain = run_experiment(gisin_gisin_model(), chsh_pairs(setting), 5 * lhv.CHUNK_SIZE + 7, 3)
        np.testing.assert_array_equal(summary.tallies, plain.tallies)
        assert len(calls) == 6
        buffers_by_thread = {}
        for thread, buffers in calls:
            assert buffers_by_thread.setdefault(thread, buffers) is buffers


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

    def test_fields_match_summary(self):
        sim = simulate_chsh(gisin_gisin_model(), ChshSetting.tsirelson(), 30000, 52)
        for i in range(4):
            assert sim.micro_correlations[i] == sim.summary.micro_correlation(i)
            assert sim.conditional_correlations[i] == sim.summary.conditional_correlation(i)
            assert sim.detection_frequencies_a[i] == sim.summary.detection_frequency(i, "a")
            assert sim.detection_frequencies_b[i] == 1.0
            assert 0.0 <= sim.all_sample_pair_frequencies[i] <= 1.0
            assert sim.divergences[i] == pytest.approx(
                abs(sim.all_sample_pair_frequencies[i] - sim.detected_pair_frequencies[i])
            )
        assert sim.micro_chsh == standard_chsh_lhs(*sim.micro_correlations)
        assert sim.conditional_chsh == standard_chsh_lhs(*sim.conditional_correlations)


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
