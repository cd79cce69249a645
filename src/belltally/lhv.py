"""Deterministic local models with no-registration outcomes, and their
Monte Carlo statistics.

A microstate is a hidden variable (lam, u_a, u_b): a point lam on the unit
sphere plus one auxiliary uniform coordinate per side.  A model is local by
construction: each side's response depends only on its own direction and
the hidden variable.  Responses factor into a possessed value in {-1, +1}
(the value the side would register) and a detection indicator; the
registered outcome is the possessed value when detected, else 0.

Reproducibility scheme
----------------------
Trials are processed in fixed chunks of 65536.  Chunk ``i`` draws from
``numpy.random.default_rng(SeedSequence(seed, spawn_key=(i,)))`` and every
chunk evaluates all settings on its own sample, so tallies are pure
per-chunk functions of (seed, chunk index).  Merging is integer addition in
chunk order, with at most two chunks per worker in flight, which makes
results bit-identical for any worker count and keeps memory bounded for
any trial count.

Tally scheme
------------
A chunk is sampled once, into buffers its worker thread reuses for every
chunk, then evaluated in row blocks of 16384 trials whose temporaries the
allocator reuses.  Within a block each side evaluates its possession and
detection callables once per distinct direction and encodes every trial as
a 2-bit code, 2 * detected + (possessed value > 0).  Each pair then adds
one 16-bin bincount over (A code, B code) per block into the chunk's
integer cells; the 3x3 registered-outcome tally and the 2x2 possession
tally are both sums over those 16 cells.

The reference detection-loophole model (``gisin_gisin_model``) registers
A = sign(a.lam) with probability |a.lam| and always registers
B = -sign(b.lam).  Its registered-trials statistics reproduce the singlet
correlation -a.b while only half of the A-side trials register.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

from .chsh import ChshSetting, _combination
from .errors import InputValidationError, ZeroProbabilityError
from .quantum import ALGEBRA_TOL, Direction

CHUNK_SIZE = 1 << 16
_BLOCK = 1 << 14  # rows per block: temporaries are reused, not page-faulted anew

# Per-correlation pair names for a CHSH run, in tally order.
PAIR_NAMES = ("ab", "ab_prime", "a_prime_b", "a_prime_b_prime")

# respond = possess * detect, evaluated on batches:
#   possess(axes (n,3), direction (3,)) -> (n,) values in {-1, +1}
#   detect(axes (n,3), u (n,), direction (3,)) -> (n,) booleans (or 0/1)
# Each callable runs once per row block for every distinct direction of
# its side, however many pairs share that direction, so it must be row-wise
# (as chunking already requires); its results are folded into the 16
# (A code, B code) cells described in the module docstring.
PossessFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
DetectFn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
# sampler(rng, count, *, out=None) -> (axes, u_a, u_b), as sample_hidden_uniform.
SamplerFn = Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]]
# Each worker thread's sampler buffers, reused by every chunk it evaluates.
_worker = threading.local()

_OUTCOME_VALUES = np.array([-1.0, 0.0, 1.0])
_PRODUCTS = np.outer(_OUTCOME_VALUES, _OUTCOME_VALUES)

# Side code 2 * detected + positive -> registered outcome index into
# _OUTCOME_VALUES: undetected codes register 0, detected ones their value.
_CODE_TO_OUTCOME = np.array([[0, 1, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.int64)


def _sampler_buffers(count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.empty((count, 4)), np.empty((count, 3)), np.empty((3, min(count, _BLOCK)))


def sample_hidden_uniform(
    rng: np.random.Generator, count: int, *, out: tuple[np.ndarray, ...] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lam uniform on the sphere (area-preserving map), u_a and u_b uniform.

    Draw order is fixed (z, azimuth, u_a, u_b per trial) so samples are a
    pure function of the generator state; filling axes in row blocks keeps it.
    out, if given, is the (draws, axes, scratch) of _sampler_buffers(n) for an
    n >= count, and the results are views of it; otherwise they are new arrays.
    """
    draws, axes, scratch = _sampler_buffers(count) if out is None else out
    draws, axes = draws[:count], axes[:count]
    rng.random(out=draws)
    for start in range(0, count, _BLOCK):
        block, rows = draws[start : start + _BLOCK], axes[start : start + _BLOCK]
        azimuth, trig, radial = scratch[:, : len(block)]
        z = rows[:, 2]
        np.multiply(2.0, block[:, 0], out=z)
        z -= 1.0
        np.multiply(2.0 * math.pi, block[:, 1], out=azimuth)
        np.subtract(1.0, np.multiply(z, z, out=radial), out=radial)
        np.sqrt(np.maximum(0.0, radial, out=radial), out=radial)
        np.multiply(radial, np.cos(azimuth, out=trig), out=rows[:, 0])
        np.multiply(radial, np.sin(azimuth, out=trig), out=rows[:, 1])
    return axes, draws[:, 2], draws[:, 3]


@dataclass(frozen=True)
class MicrostateModel:
    """Deterministic local responses split into possession and detection."""

    name: str
    possess_a: PossessFn
    possess_b: PossessFn
    detect_a: DetectFn
    detect_b: DetectFn
    sampler: SamplerFn = sample_hidden_uniform


def _sign_along(axes: np.ndarray, direction: np.ndarray) -> np.ndarray:
    # int8 sign with the zero set mapped to +1; the set has measure zero.
    # Arithmetic on the 0/1 view, because np.where on a random mask is
    # several times slower.
    return 2 * (axes @ direction >= 0.0).view(np.int8) - 1


def _negative_sign_along(axes: np.ndarray, direction: np.ndarray) -> np.ndarray:
    return 1 - 2 * (axes @ direction >= 0.0).view(np.int8)


def _constant_plus(axes: np.ndarray, direction: np.ndarray) -> np.ndarray:
    return np.ones(len(axes), dtype=np.int64)


def _always_detect(axes: np.ndarray, u: np.ndarray, direction: np.ndarray) -> np.ndarray:
    return np.ones(len(u), dtype=bool)


def _detect_if_aligned(axes: np.ndarray, u: np.ndarray, direction: np.ndarray) -> np.ndarray:
    alignment = axes @ direction
    return u < np.abs(alignment, out=alignment)


def _rotated_sign(axes: np.ndarray, direction: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    return _sign_along(axes, rotation @ direction)


def _threshold_detect(
    axes: np.ndarray,
    u: np.ndarray,
    direction: np.ndarray,
    rotation: np.ndarray,
    base: float,
    slope: float,
) -> np.ndarray:
    # In place, so one temporary serves the whole chain of operations.
    alignment = axes @ (rotation @ direction)
    np.abs(alignment, out=alignment)
    alignment *= slope
    alignment += base
    return u < np.clip(alignment, 0.0, 1.0, out=alignment)


def gisin_gisin_model() -> MicrostateModel:
    """Reference detection-loophole model: A registers sign(a.lam) with
    probability |a.lam|, B always registers -sign(b.lam)."""
    return MicrostateModel(
        name="gisin-gisin",
        possess_a=_sign_along,
        possess_b=_negative_sign_along,
        detect_a=_detect_if_aligned,
        detect_b=_always_detect,
    )


def sign_model() -> MicrostateModel:
    """Always-detecting anticorrelated sign responses."""
    return MicrostateModel(
        name="sign",
        possess_a=_sign_along,
        possess_b=_negative_sign_along,
        detect_a=_always_detect,
        detect_b=_always_detect,
    )


def constant_model() -> MicrostateModel:
    """Both sides always register +1; useful as a degenerate check."""
    return MicrostateModel(
        name="constant",
        possess_a=_constant_plus,
        possess_b=_constant_plus,
        detect_a=_always_detect,
        detect_b=_always_detect,
    )


def random_microstate_model(seed: int, name: str | None = None) -> MicrostateModel:
    """Random deterministic local model: rotated sign possession on each side
    with a random affine detection threshold in the rotated alignment."""
    rng = np.random.default_rng(seed)
    rotations = []
    for _ in range(2):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        rotations.append(q * np.sign(np.diag(r)))
    base_a, base_b = rng.uniform(0.3, 1.0, size=2)
    slope_a, slope_b = rng.uniform(-0.3, 0.7, size=2)
    return MicrostateModel(
        name=name if name is not None else f"random-{seed}",
        possess_a=partial(_rotated_sign, rotation=rotations[0]),
        possess_b=partial(_rotated_sign, rotation=rotations[1]),
        detect_a=partial(_threshold_detect, rotation=rotations[0], base=base_a, slope=slope_a),
        detect_b=partial(_threshold_detect, rotation=rotations[1], base=base_b, slope=slope_b),
    )


@dataclass(frozen=True)
class MicrostateEnsemble:
    """Finite mixture of microstates for one outcome of one observable:
    mixture weights, per-microstate detection probabilities, and 0/1
    possession indicators."""

    weights: tuple[float, ...]
    micro_detect: tuple[float, ...]
    micro_possess: tuple[float, ...]

    def __post_init__(self) -> None:
        weights = tuple(float(w) for w in self.weights)
        detect = tuple(float(d) for d in self.micro_detect)
        possess = tuple(float(p) for p in self.micro_possess)
        if not len(weights) == len(detect) == len(possess) or len(weights) == 0:
            raise InputValidationError("ensemble fields must share a positive length")
        if any(w < 0.0 for w in weights):
            raise InputValidationError("mixture weights must be nonnegative")
        if abs(sum(weights) - 1.0) > ALGEBRA_TOL:
            raise InputValidationError(f"mixture weights sum to {sum(weights)!r}, expected 1")
        if any(not 0.0 <= d <= 1.0 for d in detect):
            raise InputValidationError("micro detection probabilities must lie in [0, 1]")
        if any(p not in (0.0, 1.0) for p in possess):
            raise InputValidationError("possession indicators must be 0 or 1")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "micro_detect", detect)
        object.__setattr__(self, "micro_possess", possess)


class MixtureProbabilities(NamedTuple):
    absolute: float
    detection: float
    conditional: float


def mixture_probabilities(ensemble: MicrostateEnsemble) -> MixtureProbabilities:
    """Absolute, detection, and conditional probabilities of the ensemble's
    outcome, satisfying absolute = detection x conditional."""
    absolute = sum(
        w * d * p
        for w, d, p in zip(ensemble.weights, ensemble.micro_detect, ensemble.micro_possess)
    )
    detection = sum(w * d for w, d in zip(ensemble.weights, ensemble.micro_detect))
    if detection <= 0.0:
        raise ZeroProbabilityError(
            "conditional probability is undefined: the ensemble never registers"
        )
    return MixtureProbabilities(absolute, detection, absolute / detection)


@dataclass(frozen=True, eq=False)
class SimulationSummary:
    """Registered-outcome tallies for one experiment.

    tallies[s, i, j] counts trials of setting s with A outcome (-1, 0, +1)[i]
    and B outcome (-1, 0, +1)[j]; every trial evaluates every setting.
    """

    n_trials: int
    settings: tuple[tuple[Direction, Direction], ...]
    tallies: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        tallies = np.asarray(self.tallies, dtype=np.int64)
        if tallies.shape != (len(self.settings), 3, 3):
            raise InputValidationError(
                f"tallies must have shape {(len(self.settings), 3, 3)}, got {tallies.shape}"
            )
        if np.any(tallies < 0):
            raise InputValidationError("tallies cannot be negative")
        sums = tallies.sum(axis=(1, 2))
        if np.any(sums != self.n_trials):
            raise InputValidationError("each setting's tally must sum to n_trials")
        tallies.setflags(write=False)
        object.__setattr__(self, "tallies", tallies)

    def micro_correlation(self, index: int) -> float:
        """Mean product over all trials, no-registration outcomes counted as 0."""
        return float((self.tallies[index] * _PRODUCTS).sum() / self.n_trials)

    def micro_correlation_se(self, index: int) -> float:
        mean = self.micro_correlation(index)
        second = float((self.tallies[index] * _PRODUCTS**2).sum() / self.n_trials)
        return math.sqrt(max(0.0, second - mean * mean) / self.n_trials)

    def both_detected_count(self, index: int) -> int:
        block = self.tallies[index][np.ix_((0, 2), (0, 2))]
        return int(block.sum())

    def conditional_correlation(self, index: int) -> float:
        """Mean product over trials where both sides registered."""
        detected = self.both_detected_count(index)
        if detected == 0:
            raise ZeroProbabilityError(
                "conditional correlation is undefined: no doubly registered trials"
            )
        return float((self.tallies[index] * _PRODUCTS).sum() / detected)

    def conditional_correlation_se(self, index: int) -> float:
        mean = self.conditional_correlation(index)  # raises when no trial registered twice
        return math.sqrt(max(0.0, 1.0 - mean * mean) / self.both_detected_count(index))

    def detection_frequency(self, index: int, side: str) -> float:
        """Fraction of trials with a registered outcome on side "a" or "b"."""
        if side == "a":
            registered = self.tallies[index][(0, 2), :].sum()
        elif side == "b":
            registered = self.tallies[index][:, (0, 2)].sum()
        else:
            raise InputValidationError(f"side must be 'a' or 'b', got {side!r}")
        return float(registered / self.n_trials)

    def detection_frequency_se(self, index: int, side: str) -> float:
        freq = self.detection_frequency(index, side)
        return math.sqrt(freq * (1.0 - freq) / self.n_trials)


def _chunk_sizes(n_trials: int) -> Iterator[int]:
    full, rest = divmod(n_trials, CHUNK_SIZE)
    yield from repeat(CHUNK_SIZE, full)
    if rest:
        yield rest


_Job = TypeVar("_Job")


def _ordered_sum(
    work: Callable[[_Job], np.ndarray], jobs: Iterable[_Job], n_workers: int
) -> np.ndarray:
    """Sum of work(job) over jobs, added in job order.

    With several workers at most 2 * n_workers jobs are in flight: the next
    job is pulled only after the oldest result has been added, so memory
    stays bounded however many jobs there are.
    """
    if n_workers == 1:
        return sum(map(work, jobs))
    from concurrent.futures import ThreadPoolExecutor  # only simulate needs a pool
    jobs = iter(jobs)
    total = 0
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        pending = deque(pool.submit(work, job) for job in islice(jobs, 2 * n_workers))
        while pending:
            total = total + pending.popleft().result()
            pending.extend(pool.submit(work, job) for job in islice(jobs, 1))
    return total


def _chunk_tallies(
    model: MicrostateModel,
    direction_pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    size: int,
    seed: int,
    chunk_index: int,
) -> np.ndarray:
    """(pairs, 4, 4) counts of (A code, B code) for one chunk of trials."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))
    if not hasattr(_worker, "buffers"):
        _worker.buffers = _sampler_buffers(CHUNK_SIZE)
    axes, u_a, u_b = model.sampler(rng, size, out=_worker.buffers)

    def side_codes(cache, possess, detect, axes, u, direction):
        key = direction.tobytes()
        if key not in cache:
            positive = np.asarray(possess(axes, direction)) > 0
            detected = np.asarray(detect(axes, u, direction), dtype=bool)
            cache[key] = 2 * detected.view(np.uint8) + positive
        return cache[key]

    cells = np.zeros((len(direction_pairs), 16), dtype=np.int64)
    index_buffer = np.empty(min(size, _BLOCK), dtype=np.intp)
    for start in range(0, size, _BLOCK):
        rows = slice(start, start + _BLOCK)
        block, block_u_a, block_u_b = axes[rows], u_a[rows], u_b[rows]
        codes_a: dict[bytes, np.ndarray] = {}
        codes_b: dict[bytes, np.ndarray] = {}
        cell_index = index_buffer[: len(block)]
        for s_idx, (a_vec, b_vec) in enumerate(direction_pairs):
            code_a = side_codes(codes_a, model.possess_a, model.detect_a, block, block_u_a, a_vec)
            code_b = side_codes(codes_b, model.possess_b, model.detect_b, block, block_u_b, b_vec)
            np.add(4 * code_a, code_b, out=cell_index)
            cells[s_idx] += np.bincount(cell_index, minlength=16)
    return cells.reshape(-1, 4, 4)


def _registered(cells: np.ndarray) -> np.ndarray:
    """(pairs, 3, 3) registered-outcome tallies from (pairs, 4, 4) code cells."""
    return _CODE_TO_OUTCOME.T @ cells @ _CODE_TO_OUTCOME


def _run_tallies(
    model: MicrostateModel,
    settings: Sequence[tuple[Direction, Direction]],
    n_trials: int,
    seed: int,
    n_workers: int,
) -> np.ndarray:
    """(settings, 4, 4) code cells over all trials; see the module docstring."""
    if n_trials < 1:
        raise InputValidationError(f"n_trials must be positive, got {n_trials!r}")
    if int(seed) != seed or seed < 0:
        raise InputValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    if n_workers < 1:
        raise InputValidationError(f"n_workers must be positive, got {n_workers!r}")
    if len(settings) == 0:
        raise InputValidationError("at least one setting is required")
    pairs = [(a.as_array(), b.as_array()) for a, b in settings]

    def chunk(job: tuple[int, int]) -> np.ndarray:
        index, size = job
        return _chunk_tallies(model, pairs, size, int(seed), index)

    n_chunks = -(-n_trials // CHUNK_SIZE)
    # A worker beyond the usable CPUs would only hold one more chunk in memory.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_workers = min(n_workers, n_chunks, cpus or 1)
    return _ordered_sum(chunk, enumerate(_chunk_sizes(n_trials)), n_workers)


def run_experiment(
    model: MicrostateModel,
    settings: Sequence[tuple[Direction, Direction]],
    n_trials: int,
    seed: int,
    n_workers: int = 1,
) -> SimulationSummary:
    """Tally registered outcomes of a model over settings.

    The result is bit-identical for any n_workers; see the module docstring
    for the chunked substream scheme.
    """
    cells = _run_tallies(model, settings, n_trials, seed, n_workers)
    return SimulationSummary(
        n_trials=n_trials,
        settings=tuple((a, b) for a, b in settings),
        tallies=_registered(cells),
        seed=int(seed),
    )


def chsh_pairs(setting: ChshSetting) -> tuple[tuple[Direction, Direction], ...]:
    """The four correlation pairs of a CHSH run, in tally order."""
    return (
        (setting.a, setting.b),
        (setting.a, setting.b_prime),
        (setting.a_prime, setting.b),
        (setting.a_prime, setting.b_prime),
    )


def summary_chsh(summary: SimulationSummary, conditional: bool = False) -> tuple[float, float]:
    """CHSH combination and its standard error from a four-pair summary."""
    if len(summary.settings) != 4:
        raise InputValidationError("summary must hold the four CHSH correlation pairs")
    if conditional:
        corr = [summary.conditional_correlation(i) for i in range(4)]
        errors = [summary.conditional_correlation_se(i) for i in range(4)]
    else:
        corr = [summary.micro_correlation(i) for i in range(4)]
        errors = [summary.micro_correlation_se(i) for i in range(4)]
    return _combination(*corr), math.sqrt(sum(e * e for e in errors))


class FairSamplingResult(NamedTuple):
    """Possession frequency of the (+1, +1) pair over all trials, registered
    frequency of that pair among doubly detected trials, and their gap."""

    all_sample_freq: float
    detected_freq: float
    divergence: float


def _fair_sampling(cells: np.ndarray, n_trials: int) -> FairSamplingResult:
    """Fair-sampling frequencies of one pair's 4x4 code cells; the detected
    frequency is NaN when no trial registered on both sides."""
    # Codes 1 and 3 possess +1; codes 2 and 3 are detected.
    all_sample = float(cells[1::2, 1::2].sum() / n_trials)
    both_detected = int(cells[2:, 2:].sum())
    detected = float(cells[3, 3] / both_detected) if both_detected else math.nan
    return FairSamplingResult(all_sample, detected, abs(all_sample - detected))


def fair_sampling_check(
    model: MicrostateModel,
    a: Direction,
    b: Direction,
    n_trials: int,
    seed: int,
    n_workers: int = 1,
) -> FairSamplingResult:
    """Compare the (+1, +1) frequency over all trials with its frequency
    conditioned on double detection.

    A nonzero divergence is the signature of unfair sampling: the detected
    subensemble misrepresents the full one.
    """
    cells = _run_tallies(model, [(a, b)], n_trials, seed, n_workers)
    result = _fair_sampling(cells[0], n_trials)
    if math.isnan(result.detected_freq):
        raise ZeroProbabilityError(
            "detected-pair frequency is undefined: no doubly registered trials"
        )
    return result


@dataclass(frozen=True, eq=False)
class ChshSimulation:
    """Derived statistics of one CHSH Monte Carlo run."""

    setting: ChshSetting
    summary: SimulationSummary
    micro_correlations: tuple[float, float, float, float]
    micro_correlation_errors: tuple[float, float, float, float]
    conditional_correlations: tuple[float, float, float, float]
    conditional_correlation_errors: tuple[float, float, float, float]
    detection_frequencies_a: tuple[float, float, float, float]
    detection_frequencies_b: tuple[float, float, float, float]
    all_sample_pair_frequencies: tuple[float, float, float, float]
    detected_pair_frequencies: tuple[float, float, float, float]
    divergences: tuple[float, float, float, float]
    micro_chsh: float
    micro_chsh_error: float
    conditional_chsh: float
    conditional_chsh_error: float
    weighted_chsh_predicted: float
    weighted_chsh_predicted_error: float


def simulate_chsh(
    model: MicrostateModel,
    setting: ChshSetting,
    n_trials: int,
    seed: int,
    n_workers: int = 1,
) -> ChshSimulation:
    """Run a model over the four CHSH pairs and derive every reported metric.

    weighted_chsh_predicted applies the detection-weighted functional to the
    measured conditional correlations using per-role measured detection
    frequencies, so it should agree with the direct all-trials combination
    whenever the two sides' detections are independent.
    """
    cells = _run_tallies(model, chsh_pairs(setting), n_trials, seed, n_workers)
    summary = SimulationSummary(
        n_trials=n_trials,
        settings=chsh_pairs(setting),
        tallies=_registered(cells),
        seed=int(seed),
    )
    micro = tuple(summary.micro_correlation(i) for i in range(4))
    micro_se = tuple(summary.micro_correlation_se(i) for i in range(4))
    cond = tuple(summary.conditional_correlation(i) for i in range(4))
    cond_se = tuple(summary.conditional_correlation_se(i) for i in range(4))
    freq_a = tuple(summary.detection_frequency(i, "a") for i in range(4))
    freq_b = tuple(summary.detection_frequency(i, "b") for i in range(4))
    all_freq, det_freq, gaps = zip(*(_fair_sampling(c, n_trials) for c in cells))
    micro_value, micro_error = summary_chsh(summary, conditional=False)
    cond_value, cond_error = summary_chsh(summary, conditional=True)

    # Pool each role's detection frequency over the two pairs it enters.
    pa = (freq_a[0] + freq_a[1]) / 2.0
    pap = (freq_a[2] + freq_a[3]) / 2.0
    pb = (freq_b[0] + freq_b[2]) / 2.0
    pbp = (freq_b[1] + freq_b[3]) / 2.0
    predicted = _combination(*cond, (pa, pap, pb, pbp))
    se_pa, se_pap, se_pb, se_pbp = (
        math.sqrt(max(0.0, p * (1.0 - p)) / (2 * n_trials)) for p in (pa, pap, pb, pbp)
    )
    predicted_error = math.sqrt(
        (pa * pb * cond_se[0]) ** 2
        + (pa * pbp * cond_se[1]) ** 2
        + (pap * pb * cond_se[2]) ** 2
        + (pap * pbp * cond_se[3]) ** 2
        + ((pb * cond[0] - pbp * cond[1]) * se_pa) ** 2
        + ((pb * cond[2] + pbp * cond[3]) * se_pap) ** 2
        + ((abs(pa * cond[0]) + abs(pap * cond[2])) * se_pb) ** 2
        + ((abs(pa * cond[1]) + abs(pap * cond[3])) * se_pbp) ** 2
    )
    return ChshSimulation(
        setting=setting,
        summary=summary,
        micro_correlations=micro,
        micro_correlation_errors=micro_se,
        conditional_correlations=cond,
        conditional_correlation_errors=cond_se,
        detection_frequencies_a=freq_a,
        detection_frequencies_b=freq_b,
        all_sample_pair_frequencies=all_freq,
        detected_pair_frequencies=det_freq,
        divergences=gaps,
        micro_chsh=micro_value,
        micro_chsh_error=micro_error,
        conditional_chsh=cond_value,
        conditional_chsh_error=cond_error,
        weighted_chsh_predicted=predicted,
        weighted_chsh_predicted_error=predicted_error,
    )
