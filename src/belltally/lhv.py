"""Deterministic local models with no-registration outcomes, and their
Monte Carlo statistics.

A microstate is a hidden variable (lam, u_a, u_b): a point lam on the unit
sphere plus one auxiliary uniform coordinate per side.  A model is local by
construction: each side's response depends only on its own direction and
the hidden variable, and it reads lam only through an alignment lam.d.
Responses factor into a possessed value in {-1, +1} (the value the side
would register) and a detection indicator; the registered outcome is the
possessed value when detected, else 0.

Reproducibility scheme
----------------------
Trials are processed in fixed chunks of 65536.  Chunk ``i`` draws from
``numpy.random.default_rng(SeedSequence(seed, spawn_key=(i,)))`` and every
chunk evaluates all settings on its own sample, so counts are pure
per-chunk functions of (seed, chunk index).  Merging is integer addition in
chunk order, with at most two chunks per worker in flight, which makes
results bit-identical for any worker count and keeps memory bounded for
any trial count.

Tally scheme
------------
A chunk is drawn and counted in row blocks of 16384 trials: the tally
calls the sampler once per block on the chunk's generator, into buffers its
worker thread reuses, and consecutive calls continue one stream.  The
sampler fills only the components of lam that an effective direction has
nonzero; 0.0 in the others changes no nonzero alignment, as they enter
each one times +-0.0.  In a block the alignment with each distinct
effective direction is one read-only matrix-vector product, which each side
measuring along it maps to a 2-bit code per trial, 2 * detected +
(possessed value > 0).  A run is a list of rectangles of A x B directions
(a CHSH setting is one 2x2 rectangle, a ``run_experiment`` pair a 1x1 one),
each counted per block by one bincount over its sides' joint code.  Each
pair's 16 (A code, B code) cells are exact integer marginals of that count,
and a run keeps nothing else: they are a ``SimulationSummary``'s one record.

Statistics
----------
A summary reads its cells through one vector, each side code's registered
value (0, 0, -1, +1): correlations, the both-detected count, detection and
fair-sampling frequencies are sums of integer-valued floats below 2**53,
so exact in any order, and ``tallies`` (3x3 registered outcomes) derives
from the same values.  ``simulate_chsh`` is the one place where a CHSH
run's reported metrics and their standard errors are made: the rows of
``ChshSimulation.rows``, which the command line prints as they are.

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
from functools import cached_property, partial
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

from .chsh import ChshSetting, _combination
from .errors import InputValidationError, ZeroProbabilityError
from .quantum import Direction

CHUNK_SIZE = 1 << 16
_BLOCK = 1 << 14  # rows per sampler call: buffers and temporaries stay in cache

# Per-correlation pair names for a CHSH run, in tally order.
PAIR_NAMES = ("ab", "ab_prime", "a_prime_b", "a_prime_b_prime")

# respond = possess * detect, evaluated on batches of read-only alignments:
#   possess(alignment (n,)) -> (n,) values in {-1, +1}
#   detect(alignment (n,), u (n,)) -> (n,) booleans (or 0/1)
# Each callable runs once per row block for every distinct effective
# direction of its side, however many pairs share it, so it must be row-wise
# (as chunking already requires); its results are folded into the joint
# code counts described in the module docstring.
PossessFn = Callable[[np.ndarray], np.ndarray]
DetectFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
# sampler(rng, count, *, out=None, reads=(True,) * 3) -> (axes, u_a, u_b), as
# sample_hidden_uniform; where reads[k] is False it may put 0.0 in axes[:, k].
# Only _chunk_tallies splits rows into blocks: one call per block of at most
# _BLOCK rows, out from _sampler_buffers(_BLOCK), each continuing one stream.
SamplerFn = Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]]
# Each worker thread's block-sized sampler buffers, reused by every block.
_worker = threading.local()

# Registered value of each side code: 0 when undetected, else the possessed value.
_CODE_VALUES = np.array([0.0, 0.0, -1.0, 1.0])


def _sampler_buffers(count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.empty((count, 4)), np.empty((count, 3)), np.empty((3, count))


def sample_hidden_uniform(
    rng: np.random.Generator, count: int, *, out: tuple[np.ndarray, ...] | None = None,
    reads: tuple[bool, bool, bool] = (True, True, True),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lam uniform on the sphere (area-preserving map), u_a and u_b uniform.

    Draw order is fixed (z, azimuth, u_a, u_b per trial) so samples are a
    pure function of the generator state; splitting count over consecutive
    calls on one generator keeps it.  out, if given, is the (draws, axes,
    scratch) of _sampler_buffers(n) for an n >= count, and the results are
    views of it; otherwise they are new arrays.  z is always filled, and
    x (cosine) and y (sine) where reads says, else 0.0.
    """
    draws, axes, scratch = _sampler_buffers(count) if out is None else out
    draws, axes = draws[:count], axes[:count]
    azimuth, trig, radial = scratch[:, :count]
    rng.random(out=draws)
    z = axes[:, 2]
    np.multiply(2.0, draws[:, 0], out=z)
    z -= 1.0
    np.multiply(2.0 * math.pi, draws[:, 1], out=azimuth)
    # z lies in [-1, 1), so 1 - z*z is never negative.
    np.sqrt(np.subtract(1.0, np.multiply(z, z, out=radial), out=radial), out=radial)
    for k, trig_fn in ((0, np.cos), (1, np.sin)):
        if reads[k]:
            np.multiply(radial, trig_fn(azimuth, out=trig), out=axes[:, k])
        else:
            axes[:, k] = 0.0
    return axes, draws[:, 2], draws[:, 3]


@dataclass(frozen=True)
class MicrostateModel:
    """Deterministic local responses split into possession and detection; a
    side with a frame (a 3x3 rotation) measuring along d reads lam.(frame @ d)."""

    name: str
    possess_a: PossessFn
    possess_b: PossessFn
    detect_a: DetectFn
    detect_b: DetectFn
    sampler: SamplerFn = sample_hidden_uniform
    frame_a: np.ndarray | None = None
    frame_b: np.ndarray | None = None


def _sign(alignment: np.ndarray) -> np.ndarray:
    # int8 sign with the zero set mapped to +1; the set has measure zero.
    # Arithmetic on the 0/1 view, because np.where on a random mask is
    # several times slower.
    return 2 * (alignment >= 0.0).view(np.int8) - 1


def _negative_sign(alignment: np.ndarray) -> np.ndarray:
    return 1 - 2 * (alignment >= 0.0).view(np.int8)


def _constant_plus(alignment: np.ndarray) -> np.ndarray:
    return np.ones(len(alignment), dtype=np.int64)


def _always_detect(alignment: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.ones(len(u), dtype=bool)


def _detect_if_aligned(alignment: np.ndarray, u: np.ndarray) -> np.ndarray:
    return u < np.abs(alignment)


def _threshold_detect(
    alignment: np.ndarray, u: np.ndarray, base: float, slope: float
) -> np.ndarray:
    # In place, so one temporary serves the whole chain of operations.
    level = np.abs(alignment)
    level *= slope
    level += base
    return u < np.clip(level, 0.0, 1.0, out=level)


def gisin_gisin_model() -> MicrostateModel:
    """Reference detection-loophole model: A registers sign(a.lam) with
    probability |a.lam|, B always registers -sign(b.lam)."""
    return MicrostateModel(
        name="gisin-gisin",
        possess_a=_sign,
        possess_b=_negative_sign,
        detect_a=_detect_if_aligned,
        detect_b=_always_detect,
    )


def sign_model() -> MicrostateModel:
    """Always-detecting anticorrelated sign responses."""
    return MicrostateModel(
        name="sign",
        possess_a=_sign,
        possess_b=_negative_sign,
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
    """Random deterministic local model: sign possession in a random frame on
    each side, with a random affine detection threshold in that alignment."""
    rng = np.random.default_rng(seed)
    rotations = []
    for _ in range(2):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        rotations.append(q * np.sign(np.diag(r)))
    base_a, base_b = rng.uniform(0.3, 1.0, size=2)
    slope_a, slope_b = rng.uniform(-0.3, 0.7, size=2)
    return MicrostateModel(
        name=name if name is not None else f"random-{seed}",
        possess_a=_sign,
        possess_b=_sign,
        detect_a=partial(_threshold_detect, base=base_a, slope=slope_a),
        detect_b=partial(_threshold_detect, base=base_b, slope=slope_b),
        frame_a=rotations[0],
        frame_b=rotations[1],
    )


class FairSamplingResult(NamedTuple):
    """Possession frequency of the (+1, +1) pair over all trials, registered
    frequency of that pair among doubly detected trials, and their gap."""

    all_sample_freq: float
    detected_freq: float
    divergence: float


@dataclass(frozen=True, eq=False)
class SimulationSummary:
    """Code cells for one experiment, from which every statistic is read.

    cells[s, i, j] counts trials of setting s with A side code i and B side
    code j, a code being 2 * detected + (possessed value > 0); every trial
    evaluates every setting.
    """

    n_trials: int
    settings: tuple[tuple[Direction, Direction], ...]
    cells: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_trials", _whole_number("n_trials", self.n_trials, 1))
        cells = np.asarray(self.cells, dtype=np.int64)
        if cells.shape != (len(self.settings), 4, 4):
            raise InputValidationError(
                f"cells must have shape {(len(self.settings), 4, 4)}, got {cells.shape}"
            )
        if np.any(cells < 0):
            raise InputValidationError("cells cannot be negative")
        if np.any(cells.sum(axis=(1, 2)) != self.n_trials):
            raise InputValidationError("each setting's cells must sum to n_trials")
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)

    @cached_property
    def tallies(self) -> np.ndarray:
        """Read-only (settings, 3, 3) counts of A and B registered outcomes
        (-1, 0, +1), summed from the cells by registered value."""
        to_outcome = np.eye(3, dtype=np.int64)[_CODE_VALUES.astype(np.intp) + 1]
        tallies = to_outcome.T @ self.cells @ to_outcome
        tallies.setflags(write=False)
        return tallies

    def _product_sum(self, index: int, power: int = 1) -> float:
        # Sum of (A value * B value) ** power over the trials of one setting.
        return float(_CODE_VALUES**power @ self.cells[index] @ _CODE_VALUES**power)

    def micro_correlation(self, index: int) -> float:
        """Mean product over all trials, no-registration outcomes counted as 0."""
        return self._product_sum(index) / self.n_trials

    def micro_correlation_se(self, index: int) -> float:
        mean = self.micro_correlation(index)
        second = self._product_sum(index, 2) / self.n_trials
        return math.sqrt(max(0.0, second - mean * mean) / self.n_trials)

    def both_detected_count(self, index: int) -> int:
        return int(self._product_sum(index, 2))

    def conditional_correlation(self, index: int) -> float:
        """Mean product over trials where both sides registered."""
        detected = self.both_detected_count(index)
        if detected == 0:
            raise ZeroProbabilityError(
                "conditional correlation is undefined: no doubly registered trials"
            )
        return self._product_sum(index) / detected

    def conditional_correlation_se(self, index: int) -> float:
        mean = self.conditional_correlation(index)  # raises when no trial registered twice
        return math.sqrt(max(0.0, 1.0 - mean * mean) / self.both_detected_count(index))

    def detection_frequency(self, index: int, side: str) -> float:
        """Fraction of trials with a registered outcome on side "a" or "b"."""
        if side not in ("a", "b"):
            raise InputValidationError(f"side must be 'a' or 'b', got {side!r}")
        per_code = self.cells[index].sum(axis=1 if side == "a" else 0)
        return float(per_code @ _CODE_VALUES**2 / self.n_trials)

    def detection_frequency_se(self, index: int, side: str) -> float:
        return _binomial_se(self.detection_frequency(index, side), self.n_trials)

    def fair_sampling(self, index: int) -> FairSamplingResult:
        """Frequency of the possessed (+1, +1) pair over all trials against
        that of the registered one among doubly detected trials."""
        both_detected = self.both_detected_count(index)
        if both_detected == 0:
            raise ZeroProbabilityError(
                "detected-pair frequency is undefined: no doubly registered trials"
            )
        # Odd codes possess +1; code 3 registers it.
        all_sample = float(self.cells[index, 1::2, 1::2].sum() / self.n_trials)
        detected = float(self.cells[index, 3, 3] / both_detected)
        return FairSamplingResult(all_sample, detected, abs(all_sample - detected))


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


# Some A directions times some B directions; its pairs are taken row-major.
Rectangle = tuple[Sequence[Direction], Sequence[Direction]]


def _effective_rectangles(
    model: MicrostateModel, rectangles: Sequence[Rectangle]
) -> tuple[list[tuple[list[np.ndarray], ...]], tuple[bool, ...]]:
    """Each rectangle's directions turned by its sides' frames, and which
    components of lam they read: a component all of them zero is never read."""
    frames = (model.frame_a, model.frame_b)
    turned = [
        tuple([d.as_array() if f is None else f @ d.as_array() for d in side]
              for f, side in zip(frames, rectangle))
        for rectangle in rectangles
    ]
    vectors = np.array([vec for rectangle in turned for side in rectangle for vec in side])
    return turned, tuple(bool(read) for read in np.any(vectors != 0.0, axis=0))


def _pair_cells(joint: np.ndarray, n_a: int, n_b: int) -> np.ndarray:
    """(n_a * n_b, 4, 4) cells of a rectangle's pairs, row-major: the integer
    marginals of its joint count over (A codes..., B codes...)."""
    joint = joint.reshape((4,) * (n_a + n_b))
    every = set(range(n_a + n_b))
    return np.stack([
        joint.sum(axis=tuple(every - {i, n_a + j})) for i in range(n_a) for j in range(n_b)
    ])


def _chunk_tallies(
    model: MicrostateModel,
    rectangles: Sequence[tuple[Sequence[np.ndarray], Sequence[np.ndarray]]],
    size: int,
    seed: int,
    chunk_index: int,
    reads: tuple[bool, bool, bool],
) -> np.ndarray:
    """(pairs, 4, 4) counts of (A code, B code) for one chunk of trials, pairs
    in rectangle order; rectangles hold effective directions, and reads goes
    to the sampler."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))
    if not hasattr(_worker, "buffers"):
        _worker.buffers = _sampler_buffers(_BLOCK)
    # Each rectangle's codes by (side, direction key), most significant first.
    joint_keys = [[(k, vec.tobytes()) for k in (0, 1) for vec in rect[k]] for rect in rectangles]
    measured = {key for keys in joint_keys for key in keys}
    vectors = {vec.tobytes(): vec for rect in rectangles for side in rect for vec in side}
    sides = ((model.possess_a, model.detect_a), (model.possess_b, model.detect_b))
    joints = [np.zeros(4 ** len(keys), dtype=np.int64) for keys in joint_keys]
    index_buffer = np.empty(min(size, _BLOCK), dtype=np.intp)
    for start in range(0, size, _BLOCK):
        block, *us = model.sampler(rng, min(_BLOCK, size - start), out=_worker.buffers, reads=reads)
        codes: dict[tuple[int, bytes], np.ndarray] = {}
        for key, vec in vectors.items():
            # One matrix-vector product per direction; a stacked one may round differently.
            alignment = block @ vec
            alignment.setflags(write=False)
            for k, ((possess, detect), u) in enumerate(zip(sides, us)):
                if (k, key) in measured:
                    positive = np.asarray(possess(alignment)) > 0
                    detected = np.asarray(detect(alignment, u), dtype=bool)
                    codes[k, key] = 2 * detected.view(np.uint8) + positive
        index = index_buffer[: len(block)]
        for keys, joint in zip(joint_keys, joints):
            np.copyto(index, codes[keys[0]])
            for key in keys[1:]:
                index <<= 2
                index += codes[key]
            joint += np.bincount(index, minlength=len(joint))
    return np.concatenate([
        _pair_cells(joint, len(rect[0]), len(rect[1])) for rect, joint in zip(rectangles, joints)
    ])


def _whole_number(name: str, value: float, least: int) -> int:
    # int() alone would turn 2.5 into 2 and True into 1, and raise on nan or inf.
    try:
        whole = not isinstance(value, (bool, np.bool_)) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole or value < least:
        raise InputValidationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _run_tallies(
    model: MicrostateModel,
    rectangles: Sequence[Rectangle],
    n_trials: int,
    seed: int,
    n_workers: int,
) -> SimulationSummary:
    """Summary of the code cells over all trials; its settings are the
    rectangles' pairs, each taken row-major.  See the module docstring."""
    n_trials = _whole_number("n_trials", n_trials, 1)
    seed = _whole_number("seed", seed, 0)
    n_workers = _whole_number("n_workers", n_workers, 1)
    if len(rectangles) == 0:
        raise InputValidationError("at least one setting is required")
    turned, reads = _effective_rectangles(model, rectangles)

    def chunk(job: tuple[int, int]) -> np.ndarray:
        index, size = job
        return _chunk_tallies(model, turned, size, seed, index, reads)

    n_chunks = -(-n_trials // CHUNK_SIZE)
    # A worker beyond the usable CPUs would only hold one more chunk in memory.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_workers = min(n_workers, n_chunks, cpus or 1)
    cells = _ordered_sum(chunk, enumerate(_chunk_sizes(n_trials)), n_workers)
    pairs = tuple((a, b) for side_a, side_b in rectangles for a in side_a for b in side_b)
    return SimulationSummary(n_trials, pairs, cells, seed)


def run_experiment(
    model: MicrostateModel,
    settings: Sequence[tuple[Direction, Direction]],
    n_trials: int,
    seed: int,
    n_workers: int = 1,
) -> SimulationSummary:
    """Code cells of a model over settings, bit-identical for any n_workers;
    see the module docstring for the chunked substream scheme."""
    return _run_tallies(model, [((a,), (b,)) for a, b in settings], n_trials, seed, n_workers)


def chsh_pairs(setting: ChshSetting) -> tuple[tuple[Direction, Direction], ...]:
    """The four correlation pairs of a CHSH run, in tally order: row-major
    over (a, a_prime) x (b, b_prime), as a simulate_chsh run counts them."""
    return tuple((a, b) for a in (setting.a, setting.a_prime) for b in (setting.b, setting.b_prime))


def _binomial_se(freq: float, count: int) -> float:
    """Standard error of a frequency observed over count trials."""
    return math.sqrt(max(0.0, freq * (1.0 - freq)) / count)


def _correlations(summary: SimulationSummary, conditional: bool) -> list[tuple[float, float]]:
    """Each pair's (correlation, std_error), over registered or all trials."""
    if conditional:
        value, error = summary.conditional_correlation, summary.conditional_correlation_se
    else:
        value, error = summary.micro_correlation, summary.micro_correlation_se
    return [(value(i), error(i)) for i in range(len(summary.settings))]


def summary_chsh(summary: SimulationSummary, conditional: bool = False) -> tuple[float, float]:
    """CHSH combination and its standard error from a four-pair summary; the
    pair errors add in quadrature, as if the pairs were independent."""
    if len(summary.settings) != 4:
        raise InputValidationError("summary must hold the four CHSH correlation pairs")
    values, errors = zip(*_correlations(summary, conditional))
    return _combination(*values), math.sqrt(sum(e * e for e in errors))


def fair_sampling_check(
    model: MicrostateModel,
    a: Direction,
    b: Direction,
    n_trials: int,
    seed: int,
    n_workers: int = 1,
) -> FairSamplingResult:
    """Compare the (+1, +1) frequency over all trials with its frequency
    conditioned on double detection.  A nonzero divergence is the signature
    of unfair sampling: the detected subensemble misrepresents the full one."""
    return run_experiment(model, [(a, b)], n_trials, seed, n_workers).fair_sampling(0)


@dataclass(frozen=True, eq=False)
class ChshSimulation:
    """One CHSH Monte Carlo run: its summary, whose cells hold every count,
    every reported (metric, pair, value, std_error) row made from them, and
    the three CHSH rows' values and errors."""

    setting: ChshSetting
    summary: SimulationSummary
    rows: tuple[tuple[str, str, float, float], ...]
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

    The rows are metric-major, pairs in PAIR_NAMES order, then the CHSH rows
    with pair "".  weighted_chsh_predicted applies the detection-weighted
    functional to the measured conditional correlations using per-role
    measured detection frequencies, so it should agree with the direct
    all-trials combination whenever the two sides' detections are independent.
    """
    rectangle = ((setting.a, setting.a_prime), (setting.b, setting.b_prime))
    summary = _run_tallies(model, [rectangle], n_trials, seed, n_workers)
    n = summary.n_trials
    micro, cond = _correlations(summary, False), _correlations(summary, True)
    freq_a, freq_b = ([summary.detection_frequency(i, side) for i in range(4)] for side in "ab")
    fair = [summary.fair_sampling(i) for i in range(4)]
    all_se = [_binomial_se(f.all_sample_freq, n) for f in fair]
    det_se = [
        _binomial_se(f.detected_freq, summary.both_detected_count(i)) for i, f in enumerate(fair)
    ]
    per_pair = {
        "micro_correlation": micro,
        "conditional_correlation": cond,
        "detection_frequency_a": [(f, _binomial_se(f, n)) for f in freq_a],
        "detection_frequency_b": [(f, _binomial_se(f, n)) for f in freq_b],
        "all_sample_pair_frequency": [(f.all_sample_freq, e) for f, e in zip(fair, all_se)],
        "detected_pair_frequency": [(f.detected_freq, e) for f, e in zip(fair, det_se)],
        "fair_sampling_divergence": [
            (f.divergence, math.hypot(e, d)) for f, e, d in zip(fair, all_se, det_se)
        ],
    }

    # Both pairs a role enters count the same n trials along its direction,
    # so they share one frequency, whose error divides by n.
    (pa, _, pap, _), (pb, pbp, _, _) = freq_a, freq_b
    (c1, se1), (c2, se2), (c3, se3), (c4, se4) = cond
    predicted = _combination(c1, c2, c3, c4, (pa, pap, pb, pbp))
    se_pa, se_pap, se_pb, se_pbp = (_binomial_se(p, n) for p in (pa, pap, pb, pbp))
    predicted_error = math.sqrt(
        (pa * pb * se1) ** 2
        + (pa * pbp * se2) ** 2
        + (pap * pb * se3) ** 2
        + (pap * pbp * se4) ** 2
        + ((pb * c1 - pbp * c2) * se_pa) ** 2
        + ((pb * c3 + pbp * c4) * se_pap) ** 2
        + ((abs(pa * c1) + abs(pap * c3)) * se_pb) ** 2
        + ((abs(pa * c2) + abs(pap * c4)) * se_pbp) ** 2
    )
    chsh = {
        "micro_chsh": summary_chsh(summary),
        "conditional_chsh": summary_chsh(summary, conditional=True),
        "weighted_chsh_predicted": (predicted, predicted_error),
    }
    rows = [(name, pair, *entry) for name, entries in per_pair.items()
            for pair, entry in zip(PAIR_NAMES, entries)]
    rows += [(name, "", *entry) for name, entry in chsh.items()]
    # The CHSH values and errors fill the last six fields in order.
    return ChshSimulation(setting, summary, tuple(rows), *chain.from_iterable(chsh.values()))
