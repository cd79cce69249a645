"""Detection-weighted outcome statistics for projective measurements.

The central object is the factorization

    absolute probability = detection probability x conditional probability,

where the conditional factor is the usual Born probability among registered
trials and the detection factor is the probability that the measurement
registers any outcome at all.  Each observable gains a no-registration
outcome (default 0.0) that absorbs the undetected fraction, so every
distribution built here sums to one over the enlarged outcome set.

Detection probabilities are caller-supplied data, never derived: a
DetectionModel is a lookup table keyed by (state label, observable label)
with an optional shared default, scaled by a global apparatus factor.

Sequential two-measurement distributions come in two forms: a general form
that conditions the second measurement on the projectively updated state
after the first, and a factored form valid for observables on different
subsystems, where the second detection probability is taken as insensitive
to the first outcome and the pre-measurement state serves both margins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from .errors import ConfigurationError, InputValidationError
from .quantum import (
    ALGEBRA_TOL,
    ZERO_BRANCH,
    DensityState,
    ProjectiveObservable,
    acting_subsystem,
    born_joint_probability,
    born_probability,
    luders_update,
    quantum_expectation_product,
)

Outcome = float
OutcomePair = tuple[float, float]


def _check_probability(value: float, what: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise InputValidationError(f"{what} must lie in [0, 1], got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class GeneralizedObservable:
    """Projective observable extended by a no-registration outcome."""

    base: ProjectiveObservable
    no_registration_outcome: float = 0.0

    def __post_init__(self) -> None:
        if float(self.no_registration_outcome) in self.base.outcomes:
            raise InputValidationError(
                f"no-registration outcome {self.no_registration_outcome!r} collides "
                f"with the spectrum {self.base.outcomes} of {self.base.label!r}"
            )

    @property
    def label(self) -> str:
        return self.base.label

    @property
    def outcomes(self) -> tuple[float, ...]:
        return self.base.outcomes


@dataclass(frozen=True)
class DetectionModel:
    """Caller-supplied detection probabilities.

    Lookup order for (state label, observable label, optional role alias):
    exact (state, observable) entry, then (state, role) entry, then the
    shared default.  The apparatus factor scales every resolved value; it
    models a known instrument inefficiency applied uniformly.
    """

    entries: Mapping[tuple[str, str], float] = field(default_factory=dict)
    apparatus_factor: float = 1.0
    default: float | None = None

    def __post_init__(self) -> None:
        entries = dict(self.entries)
        for key, value in entries.items():
            _check_probability(value, f"detection probability for {key!r}")
        _check_probability(self.apparatus_factor, "apparatus factor")
        if self.default is not None:
            _check_probability(self.default, "default detection probability")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def uniform(cls, probability: float, apparatus_factor: float = 1.0) -> "DetectionModel":
        return cls(entries={}, apparatus_factor=apparatus_factor, default=probability)

    def probability(
        self, state_label: str, observable_label: str, role: str | None = None
    ) -> float:
        for key in ((state_label, observable_label),) + (
            ((state_label, role),) if role is not None else ()
        ):
            if key in self.entries:
                return self.entries[key] * self.apparatus_factor
        if self.default is not None:
            return self.default * self.apparatus_factor
        tried = f"({state_label!r}, {observable_label!r})"
        if role is not None:
            tried += f" or ({state_label!r}, {role!r})"
        raise ConfigurationError(
            f"no detection probability for {tried} and no default is set"
        )


class GeneralizedExpectation(NamedTuple):
    """Expectation over all trials and over registered trials only."""

    absolute: float
    conditional: float


@dataclass(frozen=True)
class OutcomeDistribution:
    """Normalized distribution over outcomes or outcome pairs.

    ``kind`` is "single" for one measurement (entries keyed by outcome) or
    "sequential" for two (entries keyed by (first, second) outcome pairs).
    """

    entries: tuple[tuple[Outcome | OutcomePair, float], ...]
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("single", "sequential"):
            raise InputValidationError(f"unknown distribution kind {self.kind!r}")
        keys = [key for key, _ in self.entries]
        if len(set(keys)) != len(keys):
            raise InputValidationError("duplicate outcomes in distribution")
        for key, prob in self.entries:
            if prob < -ALGEBRA_TOL:
                raise InputValidationError(f"negative probability {prob!r} for {key!r}")
        total = sum(prob for _, prob in self.entries)
        if abs(total - 1.0) > ALGEBRA_TOL:
            raise InputValidationError(f"distribution sums to {total!r}, expected 1")

    def probability(self, outcome: Outcome | OutcomePair) -> float:
        for key, prob in self.entries:
            if key == outcome:
                return prob
        raise InputValidationError(f"outcome {outcome!r} not present in distribution")

    def total(self) -> float:
        return sum(prob for _, prob in self.entries)

    def mean(self) -> float:
        if self.kind != "single":
            raise InputValidationError("mean() requires a single-outcome distribution")
        return sum(key * prob for key, prob in self.entries)

    def product_mean(self) -> float:
        if self.kind != "sequential":
            raise InputValidationError("product_mean() requires a sequential distribution")
        return sum(key[0] * key[1] * prob for key, prob in self.entries)

    def as_dict(self) -> dict[Outcome | OutcomePair, float]:
        return dict(self.entries)


def joint_detection_probability(conditional: float, detection: float) -> float:
    """Absolute probability as detection x conditional."""
    return _check_probability(conditional, "conditional probability") * _check_probability(
        detection, "detection probability"
    )


def outcome_distribution(
    state: DensityState, observable: GeneralizedObservable, det: DetectionModel
) -> OutcomeDistribution:
    """Distribution over the enlarged outcome set of one measurement.

    Registered outcome a_n receives detection x Born weight; the
    no-registration outcome receives the complementary detection mass.
    """
    detect = det.probability(state.label, observable.label)
    entries: list[tuple[Outcome, float]] = []
    for value in observable.outcomes:
        entries.append((value, detect * born_probability(state, observable.base, value)))
    entries.append((float(observable.no_registration_outcome), 1.0 - detect))
    return OutcomeDistribution(tuple(entries), "single")


def generalized_expectation(
    state: DensityState, observable: GeneralizedObservable, det: DetectionModel
) -> GeneralizedExpectation:
    """All-trials and registered-trials expectations of one observable.

    absolute = a_0 (1 - p_det) + p_det <A>; with a_0 = 0 this reduces to
    p_det <A>, the detection-scaled conditional mean.
    """
    detect = det.probability(state.label, observable.label)
    conditional = sum(
        value * born_probability(state, observable.base, value) for value in observable.outcomes
    )
    absolute = float(observable.no_registration_outcome) * (1.0 - detect) + detect * conditional
    return GeneralizedExpectation(absolute=absolute, conditional=conditional)


def _check_outcome_mapping(
    mapping: Mapping[float, float], outcomes: Iterable[float], what: str
) -> dict[float, float]:
    result = {}
    for value in outcomes:
        if value not in mapping:
            raise InputValidationError(f"{what} is missing outcome {value!r}")
        result[value] = float(mapping[value])
    return result


def sequential_distribution_general(
    state: DensityState,
    obs_a: GeneralizedObservable,
    obs_b: GeneralizedObservable,
    *,
    detect_a: float,
    detect_b_after: Mapping[float, float],
    detect_b_after_none: float,
    conditional_b_after_none: Mapping[float, float],
) -> OutcomeDistribution:
    """Joint distribution for measuring A then B, no factorization assumed.

    After a registered first outcome a_n the state is projectively updated
    and B's conditional probabilities follow the Born rule on the updated
    state, weighted by detect_b_after[a_n].  After no registration the
    caller supplies both B's detection probability and B's conditional
    distribution, since no projective update applies to that branch.
    """
    detect_a = _check_probability(detect_a, "detection probability for the first observable")
    detect_b_after = {
        key: _check_probability(value, f"detection probability after outcome {key!r}")
        for key, value in _check_outcome_mapping(
            detect_b_after, obs_a.outcomes, "detect_b_after"
        ).items()
    }
    detect_b_none = _check_probability(
        detect_b_after_none, "detection probability after no registration"
    )
    cond_b_none = _check_outcome_mapping(
        conditional_b_after_none, obs_b.outcomes, "conditional_b_after_none"
    )
    for value, prob in cond_b_none.items():
        _check_probability(prob, f"conditional probability of outcome {value!r}")
    total_cond = sum(cond_b_none.values())
    if abs(total_cond - 1.0) > ALGEBRA_TOL:
        raise InputValidationError(
            f"conditional_b_after_none sums to {total_cond!r}, expected 1"
        )

    a_none = float(obs_a.no_registration_outcome)
    b_none = float(obs_b.no_registration_outcome)
    entries: list[tuple[OutcomePair, float]] = []
    tail: list[tuple[OutcomePair, float]] = []
    for a_value in obs_a.outcomes:
        branch = born_probability(state, obs_a.base, a_value)
        if branch <= ZERO_BRANCH:
            entries.extend(((a_value, b_value), 0.0) for b_value in obs_b.outcomes)
            tail.append(((a_value, b_none), 0.0))
            continue
        updated = luders_update(state, obs_a.base.projector_for(a_value))
        detect_b = detect_b_after[a_value]
        for b_value in obs_b.outcomes:
            entries.append(
                (
                    (a_value, b_value),
                    detect_a * branch * detect_b * born_probability(updated, obs_b.base, b_value),
                )
            )
        tail.append(((a_value, b_none), detect_a * branch * (1.0 - detect_b)))
    for b_value in obs_b.outcomes:
        tail.append(
            ((a_none, b_value), (1.0 - detect_a) * detect_b_none * cond_b_none[b_value])
        )
    tail.append(((a_none, b_none), (1.0 - detect_a) * (1.0 - detect_b_none)))
    return OutcomeDistribution(tuple(entries + tail), "sequential")


def sequential_distribution_factored(
    state: DensityState,
    obs_a: GeneralizedObservable,
    obs_b: GeneralizedObservable,
    det: DetectionModel,
) -> OutcomeDistribution:
    """Joint distribution for far-apart measurements on different subsystems.

    Both detection probabilities are resolved against the pre-measurement
    state and applied independently:

        P(a_n, b_p) = p_A p_B P(a_n, b_p | both registered)
        P(a_n, b_0) = p_A (1 - p_B) P(a_n)
        P(a_0, b_p) = (1 - p_A) p_B P(b_p)
        P(a_0, b_0) = (1 - p_A)(1 - p_B)
    """
    side_a = acting_subsystem(obs_a.base)
    side_b = acting_subsystem(obs_b.base)
    if side_a is None or side_b is None or side_a == side_b:
        raise InputValidationError(
            "factored sequential distribution requires observables on distinct "
            f"subsystems; got {obs_a.label!r} on {side_a} and {obs_b.label!r} on {side_b}"
        )
    detect_a = det.probability(state.label, obs_a.label, role="a")
    detect_b = det.probability(state.label, obs_b.label, role="b")
    a_none = float(obs_a.no_registration_outcome)
    b_none = float(obs_b.no_registration_outcome)
    entries: list[tuple[OutcomePair, float]] = []
    for a_value in obs_a.outcomes:
        for b_value in obs_b.outcomes:
            joint = born_joint_probability(state, obs_a.base, a_value, obs_b.base, b_value)
            entries.append(((a_value, b_value), detect_a * detect_b * joint))
    for a_value in obs_a.outcomes:
        margin = born_probability(state, obs_a.base, a_value)
        entries.append(((a_value, b_none), detect_a * (1.0 - detect_b) * margin))
    for b_value in obs_b.outcomes:
        margin = born_probability(state, obs_b.base, b_value)
        entries.append(((a_none, b_value), (1.0 - detect_a) * detect_b * margin))
    entries.append(((a_none, b_none), (1.0 - detect_a) * (1.0 - detect_b)))
    return OutcomeDistribution(tuple(entries), "sequential")


def generalized_correlation(
    state: DensityState,
    obs_a: GeneralizedObservable,
    obs_b: GeneralizedObservable,
    det: DetectionModel,
) -> float:
    """All-trials product expectation under the factored far-apart form.

    With zero-valued no-registration outcomes this is the detection-scaled
    quantum correlation p_A p_B <AB>; otherwise the no-registration terms
    contribute and the full weighted sum is evaluated.
    """
    side_a = acting_subsystem(obs_a.base)
    side_b = acting_subsystem(obs_b.base)
    if side_a is None or side_b is None or side_a == side_b:
        raise InputValidationError(
            "generalized correlation requires observables on distinct subsystems; "
            f"got {obs_a.label!r} on {side_a} and {obs_b.label!r} on {side_b}"
        )
    detect_a = det.probability(state.label, obs_a.label, role="a")
    detect_b = det.probability(state.label, obs_b.label, role="b")
    a_none = float(obs_a.no_registration_outcome)
    b_none = float(obs_b.no_registration_outcome)
    if a_none == 0.0 and b_none == 0.0:
        return detect_a * detect_b * quantum_expectation_product(state, obs_a.base, obs_b.base)
    total = 0.0
    for a_value in obs_a.outcomes:
        for b_value in obs_b.outcomes:
            joint = born_joint_probability(state, obs_a.base, a_value, obs_b.base, b_value)
            total += a_value * b_value * detect_a * detect_b * joint
    for a_value in obs_a.outcomes:
        margin = born_probability(state, obs_a.base, a_value)
        total += a_value * b_none * detect_a * (1.0 - detect_b) * margin
    for b_value in obs_b.outcomes:
        margin = born_probability(state, obs_b.base, b_value)
        total += a_none * b_value * (1.0 - detect_a) * detect_b * margin
    total += a_none * b_none * (1.0 - detect_a) * (1.0 - detect_b)
    return total

