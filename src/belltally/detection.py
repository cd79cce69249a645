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

The sequential two-measurement distribution takes the factored form, valid
for observables on different subsystems: the second detection probability
is taken as insensitive to the first outcome, and the pre-measurement state
serves both margins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import ConfigurationError, InputValidationError
from .quantum import (
    ALGEBRA_TOL,
    DensityState,
    ProjectiveObservable,
    acting_subsystem,
    born_joint_probability,
    born_probability,
    quantum_expectation_product,
)

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


@dataclass(frozen=True)
class OutcomeDistribution:
    """Normalized distribution over (first, second) outcome pairs."""

    entries: tuple[tuple[OutcomePair, float], ...]

    def __post_init__(self) -> None:
        keys = [key for key, _ in self.entries]
        if len(set(keys)) != len(keys):
            raise InputValidationError("duplicate outcomes in distribution")
        for key, prob in self.entries:
            if prob < -ALGEBRA_TOL:
                raise InputValidationError(f"negative probability {prob!r} for {key!r}")
        total = sum(prob for _, prob in self.entries)
        if abs(total - 1.0) > ALGEBRA_TOL:
            raise InputValidationError(f"distribution sums to {total!r}, expected 1")

    def probability(self, outcome: OutcomePair) -> float:
        for key, prob in self.entries:
            if key == outcome:
                return prob
        raise InputValidationError(f"outcome {outcome!r} not present in distribution")

    def total(self) -> float:
        return sum(prob for _, prob in self.entries)

    def product_mean(self) -> float:
        return sum(key[0] * key[1] * prob for key, prob in self.entries)

    def as_dict(self) -> dict[OutcomePair, float]:
        return dict(self.entries)


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
    return OutcomeDistribution(tuple(entries))


def generalized_correlation(
    state: DensityState,
    obs_a: GeneralizedObservable,
    obs_b: GeneralizedObservable,
    det: DetectionModel,
) -> float:
    """All-trials product expectation under the factored far-apart form.

    With zero-valued no-registration outcomes this is the detection-scaled
    quantum correlation p_A p_B <AB>; otherwise the no-registration terms
    contribute, and it is the product mean of sequential_distribution_factored.
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
    if float(obs_a.no_registration_outcome) == 0.0 == float(obs_b.no_registration_outcome):
        return detect_a * detect_b * quantum_expectation_product(state, obs_a.base, obs_b.base)
    return sequential_distribution_factored(state, obs_a, obs_b, det).product_mean()
