"""The Born-rule projector route, the tests' reference for the Fano form.

belltally computes every probability and correlation from a state's Fano
form.  These functions compute the same numbers the textbook way, as
Tr[rho P1 P2] over spin projectors: along direction a on subsystem 1 the
projectors are ((I + sigma.a)/2) (x) I and ((I - sigma.a)/2) (x) I.  They
write out their own Pauli matrices, so a wrong entry in the package's
matrices cannot pass both routes, and they are defined only for commuting
observables.
"""
import numpy as np

from belltally import InputValidationError

TOL = 1e-12
SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
IDENTITY = np.eye(2, dtype=complex)


def projectors(obs):
    """The projectors onto obs's +1 and -1 outcomes, as 4x4 matrices."""
    d = obs.direction
    pauli = d.x * SIGMA[0] + d.y * SIGMA[1] + d.z * SIGMA[2]
    halves = ((IDENTITY + pauli) / 2.0, (IDENTITY - pauli) / 2.0)
    if obs.subsystem == 1:
        return tuple(np.kron(h, IDENTITY) for h in halves)
    return tuple(np.kron(IDENTITY, h) for h in halves)


def projector_for(obs, outcome):
    for value, proj in zip(obs.outcomes, projectors(obs)):
        if value == float(outcome):
            return proj
    raise InputValidationError(
        f"outcome {outcome!r} is not in the spectrum {obs.outcomes} of {obs.label!r}"
    )


def observables_commute(obs1, obs2):
    """Whether every projector of obs1 commutes with every projector of obs2."""
    return all(
        np.max(np.abs(p @ q - q @ p)) <= TOL
        for p in projectors(obs1)
        for q in projectors(obs2)
    )


def _require_commuting(obs1, obs2, what):
    if not observables_commute(obs1, obs2):
        raise InputValidationError(
            f"observables {obs1.label!r} and {obs2.label!r} do not commute; {what} undefined"
        )


def _trace(state, *operators):
    product = state.matrix
    for op in operators:
        product = product @ op
    return float(np.trace(product).real)


def born_probability(state, observable, outcome):
    """Tr[rho P_outcome], clamped to [0, 1]."""
    return min(1.0, max(0.0, _trace(state, projector_for(observable, outcome))))


def born_joint_probability(state, obs1, outcome1, obs2, outcome2):
    """Joint Born probability Tr[rho P1 P2] for commuting observables, clamped to [0, 1]."""
    _require_commuting(obs1, obs2, "joint Born probabilities are")
    value = _trace(state, projector_for(obs1, outcome1), projector_for(obs2, outcome2))
    return min(1.0, max(0.0, value))


def quantum_expectation_product(state, obs1, obs2):
    """<O1 O2> = sum_np a_n b_p Tr[rho P_n Q_p] for commuting observables."""
    _require_commuting(obs1, obs2, "the product expectation is")
    return sum(
        a_value * b_value * _trace(state, a_proj, b_proj)
        for a_value, a_proj in zip(obs1.outcomes, projectors(obs1))
        for b_value, b_proj in zip(obs2.outcomes, projectors(obs2))
    )
