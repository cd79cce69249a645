"""Shared helpers for the test suite.

Random states are built as G G^dagger / Tr[G G^dagger] from a complex
Gaussian matrix G, which is Hermitian and positive by construction, so the
tests exercise full-rank mixed states rather than just the singlet.
"""
import numpy as np

from belltally import DensityState, Direction, singlet_state


def random_direction(rng: np.random.Generator) -> Direction:
    vec = rng.normal(size=3)
    vec /= np.linalg.norm(vec)
    return Direction(*vec)


def random_density_state(rng: np.random.Generator, label: str = "random") -> DensityState:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return DensityState(rho, label)


def werner_state(visibility: float) -> DensityState:
    """visibility * singlet + (1 - visibility) * I / 4: correlation tensor -visibility * I."""
    mixed = visibility * singlet_state().matrix + (1.0 - visibility) / 4.0 * np.eye(4)
    return DensityState(mixed, "werner")
