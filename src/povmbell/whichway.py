"""Joint nonideal measurement of two incompatible polarization directions.

A beam splitter with transmissivity gamma routes each photon either to a
polarization analyzer along theta (transmitted branch, detector D) or to one
along theta_prime (reflected branch, detector D'). Both branches are watched
at once, so a single run yields a bivariate outcome (m, n): m is the click
record of D and n the click record of D', with "+" meaning the detector
fired. The photon takes one branch only, hence both detectors can never fire
together and the "++" effect is the zero operator.

The measured marginal in each branch is a column-stochastic smearing of the
ideal sharp measurement along that branch's axis; `marginals_and_nonideality`
returns those smearing matrices. `whichway_effects` forms the effects for a
whole array of transmissivities at once; `build_whichway` is its one-point
case. The smearing matrices are closed
forms of gamma, and `infometrics` evaluates their row entropies over a grid
in closed form, without forming them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatchError
from .measurement import OutcomeDistribution, Povm, born_probabilities, povm_from_stack
from .qcore import (
    DEFAULT_POLICY,
    ArrayRecord,
    PolarizationAngle,
    StateDescriptor,
    _as_array,
    _of_type,
    as_angle,
    identity,
    projector_from_angle,
)

__all__ = [
    "WW_LABELS",
    "WhichWayConfig",
    "BivariateWhichWay",
    "NonidealityMatrix",
    "whichway_effects",
    "build_whichway",
    "joint_distribution",
    "marginals_from_distribution",
    "measured_marginals",
    "marginals_and_nonideality",
    "certainty_check",
]

# outcome order is fixed: (D, D') click pattern, "+" = fired
WW_LABELS = ("++", "+-", "-+", "--")
# the identity the four effects of a which-way measurement sum to
_IDENTITY = identity(2)


def _checked_gammas(gammas: object) -> np.ndarray:
    """`gammas` as a float64 array; DomainError names the first one outside [0, 1]."""
    g = _as_array(gammas, np.float64, "gamma")
    inside = (g >= 0.0) & (g <= 1.0)  # False for NaN
    if not inside.all():
        raise DomainError(f"gamma must lie in [0, 1], got {float(g[~inside].flat[0])!r}")
    return g


@dataclass(frozen=True)
class WhichWayConfig:
    """Beam-splitter transmissivity and the two analyzer orientations."""

    gamma: float
    theta: PolarizationAngle
    theta_prime: PolarizationAngle

    def __post_init__(self) -> None:
        gamma = _as_array(self.gamma, float, "gamma")
        if not 0.0 <= gamma <= 1.0:  # False for NaN
            raise DomainError(f"gamma must lie in [0, 1], got {gamma!r}")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "theta", as_angle(self.theta))
        object.__setattr__(self, "theta_prime", as_angle(self.theta_prime))


@dataclass(frozen=True)
class BivariateWhichWay:
    """A which-way configuration together with its validated 4-outcome POVM."""

    config: WhichWayConfig
    povm: Povm


def whichway_effects(
    gammas: object,
    theta: float | PolarizationAngle,
    theta_prime: float | PolarizationAngle,
) -> np.ndarray:
    """Which-way effect matrices for an array of transmissivities.

    Returns shape gammas.shape + (4, 2, 2): for every gamma, the four
    effects in WW_LABELS order,
      ++ : 0                            (both branches firing is impossible)
      +- : gamma * E+(theta)            (transmitted, analyzer passes)
      -+ : (1-gamma) * E+(theta')       (reflected, analyzer passes)
      -- : rest of the identity         (no detector fires)
    The last effect equals gamma*E-(theta) + (1-gamma)*E-(theta'), a convex
    combination of projectors, so positivity holds for every gamma in [0, 1].
    Every effect is affine in gamma, E(gamma) = gamma E(1) + (1-gamma) E(0),
    and the axioms survive convex combination, so the stack is a POVM for
    every gamma in [0, 1]. It is not checked here: `build_whichway` checks
    the POVM it hands out, and the tests prove the stacks of the paths that
    reduce them to numbers (`tests/test_derived_povms.py`).
    """
    return _effects(_checked_gammas(gammas), theta, theta_prime)


def _effects(
    g: np.ndarray,
    theta: float | PolarizationAngle,
    theta_prime: float | PolarizationAngle,
) -> np.ndarray:
    """`whichway_effects` of a float64 array of transmissivities known to lie in [0, 1]."""
    g = g[..., None, None]
    transmitted = g * projector_from_angle(theta)
    reflected = (1.0 - g) * projector_from_angle(theta_prime)
    stack = np.zeros(transmitted.shape[:-2] + (4, 2, 2), dtype=np.complex128)
    stack[..., 1, :, :] = transmitted
    stack[..., 2, :, :] = reflected
    stack[..., 3, :, :] = _IDENTITY - transmitted - reflected
    return stack


def build_whichway(config: WhichWayConfig) -> BivariateWhichWay:
    """Construct and validate the 4-effect which-way POVM (see `whichway_effects`).

    The config checked its gamma when it was made.
    """
    _of_type(config, WhichWayConfig, "config")
    effects = _effects(np.array(config.gamma), config.theta, config.theta_prime)
    return BivariateWhichWay(config=config, povm=povm_from_stack(effects, WW_LABELS))


def joint_distribution(whichway: BivariateWhichWay, state: StateDescriptor) -> OutcomeDistribution:
    """Bivariate outcome probabilities in WW_LABELS order."""
    return born_probabilities(state, whichway.povm)


def marginals_from_distribution(dist: OutcomeDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Marginal (+, -) distributions of the D branch and the D' branch of a joint distribution."""
    p = dist.as_dict()
    transmitted = np.array([p["++"] + p["+-"], p["-+"] + p["--"]])
    reflected = np.array([p["++"] + p["-+"], p["+-"] + p["--"]])
    return transmitted, reflected


def measured_marginals(
    whichway: BivariateWhichWay, state: StateDescriptor
) -> tuple[np.ndarray, np.ndarray]:
    """Marginal (+, -) distributions of the D branch and the D' branch."""
    return marginals_from_distribution(joint_distribution(whichway, state))


@dataclass(frozen=True, eq=False)
class NonidealityMatrix(ArrayRecord):
    """Column-stochastic map from ideal sharp probabilities to measured marginals.

    The entries must form a nonempty 2-D matrix (ShapeMismatchError). Every
    entry must be finite and nonnegative, and every column must sum to 1
    within atol_algebra (DomainError, in that order). They are held as a
    read-only float64 array.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = _as_array(self.entries, np.float64, "nonideality matrix", 2, frozen=True)
        if entries.size == 0:
            raise ShapeMismatchError(f"nonideality matrix must be nonempty, got shape {entries.shape}")
        # a non-finite entry fails one of the two tests below (NaN and -inf the
        # first, +inf the second); finiteness is checked only then, so that the
        # passing path pays for no third pass
        lowest = entries.min()
        if not lowest >= 0.0:
            if not np.isfinite(entries).all():
                raise DomainError("nonideality entries must be finite")
            raise DomainError(f"nonideality entries must be nonnegative, got min {lowest!r}")
        worst = float(np.max(np.abs(entries.sum(axis=0) - 1.0)))
        if not worst <= DEFAULT_POLICY.atol_algebra:
            if not np.isfinite(entries).all():
                raise DomainError("nonideality entries must be finite")
            raise DomainError(f"columns must each sum to 1, worst deviation {worst:.3e}")
        object.__setattr__(self, "entries", entries)

    @property
    def n_measured(self) -> int:
        return int(self.entries.shape[0])

    @property
    def n_ideal(self) -> int:
        return int(self.entries.shape[1])

    def apply(self, ideal_probs: object) -> np.ndarray:
        probs = _as_array(ideal_probs, np.float64, "ideal probabilities")
        if probs.shape != (self.n_ideal,):
            raise ShapeMismatchError(f"expected {self.n_ideal} ideal probabilities, got shape {probs.shape}")
        return self.entries @ probs


def _closed_form(rows: list[list[float]]) -> NonidealityMatrix:
    """A NonidealityMatrix of `rows`, checking nothing: `marginals_and_nonideality`
    builds them from a checked gamma, and the tests prove them column-stochastic."""
    entries = _as_array(rows, np.float64, "nonideality matrix", frozen=True)
    matrix = object.__new__(NonidealityMatrix)
    object.__setattr__(matrix, "entries", entries)
    return matrix


def marginals_and_nonideality(
    whichway: BivariateWhichWay,
) -> tuple[NonidealityMatrix, NonidealityMatrix]:
    """Nonideality matrices (lambda, mu) of the two branch marginals.

    lambda maps ideal probabilities along theta to the measured D marginal;
    mu maps ideal probabilities along theta_prime to the measured D' marginal.
    Both follow from the effects in closed form: the D marginal's "+"
    effect is gamma * E+(theta), the D' marginal's is (1 - gamma) * E+(theta'),
    so
      lambda = [[gamma, 0], [1 - gamma, 1]],  mu = [[1 - gamma, 0], [gamma, 1]].
    The test suite checks this reconstruction against Born probabilities of
    random states, and that the public constructor accepts both matrices.
    """
    gamma = whichway.config.gamma
    lam = _closed_form([[gamma, 0.0], [1.0 - gamma, 1.0]])
    mu = _closed_form([[1.0 - gamma, 0.0], [gamma, 1.0]])
    return lam, mu


def certainty_check(whichway: BivariateWhichWay, state: StateDescriptor) -> float:
    """Probability that D' stays silent (outcomes "+-" and "--").

    Equals 1 exactly when gamma = 1: with the reflected branch dead, the D'
    record is deterministically "-" for every input state.
    """
    p = joint_distribution(whichway, state).as_dict()
    return p["+-"] + p["--"]
