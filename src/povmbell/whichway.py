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
returns those smearing matrices. One scalar kernel, `_effect_rows`, forms
the four effects of one transmissivity as nested lists of Python complex
numbers: `build_whichway` checks them with `validate_povm`, the CLI's arm
kernel `cli._arm` certifies them before it makes their frozen stack, and
`chsh_aspect` forms the gamma = 1 and gamma = 0 corners from them,
unchecked. The smearing matrices
are closed forms of gamma, and `infometrics` evaluates their row entropies
in closed form, without forming them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatchError
from .measurement import OutcomeDistribution, Povm, born_probabilities, validate_povm
from .qcore import (
    DEFAULT_POLICY,
    ArrayRecord,
    PolarizationAngle,
    StateDescriptor,
    _as_array,
    _of_type,
    _trusted,
    as_angle,
)

__all__ = [
    "WW_LABELS",
    "WhichWayConfig",
    "BivariateWhichWay",
    "NonidealityMatrix",
    "build_whichway",
    "joint_distribution",
    "marginals_from_distribution",
    "measured_marginals",
    "marginals_and_nonideality",
    "certainty_check",
]

# outcome order is fixed: (D, D') click pattern, "+" = fired
WW_LABELS = ("++", "+-", "-+", "--")


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


def _weighted_projector(weight: float, theta: float | PolarizationAngle) -> tuple[complex, ...]:
    """The entries (00, 01, 10, 11) of weight * E+(theta), as Python complex,
    each by the IEEE operations of `weight * projector_from_angle(theta)` in
    numpy, in their order. So each is numpy's bit for bit, but where a
    subnormal weight times an entry underflows to zero: numpy's complex
    multiply on FMA hardware keeps the exact product's sign, which this one
    rounds away."""
    t = as_angle(theta).theta
    c, s = complex(math.cos(t), 0.0), complex(math.sin(t), 0.0)
    c_bar, s_bar = c.conjugate(), s.conjugate()
    w = complex(weight, 0.0)
    return w * (c * c_bar), w * (c * s_bar), w * (s * c_bar), w * (s * s_bar)


def _effect_rows(
    gamma: float,
    theta: float | PolarizationAngle,
    theta_prime: float | PolarizationAngle,
) -> list:
    """The which-way effects of one transmissivity gamma in [0, 1], as (4, 2, 2) nested lists of complex.

    The four effects in WW_LABELS order:
      ++ : 0                            (both branches firing is impossible)
      +- : gamma * E+(theta)            (transmitted, analyzer passes)
      -+ : (1-gamma) * E+(theta')       (reflected, analyzer passes)
      -- : rest of the identity         (no detector fires)
    The last effect equals gamma*E-(theta) + (1-gamma)*E-(theta'), a convex
    combination of projectors, so positivity holds for every gamma in [0, 1].
    Every effect is affine in gamma, E(gamma) = gamma E(1) + (1-gamma) E(0),
    and the axioms survive convex combination, so the stack is a POVM for
    every gamma in [0, 1]. Formed from scalars, the entries are the numpy
    array build's bit for bit (see `_weighted_projector`), which the tests
    keep as the reference. Neither gamma nor the effects are checked here:
    `build_whichway` and `cli._arm` check the arms they form, and the tests
    prove the stacks of the paths that reduce them to numbers
    (`tests/test_derived_povms.py`).
    """
    t00, t01, t10, t11 = _weighted_projector(gamma, theta)
    r00, r01, r10, r11 = _weighted_projector(1.0 - gamma, theta_prime)
    # the rest of the identity, (I - transmitted) - reflected entry by entry
    return [
        [[0j, 0j], [0j, 0j]],
        [[t00, t01], [t10, t11]],
        [[r00, r01], [r10, r11]],
        [[1 + 0j - t00 - r00, 0j - t01 - r01], [0j - t10 - r10, 1 + 0j - t11 - r11]],
    ]


def build_whichway(config: WhichWayConfig) -> BivariateWhichWay:
    """Construct and validate the 4-effect which-way POVM (see `_effect_rows`).

    The config checked its gamma when it was made.
    """
    _of_type(config, WhichWayConfig, "config")
    effects = _effect_rows(config.gamma, config.theta, config.theta_prime)
    return BivariateWhichWay(config=config, povm=validate_povm(effects, WW_LABELS))


def joint_distribution(whichway: BivariateWhichWay, state: StateDescriptor) -> OutcomeDistribution:
    """Bivariate outcome probabilities in WW_LABELS order."""
    return born_probabilities(state, _of_type(whichway, BivariateWhichWay, "whichway").povm)


def marginals_from_distribution(dist: OutcomeDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Marginal (+, -) distributions of the D branch and the D' branch of a joint distribution."""
    p = _of_type(dist, OutcomeDistribution, "distribution").as_dict()
    if p.keys() != set(WW_LABELS):
        raise DomainError("distribution does not carry which-way outcome labels")
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
    gamma = _of_type(whichway, BivariateWhichWay, "whichway").config.gamma
    lam = np.array([[gamma, 0.0], [1.0 - gamma, 1.0]])
    mu = np.array([[1.0 - gamma, 0.0], [gamma, 1.0]])
    lam.setflags(write=False)
    mu.setflags(write=False)
    return _trusted(NonidealityMatrix, entries=lam), _trusted(NonidealityMatrix, entries=mu)


def certainty_check(whichway: BivariateWhichWay, state: StateDescriptor) -> float:
    """Probability that D' stays silent (outcomes "+-" and "--").

    Equals 1 exactly when gamma = 1: with the reflected branch dead, the D'
    record is deterministically "-" for every input state.
    """
    p = joint_distribution(whichway, state).as_dict()
    return p["+-"] + p["--"]
