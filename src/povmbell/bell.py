"""Generalized two-photon correlation experiments and CHSH statistics.

Each arm of a photon pair runs its own which-way measurement, so a single
run of the joint experiment reads out four detectors at once: D1 and D1' on
arm 1 (analyzers along theta1 and theta1'), D2 and D2' on arm 2. The joint
POVM is the tensor product of the arm POVMs, with 16 outcome labels
"m1 n1,m2 n2" (arm 1 first). Encoding a detector's record as +1 for a click
and -1 for silence gives four pairwise correlations, one per (arm-1, arm-2)
detector pair, all estimated from the same quadrivariate distribution.

Two CHSH-style statistics are distinguished deliberately:

* `chsh_single_run` combines the four correlations of ONE joint measurement.
  Its value is bounded by 2 as a matter of arithmetic, for every state and
  configuration: the four detector signs exist jointly in each run, and
  s1*(s2 - s2') + s1'*(s2 + s2') is +-2 pointwise.
* `chsh_aspect` pools correlations from FOUR runs at the extreme beam
  splitter settings (each arm fully transmitting or fully reflecting), one
  detector pair per run. Nothing bounds that combination by 2, and entangled
  states push it to 2*sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatchError
from .measurement import OutcomeDistribution, Povm, Pvm, born_probabilities, born_values
from .qcore import DEFAULT_POLICY, PolarizationAngle, StateDescriptor, _of_type
from .whichway import WW_LABELS, WhichWayConfig, _effects, build_whichway

__all__ = [
    "QUAD_LABELS",
    "CHSH_PAIRS",
    "CHSH_SIGNS",
    "BellConfig",
    "QuadrivariateBell",
    "ChshReport",
    "build_bell",
    "quad_distribution",
    "correlation_from_distribution",
    "detector_correlation",
    "chsh_report_from_distribution",
    "chsh_single_run",
    "chsh_aspect",
    "singlet_state",
]

QUAD_LABELS = tuple(f"{m1n1},{m2n2}" for m1n1 in WW_LABELS for m2n2 in WW_LABELS)

_ARM1_DETECTORS = ("D1", "D1'")
_ARM2_DETECTORS = ("D2", "D2'")

CHSH_PAIRS = (("D1", "D2"), ("D1", "D2'"), ("D1'", "D2"), ("D1'", "D2'"))

# click signs (+1 fired, -1 silent) of an arm's unprimed and primed detector
# over its WW_LABELS outcomes "++", "+-", "-+", "--"
_ARM_SIGNS = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])

# CHSH_SIGNS[q, c]: product of the two detector signs of CHSH_PAIRS[c] in
# outcome QUAD_LABELS[q], so the four correlations of a distribution are
# one mat-vec, probs @ CHSH_SIGNS
CHSH_SIGNS = np.stack(
    [np.outer(_ARM_SIGNS[a], _ARM_SIGNS[b]).ravel() for a in (0, 1) for b in (0, 1)], axis=1
)
CHSH_SIGNS.setflags(write=False)
_QUAD_INDEX = {label: q for q, label in enumerate(QUAD_LABELS)}
# the transmissivities of an arm in the four corners of `chsh_aspect`
_CORNER_GAMMAS = np.array([1.0, 0.0])
_CORNER_GAMMAS.setflags(write=False)


@dataclass(frozen=True)
class BellConfig:
    """Two which-way arm configurations and a shared two-photon state."""

    arm1: WhichWayConfig
    arm2: WhichWayConfig
    state: StateDescriptor

    def __post_init__(self) -> None:
        _of_type(self.arm1, WhichWayConfig, "arm1")
        _of_type(self.arm2, WhichWayConfig, "arm2")
        _of_type(self.state, StateDescriptor, "state")
        if self.state.dim != 4:
            raise ShapeMismatchError(
                f"two-photon state must have dimension 4, got {self.state.dim}"
            )


@dataclass(frozen=True)
class QuadrivariateBell:
    """A Bell configuration together with its validated 16-outcome POVM."""

    config: BellConfig
    povm: Povm


def _joint_effects(arm1: np.ndarray, arm2: np.ndarray) -> np.ndarray:
    """Tensor products of every arm-1 setting's effects with every arm-2 setting's.

    arm1 and arm2 have shape (n, 4, 2, 2); the result has shape
    (n * n, 16, 4, 4), settings and effects in row-major (arm 1, arm 2)
    order. It is one broadcast outer product, element for element the
    product np.kron forms, so every effect equals np.kron of its arm effects
    bit for bit (an einsum would add each product to a zero, which turns
    negative zeros positive).
    """
    joint = arm1[:, None, :, None, :, None, :, None] * arm2[None, :, None, :, None, :, None, :]
    return joint.reshape(arm1.shape[0] * arm2.shape[0], 16, 4, 4)


def build_bell(config: BellConfig) -> QuadrivariateBell:
    """Tensor the two arm POVMs into one 16-effect POVM.

    Each arm is validated by `build_whichway`. A tensor product of POVMs is
    a POVM, sharp exactly when both factors are, so the joint stack is not
    checked again (the tests prove it): it is a Pvm when both arms are.
    """
    arm1 = build_whichway(config.arm1).povm
    arm2 = build_whichway(config.arm2).povm
    joint = _joint_effects(arm1.stack[None], arm2.stack[None])[0]
    cls = Pvm if isinstance(arm1, Pvm) and isinstance(arm2, Pvm) else Povm
    return QuadrivariateBell(config=config, povm=cls(stack=joint, labels=QUAD_LABELS))


def quad_distribution(bell: QuadrivariateBell) -> OutcomeDistribution:
    """Joint 16-outcome probabilities of the configured state."""
    return born_probabilities(_of_type(bell, QuadrivariateBell, "bell").config.state, bell.povm)


def _pair_column(pair: tuple[str, str]) -> int:
    if len(pair) != 2 or pair[0] not in _ARM1_DETECTORS or pair[1] not in _ARM2_DETECTORS:
        raise DomainError(
            f"detector pair must combine one of {_ARM1_DETECTORS} with one of "
            f"{_ARM2_DETECTORS}, got {pair!r}"
        )
    return CHSH_PAIRS.index(tuple(pair))


def _sign_rows(dist: OutcomeDistribution) -> np.ndarray:
    """Rows of CHSH_SIGNS in the order of the distribution's labels."""
    if dist.labels == QUAD_LABELS:
        return CHSH_SIGNS
    if set(dist.labels) != set(QUAD_LABELS):
        raise DomainError("distribution does not carry quadrivariate outcome labels")
    return CHSH_SIGNS[[_QUAD_INDEX[label] for label in dist.labels]]


def correlation_from_distribution(
    dist: OutcomeDistribution,
    pair: tuple[str, str],
) -> float:
    """Expected product of two detectors' +-1 click signs under `dist`."""
    column = _pair_column(pair)
    return float(dist.probs @ _sign_rows(dist)[:, column])


def detector_correlation(bell: QuadrivariateBell, pair: tuple[str, str]) -> float:
    return correlation_from_distribution(quad_distribution(bell), pair)


@dataclass(frozen=True)
class ChshReport:
    """Four detector correlations and their CHSH combination."""

    correlations: dict[str, float]
    s_value: float
    violates: bool
    s_symmetric_max: float


def _combine(values: list[float]) -> ChshReport:
    # canonical combination puts the minus on the (D1, D2') term
    s_value = values[0] - values[1] + values[2] + values[3]
    s_symmetric_max = 0.0
    for minus_at in range(4):
        signed = sum(-v if i == minus_at else v for i, v in enumerate(values))
        s_symmetric_max = max(s_symmetric_max, abs(signed))
    correlations = {f"{a},{b}": v for (a, b), v in zip(CHSH_PAIRS, values)}
    return ChshReport(
        correlations=correlations,
        s_value=s_value,
        violates=abs(s_value) > 2.0 + DEFAULT_POLICY.atol_positivity,
        s_symmetric_max=s_symmetric_max,
    )


def chsh_report_from_distribution(dist: OutcomeDistribution) -> ChshReport:
    """CHSH statistics of one quadrivariate distribution (single-run form)."""
    return _combine((dist.probs @ _sign_rows(dist)).tolist())


def chsh_single_run(bell: QuadrivariateBell) -> ChshReport:
    """CHSH combination of the four correlations of one joint measurement.

    |s_value| <= 2 for every configuration and state; see the module
    docstring for why. `s_symmetric_max` additionally maximizes over the
    eight sign-symmetric CHSH forms, and obeys the same bound here.
    """
    return chsh_report_from_distribution(quad_distribution(bell))


def chsh_aspect(
    state: StateDescriptor,
    theta1: float | PolarizationAngle,
    theta1_prime: float | PolarizationAngle,
    theta2: float | PolarizationAngle,
    theta2_prime: float | PolarizationAngle,
) -> ChshReport:
    """CHSH combination pooled from four extreme-transmissivity runs.

    Corner (gamma1, gamma2) = (1, 1) makes D1 and D2 the only live detectors
    and contributes E(D1, D2); the other corners contribute the remaining
    pairs. Each correlation comes from a DIFFERENT measurement context, so
    the single-run bound of 2 does not apply; a singlet state at analyzer
    angles (0, 45, 22.5, 67.5 degrees) reaches |s_value| = 2*sqrt(2).

    The corners tensor each arm's which-way effects at gamma = 1 and
    gamma = 0, closed forms of the checked angles. They are reduced to the
    four correlations here and never handed out, so they are not checked
    at run time; the tests prove them POVMs (`tests/test_derived_povms.py`).
    """
    if _of_type(state, StateDescriptor, "state").dim != 4:
        raise ShapeMismatchError(f"two-photon state must have dimension 4, got {state.dim}")
    # gammas (1, 0) on each arm give the corners (1, 1), (1, 0), (0, 1), (0, 0)
    # in that order; corner c has only the detectors of CHSH_PAIRS[c] live
    corners = _joint_effects(
        _effects(_CORNER_GAMMAS, theta1, theta1_prime),
        _effects(_CORNER_GAMMAS, theta2, theta2_prime),
    )
    values = born_values(state, corners, QUAD_LABELS)
    correlations = []
    for c, row in enumerate(values):
        dist = OutcomeDistribution.from_values(QUAD_LABELS, row)
        correlations.append(float(dist.probs @ CHSH_SIGNS[:, c]))
    return _combine(correlations)


def singlet_state() -> StateDescriptor:
    """Antisymmetric two-photon polarization state (|01> - |10>)/sqrt(2)."""
    amp = 1.0 / math.sqrt(2.0)
    return StateDescriptor.pure([0.0, amp, -amp, 0.0])
