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
from .measurement import OutcomeDistribution, Povm, Pvm, _born, _probabilities, born_probabilities
from .qcore import DEFAULT_POLICY, PolarizationAngle, StateDescriptor, _of_type, _trusted, as_angle
from .whichway import WW_LABELS, WhichWayConfig, _effect_rows, build_whichway

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
_PAIR_COLUMN = {pair: c for c, pair in enumerate(CHSH_PAIRS)}


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


def _joint_povm(arm1: Povm, arm2: Povm) -> Povm:
    """The 16-effect POVM of two checked arms, for `build_bell` and the CLI's bell `sample`."""
    joint = _joint_effects(arm1.stack[None], arm2.stack[None])[0]
    joint.setflags(write=False)
    cls = Pvm if isinstance(arm1, Pvm) and isinstance(arm2, Pvm) else Povm
    return _trusted(cls, stack=joint, labels=QUAD_LABELS)


def build_bell(config: BellConfig) -> QuadrivariateBell:
    """Tensor the two arm POVMs into one 16-effect POVM.

    Each arm is validated by `build_whichway`. A tensor product of POVMs is
    a POVM, sharp exactly when both factors are, so the joint stack is not
    checked again (the tests prove it): it is a Pvm when both arms are.
    """
    arm1 = build_whichway(_of_type(config, BellConfig, "config").arm1).povm
    arm2 = build_whichway(config.arm2).povm
    return QuadrivariateBell(config=config, povm=_joint_povm(arm1, arm2))


def quad_distribution(bell: QuadrivariateBell) -> OutcomeDistribution:
    """Joint 16-outcome probabilities of the configured state."""
    return born_probabilities(_of_type(bell, QuadrivariateBell, "bell").config.state, bell.povm)


def _pair_column(pair: object) -> int:
    try:
        return _PAIR_COLUMN[tuple(pair)]
    except (TypeError, KeyError):  # not iterable, an unhashable detector, or no detector pair
        raise DomainError(
            f"detector pair must combine one of {_ARM1_DETECTORS} with one of "
            f"{_ARM2_DETECTORS}, got {pair!r}"
        ) from None


def _sign_rows(dist: OutcomeDistribution) -> np.ndarray:
    """Rows of CHSH_SIGNS in the order of the distribution's labels."""
    if _of_type(dist, OutcomeDistribution, "distribution").labels == QUAD_LABELS:
        return CHSH_SIGNS
    if set(dist.labels) != set(QUAD_LABELS):
        raise DomainError("distribution does not carry quadrivariate outcome labels")
    return CHSH_SIGNS[[_QUAD_INDEX[label] for label in dist.labels]]


def correlation_from_distribution(
    dist: OutcomeDistribution,
    pair: tuple[str, str],
) -> float:
    """Expected product of two detectors' +-1 click signs under `dist`.

    Kept public for `perfbench/tracer.py`, which times it by this name.
    """
    column = _pair_column(pair)
    signs = _sign_rows(dist)
    return float(dist.probs @ signs[:, column])


@dataclass(frozen=True)
class ChshReport:
    """Four detector correlations and their CHSH combination."""

    correlations: dict[str, float]
    s_value: float
    violates: bool
    s_symmetric_max: float


def _chsh(values: list[float]) -> tuple[float, bool, float]:
    """The CHSH kernel: `s_value`, `violates` and `s_symmetric_max` of the four
    correlations `values`, in CHSH_PAIRS order."""
    a, b, c, d = values
    # canonical combination puts the minus on the (D1, D2') term
    s_value = a - b + c + d
    # the largest |sum| of the four with one sign flipped
    signed = (sum((-a, b, c, d)), sum((a, -b, c, d)), sum((a, b, -c, d)), sum((a, b, c, -d)))
    s_symmetric_max = max(0.0, *map(abs, signed))
    return s_value, abs(s_value) > 2.0 + DEFAULT_POLICY.atol_positivity, s_symmetric_max


def _combine(values: list[float]) -> ChshReport:
    s_value, violates, s_symmetric_max = _chsh(values)
    correlations = {f"{a},{b}": v for (a, b), v in zip(CHSH_PAIRS, values)}
    return ChshReport(
        correlations=correlations, s_value=s_value, violates=violates, s_symmetric_max=s_symmetric_max
    )


def chsh_report_from_distribution(dist: OutcomeDistribution) -> ChshReport:
    """CHSH statistics of one quadrivariate distribution (single-run form)."""
    signs = _sign_rows(dist)
    return _combine((dist.probs @ signs).tolist())


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
    gamma = 0, formed by `whichway._effect_rows` from the checked angles.
    They are reduced to the four correlations by `_aspect_correlations` and
    never handed out, so they are not checked at run time; the tests prove
    them POVMs (`tests/test_derived_povms.py`).
    """
    if _of_type(state, StateDescriptor, "state").dim != 4:
        raise ShapeMismatchError(f"two-photon state must have dimension 4, got {state.dim}")
    angles = [as_angle(theta) for theta in (theta1, theta1_prime, theta2, theta2_prime)]
    return _combine(_aspect_correlations(state, angles))


def _aspect_correlations(state: StateDescriptor, angles: list[PolarizationAngle]) -> list[float]:
    """The kernel of `chsh_aspect`: the four pooled correlations of a two-photon state at the
    angles (theta1, theta1', theta2, theta2'), in CHSH_PAIRS order. The four corners' Born
    rows get the checks of `OutcomeDistribution.from_values` in one batch, by the kernels
    `_born` and `_probabilities`; the first row that fails raises."""
    # gammas (1, 0) on each arm give the corners (1, 1), (1, 0), (0, 1), (0, 0)
    # in that order; corner c has only the detectors of CHSH_PAIRS[c] live
    pairs = (angles[:2], angles[2:])
    entries = [
        z
        for pair in pairs
        for gamma in (1.0, 0.0)
        for effect in _effect_rows(gamma, *pair)
        for line in effect
        for z in line
    ]
    arms = np.array(entries, dtype=complex).reshape(2, 2, 4, 2, 2)
    probs = _probabilities(_born(state, _joint_effects(*arms), QUAD_LABELS))
    return [float(probs[c] @ CHSH_SIGNS[:, c]) for c in range(4)]


def singlet_state() -> StateDescriptor:
    """Antisymmetric two-photon polarization state (|01> - |10>)/sqrt(2)."""
    amp = 1.0 / math.sqrt(2.0)
    return StateDescriptor.pure([0.0, amp, -amp, 0.0])
