"""Information-theoretic quality measures for nonideal joint measurements.

The average row entropy of a nonideality matrix quantifies how much a
measured marginal smears the ideal sharp measurement it approximates (0 for
a faithful measurement, ln N for a completely uninformative one). For a
which-way measurement the two row entropies cannot both be small: their sum
is bounded below by the Martens complementarity bound, which depends only on
the overlap of the two ideal measurements. The Heisenberg preparation
relation bounds products of standard deviations and is logically independent
of that measurement-quality tradeoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InvariantViolationError, ShapeMismatchError
from .measurement import validate_effect_stack
from .qcore import (
    DEFAULT_POLICY,
    ArrayRecord,
    NumericPolicy,
    PolarizationAngle,
    StateDescriptor,
    as_angle,
    as_matrix,
    expectation,
    hermiticity_defect,
    matmul,
)
from .whichway import (
    WW_LABELS,
    BivariateWhichWay,
    NonidealityMatrix,
    column_stochastic,
    nonideality_stack,
    whichway_effects,
)

__all__ = [
    "MartensReport",
    "MartensCurve",
    "HeisenbergCheck",
    "row_entropy",
    "martens_bound",
    "martens_check",
    "martens_sweep",
    "heisenberg_check",
]


def row_entropy(
    matrix: NonidealityMatrix | object,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> float | np.ndarray:
    """Average row entropy of a column-stochastic matrix, in nats.

    J = -(1/N) * sum_{m,k} L[m,k] * ln(L[m,k] / r_m)  with r_m the m-th row
    sum, N the number of ideal outcomes (columns), and 0 ln 0 = 0. J is 0
    exactly when every row has at most one nonzero entry (the measured
    marginal reproduces the ideal distribution up to relabeling) and reaches
    ln N when all columns are identical.

    Accepts one matrix (returns a float) or a stack of shape
    (..., n_measured, n_ideal) (returns an array of the stack's leading
    shape). Every J is checked against [0, ln N]: rounding dust within
    atol_positivity outside the range is clamped, anything further raises
    InvariantViolationError.
    """
    if isinstance(matrix, NonidealityMatrix):
        entries = matrix.entries
    else:
        entries = column_stochastic(matrix)
    n_ideal = entries.shape[-1]
    row_sums = entries.sum(axis=-1, keepdims=True)
    # zero entries contribute 0 ln 0 = 0: their ratio is left at 1, whose log is 0
    ratio = np.divide(entries, row_sums, out=np.ones_like(entries), where=entries > 0.0)
    result = -(entries * np.log(ratio)).sum(axis=(-2, -1)) / n_ideal + 0.0  # never -0.0
    upper = math.log(n_ideal)
    lowest, highest = float(result.min()), float(result.max())
    if lowest < 0.0 or highest > upper:
        if lowest < -policy.atol_positivity:
            raise InvariantViolationError(f"row entropy came out negative: {lowest!r}")
        if highest > upper + policy.atol_positivity:
            raise InvariantViolationError(
                f"row entropy {highest!r} exceeds ln(N) = {upper!r}"
            )
        result = result.clip(0.0, upper)
    return float(result) if entries.ndim == 2 else result


def martens_bound(
    theta: float | PolarizationAngle,
    theta_prime: float | PolarizationAngle,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> float:
    """Lower bound on the summed row entropies of a joint measurement.

    -ln of the largest trace overlap Tr(E_a E_b) between effects of the two
    ideal polarization measurements. For axes separated by delta the
    overlaps are cos^2 delta and sin^2 delta, so the bound is
    -ln(max(cos^2 delta, sin^2 delta)), evaluated in that closed form: zero
    for parallel or perpendicular axes, maximal (ln 2) at 45 degrees where
    the measurements are mutually unbiased. The overlap is checked to lie in
    (0, 1] within atol_positivity.
    """
    delta = as_angle(theta).theta - as_angle(theta_prime).theta
    overlap = max(math.cos(delta) ** 2, math.sin(delta) ** 2)
    if overlap > 1.0 + policy.atol_positivity:
        raise InvariantViolationError(f"effect overlap {overlap!r} exceeds 1")
    overlap = min(overlap, 1.0)
    if overlap <= 0.0:
        raise InvariantViolationError(f"maximal effect overlap {overlap!r} is not positive")
    return -math.log(overlap) + 0.0


@dataclass(frozen=True)
class MartensReport:
    """Entropic tradeoff of one which-way measurement against its lower bound."""

    j_lambda: float
    j_mu: float
    bound: float
    slack: float
    satisfied: bool


@dataclass(frozen=True, eq=False)
class MartensCurve(ArrayRecord):
    """Entropic tradeoff over a grid of transmissivities; arrays follow the grid."""

    j_lambda: np.ndarray
    j_mu: np.ndarray
    bound: float
    slack: np.ndarray
    satisfied: np.ndarray


# grid points whose which-way effects martens_sweep checks in one batch; the
# check's pairwise effect products take 1 KiB per point, 4 MiB per batch
SWEEP_CHUNK = 4096


def _tradeoff(gammas: np.ndarray, bound: float, policy: NumericPolicy) -> MartensCurve:
    j_lambda, j_mu = row_entropy(nonideality_stack(gammas), policy=policy)
    slack = j_lambda + j_mu - bound
    return MartensCurve(
        j_lambda=j_lambda,
        j_mu=j_mu,
        bound=bound,
        slack=slack,
        satisfied=slack >= -policy.atol_positivity,
    )


def martens_sweep(
    gammas: object,
    theta: float | PolarizationAngle,
    theta_prime: float | PolarizationAngle,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> MartensCurve:
    """Evaluate j_lambda + j_mu >= bound over a 1-D grid of transmissivities.

    The which-way effects of every grid point first pass the POVM axiom
    checks, in batches of SWEEP_CHUNK points so the check's memory stays
    bounded; the entropies and slacks are then computed as arrays over the
    whole grid, by the same code `martens_check` runs for one point.
    """
    grid = np.asarray(gammas, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ShapeMismatchError(f"gamma grid must be a nonempty 1-D array, got shape {grid.shape}")
    for start in range(0, grid.size, SWEEP_CHUNK):
        effects = whichway_effects(grid[start : start + SWEEP_CHUNK], theta, theta_prime)
        validate_effect_stack(effects, WW_LABELS, policy=policy)
    return _tradeoff(grid, martens_bound(theta, theta_prime, policy=policy), policy)


def martens_check(
    whichway: BivariateWhichWay,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> MartensReport:
    """Evaluate j_lambda + j_mu >= bound for one which-way configuration.

    The one-point case of the sweep's tradeoff evaluation; the which-way
    POVM was validated when it was built.
    """
    config = whichway.config
    bound = martens_bound(config.theta, config.theta_prime, policy=policy)
    curve = _tradeoff(np.array([config.gamma]), bound, policy)
    return MartensReport(
        j_lambda=float(curve.j_lambda[0]),
        j_mu=float(curve.j_mu[0]),
        bound=bound,
        slack=float(curve.slack[0]),
        satisfied=bool(curve.satisfied[0]),
    )


class HeisenbergCheck(NamedTuple):
    lhs: float
    rhs: float
    satisfied: bool


def heisenberg_check(
    state: StateDescriptor,
    op_a: object,
    op_b: object,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> HeisenbergCheck:
    """Preparation uncertainty: std(A) * std(B) >= |<[A, B]>| / 2.

    Both operators must be Hermitian. Variances are clamped at zero before
    the square root; eigenstates make <A^2> - <A>^2 a difference of nearly
    equal doubles that can round slightly negative.
    """
    mat_a = as_matrix(op_a)
    mat_b = as_matrix(op_b)
    for name, mat in (("first", mat_a), ("second", mat_b)):
        defect = hermiticity_defect(mat)
        if defect > policy.atol_algebra:
            raise DomainError(
                f"{name} operator is not Hermitian (max deviation {defect:.3e})"
            )

    def std(mat: np.ndarray) -> float:
        mean = expectation(state, mat).real
        mean_sq = expectation(state, matmul(mat, mat)).real
        return math.sqrt(max(mean_sq - mean * mean, 0.0))

    commutator = matmul(mat_a, mat_b) - matmul(mat_b, mat_a)
    lhs = std(mat_a) * std(mat_b)
    rhs = 0.5 * abs(expectation(state, commutator))
    return HeisenbergCheck(lhs=lhs, rhs=rhs, satisfied=lhs >= rhs - policy.atol_positivity)
