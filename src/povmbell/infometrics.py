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
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DomainError, InvariantViolationError, ShapeMismatchError
from .qcore import (
    DEFAULT_POLICY,
    ArrayRecord,
    PolarizationAngle,
    StateDescriptor,
    as_angle,
    as_matrix,
    expectation,
    hermiticity_defect,
)
from .whichway import (
    BivariateWhichWay,
    NonidealityMatrix,
    _checked_gammas,
    column_stochastic,
    nonideality_stack,
    whichway_endpoints,
)

__all__ = [
    "SWEEP_CHUNK",
    "MartensReport",
    "MartensCurve",
    "HeisenbergCheck",
    "row_entropy",
    "martens_bound",
    "martens_check",
    "martens_sweep",
    "martens_sweep_chunks",
    "heisenberg_check",
]

# grid points `martens_sweep_chunks` evaluates at a time
SWEEP_CHUNK = 4096


def row_entropy(matrix: NonidealityMatrix | object) -> float | np.ndarray:
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
        if lowest < -DEFAULT_POLICY.atol_positivity:
            raise InvariantViolationError(f"row entropy came out negative: {lowest!r}")
        if highest > upper + DEFAULT_POLICY.atol_positivity:
            raise InvariantViolationError(
                f"row entropy {highest!r} exceeds ln(N) = {upper!r}"
            )
        result = result.clip(0.0, upper)
    return float(result) if entries.ndim == 2 else result


def martens_bound(
    theta: float | PolarizationAngle,
    theta_prime: float | PolarizationAngle,
) -> float:
    """Lower bound on the summed row entropies of a joint measurement.

    -ln of the largest trace overlap Tr(E_a E_b) between effects of the two
    ideal polarization measurements. For axes separated by delta the
    overlaps are cos^2 delta and sin^2 delta, so the bound is
    -ln(max(cos^2 delta, sin^2 delta)), evaluated in that closed form: zero
    for parallel or perpendicular axes, maximal (ln 2) at 45 degrees where
    the measurements are mutually unbiased. The overlap lies in [1/2, 1] by
    construction, so the bound lies in [0, ln 2]; the tests prove it.
    """
    delta = as_angle(theta).theta - as_angle(theta_prime).theta
    return -math.log(max(math.cos(delta) ** 2, math.sin(delta) ** 2)) + 0.0


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


def _tradeoff(nonideality: np.ndarray, bound: float) -> MartensCurve:
    j_lambda, j_mu = row_entropy(nonideality)
    slack = j_lambda + j_mu - bound
    return MartensCurve(
        j_lambda=j_lambda,
        j_mu=j_mu,
        bound=bound,
        slack=slack,
        satisfied=slack >= -DEFAULT_POLICY.atol_positivity,
    )


def _sweep_grid(gammas: object) -> np.ndarray:
    """The grid as a float64 array; ShapeMismatchError unless it is nonempty and 1-D."""
    grid = np.asarray(gammas, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ShapeMismatchError(f"gamma grid must be a nonempty 1-D array, got shape {grid.shape}")
    return grid


def martens_sweep(
    gammas: object,
    theta: float | PolarizationAngle,
    theta_prime: float | PolarizationAngle,
) -> MartensCurve:
    """Evaluate j_lambda + j_mu >= bound over a 1-D grid of transmissivities.

    Every grid point must lie in [0, 1] (DomainError names the first that
    does not). The which-way effects are affine in gamma, so one check of
    the two endpoint measurements (`whichway_endpoints`) covers the whole
    grid; the entropies and slacks are then computed as arrays over it, by
    the same code `martens_check` runs for one point.
    """
    nonideality = nonideality_stack(_sweep_grid(gammas))
    whichway_endpoints(theta, theta_prime)
    return _tradeoff(nonideality, martens_bound(theta, theta_prime))


def martens_sweep_chunks(
    gammas: object,
    theta: float | PolarizationAngle,
    theta_prime: float | PolarizationAngle,
) -> Iterator[tuple[np.ndarray, MartensCurve]]:
    """`martens_sweep` of the grid SWEEP_CHUNK points at a time.

    Yields (grid piece, its curve) pairs in grid order. Every check of the
    inputs, the grid's and the endpoint measurements', runs in this call,
    before the first piece is evaluated; each piece then costs memory in
    proportion to SWEEP_CHUNK only, and only the row-entropy range check
    of its own points can still fail. The pieces hold the same numbers as
    the whole-grid curve.
    """
    grid = _checked_gammas(_sweep_grid(gammas))
    whichway_endpoints(theta, theta_prime)
    bound = martens_bound(theta, theta_prime)
    pieces = (grid[start : start + SWEEP_CHUNK] for start in range(0, grid.size, SWEEP_CHUNK))
    return ((piece, _tradeoff(nonideality_stack(piece), bound)) for piece in pieces)


def martens_check(whichway: BivariateWhichWay) -> MartensReport:
    """Evaluate j_lambda + j_mu >= bound for one which-way configuration.

    The one-point case of the sweep's tradeoff evaluation; the which-way
    POVM was validated when it was built.
    """
    config = whichway.config
    bound = martens_bound(config.theta, config.theta_prime)
    curve = _tradeoff(nonideality_stack([config.gamma]), bound)
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


def heisenberg_check(state: StateDescriptor, op_a: object, op_b: object) -> HeisenbergCheck:
    """Preparation uncertainty: std(A) * std(B) >= |<[A, B]>| / 2.

    Both operators must be Hermitian, with finite entries, and of the
    state's dimension (DomainError, ShapeMismatchError). Variances
    are clamped at zero before the square root; eigenstates make
    <A^2> - <A>^2 a difference of nearly equal doubles that can round
    slightly negative.
    """
    mat_a = as_matrix(op_a)
    mat_b = as_matrix(op_b)
    for name, mat in (("first", mat_a), ("second", mat_b)):
        defect = hermiticity_defect(mat)
        if not defect <= DEFAULT_POLICY.atol_algebra:  # a NaN defect fails too
            raise DomainError(
                f"{name} operator is not Hermitian (max deviation {defect:.3e})"
            )
    # both are square now; `expectation` checks them against the state
    if mat_a.shape != mat_b.shape:
        raise ShapeMismatchError(f"cannot multiply {mat_a.shape} by {mat_b.shape}")

    def std(mat: np.ndarray) -> float:
        mean = expectation(state, mat).real
        mean_sq = expectation(state, mat @ mat).real
        return math.sqrt(max(mean_sq - mean * mean, 0.0))

    commutator = mat_a @ mat_b - mat_b @ mat_a
    lhs = std(mat_a) * std(mat_b)
    rhs = 0.5 * abs(expectation(state, commutator))
    return HeisenbergCheck(lhs=lhs, rhs=rhs, satisfied=lhs >= rhs - DEFAULT_POLICY.atol_positivity)
