"""Information-theoretic quality measures for nonideal joint measurements.

The average row entropy of a nonideality matrix quantifies how much a
measured marginal smears the ideal sharp measurement it approximates (0 for
a faithful measurement, ln N for a completely uninformative one). For a
which-way measurement the two row entropies cannot both be small: their sum
is bounded below by the Martens complementarity bound, which depends only on
the overlap of the two ideal measurements. The Heisenberg preparation
relation bounds products of standard deviations and is logically independent
of that measurement-quality tradeoff.

The tradeoff is a closed form of the checked transmissivities and angles:
no POVM and no nonideality matrix is formed for it, so a sweep checks its
inputs and nothing after them. The tests prove that the which-way effects
behind it are POVMs for every gamma in [0, 1] (`tests/test_derived_povms.py`)
and that its entropies are `row_entropy` of the which-way nonideality
matrices, bit for bit (`tests/test_infometrics.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InvariantViolationError, ShapeMismatchError
from .qcore import (
    DEFAULT_POLICY,
    ArrayRecord,
    PolarizationAngle,
    StateDescriptor,
    _as_array,
    _of_type,
    as_angle,
    as_matrix,
    expectation,
    hermiticity_defect,
)
from .whichway import BivariateWhichWay, NonidealityMatrix, _checked_gammas

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


def row_entropy(matrix: NonidealityMatrix | object) -> float:
    """Average row entropy of a column-stochastic matrix, in nats.

    J = -(1/N) * sum_{m,k} L[m,k] * ln(L[m,k] / r_m)  with r_m the m-th row
    sum, N the number of ideal outcomes (columns), and 0 ln 0 = 0. J is 0
    exactly when every row has at most one nonzero entry (the measured
    marginal reproduces the ideal distribution up to relabeling) and reaches
    ln N when all columns are identical.

    `matrix` is a NonidealityMatrix, or anything its constructor accepts
    and checks. J is checked against [0, ln N]: rounding dust within
    atol_positivity outside the range is clamped, anything further raises
    InvariantViolationError.
    """
    if not isinstance(matrix, NonidealityMatrix):
        matrix = NonidealityMatrix(matrix)
    entries = matrix.entries
    n_ideal = entries.shape[1]
    row_sums = entries.sum(axis=1, keepdims=True)
    # zero entries contribute 0 ln 0 = 0: their ratio is left at 1, whose log is 0
    ratio = np.divide(entries, row_sums, out=np.ones_like(entries), where=entries > 0.0)
    result = float(-(entries * np.log(ratio)).sum() / n_ideal) + 0.0  # never -0.0
    upper = math.log(n_ideal)
    if not 0.0 <= result <= upper:
        if result < -DEFAULT_POLICY.atol_positivity:
            raise InvariantViolationError(f"row entropy came out negative: {result!r}")
        if result > upper + DEFAULT_POLICY.atol_positivity:
            raise InvariantViolationError(f"row entropy {result!r} exceeds ln(N) = {upper!r}")
        result = min(max(result, 0.0), upper)
    return result


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


def _whichway_row_entropy(r: np.ndarray) -> np.ndarray:
    """`row_entropy` of [[1 - r, 0], [r, 1]] for each r of an array in [0, 1], in closed form.

    lambda is that matrix at r = 1 - gamma, mu at r = gamma. Its first row
    has at most one nonzero entry and contributes 0; its second row gives
      J(r) = -(r ln(r / (r + 1)) + ln(1 / (r + 1))) / 2,  with 0 ln 0 = 0,
    by the operations `row_entropy` makes on that row, in its order, so each
    value is its value bit for bit. No J is negative, as both terms are r >= 0
    times the log of a ratio at most 1; that none exceeds ln 2 the tests prove.
    """
    total = r + 1.0
    # r = 0 contributes 0 ln 0 = 0: its ratio is left at 1, whose log is 0
    ratio = np.divide(r, total, out=np.ones_like(r), where=r > 0.0)
    return -(r * np.log(ratio) + np.log(1.0 / total)) / 2 + 0.0  # never -0.0


def _tradeoff(gammas: np.ndarray, bound: float) -> MartensCurve:
    """The tradeoff over a 1-D array of checked transmissivities."""
    j_lambda, j_mu = _whichway_row_entropy(np.stack((1.0 - gammas, gammas)))
    slack = j_lambda + j_mu - bound
    return MartensCurve(
        j_lambda=j_lambda,
        j_mu=j_mu,
        bound=bound,
        slack=slack,
        satisfied=slack >= -DEFAULT_POLICY.atol_positivity,
    )


def martens_sweep(
    gammas: object,
    theta: float | PolarizationAngle,
    theta_prime: float | PolarizationAngle,
) -> MartensCurve:
    """Evaluate j_lambda + j_mu >= bound over a 1-D grid of transmissivities.

    The grid must be nonempty and 1-D (ShapeMismatchError), every point in
    [0, 1] (DomainError names the first that is not). The entropies and
    slacks are closed forms of gamma, computed as arrays over the grid by
    the same code `martens_check` runs for one point; nothing is checked
    after the inputs.
    """
    grid = _as_array(gammas, np.float64, "gamma grid")
    if grid.ndim != 1 or grid.size == 0:
        raise ShapeMismatchError(f"gamma grid must be a nonempty 1-D array, got shape {grid.shape}")
    return _tradeoff(_checked_gammas(grid), martens_bound(theta, theta_prime))


def martens_check(whichway: BivariateWhichWay) -> MartensReport:
    """Evaluate j_lambda + j_mu >= bound for one which-way configuration.

    The one-point case of the sweep's tradeoff evaluation; the which-way
    POVM was validated when it was built.
    """
    config = _of_type(whichway, BivariateWhichWay, "whichway").config
    bound = martens_bound(config.theta, config.theta_prime)
    curve = _tradeoff(np.array([config.gamma]), bound)
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
