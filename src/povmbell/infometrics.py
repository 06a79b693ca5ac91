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
no POVM and no nonideality matrix is formed for it. One unchecked kernel,
`_curve_columns`, fills a grid's columns in one block, for `martens_sweep`
and for each chunk of the CLI sweep's grid, both checked first. The tests
prove that the which-way effects behind it are POVMs for every gamma in
[0, 1] (`tests/test_derived_povms.py`) and that its entropies are
`row_entropy` of the which-way nonideality matrices, bit for bit.
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
    _trusted,
    as_angle,
    as_matrix,
    expectation,
    hermiticity_defect,
)
from .whichway import BivariateWhichWay, NonidealityMatrix

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
    """Entropic tradeoff over a grid of transmissivities; its arrays follow the grid,
    read-only copies of a caller's (float64, `satisfied` boolean), and are not checked."""

    j_lambda: np.ndarray
    j_mu: np.ndarray
    bound: float
    slack: np.ndarray
    satisfied: np.ndarray

    def __post_init__(self) -> None:
        for name in ("j_lambda", "j_mu", "slack", "satisfied"):
            dtype = np.bool_ if name == "satisfied" else np.float64
            self.__dict__[name] = _as_array(getattr(self, name), dtype, name, frozen=True)
        self.__dict__["bound"] = _as_array(self.bound, float, "bound")


def _curve_columns(grid: np.ndarray, bound: float) -> np.ndarray:
    """The columns gamma, j_lambda, j_mu, bound, slack of a grid in [0, 1], in one (5, n) block.

    j_lambda = J(1 - gamma) and j_mu = J(gamma), where `row_entropy` of
    [[1 - r, 0], [r, 1]] (whose first row gives 0) is, with 0 ln 0 = 0,
      J(r) = -(r ln(r / (r + 1)) + ln(1 / (r + 1))) / 2,
    made by its operations in its order (-(x)/2 as x/(-2), the same double),
    so bit for bit. No J is negative: each term is r >= 0 times the log of a
    ratio at most 1. Unchecked: `martens_sweep` or `spec_from_dict` checks the grid.
    """
    block = np.empty((5, grid.size))
    _, j_lambda, j_mu, bounds, slack = block
    block[0:3:2] = grid  # gamma, and r = gamma for j_mu
    np.subtract(1.0, grid, out=j_lambda)  # r = 1 - gamma for j_lambda
    r = block[1:3]
    # one log of r / (r + 1) and 1 / (r + 1); the ratio of r = 0 stays 1, so 0 ln 0 = 0
    ratio, total = logs = np.ones((2, 2, grid.size))
    np.divide(r, np.add(r, 1.0, out=total), out=ratio, where=r > 0.0)
    np.divide(1.0, total, out=total)
    np.log(logs, out=logs)
    np.add(np.multiply(r, ratio, out=ratio), total, out=r)
    np.add(np.divide(r, -2.0, out=r), 0.0, out=r)  # never -0.0
    bounds.fill(bound)
    np.subtract(np.add(j_lambda, j_mu, out=slack), bound, out=slack)
    return block


def martens_sweep(
    gammas: object,
    theta: float | PolarizationAngle,
    theta_prime: float | PolarizationAngle,
) -> MartensCurve:
    """Evaluate j_lambda + j_mu >= bound over a 1-D grid of transmissivities.

    The grid must be nonempty and 1-D (ShapeMismatchError), every point in
    [0, 1] (DomainError names the first that is not). The entropies and
    slacks are closed forms of gamma, computed by `_curve_columns` over the
    grid by the operations `martens_check` makes on one point; nothing is
    checked after the inputs. The curve's arrays are read-only.
    """
    grid = _as_array(gammas, np.float64, "gamma grid")
    if grid.ndim != 1 or grid.size == 0:
        raise ShapeMismatchError(f"gamma grid must be a nonempty 1-D array, got shape {grid.shape}")
    inside = (grid >= 0.0) & (grid <= 1.0)  # False for NaN
    if not inside.all():
        raise DomainError(f"gamma must lie in [0, 1], got {float(grid[~inside][0])!r}")
    bound = martens_bound(theta, theta_prime)
    block = _curve_columns(grid, bound)
    block.setflags(write=False)
    satisfied = block[4] >= -DEFAULT_POLICY.atol_positivity
    satisfied.setflags(write=False)
    _, j_lambda, j_mu, _, slack = block
    return _trusted(MartensCurve, j_lambda=j_lambda, j_mu=j_mu, bound=bound, slack=slack, satisfied=satisfied)


def _martens_point(gamma: float, theta: PolarizationAngle, theta_prime: PolarizationAngle) -> tuple:
    """The fields of the `MartensReport` of a checked gamma, for `martens_check` and the CLI's
    `whichway` row: the entropies of the sweep's `_curve_columns` at r = 1 - gamma and
    r = gamma, by its operations on Python floats and its four logs in one np.log call,
    so each value is the sweep's bit for bit."""
    bound = martens_bound(theta, theta_prime)
    rs = (1.0 - gamma, gamma)
    totals = [r + 1.0 for r in rs]
    # r = 0 contributes 0 ln 0 = 0: its ratio is 1, whose log is 0
    ratios = [r / total if r > 0.0 else 1.0 for r, total in zip(rs, totals)]
    logs = np.log([*ratios, 1.0 / totals[0], 1.0 / totals[1]]).tolist()
    j_lambda, j_mu = (-(r * logs[i] + logs[2 + i]) / 2 + 0.0 for i, r in enumerate(rs))
    slack = j_lambda + j_mu - bound
    return j_lambda, j_mu, bound, slack, slack >= -DEFAULT_POLICY.atol_positivity


def martens_check(whichway: BivariateWhichWay) -> MartensReport:
    """Evaluate j_lambda + j_mu >= bound for one which-way configuration, by
    `_martens_point`. The which-way POVM was validated when it was built."""
    config = _of_type(whichway, BivariateWhichWay, "whichway").config
    return MartensReport(*_martens_point(config.gamma, config.theta, config.theta_prime))


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
