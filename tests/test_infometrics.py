"""Unit tests for row entropy, the Martens bound, and the Heisenberg check."""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import random_hermitian, random_state
from povmbell import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DomainError,
    NonidealityMatrix,
    ShapeMismatchError,
    StateDescriptor,
    WhichWayConfig,
    build_whichway,
    heisenberg_check,
    martens_bound,
    martens_check,
    polarization_pvm,
    row_entropy,
)
from povmbell.infometrics import martens_sweep

LN2 = math.log(2.0)


def bound_closed_form(delta: float) -> float:
    """-ln(max(cos^2 delta, sin^2 delta)), the two-outcome polarization case."""
    c2 = math.cos(delta) ** 2
    return -math.log(max(c2, 1.0 - c2))


def overlap_bound(theta: float, theta_prime: float) -> float:
    """Reference: -ln of the largest trace overlap of the two polarization PVMs' effects."""
    overlap = max(
        float(np.real(np.trace(ea.matrix @ eb.matrix)))
        for ea in polarization_pvm(theta).effects
        for eb in polarization_pvm(theta_prime).effects
    )
    return -math.log(min(overlap, 1.0))


def row_entropy_reference(entries):
    """The operations of `row_entropy`, unchecked, over a stack of shape (..., n_measured, n_ideal)."""
    row_sums = entries.sum(axis=-1, keepdims=True)
    ratio = np.divide(entries, row_sums, out=np.ones_like(entries), where=entries > 0.0)
    return -(entries * np.log(ratio)).sum(axis=(-2, -1)) / entries.shape[-1] + 0.0


def whichway_matrices(gammas):
    """The lambda and mu matrices of each gamma, explicitly: shape (2,) + gammas.shape + (2, 2)."""
    one, zero = np.ones_like(gammas), np.zeros_like(gammas)
    lam = np.stack([np.stack([gammas, zero], -1), np.stack([1.0 - gammas, one], -1)], -2)
    mu = np.stack([np.stack([1.0 - gammas, zero], -1), np.stack([gammas, one], -1)], -2)
    return np.stack([lam, mu])


def float_run(center, count):
    """`count` consecutive floats, half below `center` and half from it on."""
    bits = np.array([center]).view(np.int64)[0] + np.arange(-(count // 2), count - count // 2)
    return bits.view(np.float64)


# about 1e6 transmissivities: every float among the first 2e5 from 0 up and
# the last 2e5 up to 1, runs of 1e4 floats around 2^-60 ... 2^-3 and around
# 1/2, and a 1e5-point linspace
EDGE_GRID = np.unique(
    np.concatenate(
        [float_run(0.0, 4 * 10**5)[2 * 10**5 :], float_run(1.0, 4 * 10**5)[: 2 * 10**5 + 1]]
        + [float_run(2.0**e, 10**4) for e in range(-60, -2)]
        + [float_run(0.5, 10**4), np.linspace(0.0, 1.0, 10**5)]
    )
)


class TestRowEntropy:
    def test_identity_is_zero(self):
        value = row_entropy(NonidealityMatrix(np.eye(2)))
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0  # not -0.0

    def test_permutation_is_zero(self):
        assert row_entropy(NonidealityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))) == 0.0

    def test_degenerate_row_reaches_ln2(self):
        value = row_entropy(NonidealityMatrix(np.array([[0.0, 0.0], [1.0, 1.0]])))
        assert value == pytest.approx(LN2, abs=1e-15)

    def test_half_mix_frozen_value(self):
        # gamma = 1/2 which-way matrix [[0.5, 0], [0.5, 1]]
        value = row_entropy(NonidealityMatrix(np.array([[0.5, 0.0], [0.5, 1.0]])))
        assert value == pytest.approx(0.4773856262211097, abs=1e-15)

    def test_rectangular_matrix(self):
        m = NonidealityMatrix(np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]]))
        assert row_entropy(m) == pytest.approx(LN2 / 2.0, abs=1e-15)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(401)
        for _ in range(20):
            cols = rng.uniform(0.0, 1.0, size=(3, 2))
            cols = cols / cols.sum(axis=0, keepdims=True)
            m = NonidealityMatrix(cols)
            shuffled = NonidealityMatrix(cols[[2, 0, 1], :])
            assert row_entropy(m) == pytest.approx(row_entropy(shuffled), abs=1e-14)

    def test_range_over_random_matrices(self):
        rng = np.random.default_rng(402)
        for _ in range(200):
            n_ideal = int(rng.integers(2, 5))
            n_measured = int(rng.integers(2, 6))
            cols = rng.uniform(0.0, 1.0, size=(n_measured, n_ideal))
            cols = cols / cols.sum(axis=0, keepdims=True)
            value = row_entropy(NonidealityMatrix(cols))
            assert 0.0 <= value <= math.log(n_ideal) + 1e-12

    def test_accepts_raw_arrays(self):
        assert row_entropy(np.eye(2)) == 0.0

    def test_one_matrix_only(self):
        with pytest.raises(ShapeMismatchError, match=r"^nonideality matrix must be 2-D, got ndim=3$"):
            row_entropy(np.stack([np.eye(2), np.eye(2)]))

    def test_caller_matrices_are_checked(self):
        with pytest.raises(DomainError, match="^columns must each sum to 1"):
            row_entropy([[0.5, 0.0], [0.4, 1.0]])

    def test_zero_column_matrix_rejected(self):
        with pytest.raises(ShapeMismatchError, match=r"must be nonempty, got shape \(2, 0\)"):
            row_entropy(np.zeros((2, 0)))

    def test_nan_entry_rejected(self):
        with pytest.raises(DomainError):
            row_entropy([[np.nan, 0.0], [0.0, 1.0]])


class TestMartensBound:
    def test_mutually_unbiased_is_ln2(self):
        assert martens_bound(0.0, math.pi / 4) == pytest.approx(LN2, abs=1e-12)

    def test_aligned_axes_is_zero(self):
        assert abs(martens_bound(0.3, 0.3)) <= 1e-12

    def test_orthogonal_axes_is_zero(self):
        assert abs(martens_bound(0.0, math.pi / 2)) <= 1e-12

    def test_eighth_turn_frozen_value(self):
        assert martens_bound(0.0, math.pi / 8) == pytest.approx(0.15834718382037496, abs=1e-15)

    def test_symmetric_in_arguments(self):
        assert martens_bound(0.2, 1.1) == pytest.approx(martens_bound(1.1, 0.2), abs=1e-15)

    def test_matches_closed_form_on_grid(self):
        for k in range(33):
            delta = k * math.pi / 64
            got = martens_bound(0.7, 0.7 + delta)
            assert got == pytest.approx(bound_closed_form(delta), abs=1e-12)

    def test_matches_trace_overlap_form_on_random_angles(self):
        rng = np.random.default_rng(406)
        for _ in range(500):
            theta, theta_prime = rng.uniform(-2 * math.pi, 2 * math.pi, size=2)
            assert abs(martens_bound(theta, theta_prime) - overlap_bound(theta, theta_prime)) <= 1e-15


class TestMartensCheck:
    def test_extreme_gamma_equality_at_unbiased_axes(self):
        for gamma in (0.0, 1.0):
            ww = build_whichway(WhichWayConfig(gamma, math.pi / 4, 0.0))
            report = martens_check(ww)
            assert report.satisfied
            assert abs(report.slack) <= 1e-10
            assert report.j_lambda + report.j_mu == pytest.approx(LN2, abs=1e-12)
            assert report.bound == pytest.approx(LN2, abs=1e-12)

    def test_half_gamma_frozen_values(self):
        ww = build_whichway(WhichWayConfig(0.5, math.pi / 4, 0.0))
        report = martens_check(ww)
        assert report.j_lambda == pytest.approx(0.4773856262211097, abs=1e-12)
        assert report.j_mu == pytest.approx(0.4773856262211097, abs=1e-12)
        assert report.j_lambda + report.j_mu == pytest.approx(0.9547712524422194, abs=1e-12)
        assert report.slack == pytest.approx(0.9547712524422194 - LN2, abs=1e-12)
        assert report.satisfied

    def test_holds_on_small_grid(self):
        for gamma in np.linspace(0.0, 1.0, 11):
            for delta in np.linspace(0.0, math.pi / 2, 9):
                ww = build_whichway(WhichWayConfig(float(gamma), float(delta), 0.0))
                report = martens_check(ww)
                assert report.satisfied
                assert report.j_lambda + report.j_mu >= report.bound - 1e-10

    def test_entropies_move_oppositely_in_gamma(self):
        js = [
            martens_check(build_whichway(WhichWayConfig(float(g), math.pi / 4, 0.0)))
            for g in np.linspace(0.0, 1.0, 21)
        ]
        for earlier, later in zip(js, js[1:]):
            assert later.j_lambda <= earlier.j_lambda + 1e-12
            assert later.j_mu >= earlier.j_mu - 1e-12


class TestMartensSweep:
    def test_rows_equal_per_point_check(self):
        rng = np.random.default_rng(407)
        for _ in range(5):
            grid = np.concatenate([[0.0, 1.0, 0.5], rng.uniform(0.0, 1.0, size=40)])
            theta, theta_prime = rng.uniform(0.0, math.pi, size=2)
            curve = martens_sweep(grid, theta, theta_prime)
            for i, gamma in enumerate(grid):
                report = martens_check(build_whichway(WhichWayConfig(float(gamma), theta, theta_prime)))
                assert curve.j_lambda[i] == report.j_lambda
                assert curve.j_mu[i] == report.j_mu
                assert curve.bound == report.bound
                assert curve.slack[i] == report.slack
                assert bool(curve.satisfied[i]) == report.satisfied

    def test_equality_compares_arrays(self):
        curve = martens_sweep([0.0, 0.25, 1.0], math.pi / 5, 0.0)
        assert curve == martens_sweep([0.0, 0.25, 1.0], math.pi / 5, 0.0)
        assert curve != martens_sweep([0.0, 0.5, 1.0], math.pi / 5, 0.0)
        assert curve != martens_sweep([0.0, 0.25], math.pi / 5, 0.0)
        assert curve != martens_sweep([0.0, 0.25, 1.0], math.pi / 7, 0.0)

    def test_rejects_out_of_range_gamma(self):
        with pytest.raises(DomainError, match=r"^gamma must lie in \[0, 1\], got 1\.5$"):
            martens_sweep([0.2, 1.5], 0.3, 0.0)
        with pytest.raises(DomainError, match=r"^gamma must lie in \[0, 1\], got nan$"):
            martens_sweep([0.2, math.nan], 0.3, 0.0)
        # the first offender in grid order is named
        with pytest.raises(DomainError, match=r"got -0\.5$"):
            martens_sweep(np.concatenate([np.full(5000, 0.5), [-0.5, 2.0]]), 0.3, 0.0)

    def test_rejects_a_grid_that_is_not_one_nonempty_row(self):
        for grid in ([], [[0.5, 0.5]]):
            with pytest.raises(ShapeMismatchError, match=r"^gamma grid must be a nonempty 1-D array"):
                martens_sweep(grid, 0.3, 0.0)


class TestClosedFormEntropies:
    """The sweep's entropies are closed forms of gamma, proved here; the library checks none."""

    def test_reference_is_row_entropy(self):
        grid = np.concatenate([EDGE_GRID[::500], EDGE_GRID[-3:]])
        matrices = whichway_matrices(grid)
        per_matrix = np.array(
            [[row_entropy(NonidealityMatrix(m)) for m in branch] for branch in matrices]
        )
        assert np.array_equal(per_matrix.view(np.int64), row_entropy_reference(matrices).view(np.int64))

    def test_sweep_is_row_entropy_of_the_explicit_matrices(self):
        for piece in np.array_split(EDGE_GRID, 8):
            curve = martens_sweep(piece, math.pi / 5, 0.0)
            got = np.stack([curve.j_lambda, curve.j_mu])
            # bit for bit, so the sign of every zero too
            reference = row_entropy_reference(whichway_matrices(piece))
            assert np.array_equal(got.view(np.int64), reference.view(np.int64))
            assert np.all((got >= 0.0) & (got <= LN2))

    def test_entropies_are_monotone_in_gamma(self):
        curve = martens_sweep(EDGE_GRID, math.pi / 5, 0.0)  # the grid is sorted
        # up to rounding: no step the wrong way on this grid exceeds 2 ulps of
        # its values; 4 ulps of ln 2 bound that
        dust = 4 * np.spacing(LN2)
        assert np.all(np.diff(curve.j_lambda) <= dust)
        assert np.all(np.diff(curve.j_mu) >= -dust)
        assert (curve.j_lambda[0], curve.j_mu[0], curve.j_lambda[-1], curve.j_mu[-1]) == (LN2, 0.0, 0.0, LN2)


class TestHeisenbergCheck:
    def test_pauli_equality_case(self):
        state = StateDescriptor.pure([1.0, 0.0])
        check = heisenberg_check(state, PAULI_X, PAULI_Y)
        assert check.lhs == pytest.approx(1.0, abs=1e-12)
        assert check.rhs == pytest.approx(1.0, abs=1e-12)
        assert check.satisfied

    def test_eigenstate_gives_zero_both_sides(self):
        state = StateDescriptor.pure([1.0, 0.0])
        check = heisenberg_check(state, PAULI_Z, PAULI_Z)
        assert check.lhs == 0.0
        assert check.rhs == 0.0
        assert check.satisfied

    def test_commuting_operators(self):
        rng = np.random.default_rng(403)
        a = random_hermitian(rng, 3)
        state = random_state(rng, 3)
        check = heisenberg_check(state, a, 2.0 * a)
        assert check.rhs <= 1e-10
        assert check.satisfied

    def test_random_triples_satisfy(self):
        rng = np.random.default_rng(404)
        for dim in (2, 3, 4):
            for _ in range(100):
                state = random_state(rng, dim)
                a = random_hermitian(rng, dim)
                b = random_hermitian(rng, dim)
                check = heisenberg_check(state, a, b)
                assert check.satisfied
                assert check.lhs >= check.rhs - 1e-10

    def test_operators_of_different_dimensions_rejected(self):
        state = StateDescriptor.pure([1.0, 0.0])
        with pytest.raises(ShapeMismatchError):
            heisenberg_check(state, PAULI_X, np.eye(3))
        with pytest.raises(ShapeMismatchError):
            heisenberg_check(state, np.eye(3), PAULI_X)

    def test_rejects_non_hermitian(self):
        state = StateDescriptor.pure([1.0, 0.0])
        shift = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(DomainError):
            heisenberg_check(state, shift, PAULI_Z)
        with pytest.raises(DomainError):
            heisenberg_check(state, PAULI_Z, shift)

    def test_rejects_nan_operator(self):
        state = StateDescriptor.pure([1.0, 0.0])
        with pytest.raises(DomainError, match="first operator"):
            heisenberg_check(state, np.full((2, 2), np.nan), PAULI_X)
        with pytest.raises(DomainError, match="second operator"):
            heisenberg_check(state, PAULI_X, np.full((2, 2), np.nan))

    def test_variance_clamped_at_zero(self):
        # eigenstate of A: <A^2> - <A>^2 may round negative; std must be real 0
        state = StateDescriptor.pure([math.cos(0.3), math.sin(0.3)])
        rotated = np.array(
            [
                [math.cos(0.3), -math.sin(0.3)],
                [math.sin(0.3), math.cos(0.3)],
            ]
        )
        aligned = rotated @ (1e4 * np.asarray(PAULI_Z)) @ rotated.T
        aligned = (aligned + aligned.T) / 2.0
        check = heisenberg_check(state, aligned, PAULI_X)
        assert check.lhs >= 0.0
        assert math.isfinite(check.lhs)
        assert check.satisfied
