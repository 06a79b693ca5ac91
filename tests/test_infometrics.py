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
from povmbell.infometrics import SWEEP_CHUNK, martens_sweep, martens_sweep_chunks

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


def random_stochastic(rng, shape):
    cols = rng.uniform(0.0, 1.0, size=shape)
    cols[rng.uniform(size=shape) < 0.2] = 0.0
    cols[..., 0, :] += 1e-3  # no all-zero column
    return cols / cols.sum(axis=-2, keepdims=True)


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

    def test_stack_equals_per_matrix_values(self):
        rng = np.random.default_rng(405)
        for shape in ((7, 2, 2), (3, 4, 3, 2), (5, 4, 3)):
            stack = random_stochastic(rng, shape)
            got = row_entropy(stack)
            assert got.shape == shape[:-2]
            for index in np.ndindex(*shape[:-2]):
                assert got[index] == row_entropy(NonidealityMatrix(stack[index]))

    def test_stack_entries_validated(self):
        stack = np.stack([np.eye(2), np.array([[0.5, 0.0], [0.4, 1.0]])])
        with pytest.raises(DomainError):
            row_entropy(stack)

    def test_zero_size_stack_rejected(self):
        with pytest.raises(ShapeMismatchError, match=r"must be nonempty, got shape \(0, 2, 2\)"):
            row_entropy(np.zeros((0, 2, 2)))

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


class TestMartensSweepChunks:
    def test_pieces_hold_the_whole_grid_curve(self):
        grid = np.random.default_rng(5).uniform(0.0, 1.0, size=2 * SWEEP_CHUNK + 3)
        whole = martens_sweep(grid, 0.4, 1.3)
        pairs = list(martens_sweep_chunks(grid, 0.4, 1.3))
        assert [piece.size for piece, _ in pairs] == [SWEEP_CHUNK, SWEEP_CHUNK, 3]
        assert np.array_equal(np.concatenate([piece for piece, _ in pairs]), grid)
        for name in ("j_lambda", "j_mu", "slack", "satisfied"):
            assert np.array_equal(np.concatenate([getattr(c, name) for _, c in pairs]), getattr(whole, name))
        assert {c.bound for _, c in pairs} == {whole.bound}

    def test_inputs_are_checked_before_the_first_piece(self):
        # a bad point in the last piece raises at the call, not when it is reached
        with pytest.raises(DomainError, match=r"got 1\.5$"):
            martens_sweep_chunks(np.concatenate([np.full(SWEEP_CHUNK + 10, 0.5), [1.5]]), 0.3, 0.0)
        with pytest.raises(ShapeMismatchError):
            martens_sweep_chunks([], 0.3, 0.0)


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
