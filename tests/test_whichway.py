"""Unit tests for the which-way joint measurement and its nonideality matrices."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_pure, random_state, random_whichway_config, whichway_effects_reference
from povmbell import (
    WW_LABELS,
    BivariateWhichWay,
    DomainError,
    NonidealityMatrix,
    PolarizationAngle,
    Povm,
    ShapeMismatchError,
    StateDescriptor,
    WhichWayConfig,
    born_probabilities,
    build_whichway,
    certainty_check,
    joint_distribution,
    marginals_and_nonideality,
    measured_marginals,
    polarization_pvm,
    projector_from_angle,
)
from povmbell.whichway import _effect_rows


class TestWhichWayConfig:
    def test_valid(self):
        cfg = WhichWayConfig(0.5, 0.0, math.pi / 4)
        assert cfg.gamma == 0.5
        assert isinstance(cfg.theta, PolarizationAngle)
        assert cfg.theta_prime.theta == pytest.approx(math.pi / 4, abs=0)

    def test_gamma_bounds(self):
        with pytest.raises(DomainError):
            WhichWayConfig(-0.01, 0.0, 0.0)
        with pytest.raises(DomainError):
            WhichWayConfig(1.01, 0.0, 0.0)
        with pytest.raises(DomainError):
            WhichWayConfig(math.nan, 0.0, 0.0)

    def test_angles_canonicalized(self):
        cfg = WhichWayConfig(0.5, math.pi + 0.1, -0.1)
        assert cfg.theta.theta == pytest.approx(0.1, abs=1e-15)
        assert cfg.theta_prime.theta == pytest.approx(math.pi - 0.1, abs=1e-15)


class TestBuildWhichway:
    def test_label_order(self):
        ww = build_whichway(WhichWayConfig(0.3, 0.1, 0.9))
        assert ww.povm.labels == WW_LABELS
        assert isinstance(ww, BivariateWhichWay)
        assert isinstance(ww.povm, Povm)

    def test_gamma_one_effects(self):
        # fully transmitting: only the theta analyzer is live
        ww = build_whichway(WhichWayConfig(1.0, 0.0, math.pi / 4))
        e = {eff.label: eff.matrix for eff in ww.povm.effects}
        assert np.max(np.abs(e["++"])) == 0.0
        assert np.allclose(e["+-"], np.diag([1.0, 0.0]), atol=0)
        assert np.max(np.abs(e["-+"])) == 0.0
        assert np.allclose(e["--"], np.diag([0.0, 1.0]), atol=1e-15)

    def test_gamma_zero_effects(self):
        ww = build_whichway(WhichWayConfig(0.0, 0.0, math.pi / 4))
        e = {eff.label: eff.matrix for eff in ww.povm.effects}
        assert np.max(np.abs(e["++"])) == 0.0
        assert np.max(np.abs(e["+-"])) == 0.0
        assert np.allclose(e["-+"], projector_from_angle(math.pi / 4), atol=0)

    def test_last_effect_is_convex_mix_of_minus_projectors(self):
        cfg = WhichWayConfig(0.37, 0.2, 1.1)
        ww = build_whichway(cfg)
        e_minus_theta = np.eye(2) - projector_from_angle(cfg.theta)
        e_minus_prime = np.eye(2) - projector_from_angle(cfg.theta_prime)
        want = cfg.gamma * e_minus_theta + (1 - cfg.gamma) * e_minus_prime
        got = ww.povm.effect("--").matrix
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_effect_stack_matches_single_builds(self):
        rng = np.random.default_rng(305)
        gammas = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, size=10)])
        theta, theta_prime = 0.4, 2.3
        stack = whichway_effects_reference(gammas, theta, theta_prime)
        assert stack.shape == (12, 4, 2, 2)
        for gamma, effects in zip(gammas, stack):
            ww = build_whichway(WhichWayConfig(float(gamma), theta, theta_prime))
            for effect, matrix in zip(ww.povm.effects, effects):
                assert effect.matrix.tobytes() == matrix.tobytes()

    def test_validity_over_grid(self):
        for gamma in np.linspace(0.0, 1.0, 11):
            for delta in np.linspace(0.0, math.pi / 2, 9):
                build_whichway(WhichWayConfig(float(gamma), delta, 0.0))


# gammas and angles at the edges of what the kernel's arithmetic meets:
# exact corners, the smallest normal and subnormal gammas, one ulp inside 1,
# angles whose sine or cosine is tiny or negative
KERNEL_GAMMAS = (0.0, 1.0, 1e-300, sys.float_info.min, 5e-324, 1e-16, 1.0 - 1e-16, 0.5, 0.37)
KERNEL_ANGLES = (
    0.0, math.pi / 2, math.pi / 4, 3.0, 1e-300, 5e-324, math.pi - 1e-12, math.pi, -1.0, 1e300, 2.3,
    PolarizationAngle(1.7),
)


def assert_kernel_equals_reference(gamma, theta, theta_prime):
    """The kernel's stack is the array build's, bit for bit.

    For a subnormal gamma, a product gamma * E+(theta)[i, j] can underflow to
    zero; numpy's complex multiply on FMA hardware then keeps the sign of the
    exact product, where the scalar product rounds it first. There the
    stacks are equal entry for entry (`np.array_equal`, under which only a
    zero's sign can differ).
    """
    got = np.array(_effect_rows(gamma, theta, theta_prime))
    want = whichway_effects_reference(gamma, theta, theta_prime)
    assert got.shape == (4, 2, 2) and got.dtype == np.complex128
    if gamma == 0.0 or gamma >= sys.float_info.min:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.array_equal(got, want)


class TestEffectKernel:
    """`_effect_rows` forms the stack from scalars; the array build is the reference."""

    @pytest.mark.parametrize("gamma", KERNEL_GAMMAS)
    def test_equals_the_array_build_at_the_edges(self, gamma):
        for theta in KERNEL_ANGLES:
            for theta_prime in KERNEL_ANGLES:
                assert_kernel_equals_reference(gamma, theta, theta_prime)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        st.sampled_from(KERNEL_GAMMAS) | st.floats(0.0, 1.0),
        st.sampled_from(KERNEL_ANGLES) | st.floats(-1e6, 1e6),
        st.sampled_from(KERNEL_ANGLES) | st.floats(-1e6, 1e6),
    )
    def test_equals_the_array_build(self, gamma, theta, theta_prime):
        assert_kernel_equals_reference(gamma, theta, theta_prime)


class TestJointDistribution:
    def test_worked_example(self):
        # gamma=1/2, theta=0, theta'=pi/4, horizontal input
        ww = build_whichway(WhichWayConfig(0.5, 0.0, math.pi / 4))
        dist = joint_distribution(ww, StateDescriptor.pure([1.0, 0.0]))
        assert dist.prob("++") == 0.0
        assert dist.prob("+-") == pytest.approx(0.5, abs=1e-15)
        assert dist.prob("-+") == pytest.approx(0.25, abs=1e-15)
        assert dist.prob("--") == pytest.approx(0.25, abs=1e-15)

    def test_both_clicks_impossible_everywhere(self):
        rng = np.random.default_rng(301)
        for _ in range(25):
            ww = build_whichway(random_whichway_config(rng))
            state = random_state(rng, 2)
            assert joint_distribution(ww, state).prob("++") == 0.0

    def test_gamma_one_marginal_is_ideal(self):
        rng = np.random.default_rng(302)
        for _ in range(10):
            theta = float(rng.uniform(0, math.pi))
            ww = build_whichway(WhichWayConfig(1.0, theta, float(rng.uniform(0, math.pi))))
            state = random_pure(rng, 2)
            transmitted, _ = measured_marginals(ww, state)
            ideal = born_probabilities(state, polarization_pvm(theta)).probs
            assert np.max(np.abs(transmitted - ideal)) <= 1e-12

    def test_mixed_state_supported(self):
        ww = build_whichway(WhichWayConfig(0.5, 0.0, math.pi / 4))
        dist = joint_distribution(ww, StateDescriptor.density(np.eye(2) / 2))
        assert dist.prob("+-") == pytest.approx(0.25, abs=1e-12)
        assert dist.prob("-+") == pytest.approx(0.25, abs=1e-12)


class TestNonidealityMatrix:
    def test_valid(self):
        m = NonidealityMatrix(np.array([[0.5, 0.0], [0.5, 1.0]]))
        assert m.n_measured == 2
        assert m.n_ideal == 2
        assert np.allclose(m.apply([0.4, 0.6]), [0.2, 0.8], atol=1e-15)

    def test_rectangular_allowed(self):
        m = NonidealityMatrix(np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]]))
        assert m.n_measured == 3
        assert m.n_ideal == 2

    def test_negative_entry_rejected(self):
        with pytest.raises(DomainError):
            NonidealityMatrix(np.array([[-0.1, 0.0], [1.1, 1.0]]))

    def test_column_sums_enforced(self):
        with pytest.raises(DomainError):
            NonidealityMatrix(np.array([[0.5, 0.0], [0.4, 1.0]]))

    def test_nan_entries_rejected(self):
        with pytest.raises(DomainError):
            NonidealityMatrix(np.full((2, 2), np.nan))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_named(self, bad):
        entries = np.array([[0.5, 0.0], [0.5, 1.0]])
        entries[0, 1] = bad
        with pytest.raises(DomainError, match="^nonideality entries must be finite$"):
            NonidealityMatrix(entries)

    def test_zero_size_rejected(self):
        with pytest.raises(ShapeMismatchError, match=r"must be nonempty, got shape \(0, 2\)"):
            NonidealityMatrix(np.zeros((0, 2)))

    def test_apply_shape_checked(self):
        m = NonidealityMatrix(np.eye(2))
        with pytest.raises(ShapeMismatchError):
            m.apply([1.0, 0.0, 0.0])

    def test_equality_compares_entries(self):
        ww = build_whichway(WhichWayConfig(0.3, 0.0, math.pi / 4))
        lam, mu = marginals_and_nonideality(ww)
        assert lam == marginals_and_nonideality(ww)[0]
        assert lam != mu
        assert NonidealityMatrix(np.eye(2)) != NonidealityMatrix(np.eye(3)[:, :2])
        with pytest.raises(TypeError):
            hash(lam)

    def test_entries_frozen(self):
        m = NonidealityMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 0.5


class TestMarginalsAndNonideality:
    def test_analytic_form(self):
        ww = build_whichway(WhichWayConfig(0.5, 0.0, math.pi / 4))
        lam, mu = marginals_and_nonideality(ww)
        assert np.allclose(lam.entries, [[0.5, 0.0], [0.5, 1.0]], atol=0)
        assert np.allclose(mu.entries, [[0.5, 0.0], [0.5, 1.0]], atol=0)

    def test_extreme_gammas(self):
        lam1, mu1 = marginals_and_nonideality(build_whichway(WhichWayConfig(1.0, 0.2, 0.9)))
        assert np.allclose(lam1.entries, np.eye(2), atol=0)
        assert np.allclose(mu1.entries, [[0.0, 0.0], [1.0, 1.0]], atol=0)
        lam0, mu0 = marginals_and_nonideality(build_whichway(WhichWayConfig(0.0, 0.2, 0.9)))
        assert np.allclose(lam0.entries, [[0.0, 0.0], [1.0, 1.0]], atol=0)
        assert np.allclose(mu0.entries, np.eye(2), atol=0)

    @pytest.mark.parametrize("gamma", [0.0, 5e-324, 1e-16, 0.5, 1.0 - 1e-16, 1.0])
    def test_public_constructor_accepts_the_matrices(self, gamma):
        # the matrices are built without the constructor's checks; prove they pass them
        lam, mu = marginals_and_nonideality(build_whichway(WhichWayConfig(gamma, 0.2, 0.9)))
        assert NonidealityMatrix([[gamma, 0.0], [1.0 - gamma, 1.0]]) == lam
        assert NonidealityMatrix([[1.0 - gamma, 0.0], [gamma, 1.0]]) == mu
        for matrix in (lam, mu):
            assert matrix.entries.dtype == np.float64 and not matrix.entries.flags.writeable

    def test_reconstruction_on_random_states(self):
        rng = np.random.default_rng(303)
        for _ in range(10):
            ww = build_whichway(random_whichway_config(rng))
            lam, mu = marginals_and_nonideality(ww)
            pvm_t = polarization_pvm(ww.config.theta)
            pvm_p = polarization_pvm(ww.config.theta_prime)
            for _ in range(15):
                state = random_state(rng, 2)
                measured_t, measured_r = measured_marginals(ww, state)
                ideal_t = born_probabilities(state, pvm_t).probs
                ideal_r = born_probabilities(state, pvm_p).probs
                assert np.max(np.abs(measured_t - lam.apply(ideal_t))) <= 1e-12
                assert np.max(np.abs(measured_r - mu.apply(ideal_r))) <= 1e-12


class TestCertaintyCheck:
    def test_certain_when_fully_transmitting(self):
        rng = np.random.default_rng(304)
        ww = build_whichway(WhichWayConfig(1.0, 0.7, 1.9))
        for _ in range(20):
            assert certainty_check(ww, random_state(rng, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_when_reflected_analyzer_always_fires(self):
        # gamma=0 and the state aligned with theta': D' always clicks
        ww = build_whichway(WhichWayConfig(0.0, 0.0, math.pi / 4))
        inv = 1 / math.sqrt(2)
        state = StateDescriptor.pure([inv, inv])
        assert certainty_check(ww, state) == pytest.approx(0.0, abs=1e-12)

    def test_intermediate_value(self):
        ww = build_whichway(WhichWayConfig(0.5, 0.0, math.pi / 4))
        assert certainty_check(ww, StateDescriptor.pure([1.0, 0.0])) == pytest.approx(0.75, abs=1e-12)
