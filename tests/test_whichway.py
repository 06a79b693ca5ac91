"""Unit tests for the which-way joint measurement and its nonideality matrices."""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import random_pure, random_state, random_whichway_config
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
from povmbell.whichway import whichway_effects


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
        stack = whichway_effects(gammas, theta, theta_prime)
        assert stack.shape == (12, 4, 2, 2)
        for gamma, effects in zip(gammas, stack):
            ww = build_whichway(WhichWayConfig(float(gamma), theta, theta_prime))
            for effect, matrix in zip(ww.povm.effects, effects):
                assert effect.matrix.tobytes() == matrix.tobytes()

    def test_effect_stack_rejects_out_of_range_gamma(self):
        with pytest.raises(DomainError):
            whichway_effects([0.5, -0.1], 0.0, 1.0)

    def test_validity_over_grid(self):
        for gamma in np.linspace(0.0, 1.0, 11):
            for delta in np.linspace(0.0, math.pi / 2, 9):
                build_whichway(WhichWayConfig(float(gamma), delta, 0.0))


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
