"""Unit tests for the quadrivariate Bell experiment and CHSH statistics."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_bell_config, random_density, random_pure, random_whichway_config
from povmbell import (
    CHSH_PAIRS,
    CHSH_SIGNS,
    QUAD_LABELS,
    BellConfig,
    DomainError,
    NotCompleteError,
    NotHermitianError,
    NotPositiveError,
    OutcomeDistribution,
    ShapeMismatchError,
    StateDescriptor,
    WhichWayConfig,
    build_bell,
    build_whichway,
    chsh_aspect,
    chsh_report_from_distribution,
    chsh_single_run,
    correlation_from_distribution,
    detector_correlation,
    martens_sweep,
    quad_distribution,
    singlet_state,
)

SQRT2 = math.sqrt(2.0)

# property tests stay deterministic and small enough for the tier-1 run
PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)

# transmissivities with the corner values 0 and 1 drawn often
GAMMAS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
ANGLES = st.floats(0.0, math.pi)


def quad_probs_oracle(config: BellConfig) -> dict[str, float]:
    """Independent reconstruction of the 16 outcome probabilities.

    Plain real/complex numpy from first principles: arm effect dictionaries,
    Kronecker products, raw quadratic forms. No povmbell measurement code.
    """

    def proj(t: float) -> np.ndarray:
        v = np.array([math.cos(t), math.sin(t)])
        return np.outer(v, v)

    def arm_effects(gamma: float, t: float, tp: float) -> dict[str, np.ndarray]:
        e, ep = proj(t), proj(tp)
        return {
            "++": np.zeros((2, 2)),
            "+-": gamma * e,
            "-+": (1.0 - gamma) * ep,
            "--": np.eye(2) - gamma * e - (1.0 - gamma) * ep,
        }

    arm1 = arm_effects(config.arm1.gamma, config.arm1.theta.theta, config.arm1.theta_prime.theta)
    arm2 = arm_effects(config.arm2.gamma, config.arm2.theta.theta, config.arm2.theta_prime.theta)
    rho = np.asarray(config.state.to_density())
    probs = {}
    for l1, m1 in arm1.items():
        for l2, m2 in arm2.items():
            probs[f"{l1},{l2}"] = float(np.real(np.trace(rho @ np.kron(m1, m2))))
    return probs


def aspect_oracle(state, theta1, theta1_prime, theta2, theta2_prime) -> list[float]:
    """The four pooled correlations, one build_bell and one detector_correlation per corner."""
    corners = ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0))
    values = []
    for (gamma1, gamma2), pair in zip(corners, CHSH_PAIRS):
        config = BellConfig(
            arm1=WhichWayConfig(gamma1, theta1, theta1_prime),
            arm2=WhichWayConfig(gamma2, theta2, theta2_prime),
            state=state,
        )
        values.append(detector_correlation(build_bell(config), pair))
    return values


def detector_sign(label: str, detector: str) -> float:
    """+1 if `detector` fired in quadrivariate outcome `label`, else -1."""
    arm1, arm2 = label.split(",")
    record = {"D1": arm1[0], "D1'": arm1[1], "D2": arm2[0], "D2'": arm2[1]}[detector]
    return 1.0 if record == "+" else -1.0


def negate_reflected(stack: np.ndarray) -> np.ndarray:
    """Which-way effects -E(-+) and E(--) + 2 E(-+): still complete, no longer positive."""
    out = stack.copy()
    out[..., 3, :, :] += 2.0 * stack[..., 2, :, :]
    out[..., 2, :, :] *= -1.0
    return out


# corruptions of a which-way effect stack, by the error the axiom checks raise
ARM_CORRUPTIONS = {
    NotHermitianError: lambda stack: stack + np.array([[0.0, 1e-3], [0.0, 0.0]]),
    NotPositiveError: negate_reflected,
    NotCompleteError: lambda stack: stack * 0.9,
}


def singlet_corr(a: float, b: float) -> float:
    """Closed-form ideal singlet correlation for analyzers at a and b."""
    return -math.cos(2.0 * (a - b))


class TestBellConfig:
    def test_requires_dim_4(self):
        with pytest.raises(ShapeMismatchError):
            BellConfig(
                arm1=WhichWayConfig(1.0, 0.0, 0.1),
                arm2=WhichWayConfig(1.0, 0.0, 0.1),
                state=StateDescriptor.pure([1.0, 0.0]),
            )

    def test_value_equality(self):
        arm = WhichWayConfig(0.5, 0.0, 0.3)
        config = BellConfig(arm1=arm, arm2=arm, state=singlet_state())
        # equal configs built from separate, equal states
        assert config == BellConfig(arm1=arm, arm2=arm, state=singlet_state())
        assert config != BellConfig(arm1=arm, arm2=WhichWayConfig(0.5, 0.0, 0.4), state=singlet_state())
        product = StateDescriptor.pure([1.0, 0.0, 0.0, 0.0])
        assert config != BellConfig(arm1=arm, arm2=arm, state=product)


class TestBuildBell:
    def test_sixteen_labels_in_order(self):
        rng = np.random.default_rng(501)
        bell = build_bell(random_bell_config(rng))
        assert bell.povm.labels == QUAD_LABELS
        assert len(bell.povm) == 16
        assert bell.povm.dim == 4

    def test_effects_are_arm_tensor_products(self):
        rng = np.random.default_rng(502)
        for _ in range(10):
            config = random_bell_config(rng)
            bell = build_bell(config)
            arm1 = build_whichway(config.arm1)
            arm2 = build_whichway(config.arm2)
            for e1 in arm1.povm.effects:
                for e2 in arm2.povm.effects:
                    got = bell.povm.effect(f"{e1.label},{e2.label}").matrix
                    want = np.kron(e1.matrix, e2.matrix)
                    assert np.max(np.abs(got - want)) <= 1e-12

    @PROPERTY
    @given(GAMMAS, ANGLES, ANGLES, GAMMAS, ANGLES, ANGLES)
    def test_effects_equal_kron_of_arm_effects_bitwise(self, g1, t1, t1p, g2, t2, t2p):
        config = BellConfig(
            arm1=WhichWayConfig(g1, t1, t1p),
            arm2=WhichWayConfig(g2, t2, t2p),
            state=singlet_state(),
        )
        bell = build_bell(config)
        arm1 = build_whichway(config.arm1).povm
        arm2 = build_whichway(config.arm2).povm
        want = np.array([np.kron(e1.matrix, e2.matrix) for e1 in arm1 for e2 in arm2])
        assert bell.povm.stack.tobytes() == want.tobytes()
        assert bell.povm.labels == tuple(f"{a},{b}" for a in arm1.labels for b in arm2.labels)

    def test_completeness(self):
        rng = np.random.default_rng(503)
        bell = build_bell(random_bell_config(rng))
        total = sum(np.asarray(e.matrix) for e in bell.povm.effects)
        assert np.max(np.abs(total - np.eye(4))) <= 1e-12


class TestQuadDistribution:
    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(504)
        for _ in range(20):
            config = random_bell_config(rng)
            dist = quad_distribution(build_bell(config))
            oracle = quad_probs_oracle(config)
            for label in QUAD_LABELS:
                assert dist.prob(label) == pytest.approx(oracle[label], abs=1e-12)

    def test_singlet_equal_angles_never_coincide(self):
        # ideal arms at the same angle: the singlet forbids a double click
        config = BellConfig(
            arm1=WhichWayConfig(1.0, 0.3, 1.2),
            arm2=WhichWayConfig(1.0, 0.3, 0.8),
            state=singlet_state(),
        )
        dist = quad_distribution(build_bell(config))
        assert dist.prob("+-,+-") == pytest.approx(0.0, abs=1e-12)

    def test_singlet_unbiased_angles_coincide_quarter(self):
        config = BellConfig(
            arm1=WhichWayConfig(1.0, 0.0, 1.2),
            arm2=WhichWayConfig(1.0, math.pi / 4, 0.8),
            state=singlet_state(),
        )
        dist = quad_distribution(build_bell(config))
        assert dist.prob("+-,+-") == pytest.approx(0.25, abs=1e-12)

    def test_maximally_mixed_density_path(self):
        config = BellConfig(
            arm1=WhichWayConfig(1.0, 0.0, 1.0),
            arm2=WhichWayConfig(1.0, 0.5, 1.5),
            state=StateDescriptor.density(np.eye(4) / 4.0),
        )
        dist = quad_distribution(build_bell(config))
        d1_fires = sum(p for lbl, p in dist.as_dict().items() if lbl[0] == "+")
        assert d1_fires == pytest.approx(0.5, abs=1e-12)


class TestDetectorCorrelation:
    def test_singlet_ideal_closed_form(self):
        for a, b in itertools.product((0.0, 0.4, math.pi / 8, 1.0), repeat=2):
            config = BellConfig(
                arm1=WhichWayConfig(1.0, a, a + 0.5),
                arm2=WhichWayConfig(1.0, b, b + 0.5),
                state=singlet_state(),
            )
            got = detector_correlation(build_bell(config), ("D1", "D2"))
            assert got == pytest.approx(singlet_corr(a, b), abs=1e-12)

    def test_product_state_factorizes(self):
        # independent arms: E[s1 s2] = E[s1] * E[s2], each 2*gamma*<E+> - 1
        rng = np.random.default_rng(505)
        for _ in range(10):
            amp1 = rng.normal(size=2) + 1j * rng.normal(size=2)
            amp2 = rng.normal(size=2) + 1j * rng.normal(size=2)
            amp1 = amp1 / np.linalg.norm(amp1)
            amp2 = amp2 / np.linalg.norm(amp2)
            arm1 = random_whichway_config(rng)
            arm2 = random_whichway_config(rng)
            config = BellConfig(
                arm1=arm1, arm2=arm2, state=StateDescriptor.pure(np.kron(amp1, amp2))
            )
            got = detector_correlation(build_bell(config), ("D1", "D2"))

            def proj(t):
                v = np.array([math.cos(t), math.sin(t)])
                return np.outer(v, v)

            p1 = arm1.gamma * float(np.real(amp1.conj() @ proj(arm1.theta.theta) @ amp1))
            p2 = arm2.gamma * float(np.real(amp2.conj() @ proj(arm2.theta.theta) @ amp2))
            assert got == pytest.approx((2 * p1 - 1) * (2 * p2 - 1), abs=1e-12)

    def test_invalid_pairs_rejected(self):
        rng = np.random.default_rng(506)
        bell = build_bell(random_bell_config(rng))
        for pair in (("D1", "D1'"), ("D2", "D1"), ("D1", "bogus"), ("D2'", "D2")):
            with pytest.raises(DomainError):
                detector_correlation(bell, pair)

    def test_rejects_foreign_distribution(self):
        from povmbell import OutcomeDistribution

        dist = OutcomeDistribution.from_values(("a", "b"), [0.5, 0.5])
        with pytest.raises(DomainError):
            correlation_from_distribution(dist, ("D1", "D2"))


class TestSignTable:
    def test_matches_label_parsing(self):
        assert CHSH_SIGNS.shape == (16, 4)
        for q, label in enumerate(QUAD_LABELS):
            for c, (a, b) in enumerate(CHSH_PAIRS):
                assert CHSH_SIGNS[q, c] == detector_sign(label, a) * detector_sign(label, b)

    def test_permuted_labels_give_same_correlations(self):
        rng = np.random.default_rng(513)
        dist = quad_distribution(build_bell(random_bell_config(rng)))
        order = rng.permutation(16)
        permuted = OutcomeDistribution(
            tuple(dist.labels[i] for i in order), dist.probs[order]
        )
        for pair in CHSH_PAIRS:
            assert correlation_from_distribution(permuted, pair) == pytest.approx(
                correlation_from_distribution(dist, pair), abs=1e-15
            )
        got = chsh_report_from_distribution(permuted)
        want = chsh_report_from_distribution(dist)
        for key, value in want.correlations.items():
            assert got.correlations[key] == pytest.approx(value, abs=1e-15)
        assert got.s_value == pytest.approx(want.s_value, abs=1e-15)


class TestChshSingleRun:
    def test_never_violates(self):
        rng = np.random.default_rng(507)
        for _ in range(100):
            report = chsh_single_run(build_bell(random_bell_config(rng)))
            assert abs(report.s_value) <= 2.0 + 1e-10
            assert report.s_symmetric_max <= 2.0 + 1e-10
            assert not report.violates

    def test_corner_config_frozen_value(self):
        # gamma1 = gamma2 = 1 at the standard aspect angles: S = 1 - cos(pi/4)
        config = BellConfig(
            arm1=WhichWayConfig(1.0, 0.0, math.pi / 4),
            arm2=WhichWayConfig(1.0, math.pi / 8, 3 * math.pi / 8),
            state=singlet_state(),
        )
        report = chsh_single_run(build_bell(config))
        assert report.s_value == pytest.approx(0.2928932188134524, abs=1e-12)
        assert not report.violates

    def test_correlation_keys(self):
        rng = np.random.default_rng(508)
        report = chsh_single_run(build_bell(random_bell_config(rng)))
        assert list(report.correlations) == ["D1,D2", "D1,D2'", "D1',D2", "D1',D2'"]

    def test_combination_arithmetic(self):
        rng = np.random.default_rng(509)
        bell = build_bell(random_bell_config(rng))
        report = chsh_single_run(bell)
        e = [report.correlations[f"{a},{b}"] for a, b in CHSH_PAIRS]
        assert report.s_value == pytest.approx(e[0] - e[1] + e[2] + e[3], abs=1e-14)
        combos = []
        for minus_at in range(4):
            signs = [1.0] * 4
            signs[minus_at] = -1.0
            combos.append(abs(sum(s * v for s, v in zip(signs, e))))
        assert report.s_symmetric_max == pytest.approx(max(combos), abs=1e-14)


class TestChshAspect:
    def test_singlet_optimal_angles(self):
        report = chsh_aspect(
            singlet_state(), 0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8
        )
        assert abs(report.s_value) == pytest.approx(2.0 * SQRT2, abs=1e-9)
        assert report.violates
        assert report.s_symmetric_max == pytest.approx(2.0 * SQRT2, abs=1e-9)

    def test_matches_closed_form_for_random_angles(self):
        rng = np.random.default_rng(510)
        for _ in range(20):
            t1, t1p, t2, t2p = rng.uniform(0.0, math.pi, size=4)
            report = chsh_aspect(singlet_state(), t1, t1p, t2, t2p)
            want = (
                singlet_corr(t1, t2)
                - singlet_corr(t1, t2p)
                + singlet_corr(t1p, t2)
                + singlet_corr(t1p, t2p)
            )
            assert report.s_value == pytest.approx(want, abs=1e-12)

    def test_equal_angles_sit_on_boundary(self):
        report = chsh_aspect(singlet_state(), 0.3, 0.3, 0.3, 0.3)
        assert report.s_value == pytest.approx(-2.0, abs=1e-12)
        assert not report.violates

    def test_product_states_never_violate(self):
        rng = np.random.default_rng(511)
        for _ in range(20):
            amp1 = rng.normal(size=2) + 1j * rng.normal(size=2)
            amp2 = rng.normal(size=2) + 1j * rng.normal(size=2)
            state = StateDescriptor.pure(
                np.kron(amp1 / np.linalg.norm(amp1), amp2 / np.linalg.norm(amp2))
            )
            t1, t1p, t2, t2p = rng.uniform(0.0, math.pi, size=4)
            report = chsh_aspect(state, t1, t1p, t2, t2p)
            assert abs(report.s_value) <= 2.0 + 1e-10
            assert not report.violates

    def test_pooled_and_single_run_differ(self):
        # the aspect value at the optimal angles is unreachable in any one run
        angles = (0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)
        pooled = chsh_aspect(singlet_state(), *angles)
        for g1, g2 in ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)):
            config = BellConfig(
                arm1=WhichWayConfig(g1, angles[0], angles[1]),
                arm2=WhichWayConfig(g2, angles[2], angles[3]),
                state=singlet_state(),
            )
            single = chsh_single_run(build_bell(config))
            assert abs(single.s_value) <= 2.0 + 1e-10
            assert abs(single.s_value - pooled.s_value) > 0.5

    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.booleans(), ANGLES, ANGLES, ANGLES, ANGLES)
    def test_matches_per_corner_oracle(self, seed, pure, t1, t1p, t2, t2p):
        rng = np.random.default_rng(seed)
        state = random_pure(rng, 4) if pure else random_density(rng, 4)
        report = chsh_aspect(state, t1, t1p, t2, t2p)
        want = aspect_oracle(state, t1, t1p, t2, t2p)
        got = [report.correlations[f"{a},{b}"] for a, b in CHSH_PAIRS]
        assert np.max(np.abs(np.array(got) - want)) <= 1e-15
        assert abs(report.s_value - (want[0] - want[1] + want[2] + want[3])) <= 1e-15


class TestInvalidArmStacks:
    """A broken arm effect stack is refused by the batched paths as by build_whichway."""

    @pytest.mark.parametrize("error", list(ARM_CORRUPTIONS))
    def test_same_error_type_as_build_whichway(self, monkeypatch, error):
        from povmbell import whichway

        original = whichway.whichway_effects

        def broken(gammas, theta, theta_prime):
            return ARM_CORRUPTIONS[error](original(gammas, theta, theta_prime))

        # build_whichway and whichway_endpoints, so every arm, build their effects here
        monkeypatch.setattr(whichway, "whichway_effects", broken)
        arm = WhichWayConfig(0.6, 0.2, 1.1)
        with pytest.raises(error):
            build_whichway(arm)
        with pytest.raises(error):
            build_bell(BellConfig(arm1=arm, arm2=arm, state=singlet_state()))
        with pytest.raises(error):
            chsh_aspect(singlet_state(), 0.2, 1.1, 0.4, 1.3)
        with pytest.raises(error):
            martens_sweep([0.0, 0.6, 1.0], 0.2, 1.1)


class TestNoSignaling:
    def test_arm1_marginal_invariant_under_arm2_settings(self):
        rng = np.random.default_rng(512)
        for _ in range(10):
            state = random_pure(rng, 4)
            arm1 = random_whichway_config(rng)
            dists = []
            for _ in range(2):
                config = BellConfig(arm1=arm1, arm2=random_whichway_config(rng), state=state)
                dist = quad_distribution(build_bell(config))
                marginal = {}
                for label, p in dist.as_dict().items():
                    part = label.split(",")[0]
                    marginal[part] = marginal.get(part, 0.0) + p
                dists.append(marginal)
            for key in dists[0]:
                assert dists[0][key] == pytest.approx(dists[1][key], abs=1e-12)


class TestSingletState:
    def test_shape_and_norm(self):
        state = singlet_state()
        assert state.dim == 4
        assert state.is_pure

    def test_rotation_invariance_of_correlation(self):
        # E depends only on the angle difference
        shift = 0.37
        for a, b in ((0.0, 0.5), (0.2, 1.4)):
            c1 = BellConfig(
                arm1=WhichWayConfig(1.0, a, a + 1.0),
                arm2=WhichWayConfig(1.0, b, b + 1.0),
                state=singlet_state(),
            )
            c2 = BellConfig(
                arm1=WhichWayConfig(1.0, a + shift, a + 1.0),
                arm2=WhichWayConfig(1.0, b + shift, b + 1.0),
                state=singlet_state(),
            )
            e1 = detector_correlation(build_bell(c1), ("D1", "D2"))
            e2 = detector_correlation(build_bell(c2), ("D1", "D2"))
            assert e1 == pytest.approx(e2, abs=1e-12)
