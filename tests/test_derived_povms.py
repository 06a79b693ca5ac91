"""Proofs, by test, of the POVM checks the library does not repeat at run time.

The library checks the POVM axioms on every measurement it builds from caller
input: each which-way arm, and the two endpoint measurements (gamma = 1 and
gamma = 0) of a which-way family. It does not check again what follows from
those by construction:

* `build_bell` and `chsh_aspect` tensor validated arms, and a tensor product
  of POVMs is a POVM, sharp exactly when both factors are;
* `martens_sweep` checks only the endpoints, since every which-way effect is
  affine in gamma and the axioms survive convex combination.

The tests here run the full `validate_effect_stack` on what those paths
build, and pin that the paths themselves do not.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_density, random_pure
from povmbell import (
    QUAD_LABELS,
    SWEEP_CHUNK,
    WW_LABELS,
    BellConfig,
    Pvm,
    WhichWayConfig,
    build_bell,
    chsh_aspect,
    martens_bound,
    martens_sweep,
    povm_from_stack,
    singlet_state,
    validate_effect_stack,
    whichway_effects,
)
from povmbell import bell, cli, measurement

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

# the edges of [0, 1]: exact corners, the smallest subnormal, one ulp inside
EDGE_GAMMAS = (0.0, 5e-324, 1e-16, 0.5, 1.0 - 1e-16, 1.0)
GAMMAS = st.one_of(st.sampled_from(EDGE_GAMMAS), st.floats(0.0, 1.0))
ANGLES = st.one_of(
    st.sampled_from([0.0, 5e-324, math.pi / 4, math.pi / 2, math.pi, sys.float_info.max]),
    st.floats(-1e6, 1e6),
)


@st.composite
def angle_pairs(draw):
    """(theta, theta'): arbitrary, or separated by a multiple of 45 degrees."""
    theta = draw(ANGLES)
    if draw(st.booleans()):
        return theta, draw(ANGLES)
    return theta, theta + draw(st.integers(-4, 4)) * math.pi / 4


def in_tolerance_band(gamma: float) -> bool:
    """Where the joint stack's own sharpness test may disagree with its arms'.

    A which-way arm with 0 < gamma < 1 is not sharp, but its idempotence
    defect is about gamma * (1 - gamma); within a few atol_algebra = 1e-12 of
    an edge the arm and the joint stack (whose defects are the arm's times
    an effect of the other arm) fall on different sides of the tolerance.
    Disagreements were seen for min(gamma, 1 - gamma) in [1.06e-12, 2.53e-12].
    """
    return 1e-13 < min(gamma, 1.0 - gamma) < 1e-11


class TestDerivedMeasurementsPassTheFullCheck:
    @PROPERTY
    @given(GAMMAS, angle_pairs(), GAMMAS, angle_pairs())
    def test_joint_stack_of_build_bell(self, gamma1, angles1, gamma2, angles2):
        config = BellConfig(
            arm1=WhichWayConfig(gamma1, *angles1),
            arm2=WhichWayConfig(gamma2, *angles2),
            state=singlet_state(),
        )
        povm = build_bell(config).povm
        # povm_from_stack runs the full check and classifies the stack numerically
        checked = povm_from_stack(povm.stack, QUAD_LABELS)
        if not (in_tolerance_band(gamma1) or in_tolerance_band(gamma2)):
            assert type(povm) is type(checked)

    @pytest.mark.parametrize("gamma", [0.0, 5e-324, 1e-16, 1e-14, 1e-11, 0.5, 1.0 - 1e-16, 1.0])
    def test_joint_class_outside_the_band_on_grid(self, gamma):
        for other in EDGE_GAMMAS:
            for t1, t1p, t2, t2p in ((0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8), (0.3, 1.1, 2.0, 0.2)):
                config = BellConfig(
                    arm1=WhichWayConfig(gamma, t1, t1p),
                    arm2=WhichWayConfig(other, t2, t2p),
                    state=singlet_state(),
                )
                povm = build_bell(config).povm
                assert type(povm) is type(povm_from_stack(povm.stack, QUAD_LABELS))
                # sharp within tolerance exactly when both arms sit at an edge
                sharp = all(min(g, 1.0 - g) < 1e-13 for g in (gamma, other))
                assert isinstance(povm, Pvm) == sharp

    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.booleans(), angle_pairs(), angle_pairs())
    def test_corner_batch_of_chsh_aspect(self, seed, pure, angles1, angles2):
        rng = np.random.default_rng(seed)
        state = random_pure(rng, 4) if pure else random_density(rng, 4)
        seen = []
        real = bell.born_values

        def spy(state, stack, labels, **kwargs):
            seen.append(stack)
            return real(state, stack, labels, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bell, "born_values", spy)
            chsh_aspect(state, *angles1, *angles2)
        (corners,) = seen
        assert corners.shape == (4, 16, 4, 4)
        validate_effect_stack(corners, QUAD_LABELS)
        # every corner tensors two sharp endpoint measurements
        assert all(isinstance(povm_from_stack(c, QUAD_LABELS), Pvm) for c in corners)

    @PROPERTY
    @given(angle_pairs(), st.lists(GAMMAS, max_size=64), st.integers(2, 2000))
    def test_dense_sweep_grid(self, angles, drawn, count):
        grid = np.concatenate([EDGE_GAMMAS, np.linspace(0.0, 1.0, count), drawn])
        validate_effect_stack(whichway_effects(grid, *angles), WW_LABELS)
        curve = martens_sweep(grid, *angles)
        assert curve.j_lambda.shape == grid.shape

    @PROPERTY
    @given(angle_pairs())
    def test_martens_bound_lies_in_zero_to_ln2(self, angles):
        assert 0.0 <= martens_bound(*angles) <= math.log(2.0)


class TestRuntimeChecks:
    """Only measurements built from caller input reach `validate_effect_stack`."""

    @pytest.fixture
    def checked_shapes(self, monkeypatch):
        shapes = []
        real = measurement.validate_effect_stack

        def spy(stack, labels, **kwargs):
            shapes.append(np.shape(stack))
            return real(stack, labels, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("povmbell") and getattr(module, "validate_effect_stack", None) is real:
                monkeypatch.setattr(module, "validate_effect_stack", spy)
        return shapes

    def test_martens_sweep_checks_the_endpoints_once(self, checked_shapes, tmp_path):
        for count in (1, 2, 30, 5000):
            checked_shapes.clear()
            martens_sweep(np.linspace(0.0, 1.0, count), math.pi / 5, 0.0)
            assert checked_shapes == [(2, 4, 2, 2)]
        # the command evaluates its grid chunk by chunk, and still checks once
        count = 2 * SWEEP_CHUNK + 3
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps({"delta_deg": 36.0, "gamma_grid": {"start": 0.0, "stop": 1.0, "count": count}})
        )
        checked_shapes.clear()
        out = tmp_path / "sweep.csv"
        assert cli.main(["martens-sweep", "--config", str(config), "--out", str(out)]) == 0
        assert checked_shapes == [(2, 4, 2, 2)]
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + count

    def test_chsh_aspect_checks_the_arm_endpoints_only(self, checked_shapes):
        chsh_aspect(singlet_state(), 0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)
        assert checked_shapes == [(2, 4, 2, 2), (2, 4, 2, 2)]

    def test_build_bell_checks_the_arms_only(self, checked_shapes):
        arm = WhichWayConfig(0.6, 0.2, 1.1)
        build_bell(BellConfig(arm1=arm, arm2=arm, state=singlet_state()))
        assert checked_shapes == [(4, 2, 2), (4, 2, 2)]
