"""Proofs, by test, of the POVM checks the library does not make at run time.

The library checks the POVM axioms where a POVM object reaches the caller:
`validate_povm`, `povm_from_stack`, `build_whichway` (so each arm of
`build_bell`) and `polarization_pvm`. Effects formed from checked scalars
(gammas, angles) and reduced to numbers inside one call are not checked at
run time:

* `build_bell` tensors two checked arms, and a tensor product of POVMs is a
  POVM, sharp exactly when both factors are;
* `chsh_aspect` tensors the which-way effects of each arm at gamma = 1 and
  gamma = 0, and returns only the four correlations;
* `martens_sweep` and `martens_check` form no effects and no nonideality
  matrices: their entropies are closed forms of gamma (proved equal to
  `row_entropy` of the matrices in `tests/test_infometrics.py`), and every
  which-way effect is affine in gamma, so it is a POVM for every gamma in
  [0, 1] when the two endpoint measurements are.

`polarization_pvm` checks its POVM but does not ask whether the check
found it sharp: P^2 - P = (cos^2 + sin^2 - 1) P is rounding dust, so its
projectors classify as `Pvm` at every finite angle.

The tests here run the full `validate_effect_stack` on what those paths
build or stand for, and pin that the paths themselves do not.
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
    WW_LABELS,
    BellConfig,
    Pvm,
    WhichWayConfig,
    build_bell,
    build_whichway,
    chsh_aspect,
    martens_bound,
    martens_check,
    martens_sweep,
    polarization_pvm,
    povm_from_stack,
    singlet_state,
    validate_effect_stack,
    whichway_effects,
)
from povmbell import bell, cli, infometrics, measurement, whichway

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
    @given(st.one_of(ANGLES, st.floats(allow_nan=False, allow_infinity=False)))
    def test_polarization_pvm_is_sharp_at_every_angle(self, theta):
        # P^2 - P = (cos^2 + sin^2 - 1) P is rounding dust, far inside
        # atol_algebra, so the numeric classification always says Pvm
        assert isinstance(polarization_pvm(theta), Pvm)
        assert isinstance(polarization_pvm(-theta), Pvm)

    @PROPERTY
    @given(angle_pairs())
    def test_martens_bound_lies_in_zero_to_ln2(self, angles):
        assert 0.0 <= martens_bound(*angles) <= math.log(2.0)


class TestRuntimeChecks:
    """Only POVMs handed to the caller reach `validate_effect_stack`."""

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

    @pytest.fixture
    def entropy_work(self, monkeypatch):
        """Every NonidealityMatrix built and every row_entropy call, by name."""
        seen = []
        real_init, real_entropy = whichway.NonidealityMatrix.__post_init__, infometrics.row_entropy

        def init_spy(matrix):
            seen.append("NonidealityMatrix")
            real_init(matrix)

        def entropy_spy(matrix):
            seen.append("row_entropy")
            return real_entropy(matrix)

        monkeypatch.setattr(whichway.NonidealityMatrix, "__post_init__", init_spy)
        monkeypatch.setattr(infometrics, "row_entropy", entropy_spy)
        return seen

    def test_the_spies_see_entropy_work(self, entropy_work):
        infometrics.row_entropy(np.eye(2))
        assert entropy_work == ["row_entropy", "NonidealityMatrix"]

    def test_martens_sweep_checks_nothing(self, checked_shapes, entropy_work, tmp_path):
        for count in (1, 2, 30, 5000):
            martens_sweep(np.linspace(0.0, 1.0, count), math.pi / 5, 0.0)
        martens_check(build_whichway(WhichWayConfig(0.3, math.pi / 5, 0.0)))
        # build_whichway checks the one POVM it returns
        assert checked_shapes == [(4, 2, 2)]
        assert entropy_work == []
        checked_shapes.clear()
        # the command evaluates its grid chunk by chunk, and checks no chunk
        count = 2 * cli.SWEEP_CHUNK + 3
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps({"delta_deg": 36.0, "gamma_grid": {"start": 0.0, "stop": 1.0, "count": count}})
        )
        out = tmp_path / "sweep.csv"
        assert cli.main(["martens-sweep", "--config", str(config), "--out", str(out)]) == 0
        assert checked_shapes == []
        assert entropy_work == []
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + count

    def test_chsh_aspect_checks_nothing(self, checked_shapes):
        chsh_aspect(singlet_state(), 0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)
        assert checked_shapes == []

    def test_build_bell_checks_the_arms_only(self, checked_shapes):
        arm = WhichWayConfig(0.6, 0.2, 1.1)
        build_bell(BellConfig(arm1=arm, arm2=arm, state=singlet_state()))
        assert checked_shapes == [(4, 2, 2), (4, 2, 2)]
