"""Proofs, by test, of the POVM checks the library does not make at run time.

The library checks the POVM axioms where a POVM object reaches the caller:
`validate_povm`, `build_whichway` (so each arm of
`build_bell`) and `polarization_pvm`. The CLI's `whichway`, `bell` and
`sample` commands check each arm they form too, by the arm kernel `cli._arm`
(the scalar verdict of `validate_povm`, or its array path), and reduce it
within one call. Effects formed from checked scalars
(gammas, angles) and reduced to numbers inside one call are not checked at
run time:

* `build_bell`, and the CLI's `bell` and bell `sample`, tensor two checked
  arms, and a tensor product of POVMs is a POVM, sharp exactly when both
  factors are;
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
build or stand for, and pin that the paths themselves call no `validate_povm`.
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
    singlet_state,
    validate_effect_stack,
    validate_povm,
)
from povmbell import bell, cli, infometrics, measurement, sampler, whichway

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
        # validate_povm runs the full check and classifies the stack numerically
        checked = validate_povm(povm.stack, QUAD_LABELS)
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
                assert type(povm) is type(validate_povm(povm.stack, QUAD_LABELS))
                # sharp within tolerance exactly when both arms sit at an edge
                sharp = all(min(g, 1.0 - g) < 1e-13 for g in (gamma, other))
                assert isinstance(povm, Pvm) == sharp

    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.booleans(), angle_pairs(), angle_pairs())
    def test_corner_batch_of_chsh_aspect(self, seed, pure, angles1, angles2):
        rng = np.random.default_rng(seed)
        state = random_pure(rng, 4) if pure else random_density(rng, 4)
        seen = []
        real = bell._born

        def spy(state, stack, labels):
            seen.append(stack)
            return real(state, stack, labels)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bell, "_born", spy)
            chsh_aspect(state, *angles1, *angles2)
        (corners,) = seen
        assert corners.shape == (4, 16, 4, 4)
        validate_effect_stack(corners, QUAD_LABELS)
        # every corner tensors two sharp endpoint measurements
        assert all(isinstance(validate_povm(c, QUAD_LABELS), Pvm) for c in corners)

    @PROPERTY
    @given(angle_pairs(), st.lists(GAMMAS, max_size=64), st.integers(2, 2000))
    def test_dense_sweep_grid(self, angles, drawn, count):
        grid = np.concatenate([EDGE_GAMMAS, np.linspace(0.0, 1.0, count), drawn])
        stacks = np.array([whichway._effect_rows(gamma, *angles) for gamma in grid.tolist()])
        validate_effect_stack(stacks, WW_LABELS)
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


def test_the_constant_label_sets_pass_every_label_check():
    """WW_LABELS and QUAD_LABELS, which the one-row runners hand to the kernels without a
    check, pass every check of labels, and match the stacks and sign table they label."""
    for labels, k in ((WW_LABELS, 4), (QUAD_LABELS, 16)):
        assert type(labels) is tuple and len(labels) == k and all(type(label) is str for label in labels)
        assert measurement._distribution_labels(labels) == labels
        assert sampler._check_label_set(labels) == labels
        assert cli._P_COLUMNS[labels] == [f"p_{cli._slug(label)}" for label in labels]
    assert QUAD_LABELS == tuple(f"{a},{b}" for a in WW_LABELS for b in WW_LABELS)
    arm = np.array(whichway._effect_rows(0.3, 0.1, 1.2))
    assert arm.shape == (4, 2, 2) and arm.dtype == complex
    assert validate_povm(arm, WW_LABELS).labels == WW_LABELS
    joint = bell._joint_effects(arm[None], arm[None])
    assert joint.shape == (1, 16, 4, 4)
    assert validate_povm(joint[0], QUAD_LABELS).labels == QUAD_LABELS
    assert bell.CHSH_SIGNS.shape == (16, 4) and len(cli._E_COLUMNS) == len(bell.CHSH_PAIRS) == 4


ANGLES_DEG = {"theta1_deg": 0.0, "theta1_prime_deg": 45.0, "theta2_deg": 22.5, "theta2_prime_deg": 67.5}


class TestRuntimeChecks:
    """Only POVMs handed to the caller reach `validate_povm`, and only the arms of the CLI's
    one-row commands reach the arm kernel's certificate or verdict."""

    @pytest.fixture
    def checked_shapes(self, monkeypatch):
        """Each POVM check: the effect shape of each `validate_povm` call, and the name of the
        check and the shape of each arm whose entries the CLI's arm kernel hands to the axiom
        certificate or to the full verdict."""
        shapes = []
        real = measurement.validate_povm

        def spy(stack, labels, **kwargs):
            shapes.append(np.shape(stack))
            return real(stack, labels, **kwargs)

        def arm_spy(name, check):
            def counted(rows):
                shapes.append((name, np.shape(rows)))
                return check(rows)

            return counted

        for name, module in list(sys.modules.items()):
            if name.startswith("povmbell") and getattr(module, "validate_povm", None) is real:
                monkeypatch.setattr(module, "validate_povm", spy)
        for name in ("_qubit_certificate", "_qubit_class"):
            monkeypatch.setattr(cli, name, arm_spy(name, getattr(cli, name)))
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

    @pytest.mark.parametrize(
        "command, fields, checked",
        [
            ("whichway", {"gamma": 0.3, "theta_deg": 10.0, "theta_prime_deg": 55.0, "state": "H"}, 1),
            ("bell", {"gamma1": 0.6, "gamma2": 1.0, **ANGLES_DEG, "state": "singlet"}, 2),
            ("aspect", {**ANGLES_DEG, "state": "singlet"}, 0),
            ("sample", {"experiment": "whichway", "gamma": 0.3, "theta_deg": 10.0, "theta_prime_deg": 55.0,
                        "state": [1, 0], "n_events": 5, "seed": 1}, 1),
            ("sample", {"experiment": "bell", "gamma1": 0.6, "gamma2": 0.0, **ANGLES_DEG, "state": "singlet",
                        "n_events": 5, "seed": 1}, 2),
        ],
    )
    def test_the_one_row_commands_check_each_arm_once(
        self, checked_shapes, tmp_path, command, fields, checked
    ):
        # the runners reduce each arm within one call and certify it, as build_whichway
        # checks it; only sample, which hands a Povm to the sampler, also classifies it
        config = tmp_path / "config.json"
        config.write_text(json.dumps(fields))
        assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        check = "_qubit_class" if command == "sample" else "_qubit_certificate"
        assert checked_shapes == [(check, (4, 2, 2))] * checked
