"""Unit tests for POVM validation and Born-rule distributions, and for the
scalar qubit branch of the validation against the array path."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_povm, random_pure, random_state
from povmbell import (
    DEFAULT_POLICY,
    DomainError,
    Effect,
    InvariantViolationError,
    NotCompleteError,
    NotHermitianError,
    NotPositiveError,
    OutcomeDistribution,
    Povm,
    PovmBellError,
    Pvm,
    ShapeMismatchError,
    StateDescriptor,
    WhichWayConfig,
    born_probabilities,
    build_whichway,
    identity,
    polarization_pvm,
    projector_from_angle,
    validate_povm,
    whichway_effects,
)
from povmbell.measurement import _qubit_sharp, povm_from_stack, validate_effect_stack
from test_derived_povms import EDGE_GAMMAS


class TestEffect:
    def test_holds_frozen_matrix(self):
        e = Effect(np.eye(2), "x")
        assert e.dim == 2
        assert e.label == "x"
        with pytest.raises(ValueError):
            e.matrix[0, 0] = 2.0

    def test_rejects_rectangular(self):
        with pytest.raises(ShapeMismatchError):
            Effect(np.zeros((2, 3)), "x")


class TestValidatePovm:
    def test_computational_basis_is_pvm(self):
        povm = validate_povm([(np.diag([1.0, 0.0]), "0"), (np.diag([0.0, 1.0]), "1")])
        assert isinstance(povm, Pvm)
        assert povm.labels == ("0", "1")
        assert povm.dim == 2

    def test_unsharp_povm_is_not_pvm(self):
        povm = validate_povm([(0.7 * np.eye(2), "a"), (0.3 * np.eye(2), "b")])
        assert isinstance(povm, Povm)
        assert not isinstance(povm, Pvm)

    def test_incomplete_raises_with_deviation(self):
        e = np.diag([1.0, 0.0])
        with pytest.raises(NotCompleteError) as info:
            validate_povm([(e, "a"), (e, "b")])
        assert info.value.deviation == pytest.approx(1.0, abs=1e-15)

    def test_non_hermitian_raises(self):
        upper = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError) as info:
            validate_povm([(upper, "a"), (np.eye(2) - upper, "b")])
        assert info.value.deviation == pytest.approx(1.0, abs=1e-15)

    def test_negative_effect_raises(self):
        with pytest.raises(NotPositiveError):
            validate_povm([(np.diag([-0.1, 0.5]), "a"), (np.diag([1.1, 0.5]), "b")])

    def test_effect_above_one_raises(self):
        with pytest.raises(NotPositiveError):
            validate_povm([(np.diag([1.2, 0.5]), "a"), (np.diag([-0.2, 0.5]), "b")])

    def test_duplicate_labels_rejected(self):
        half = 0.5 * np.eye(2)
        with pytest.raises(DomainError):
            validate_povm([(half, "x"), (half, "x")])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            validate_povm([(np.eye(2), "a"), (np.zeros((3, 3)), "b")])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            validate_povm([])

    def test_accepts_effect_objects(self):
        povm = validate_povm([Effect(np.eye(2), "only")])
        assert povm.labels == ("only",)

    def test_random_povms_validate(self):
        rng = np.random.default_rng(201)
        for dim, n in ((2, 2), (2, 4), (3, 3), (4, 5)):
            povm = random_povm(rng, dim, n)
            assert len(povm) == n
            assert povm.dim == dim

    def test_polarization_projectors_classify_sharp(self):
        for k in range(8):
            t = k * math.pi / 8
            plus = projector_from_angle(t)
            povm = validate_povm([(plus, "+"), (identity(2) - plus, "-")])
            assert isinstance(povm, Pvm)

    def test_effect_lookup(self):
        povm = polarization_pvm(0.0)
        assert np.allclose(povm.effect("+").matrix, np.diag([1.0, 0.0]), atol=0)
        with pytest.raises(DomainError):
            povm.effect("nope")


def per_effect_validate(pairs, atol_algebra=1e-12, atol_positivity=1e-10):
    """Reference: the POVM axiom checks one effect (and one pair) at a time.

    Returns ("Pvm" | "Povm", None) or (error class name, label, deviation).
    """
    mats = [np.asarray(m, dtype=complex) for m, _ in pairs]
    labels = [label for _, label in pairs]
    for m, label in zip(mats, labels):
        defect = float(np.max(np.abs(m - m.conj().T)))
        if defect > atol_algebra:
            return ("NotHermitianError", label, defect)
    for m, label in zip(mats, labels):
        eigs = np.linalg.eigvalsh(m)
        low, high = float(eigs[0]), float(eigs[-1])
        if low < -atol_positivity or high > 1.0 + atol_positivity:
            return ("NotPositiveError", label, max(-low, high - 1.0))
    total = np.zeros_like(mats[0])
    for m in mats:
        total = total + m
    defect = float(np.max(np.abs(total - np.eye(len(total)))))
    if defect > atol_algebra:
        return ("NotCompleteError", None, defect)
    sharp = all(float(np.max(np.abs(m @ m - m))) <= atol_algebra for m in mats) and all(
        float(np.max(np.abs(a @ b))) <= atol_algebra
        for i, a in enumerate(mats)
        for b in mats[i + 1 :]
    )
    return ("Pvm" if sharp else "Povm", None, None)


def stacked_outcome(pairs):
    try:
        povm = validate_povm(pairs)
    except (NotHermitianError, NotPositiveError, NotCompleteError) as exc:
        quoted = str(exc).split("'")
        label = quoted[1] if type(exc) is not NotCompleteError else None
        return (type(exc).__name__, label, exc.deviation)
    return (type(povm).__name__, None, None)


class TestStackedValidation:
    def test_several_failing_effects_match_per_effect_reference(self):
        rng = np.random.default_rng(205)
        upper = np.array([[0.0, 1.0], [0.0, 0.0]])
        cases = [
            # two non-Hermitian effects of different defects: the first one is named
            [(0.3 * upper, "a"), (np.eye(2) - 0.3 * upper, "b"), (0.9 * upper.T, "c")],
            [(np.diag([0.5, 0.5]), "a"), (0.2 * upper, "b"), (0.7 * upper, "c")],
            # several effects outside [0, 1]: the first one in input order is named
            [(np.diag([1.0, 0.5]), "a"), (np.diag([-0.3, 0.2]), "b"), (np.diag([0.3, 0.3]), "c")],
            [(np.diag([1.4, 0.0]), "a"), (np.diag([-0.2, 1.3]), "b"), (np.diag([-0.2, -0.3]), "c")],
            # incomplete and sharp-looking
            [(np.diag([1.0, 0.0]), "a"), (np.diag([1.0, 0.0]), "b")],
            [(0.4 * np.eye(2), "a"), (0.4 * np.eye(2), "b")],
        ]
        for _ in range(20):
            povm = random_povm(rng, 3, 4)
            cases.append([(e.matrix, e.label) for e in povm.effects])
            noisy = [(e.matrix + 1e-6 * rng.normal(size=(3, 3)), e.label) for e in povm.effects]
            cases.append(noisy)
        for t in range(8):
            plus = projector_from_angle(t * math.pi / 8)
            cases.append([(plus, "+"), (identity(2) - plus, "-")])
            cases.append([(plus, "+"), (0.5 * (identity(2) - plus), "-a"), (0.5 * (identity(2) - plus), "-b")])
        for pairs in cases:
            assert stacked_outcome(pairs) == per_effect_validate(pairs)

    def test_batch_names_first_failing_measurement(self):
        good = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        bad = np.stack([np.diag([1.2, 0.0]), np.diag([-0.2, 1.0])])
        worse = np.stack([np.diag([1.0, -0.5]), np.diag([0.0, 1.5])])
        stack = np.stack([good, good, bad, worse])
        with pytest.raises(NotPositiveError) as info:
            validate_effect_stack(stack, ("x", "y"))
        assert "'x'" in str(info.value)
        assert info.value.deviation == pytest.approx(0.2, abs=1e-15)

    def test_batch_sharpness_matches_per_measurement_classification(self):
        rng = np.random.default_rng(206)
        stacks = []
        for t in range(6):
            plus = projector_from_angle(t * math.pi / 6)
            stacks.append(np.stack([plus, np.eye(2) - plus]))
            stacks.append(np.stack([0.5 * plus + 0.25 * np.eye(2), 0.75 * np.eye(2) - 0.5 * plus]))
        for _ in range(4):
            stacks.append(np.stack([e.matrix for e in random_povm(rng, 2, 2).effects]))
        # the batch passes the axiom checks at once; sharpness is classified per measurement
        assert validate_effect_stack(np.stack(stacks), ("0", "1")) is None
        got = [type(povm_from_stack(s, ("0", "1"))).__name__ for s in stacks]
        want = [per_effect_validate(list(zip(s, ("0", "1"))))[0] for s in stacks]
        assert set(want) == {"Pvm", "Povm"}
        assert got == want

    def test_label_count_checked(self):
        with pytest.raises(ShapeMismatchError):
            validate_effect_stack(np.stack([np.eye(2)]), ("a", "b"))


# Stacks for the scalar qubit branch of validate_effect_stack and
# povm_from_stack: quantities at each tolerance, 1e-14 to 1e-9 inside or
# outside it, around which the branch must defer to the array path.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=1000)
ALGEBRA, POSITIVITY = DEFAULT_POLICY.atol_algebra, DEFAULT_POLICY.atol_positivity
OFFSETS = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from((-1.0, 1.0)), st.floats(-14.0, -9.0)),
)
# gammas whose which-way arm is sharp only to within a few atol_algebra
BAND_GAMMAS = st.builds(lambda g, flip: 1.0 - g if flip else g, st.floats(1e-13, 1e-11), st.booleans())
ANGLES = st.floats(-10.0, 10.0)
NON_FINITE = (np.nan, np.inf, -np.inf, complex(np.nan, 0), complex(0, np.inf), complex(np.inf, -np.inf))


def labels_for(stack):
    return tuple("abcd"[: len(stack)])


@st.composite
def spectral_stacks(draw, k=None):
    """1 to 4 qubit effects diagonal in one drawn basis that sum to the identity.

    Each basis vector's k eigenvalues are the gaps between sorted cut points
    of [0, 1], which may be 0 or 1, so projectors are drawn too.
    """
    k = draw(st.integers(1, 4)) if k is None else k
    phi, alpha = draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2 * math.pi))
    twist = np.exp(1j * alpha) * math.sin(phi)
    basis = np.array([[math.cos(phi), -twist.conjugate()], [twist, math.cos(phi)]])
    cut = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)
    spectra = []
    for _ in range(2):
        cuts = sorted(draw(st.lists(cut, min_size=k - 1, max_size=k - 1)))
        spectra.append(np.diff([0.0, *cuts, 1.0]))
    return np.array([basis @ np.diag([p, q]) @ basis.conj().T for p, q in zip(*spectra)])


@st.composite
def qubit_stacks(draw):
    """(k, 2, 2) stacks that pass, fail, or sit at a tolerance of the axiom checks."""
    kinds = ["whichway", "valid", "herm", "imag", "low", "high", "complete", "non-finite", "gross"]
    kind = draw(st.sampled_from(kinds))
    if kind == "whichway":
        gamma = draw(st.sampled_from(EDGE_GAMMAS) | BAND_GAMMAS | st.floats(0.0, 1.0))
        return whichway_effects(gamma, draw(ANGLES), draw(ANGLES))
    stack = draw(spectral_stacks(k=draw(st.integers(2, 4))))
    phase = np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    algebra, positivity = ALGEBRA + draw(OFFSETS), POSITIVITY + draw(OFFSETS)
    if kind == "herm":
        # one triangle of effects 0 and 1 is off by `algebra`, or by half
        # of it with their sum off by `algebra`
        r, c = draw(st.sampled_from(((0, 1), (1, 0))))
        if draw(st.booleans()):
            stack[0, r, c] += algebra * phase
            stack[1, r, c] -= algebra * phase
        else:
            stack[0, r, c] += 0.5 * algebra * phase
            stack[1, r, c] += 0.5 * algebra * phase
    elif draw(st.booleans()):
        # upper triangles off by 0.9 atol_algebra: eigvalsh reads the lower ones
        stack[0, 0, 1] += 0.9 * ALGEBRA * phase
        stack[1, 0, 1] -= 0.9 * ALGEBRA * phase
    if kind == "imag":  # an imaginary diagonal entry: hermiticity defect `algebra`
        i = draw(st.integers(0, 1))
        stack[0, i, i] += 0.5j * algebra
    elif kind in ("low", "high"):
        # one eigenvalue of effect 0 moved; the other effects share the rest,
        # so that none of theirs need fail with it
        eigs, vecs = np.linalg.eigh(stack[0])
        target = -positivity if kind == "low" else 1.0 + positivity
        i = 0 if kind == "low" else 1
        shift = (target - eigs[i]) * np.outer(vecs[:, i], vecs[:, i].conj())
        stack[0] += shift
        stack[1:] -= shift / (len(stack) - 1)
    elif kind == "complete":  # a Hermitian excess of size `algebra`
        if draw(st.booleans()):
            i = draw(st.integers(0, 1))
            stack[0, i, i] += algebra
        else:
            stack[0, 0, 1] += algebra * phase
            stack[0, 1, 0] += algebra * phase.conjugate()
    elif kind == "non-finite":
        at = draw(st.integers(0, len(stack) - 1)), draw(st.integers(0, 1)), draw(st.integers(0, 1))
        stack[at] = draw(st.sampled_from(NON_FINITE))
    elif kind == "gross":
        parts = draw(st.lists(st.floats(-0.5, 0.5), min_size=8, max_size=8))
        noise = np.array(parts).view(complex).reshape(2, 2)
        stack[0] += noise + noise.conj().T if draw(st.booleans()) else noise
    return stack


def outcome(call):
    """What a check does: None, or the error's class, message and deviation (NaN as a string)."""
    try:
        call()
    except PovmBellError as exc:
        deviation = exc.deviation
        if deviation is not None and math.isnan(deviation):
            deviation = "nan"
        return type(exc), str(exc), deviation
    return None


@st.composite
def near_sharp_stacks(draw):
    """Valid qubit stacks whose sharpness residue is about atol_algebra, or any valid one.

    Effect 0 has eigenvalues (1 - t, 0) and effect 1 (t, 1) in one basis,
    so the residue of both E_0^2 - E_0 and E_0 E_1 is about t; zero effects
    may be added. Otherwise a which-way stack, with gammas in the band too.
    """
    kind = draw(st.sampled_from(["near", "whichway", "valid"]))
    if kind == "whichway":
        gamma = draw(st.sampled_from(EDGE_GAMMAS) | BAND_GAMMAS | st.floats(0.0, 1.0))
        return whichway_effects(gamma, draw(ANGLES), draw(ANGLES))
    if kind == "valid":
        return draw(spectral_stacks())
    t = abs(ALGEBRA + draw(OFFSETS))
    basis = draw(spectral_stacks(k=2))[0]  # a projector or a generic effect of one drawn basis
    _, vecs = np.linalg.eigh(basis)
    proj = [np.outer(vecs[:, i], vecs[:, i].conj()) for i in range(2)]
    effects = [(1.0 - t) * proj[0], t * proj[0] + proj[1]]
    for _ in range(draw(st.integers(0, 2))):
        effects.insert(draw(st.integers(0, len(effects))), np.zeros((2, 2)))
    return np.array(effects)


def residue(stack):
    """Sharpness residue, one 2x2 product at a time: max over i <= j of |E_i E_j - [i == j] E_i|."""
    k = len(stack)
    return max(
        float(np.abs(stack[i] @ stack[j] - (stack[i] if i == j else 0.0)).max())
        for i in range(k)
        for j in range(i, k)
    )


class TestQubitBranch:
    """The scalar qubit branch gives the verdict of the array path, or defers to it."""

    @PROPERTY
    @given(qubit_stacks())
    def test_agrees_with_the_array_path(self, stack):
        labels = labels_for(stack)
        # a batch of one measurement takes the array path
        assert outcome(lambda: validate_effect_stack(stack, labels)) == outcome(
            lambda: validate_effect_stack(stack[None], labels)
        )

    @settings(PROPERTY, max_examples=400)
    @given(near_sharp_stacks())
    def test_classifies_as_the_residue_does(self, stack):
        got = type(povm_from_stack(stack, labels_for(stack)))
        worst = residue(stack)
        # a residue within 1e-15 of the tolerance, 100 times inside the
        # branch's margin, may round to either side between 2x2 and 8x8 products
        if abs(worst - ALGEBRA) > 1e-15:
            assert got is (Pvm if worst <= ALGEBRA else Povm)

    def test_eigenvalues_come_from_the_lower_triangle(self):
        # the lower triangle puts an eigenvalue of each effect 4e-13 beyond
        # atol_positivity; the upper one, 8e-13 off it, would put both inside
        r = 0.25 + POSITIVITY + 4e-13
        first = np.array([[0.25, r - 8e-13], [r, 0.25]])
        stack = np.array([first, np.eye(2) - first])
        with pytest.raises(NotPositiveError, match="'a'"):
            validate_effect_stack(stack, ("a", "b"))
        assert outcome(lambda: validate_effect_stack(stack, ("a", "b"))) == outcome(
            lambda: validate_effect_stack(stack[None], ("a", "b"))
        )

    def test_a_valid_whichway_arm_never_reaches_the_array_path(self, monkeypatch):
        gammas = (*EDGE_GAMMAS, 0.3)
        # the branch classifies every such arm, sharp or not
        assert all(_qubit_sharp(whichway_effects(g, 0.4, 1.1).tolist()) is not None for g in gammas)
        calls = []
        real = np.linalg.eigvalsh

        def spy(matrices):
            calls.append(np.shape(matrices))
            return real(matrices)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        for gamma in gammas:
            build_whichway(WhichWayConfig(gamma, 0.4, 1.1))
        assert calls == []
        # the spy sees the array path
        validate_effect_stack(whichway_effects([0.3], 0.4, 1.1), ("++", "+-", "-+", "--"))
        assert calls == [(1, 4, 2, 2)]


class TestPolarizationPvm:
    def test_horizontal(self):
        pvm = polarization_pvm(0.0)
        assert pvm.labels == ("+", "-")
        assert np.allclose(pvm.effect("+").matrix, np.diag([1.0, 0.0]), atol=0)
        assert np.allclose(pvm.effect("-").matrix, np.diag([0.0, 1.0]), atol=0)

    def test_diagonal(self):
        pvm = polarization_pvm(math.pi / 4)
        want_plus = np.full((2, 2), 0.5)
        assert np.allclose(pvm.effect("+").matrix, want_plus, atol=1e-15)

    def test_vertical(self):
        # cos(pi/2) rounds to 6.1e-17, so the off-diagonals carry its square root scale
        pvm = polarization_pvm(math.pi / 2)
        assert np.allclose(pvm.effect("+").matrix, np.diag([0.0, 1.0]), atol=1e-16)


class TestBornProbabilities:
    def test_eigenstate(self):
        dist = born_probabilities(StateDescriptor.pure([1.0, 0.0]), polarization_pvm(0.0))
        assert dist.labels == ("+", "-")
        assert dist.prob("+") == pytest.approx(1.0, abs=0)
        assert dist.prob("-") == pytest.approx(0.0, abs=0)

    def test_unbiased_superposition(self):
        inv = 1 / math.sqrt(2)
        dist = born_probabilities(StateDescriptor.pure([inv, inv]), polarization_pvm(0.0))
        assert dist.prob("+") == pytest.approx(0.5, abs=1e-15)

    def test_trivial_single_effect(self):
        povm = validate_povm([(np.eye(2), "all")])
        dist = born_probabilities(StateDescriptor.pure([0.6, 0.8]), povm)
        assert dist.prob("all") == pytest.approx(1.0, abs=1e-15)

    def test_random_states_sum_to_one(self):
        rng = np.random.default_rng(202)
        for _ in range(40):
            dim = int(rng.integers(2, 5))
            povm = random_povm(rng, dim, int(rng.integers(2, 6)))
            state = random_state(rng, dim)
            dist = born_probabilities(state, povm)
            assert abs(float(dist.probs.sum()) - 1.0) <= 1e-12
            assert float(dist.probs.min()) >= 0.0
            assert float(dist.probs.max()) <= 1.0

    def test_density_path_matches_pure(self):
        rng = np.random.default_rng(203)
        for _ in range(25):
            povm = random_povm(rng, 2, 3)
            pure = random_pure(rng, 2)
            mixed = StateDescriptor.density(pure.to_density())
            d1 = born_probabilities(pure, povm)
            d2 = born_probabilities(mixed, povm)
            assert np.max(np.abs(d1.probs - d2.probs)) <= 1e-12

    def test_coarse_graining_adds(self):
        # merging two effects into one adds their probabilities
        rng = np.random.default_rng(204)
        povm = random_povm(rng, 2, 3)
        state = random_pure(rng, 2)
        fine = born_probabilities(state, povm)
        merged = validate_povm(
            [
                (povm.effects[0].matrix + povm.effects[1].matrix, "01"),
                (povm.effects[2].matrix, "2"),
            ]
        )
        coarse = born_probabilities(state, merged)
        assert coarse.prob("01") == pytest.approx(fine.prob("e0") + fine.prob("e1"), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            born_probabilities(StateDescriptor.pure([1.0, 0.0, 0.0]), polarization_pvm(0.0))

    def test_mixed_state_path(self):
        dist = born_probabilities(StateDescriptor.density(np.eye(2) / 2), polarization_pvm(0.3))
        assert dist.prob("+") == pytest.approx(0.5, abs=1e-12)


class TestOutcomeDistribution:
    def test_clamps_tiny_negative(self):
        dist = OutcomeDistribution.from_values(("a", "b"), [-5e-11, 1.0 + 5e-11])
        assert dist.prob("a") == 0.0
        assert dist.prob("b") == 1.0

    def test_rejects_large_negative(self):
        with pytest.raises(InvariantViolationError):
            OutcomeDistribution.from_values(("a", "b"), [-1e-6, 1.0 + 1e-6])

    def test_rejects_bad_total(self):
        with pytest.raises(InvariantViolationError):
            OutcomeDistribution.from_values(("a", "b"), [0.7, 0.7])

    def test_renormalizes_exactly(self):
        dist = OutcomeDistribution.from_values(("a", "b"), [0.25 + 1e-11, 0.75])
        assert float(dist.probs.sum()) == 1.0

    def test_unknown_label(self):
        dist = OutcomeDistribution.from_values(("a",), [1.0])
        with pytest.raises(DomainError):
            dist.prob("z")

    def test_label_count_must_match(self):
        with pytest.raises(ShapeMismatchError):
            OutcomeDistribution(("a", "b"), np.array([1.0]))

    def test_as_dict_preserves_order(self):
        dist = OutcomeDistribution.from_values(("x", "y"), [0.25, 0.75])
        assert list(dist.as_dict()) == ["x", "y"]

    def test_rejects_empty_labels_or_values(self):
        with pytest.raises(DomainError, match="nonempty and unique"):
            OutcomeDistribution.from_values([], [])
        with pytest.raises(InvariantViolationError):
            OutcomeDistribution.from_values(("a",), [])

    def test_rejects_duplicate_labels(self):
        # as_dict would keep one of the two probabilities
        with pytest.raises(DomainError, match="nonempty and unique"):
            OutcomeDistribution.from_values(("a", "a"), [0.5, 0.5])


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_effect_with_non_finite_entry_rejected(self, bad):
        effect = np.diag([1.0, 0.0]).astype(complex)
        effect[0, 1] = effect[1, 0] = bad
        pairs = [(effect, "a"), (np.eye(2) - np.diag([1.0, 0.0]), "b")]
        with pytest.raises(NotHermitianError, match="'a'"):
            validate_povm(pairs)
        with pytest.raises(NotHermitianError):
            validate_effect_stack(np.array([m for m, _ in pairs]), ["a", "b"])

    def test_infinite_effect_raises_the_typed_error_and_no_warning(self):
        # inf - inf in the hermiticity defect is a NaN defect, not a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitianError, match="'a'") as info:
                validate_povm([(np.full((2, 2), np.inf), "a"), (np.eye(2), "b")])
        assert math.isnan(info.value.deviation)

    def test_all_nan_effect_rejected(self):
        with pytest.raises(NotHermitianError) as info:
            validate_povm([(np.full((2, 2), np.nan), "a"), (np.eye(2), "b")])
        assert math.isnan(info.value.deviation)

    def test_nan_in_batch_names_first_offender(self):
        stack = np.array([[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]] * 3, dtype=complex)
        stack[1, 1, 0, 0] = np.nan
        with pytest.raises(NotHermitianError, match="'b'"):
            validate_effect_stack(stack, ["a", "b"])

    @pytest.mark.parametrize(
        "values", [[np.nan, 1.0], [0.5, np.nan], [np.inf, 0.0], [np.inf, -np.inf], [-np.inf, 1.0]]
    )
    def test_distribution_with_non_finite_value_rejected(self, values):
        with pytest.raises(InvariantViolationError):
            OutcomeDistribution.from_values(("a", "b"), values)


class TestArrayEquality:
    def test_equal_measurements_compare_equal(self):
        assert polarization_pvm(0.0) == polarization_pvm(0.0)
        assert polarization_pvm(0.0) != polarization_pvm(0.3)
        assert Effect(np.eye(2), "x") == Effect(np.eye(2), "x")
        assert Effect(np.eye(2), "x") != Effect(np.eye(2), "y")
        assert Effect(np.eye(2), "x") != Effect(np.eye(3), "x")

    def test_class_is_part_of_equality(self):
        pvm = polarization_pvm(0.0)
        assert Povm(stack=pvm.stack, labels=pvm.labels) != pvm
        assert Povm(stack=pvm.stack, labels=pvm.labels) == Povm(stack=pvm.stack, labels=pvm.labels)
        assert pvm != "not a measurement"

    def test_distributions(self):
        a = OutcomeDistribution.from_values(("a", "b"), [0.25, 0.75])
        assert a == OutcomeDistribution.from_values(("a", "b"), [0.25, 0.75])
        assert a != OutcomeDistribution.from_values(("a", "b"), [0.75, 0.25])
        assert a != OutcomeDistribution.from_values(("b", "a"), [0.25, 0.75])

    def test_records_stay_unhashable(self):
        for record in (
            polarization_pvm(0.0),
            Effect(np.eye(2), "x"),
            OutcomeDistribution.from_values(("a",), [1.0]),
        ):
            with pytest.raises(TypeError):
                hash(record)
