"""Unit tests for POVM validation and Born-rule distributions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import random_density, random_povm, random_pure, random_state
from povmbell import (
    DomainError,
    Effect,
    InvariantViolationError,
    NotCompleteError,
    NotHermitianError,
    NotPositiveError,
    OutcomeDistribution,
    Povm,
    Pvm,
    ShapeMismatchError,
    StateDescriptor,
    born_probabilities,
    identity,
    polarization_pvm,
    projector_from_angle,
    validate_povm,
)
from povmbell.measurement import povm_from_stack, validate_effect_stack


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


class TestNonFinite:
    # inf - inf in the hermiticity defect warns before the check raises
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_effect_with_non_finite_entry_rejected(self, bad):
        effect = np.diag([1.0, 0.0]).astype(complex)
        effect[0, 1] = effect[1, 0] = bad
        pairs = [(effect, "a"), (np.eye(2) - np.diag([1.0, 0.0]), "b")]
        with pytest.raises(NotHermitianError, match="'a'"):
            validate_povm(pairs)
        with pytest.raises(NotHermitianError):
            validate_effect_stack(np.array([m for m, _ in pairs]), ["a", "b"])

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
