"""Unit tests for POVM validation and Born-rule distributions, and for the
scalar qubit verdict of `validate_povm` against the array path."""

from __future__ import annotations

import math
import warnings
from unittest import mock

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
    PAULI_Y,
    Povm,
    PovmBellError,
    Pvm,
    ShapeMismatchError,
    StateDescriptor,
    WW_LABELS,
    WhichWayConfig,
    born_probabilities,
    build_whichway,
    identity,
    polarization_pvm,
    projector_from_angle,
    validate_povm,
)
from povmbell import measurement
from povmbell.measurement import _qubit_certificate, _qubit_class, validate_effect_stack
from povmbell.whichway import _effect_rows
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
        povm = validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], ["0", "1"])
        assert isinstance(povm, Pvm)
        assert povm.labels == ("0", "1")
        assert povm.dim == 2

    def test_unsharp_povm_is_not_pvm(self):
        povm = validate_povm([0.7 * np.eye(2), 0.3 * np.eye(2)], ["a", "b"])
        assert isinstance(povm, Povm)
        assert not isinstance(povm, Pvm)

    def test_incomplete_raises_with_deviation(self):
        e = np.diag([1.0, 0.0])
        with pytest.raises(NotCompleteError) as info:
            validate_povm([e, e], ["a", "b"])
        assert info.value.deviation == pytest.approx(1.0, abs=1e-15)

    def test_non_hermitian_raises(self):
        upper = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError) as info:
            validate_povm([upper, np.eye(2) - upper], ["a", "b"])
        assert info.value.deviation == pytest.approx(1.0, abs=1e-15)

    def test_negative_effect_raises(self):
        with pytest.raises(NotPositiveError):
            validate_povm([np.diag([-0.1, 0.5]), np.diag([1.1, 0.5])], ["a", "b"])

    def test_effect_above_one_raises(self):
        with pytest.raises(NotPositiveError):
            validate_povm([np.diag([1.2, 0.5]), np.diag([-0.2, 0.5])], ["a", "b"])

    def test_duplicate_labels_rejected(self):
        half = 0.5 * np.eye(2)
        with pytest.raises(DomainError):
            validate_povm([half, half], ["x", "x"])

    def test_labels_equal_as_strings_rejected(self):
        # a measurement keeps its labels as strings, where 1 and "1" are one label;
        # the message shows the labels as given
        for dim in (2, 3):
            sharp = np.stack([np.diag([1.0] + [0.0] * (dim - 1)), np.diag([0.0] + [1.0] * (dim - 1))])
            with pytest.raises(DomainError, match=r"unique, got \[1, '1'\]"):
                validate_povm(sharp, (1, "1"))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            validate_povm([np.eye(2), np.zeros((3, 3))], ["a", "b"])

    def test_empty_rejected(self):
        with pytest.raises(ShapeMismatchError, match="got 0 labels for 0 effects"):
            validate_povm(np.zeros((0, 2, 2)), [])

    def test_label_count_must_match_the_stack(self):
        with pytest.raises(ShapeMismatchError, match="got 1 labels for 2 effects"):
            validate_povm([np.eye(2), np.zeros((2, 2))], ["a"])

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
            povm = validate_povm([plus, identity(2) - plus], ["+", "-"])
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
        povm = validate_povm([m for m, _ in pairs], [label for _, label in pairs])
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
        got = [type(validate_povm(s, ("0", "1"))).__name__ for s in stacks]
        want = [per_effect_validate(list(zip(s, ("0", "1"))))[0] for s in stacks]
        assert set(want) == {"Pvm", "Povm"}
        assert got == want

    def test_label_count_checked(self):
        with pytest.raises(ShapeMismatchError):
            validate_effect_stack(np.stack([np.eye(2)]), ("a", "b"))


# Stacks for the scalar qubit verdict of validate_povm: quantities at each
# tolerance, 1e-14 to 1e-9 inside or outside it, around which the verdict
# must defer to the array path.
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
        return np.array(_effect_rows(gamma, draw(ANGLES), draw(ANGLES)))
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
        if draw(st.booleans()):
            # the others equal: for k > 2 each moves by a (k - 1)th of the
            # shift, within tolerance, so effect 0 alone fails
            stack[1:] = (np.eye(2) - stack[0]) / (len(stack) - 1)
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


def outcome(stack, labels):
    """What `validate_povm` does: the class it returns, or the error's class,
    message and deviation (NaN as a string)."""
    try:
        return type(validate_povm(stack, labels))
    except PovmBellError as exc:
        deviation = exc.deviation
        if deviation is not None and math.isnan(deviation):
            deviation = "nan"
        return type(exc), str(exc), deviation


def array_outcome(stack, labels):
    """`outcome` with the scalar verdict showing nothing, so that the array path decides."""
    with mock.patch.object(measurement, "_qubit_class", return_value=None) as verdict:
        found = outcome(stack, labels)
    assert verdict.call_count == 1
    return found


def lone_entry_stack(t, theta=math.pi / 6, phase=1.0, lower=False):
    """Three qubit effects whose largest sharpness residue entry is one
    off-diagonal entry of the block (0, 1), of size about t lone_entry_size(theta).

    With P the projector on u = (cos theta, sin theta), v = (-sin theta,
    cos theta) and N = |u><v| + |v><u|, the effects are
      A = P + t (I - N),   B = (I - P) - t I,   C = t N,
    the PVM (P, I - P, 0) moved by t: Hermitian and complete, each eigenvalue
    within about t of [0, 1], so valid for t far below atol_positivity. To
    first order in t, A B = t (I - 2P - |u><v|), whose upper-right entry is
    -t (sin 2 theta + cos^2 theta); for theta in [0.2, 1] that is at least
    1.3 times every other entry of every block, the diagonal ones included.
    In the unrotated basis (theta = 0) it ties with C's own block, which
    repeats the off-diagonal t of N. The stack is (A, B, C), so the entry is
    the upper right of block (0, 1), or, `lower`, (B, A, C), whose block
    (0, 1) is B A = (A B)^H, with the entry in its lower left. A diagonal
    unitary of `phase` makes the entries complex and keeps their sizes.
    """
    u = np.array([math.cos(theta), math.sin(theta)])
    v = np.array([-math.sin(theta), math.cos(theta)])
    proj, swap, one = np.outer(u, u), np.outer(u, v) + np.outer(v, u), np.eye(2)
    effects = [proj + t * (one - swap), one - proj - t * one, t * swap]
    if lower:
        effects[:2] = effects[1::-1]
    twist = np.diag([1.0, phase])
    return np.array([twist @ e @ twist.conj() for e in effects])


def lone_entry_size(theta):
    """The first-order size, per unit t, of the lone residue entry of a `lone_entry_stack`."""
    return math.sin(2 * theta) + math.cos(theta) ** 2


# offsets that keep the eigenvalues of a `lone_entry_stack` with its residue
# near atol_algebra far inside atol_positivity
LONE_OFFSETS = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from((-1.0, 1.0)), st.floats(-14.0, -11.0)),
)


@st.composite
def near_sharp_stacks(draw):
    """Valid qubit stacks whose sharpness residue is about atol_algebra, or any valid one.

    Effect 0 has eigenvalues (1 - t, 0) and effect 1 (t, 1) in one basis,
    so the residue of both E_0^2 - E_0 and E_0 E_1 is about t; zero effects
    may be added. Or a `lone_entry_stack`, whose residue sits in one
    off-diagonal entry of one block alone. Otherwise a which-way stack, with
    gammas in the band too.
    """
    kind = draw(st.sampled_from(["near", "lone", "whichway", "valid"]))
    if kind == "whichway":
        gamma = draw(st.sampled_from(EDGE_GAMMAS) | BAND_GAMMAS | st.floats(0.0, 1.0))
        return np.array(_effect_rows(gamma, draw(ANGLES), draw(ANGLES)))
    if kind == "valid":
        return draw(spectral_stacks())
    if kind == "lone":
        theta, phase = draw(st.floats(0.2, 1.0)), np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
        t = abs(ALGEBRA + draw(LONE_OFFSETS)) / lone_entry_size(theta)
        return lone_entry_stack(t, theta, phase, draw(st.booleans()))
    t = abs(ALGEBRA + draw(OFFSETS))
    basis = draw(spectral_stacks(k=2))[0]  # a projector or a generic effect of one drawn basis
    _, vecs = np.linalg.eigh(basis)
    proj = [np.outer(vecs[:, i], vecs[:, i].conj()) for i in range(2)]
    effects = [(1.0 - t) * proj[0], t * proj[0] + proj[1]]
    for _ in range(draw(st.integers(0, 2))):
        effects.insert(draw(st.integers(0, len(effects))), np.zeros((2, 2)))
    return np.array(effects)


def residue_entries(stack):
    """|E_i E_j - [i == j] E_i| entry by entry for i <= j, keyed (i, j, row, column)."""
    k = len(stack)
    return {
        (i, j, r, c): float(value)
        for i in range(k)
        for j in range(i, k)
        for (r, c), value in np.ndenumerate(np.abs(stack[i] @ stack[j] - (stack[i] if i == j else 0.0)))
    }


def residue(stack):
    """Sharpness residue, one 2x2 product at a time: max over i <= j of |E_i E_j - [i == j] E_i|."""
    return max(residue_entries(stack).values())


@st.composite
def whichway_rows(draw):
    """The entries of a which-way arm at a random or corner gamma, as `_effect_rows` forms them."""
    gamma = draw(st.sampled_from(EDGE_GAMMAS) | BAND_GAMMAS | st.floats(0.0, 1.0))
    return _effect_rows(gamma, draw(ANGLES), draw(ANGLES))


class TestQubitBranch:
    """The scalar qubit verdict gives the verdict of the array path, or defers to it."""

    @settings(PROPERTY, max_examples=600)
    @given(
        qubit_stacks().map(np.ndarray.tolist)
        | near_sharp_stacks().map(np.ndarray.tolist)
        | whichway_rows()
    )
    def test_the_certificate_answers_where_the_verdict_does_and_is_never_wrong(self, rows):
        # the verdict is the certificate, then the sharpness residue: where it answers,
        # the certificate answered; and where the certificate answers, the array path passes
        certified = _qubit_certificate(rows)
        assert certified in (True, False)
        if _qubit_class(rows) is not None:
            assert certified
        if certified:
            validate_effect_stack(rows, labels_for(rows))

    @settings(PROPERTY, max_examples=300)
    @given(whichway_rows())
    def test_the_certificate_answers_on_every_whichway_arm(self, rows):
        # so the one-row commands never reach the array path on a valid arm
        assert _qubit_certificate(rows)

    @PROPERTY
    @given(qubit_stacks())
    def test_agrees_with_the_array_path(self, stack):
        labels = labels_for(stack)
        assert outcome(stack, labels) == array_outcome(stack, labels)

    @settings(PROPERTY, max_examples=400)
    @given(near_sharp_stacks())
    def test_classifies_as_the_residue_does(self, stack):
        got = type(validate_povm(stack, labels_for(stack)))
        worst = residue(stack)
        # a residue within 1e-15 of the tolerance, 100 times inside the
        # branch's margin, may round to either side between 2x2 and 8x8 products
        if abs(worst - ALGEBRA) > 1e-15:
            assert got is (Pvm if worst <= ALGEBRA else Povm)

    @pytest.mark.parametrize("lower", [False, True], ids=["upper-right", "lower-left"])
    @pytest.mark.parametrize("t, expected", [(0.8e-12, Povm), (0.5e-12, Pvm)])
    def test_the_residue_reads_each_off_diagonal_entry_of_a_block(self, t, expected, lower):
        # 1.62 t in one entry of block (0, 1); no other entry reaches 0.87 t.
        # Povm: 1.29e-12 against atol_algebra + _CERTAIN = 1.1e-12, with the
        # rest below atol_algebra - _CERTAIN, so a residue without that entry
        # says Pvm. Pvm: 0.81e-12, which the residue must find below the margin
        stack = lone_entry_stack(t, lower=lower)
        entries = residue_entries(stack)
        top = entries.pop((0, 1, 1, 0) if lower else (0, 1, 0, 1))
        assert top == pytest.approx(lone_entry_size(math.pi / 6) * t, rel=1e-3)
        assert max(entries.values()) < 0.87 * t
        assert _qubit_class(stack.tolist()) is expected
        assert outcome(stack, labels_for(stack)) == array_outcome(stack, labels_for(stack)) == expected

    @settings(PROPERTY, max_examples=300)
    @given(st.floats(0.2, 1.0), LONE_OFFSETS, st.floats(0.0, 2 * math.pi), st.booleans())
    def test_the_verdict_reads_the_lone_entry_of_drawn_stacks(self, theta, offset, alpha, lower):
        t = abs(ALGEBRA + offset) / lone_entry_size(theta)
        stack = lone_entry_stack(t, theta, np.exp(1j * alpha), lower)
        entries = residue_entries(stack)
        assert max(entries, key=entries.get) == ((0, 1, 1, 0) if lower else (0, 1, 0, 1))
        worst, got = max(entries.values()), _qubit_class(stack.tolist())
        # 1e-15 of rounding between the 2x2 products here and the verdict's
        margin = measurement._CERTAIN + 1e-15
        if worst > ALGEBRA + margin:
            assert got is Povm
        elif worst < ALGEBRA - margin:
            assert got is Pvm
        else:  # within the margin the array path decides
            assert got is None or got is (Povm if worst > ALGEBRA else Pvm)

    def test_eigenvalues_come_from_the_lower_triangle(self):
        # the lower triangle puts an eigenvalue of each effect 4e-13 beyond
        # atol_positivity; the upper one, 8e-13 off it, would put both inside
        r = 0.25 + POSITIVITY + 4e-13
        first = np.array([[0.25, r - 8e-13], [r, 0.25]])
        stack = np.array([first, np.eye(2) - first])
        with pytest.raises(NotPositiveError, match="'a'"):
            validate_povm(stack, ("a", "b"))
        assert outcome(stack, ("a", "b")) == array_outcome(stack, ("a", "b"))

    def test_a_valid_whichway_arm_never_reaches_the_array_path(self, monkeypatch):
        gammas = (*EDGE_GAMMAS, 0.3)
        # the verdict classifies every such arm, sharp or not
        assert {_qubit_class(_effect_rows(g, 0.4, 1.1)) for g in gammas} == {Pvm, Povm}
        calls = []
        real = np.linalg.eigvalsh

        def spy(matrices):
            calls.append(np.shape(matrices))
            return real(matrices)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        for gamma in gammas:
            build_whichway(WhichWayConfig(gamma, 0.4, 1.1))
        assert calls == []
        # the spy sees the array path, which a direct call takes
        validate_effect_stack(_effect_rows(0.3, 0.4, 1.1), ("++", "+-", "-+", "--"))
        assert calls == [(4, 2, 2)]


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
        povm = validate_povm([np.eye(2)], ["all"])
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
        merged = validate_povm([povm.stack[0] + povm.stack[1], povm.stack[2]], ["01", "2"])
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

    @pytest.mark.parametrize(
        ("labels", "values"),
        [
            (("+", "-"), [0.7, 0.7]),
            (("a", "b"), [-1e-6, 1.0 + 1e-6]),
            (("a", "b"), [np.nan, 1.0]),
            (("a", "a"), [0.5, 0.5]),
            ((), []),
            (("a", "b"), [[0.5, 0.5]]),
            (("a", "b"), [1.0]),
            (("a", "b"), ["x", "y"]),
            (None, [1.0]),
        ],
        ids=["sum-1.4", "negative", "nan", "duplicate", "empty", "2-d", "count", "strings", "no-labels"],
    )
    def test_constructor_raises_the_errors_of_from_values(self, labels, values):
        with pytest.raises(PovmBellError) as want:
            OutcomeDistribution.from_values(labels, values)
        with pytest.raises(PovmBellError) as got:
            OutcomeDistribution(labels, values)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    def test_constructor_keeps_the_values_as_given(self):
        # in-tolerance values come back bit for bit; only from_values clamps and renormalizes
        for values in ([-5e-11, 1.0 + 5e-11], [0.25 + 1e-11, 0.75], [0.1] * 10):
            labels = tuple(f"o{i}" for i in range(len(values)))
            made = OutcomeDistribution(labels, np.array(values))
            assert made.probs.tobytes() == np.array(values).tobytes() and made.labels == labels
            assert not made.probs.flags.writeable
            normalized = OutcomeDistribution.from_values(labels, values)
            again = OutcomeDistribution(normalized.labels, normalized.probs)
            assert again.probs.tobytes() == normalized.probs.tobytes()
            assert normalized.probs.min() >= 0.0


class TestKernels:
    """The kernels behind `born_values` and `OutcomeDistribution.from_values` give the values
    and the errors of their public entries; the messages are pinned here."""

    LABELS = tuple(f"o{i}" for i in range(16))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_probabilities_are_from_values_row_by_row(self, seed, rows):
        rng = np.random.default_rng(seed)
        values = rng.random((rows, 16))
        values[0, 3] = 0.0
        values /= values.sum(axis=1, keepdims=True)
        values += rng.uniform(-5e-12, 5e-12, values.shape)  # dust to clamp and renormalize
        values[0, 3] = -0.0  # a sign the clamp keeps
        got = measurement._probabilities(values)
        assert not got.flags.writeable
        for row, probs in zip(values, got):
            assert probs.tobytes() == OutcomeDistribution.from_values(self.LABELS, row).probs.tobytes()
            assert measurement._probabilities(row).tobytes() == probs.tobytes()

    @pytest.mark.parametrize(
        "values, message",
        [
            ([-1e-6, 1.0 + 1e-6], "probability -1e-06 is negative beyond tolerance 1e-10"),
            ([0.7, 0.7], "probabilities sum to 1.4; must equal 1 within 1e-10"),
            ([np.nan, 1.0], "probabilities sum to nan; must equal 1 within 1e-10"),
            ([np.inf, -np.inf], "probability -inf is negative beyond tolerance 1e-10"),
            ([np.inf, 0.0], "probabilities sum to inf; must equal 1 within 1e-10"),
            ([-np.inf, np.nan], "probabilities sum to nan; must equal 1 within 1e-10"),
        ],
    )
    def test_value_errors_are_pinned(self, values, message):
        checks = (
            lambda: OutcomeDistribution.from_values(("a", "b"), values),
            lambda: OutcomeDistribution(("a", "b"), values),
            lambda: measurement._probabilities(np.array(values)),
            lambda: measurement._probabilities(np.array([[0.5, 0.5], values])),
        )
        for check in checks:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # -inf never meets +inf in a sum
                with pytest.raises(InvariantViolationError) as info:
                    check()
            assert str(info.value) == message

    def test_a_batch_raises_for_its_first_failing_row(self):
        rows = np.array([[0.5, 0.5], [0.7, 0.7], [-1e-6, 1.0 + 1e-6], [np.nan, 1.0]])
        with pytest.raises(InvariantViolationError, match=r"^probabilities sum to 1.4;"):
            measurement._probabilities(rows)
        with pytest.raises(InvariantViolationError, match=r"^probability -1e-06 is negative"):
            measurement._probabilities(rows[2:])

    def test_born_kernel_is_born_values(self):
        rng = np.random.default_rng(711)
        for dim, k in ((2, 4), (4, 16), (3, 2)):
            povm = random_povm(rng, dim, k)
            state = random_state(rng, dim)
            want = measurement.born_values(state, povm.stack, povm.labels)
            assert measurement._born(state, povm.stack, povm.labels).tobytes() == want.tobytes()

    @pytest.mark.parametrize("pure", [True, False])
    def test_born_kernel_raises_the_residue_error(self, pure):
        # a non-Hermitian entry gives an imaginary Born value; batch entry 1, effect "b" fails first
        stack = np.array([[np.eye(2) / 2, np.eye(2) / 2]] * 3, dtype=complex)
        stack[1, 1, 0, 1] = stack[2, 0, 0, 1] = 1e-3 + 1e-3j
        rho = np.eye(2) / 2 + 0.1 * PAULI_Y
        state = StateDescriptor.pure([0.6, 0.8]) if pure else StateDescriptor.density(rho)
        with pytest.raises(InvariantViolationError) as want:
            measurement.born_values(state, stack, ("a", "b"))
        with pytest.raises(InvariantViolationError) as got:
            measurement._born(state, stack, ("a", "b"))
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("effect 'b' produced non-real probability")

    def test_a_nan_residue_alone_is_let_through_as_before(self):
        # NaN is no "residue beyond tolerance": the distribution checks refuse it next
        stack = np.array([np.eye(2) / 2, np.eye(2) / 2], dtype=complex)
        stack[0, 0, 1] = complex(0.0, np.nan)
        values = measurement._born(StateDescriptor.pure([0.6, 0.8]), stack, ("a", "b"))
        assert np.isnan(values[0])


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_effect_with_non_finite_entry_rejected(self, bad):
        effect = np.diag([1.0, 0.0]).astype(complex)
        effect[0, 1] = effect[1, 0] = bad
        stack = np.array([effect, np.eye(2) - np.diag([1.0, 0.0])])
        with pytest.raises(NotHermitianError, match="'a'"):
            validate_povm(stack, ["a", "b"])
        with pytest.raises(NotHermitianError):
            validate_effect_stack(stack, ["a", "b"])

    def test_infinite_effect_raises_the_typed_error_and_no_warning(self):
        # inf - inf in the hermiticity defect is a NaN defect, not a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitianError, match="'a'") as info:
                validate_povm([np.full((2, 2), np.inf), np.eye(2)], ["a", "b"])
        assert math.isnan(info.value.deviation)

    def test_all_nan_effect_rejected(self):
        with pytest.raises(NotHermitianError) as info:
            validate_povm([np.full((2, 2), np.nan), np.eye(2)], ["a", "b"])
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


class TestCheckedConstructors:
    """`Povm(...)` and `Pvm(...)` run `validate_povm` on their fields."""

    def test_an_effect_outside_zero_one_is_refused(self):
        # on the state (0, 1) its Born values would read {a: 0, b: 1}
        with pytest.raises(NotPositiveError):
            Pvm(np.array([np.diag([1.5, 0]), np.diag([-0.5, 1])]), ("a", "b"))
        with pytest.raises(NotPositiveError):
            Povm(np.array([np.diag([1.5, 0]), np.diag([-0.5, 1])]), ("a", "b"))

    def test_a_pvm_needs_sharp_effects(self):
        arm = build_whichway(WhichWayConfig(0.3, 0.0, math.pi / 4)).povm
        assert type(arm) is Povm and Povm(arm.stack, WW_LABELS) == arm
        with pytest.raises(DomainError, match="Pvm"):
            Pvm(arm.stack, WW_LABELS)
        pvm = polarization_pvm(0.3)
        assert Pvm(pvm.stack, pvm.labels) == pvm  # and a Povm of it is not (TestArrayEquality)

    def test_labels_are_held_as_strings(self):
        assert Povm(np.eye(2)[None], (1,)).labels == ("1",)
        assert validate_povm(np.eye(3)[None], (1,)).labels == ("1",)  # the array path too


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
