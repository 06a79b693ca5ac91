"""Unit tests for the dense linear-algebra and state primitives, and for the
one input boundary every module converts caller arrays and numbers through."""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import random_density, random_hermitian, random_pure
from povmbell import (
    DEFAULT_POLICY,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BellConfig,
    DomainError,
    Effect,
    EventLog,
    NonidealityMatrix,
    OutcomeDistribution,
    PolarizationAngle,
    Povm,
    PovmBellError,
    ShapeMismatchError,
    StateDescriptor,
    WhichWayConfig,
    as_angle,
    as_matrix,
    born_values,
    build_whichway,
    chsh_aspect,
    empirical_frequencies,
    expectation,
    heisenberg_check,
    hermiticity_defect,
    identity,
    martens_check,
    martens_sweep,
    povm_from_stack,
    projector_from_angle,
    quad_distribution,
    row_entropy,
    sample,
    validate_effect_stack,
    validate_povm,
    whichway_effects,
)
from povmbell.qcore import _as_array


class TestNumericPolicy:
    def test_defaults(self):
        assert DEFAULT_POLICY.atol_algebra == 1e-12
        assert DEFAULT_POLICY.atol_positivity == 1e-10

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_POLICY.atol_algebra = 1.0


class TestAsMatrix:
    def test_coerces_and_freezes(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.complex128
        with pytest.raises(ValueError):
            m[0, 0] = 9.0

    def test_copies_input(self):
        # a read-only array of the record's dtype that owns its memory is kept;
        # anything else is copied, so no write to the caller's arrays reaches it
        sources = {
            as_matrix: np.eye(2, dtype=np.complex128),
            lambda a: Povm(a, ("a",)).stack: np.eye(2, dtype=np.complex128)[None].copy(),
            lambda a: OutcomeDistribution(("a", "b"), a).probs: np.array([1.0, 0.0]),
            lambda a: NonidealityMatrix(a).entries: np.eye(2),
        }
        for held, source in sources.items():
            frozen = source.copy()
            frozen.setflags(write=False)
            assert held(frozen) is frozen
            writable, other_dtype, base = source.copy(), source.real.astype(np.float32), source.copy()
            view = base[...]  # read-only, but its base is not
            view.setflags(write=False)
            for src, writer in ((writable, writable), (other_dtype, other_dtype), (view, base)):
                kept = held(src)
                writer.flat[0] = 5.0
                assert kept.flat[0] == 1.0 and not kept.flags.writeable

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeMismatchError):
            as_matrix([1, 2, 3])
        with pytest.raises(ShapeMismatchError):
            as_matrix(np.zeros((2, 2, 2)))


class TestMatmul:
    def test_pauli_algebra(self):
        assert np.allclose(PAULI_X @ PAULI_X, identity(2), atol=1e-15)
        xy_minus_yx = PAULI_X @ PAULI_Y - PAULI_Y @ PAULI_X
        assert np.allclose(xy_minus_yx, 2j * np.asarray(PAULI_Z), atol=1e-15)


class TestHermiticity:
    def test_defect_zero_for_hermitian(self):
        rng = np.random.default_rng(106)
        h = random_hermitian(rng, 3)
        assert hermiticity_defect(h) == 0.0

    def test_detects_non_hermitian(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        assert hermiticity_defect(m) == 1.0

    def test_rejects_rectangular(self):
        with pytest.raises(ShapeMismatchError):
            hermiticity_defect(np.zeros((2, 3)))


class TestPolarizationAngle:
    def test_canonical_range(self):
        assert PolarizationAngle(0.0).theta == 0.0
        assert PolarizationAngle(math.pi).theta == 0.0
        assert PolarizationAngle(math.pi + 0.25).theta == pytest.approx(0.25, abs=1e-15)
        assert PolarizationAngle(-0.25).theta == pytest.approx(math.pi - 0.25, abs=1e-15)

    def test_rounding_edge_stays_in_range(self):
        # a hair below zero wraps to something < pi, never pi itself
        angle = PolarizationAngle(-1e-18)
        assert 0.0 <= angle.theta < math.pi

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            PolarizationAngle(math.inf)
        with pytest.raises(DomainError):
            PolarizationAngle(math.nan)

    def test_as_angle_passthrough(self):
        a = PolarizationAngle(0.5)
        assert as_angle(a) is a
        assert as_angle(0.5) == a


class TestProjector:
    def test_axis_aligned(self):
        assert np.allclose(projector_from_angle(0.0), np.diag([1.0, 0.0]), atol=0)
        assert np.allclose(projector_from_angle(math.pi / 2), np.diag([0.0, 1.0]), atol=1e-16)

    def test_diagonal_axis(self):
        want = np.full((2, 2), 0.5)
        assert np.allclose(projector_from_angle(math.pi / 4), want, atol=1e-15)

    def test_projector_laws_on_grid(self):
        for k in range(16):
            t = k * math.pi / 16
            e = projector_from_angle(t)
            assert hermiticity_defect(e) == 0.0
            assert np.max(np.abs(e @ e - e)) <= 1e-15
            assert abs(np.trace(e) - 1.0) <= 1e-15

    def test_pi_periodic(self):
        e1 = projector_from_angle(0.3)
        e2 = projector_from_angle(0.3 + math.pi)
        assert np.max(np.abs(e1 - e2)) <= 1e-15

    def test_overlap_mutually_unbiased(self):
        e0 = projector_from_angle(0.0)
        e45 = projector_from_angle(math.pi / 4)
        assert float(np.real(np.trace(e0 @ e45))) == pytest.approx(0.5, abs=1e-15)


class TestStateDescriptor:
    def test_pure_basics(self):
        state = StateDescriptor.pure([1.0, 0.0])
        assert state.is_pure
        assert state.dim == 2
        assert np.allclose(state.to_density(), np.diag([1.0, 0.0]), atol=0)

    def test_pure_norm_enforced(self):
        with pytest.raises(DomainError):
            StateDescriptor.pure([1.0, 1.0])

    def test_pure_rejects_non_vector(self):
        with pytest.raises(ShapeMismatchError):
            StateDescriptor.pure([[1.0, 0.0]])
        with pytest.raises(ShapeMismatchError):
            StateDescriptor.pure([])

    def test_pure_rejects_non_finite(self):
        with pytest.raises(DomainError):
            StateDescriptor.pure([math.nan, 0.0])

    def test_density_basics(self):
        state = StateDescriptor.density(np.eye(2) / 2)
        assert not state.is_pure
        assert state.dim == 2
        assert np.allclose(state.matrix, np.eye(2) / 2, atol=0)

    def test_density_trace_enforced(self):
        with pytest.raises(DomainError):
            StateDescriptor.density(np.eye(2))

    def test_density_hermiticity_enforced(self):
        rho = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(DomainError):
            StateDescriptor.density(rho)

    def test_density_positivity_enforced(self):
        rho = np.diag([2.0, -1.0])
        with pytest.raises(DomainError):
            StateDescriptor.density(rho)

    def test_exactly_one_representation(self):
        with pytest.raises(DomainError):
            StateDescriptor()
        with pytest.raises(DomainError):
            StateDescriptor(vector=[1, 0], matrix=np.eye(2) / 2)

    def test_arrays_frozen(self):
        state = StateDescriptor.pure([1.0, 0.0])
        with pytest.raises(ValueError):
            state.vector[0] = 0.5

    def test_wrong_representation_access(self):
        pure = StateDescriptor.pure([1.0, 0.0])
        with pytest.raises(DomainError):
            _ = pure.matrix
        mixed = StateDescriptor.density(np.eye(2) / 2)
        with pytest.raises(DomainError):
            _ = mixed.vector

    def test_norm_tolerance_edge(self):
        # the squared norm may miss 1 by atol_algebra = 1e-12, no more
        assert StateDescriptor.pure([math.sqrt(1.0 + 5e-13), 0.0]).dim == 2
        with pytest.raises(DomainError, match="squared norm"):
            StateDescriptor.pure([math.sqrt(1.0 + 5e-12), 0.0])

    # finiteness is checked first, so the hermiticity defect never forms inf - inf
    @pytest.mark.parametrize(
        "rho",
        [
            np.full((2, 2), np.nan),
            [[0.5, np.nan], [np.nan, 0.5]],
            [[0.5, np.inf], [np.inf, 0.5]],
            [[np.inf, 0.0], [0.0, 1.0]],
            [[0.5, np.inf], [0.0, 0.5]],
        ],
        ids=["all-nan", "nan-off-diagonal", "inf-off-diagonal", "inf-diagonal", "inf-one-side"],
    )
    def test_density_rejects_non_finite(self, rho):
        with pytest.raises(DomainError, match="^density operator entries must be finite$"):
            StateDescriptor.density(rho)

    def test_density_rejects_empty_matrix(self):
        with pytest.raises(ShapeMismatchError, match=r"nonempty square matrices, got \(0, 0\)"):
            StateDescriptor.density(np.zeros((0, 0)))

    def test_value_equality(self):
        assert StateDescriptor.pure([1, 0]) == StateDescriptor.pure([1, 0])
        assert StateDescriptor.pure([1, 0]) != StateDescriptor.pure([0, 1])
        assert StateDescriptor.pure([1, 0]) != StateDescriptor.pure([1, 0, 0])
        half = np.eye(2) / 2
        assert StateDescriptor.density(half) == StateDescriptor.density(half)
        assert StateDescriptor.density(half) != StateDescriptor.density(np.diag([1.0, 0.0]))
        # the same state in the other representation is a different descriptor
        assert StateDescriptor.pure([1, 0]) != StateDescriptor.density(np.diag([1.0, 0.0]))
        assert StateDescriptor.pure([1, 0]) != "not a state"

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(StateDescriptor.pure([1, 0]))


class TestExpectation:
    def test_eigenstate(self):
        state = StateDescriptor.pure([1.0, 0.0])
        assert expectation(state, np.diag([1.0, 0.0])) == pytest.approx(1.0, abs=0)
        assert expectation(state, identity(2)) == pytest.approx(1.0, abs=0)

    def test_superposition(self):
        inv = 1 / math.sqrt(2)
        state = StateDescriptor.pure([inv, inv])
        value = expectation(state, np.diag([1.0, 0.0]))
        assert value.real == pytest.approx(0.5, abs=1e-15)
        assert value.imag == 0.0

    def test_pure_density_agreement(self):
        rng = np.random.default_rng(107)
        for dim in (2, 3, 4):
            for _ in range(30):
                state = random_pure(rng, dim)
                rho = StateDescriptor.density(state.to_density())
                op = random_hermitian(rng, dim)
                a = expectation(state, op)
                b = expectation(rho, op)
                assert abs(a - b) <= 1e-12

    def test_real_for_hermitian(self):
        rng = np.random.default_rng(108)
        for _ in range(50):
            state = random_density(rng, 3)
            op = random_hermitian(rng, 3)
            assert abs(expectation(state, op).imag) <= 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(109)
        state = random_pure(rng, 2)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        lhs = expectation(state, a + b)
        rhs = expectation(state, a) + expectation(state, b)
        assert abs(lhs - rhs) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            expectation(StateDescriptor.pure([1.0, 0.0]), np.eye(3))


class TestIdentity:
    def test_rejects_nonpositive_dim(self):
        with pytest.raises(DomainError):
            identity(0)


STATE = StateDescriptor.pure([1.0, 0.0])
RAGGED = [[1.0], [0.0, 1.0]]
# junk caller input to array- and number-valued parameters, with the error
# the boundary gives it: ragged input is a shape fault, anything that is not
# a number a domain fault; numpy and the builtins would raise bare errors
JUNK = {
    "pure-string": (lambda: StateDescriptor.pure("ab"), DomainError),
    "pure-mixed-list": (lambda: StateDescriptor.pure(["a", 1]), DomainError),
    "density-string-entry": (lambda: StateDescriptor.density([[1, "x"], [0, 0]]), DomainError),
    "as_matrix-ragged": (lambda: as_matrix(RAGGED), ShapeMismatchError),
    "identity-string": (lambda: identity("a"), DomainError),
    "identity-float": (lambda: identity(2.5), DomainError),
    "angle-string": (lambda: PolarizationAngle("a"), DomainError),
    "angle-huge-int": (lambda: PolarizationAngle(10**400), DomainError),
    "as_angle-None": (lambda: as_angle(None), DomainError),
    "projector-string": (lambda: projector_from_angle("a"), DomainError),
    "expectation-string": (lambda: expectation(STATE, "ab"), DomainError),
    "heisenberg-ragged": (lambda: heisenberg_check(STATE, RAGGED, PAULI_Z), ShapeMismatchError),
    "Effect-ragged": (lambda: Effect(RAGGED, "a"), ShapeMismatchError),
    "Povm-ragged": (lambda: Povm([RAGGED, RAGGED], ("a", "b")), ShapeMismatchError),
    "validate_effect_stack-string": (lambda: validate_effect_stack("abc", ["a"]), DomainError),
    "validate_povm-ints": (lambda: validate_povm([1, 2]), DomainError),
    "validate_povm-None": (lambda: validate_povm(None), DomainError),
    "povm_from_stack-ragged": (lambda: povm_from_stack([RAGGED, RAGGED], ["a", "b"]), ShapeMismatchError),
    "born_values-ragged": (lambda: born_values(STATE, [RAGGED], ["a"]), ShapeMismatchError),
    "distribution-strings": (lambda: OutcomeDistribution(("a", "b"), ["x", "y"]), DomainError),
    "from_values-ragged": (
        lambda: OutcomeDistribution.from_values(("a", "b"), [[0.5], [0.5, 0.0]]),
        ShapeMismatchError,
    ),
    "config-string-gamma": (lambda: WhichWayConfig("a", 0, 0), DomainError),
    "config-None-angle": (lambda: WhichWayConfig(0.3, None, 0), DomainError),
    "whichway_effects-ragged": (lambda: whichway_effects([[0.1], [0.2, 0.3]], 0, 0), ShapeMismatchError),
    "nonideality-ragged": (lambda: NonidealityMatrix(RAGGED), ShapeMismatchError),
    "apply-ragged": (lambda: NonidealityMatrix(np.eye(2)).apply([[0.5], [0.5, 0.0]]), ShapeMismatchError),
    "row_entropy-ragged": (lambda: row_entropy(RAGGED), ShapeMismatchError),
    "sweep-string-grid": (lambda: martens_sweep("abc", 0.1, 0), DomainError),
    "sweep-string-angle": (lambda: martens_sweep([0.1], "x", 0), DomainError),
    "sweep-ragged": (lambda: martens_sweep([[0.1], [0.2, 0.3]], 0.1, 0), ShapeMismatchError),
    "EventLog-ragged": (lambda: EventLog("c", "g", 0, ("a", "b"), [[0], [0, 1]]), ShapeMismatchError),
    # object-typed and label parameters
    "sample-None": (lambda: sample(None, None, 10, seed=1), DomainError),
    "BellConfig-None": (lambda: BellConfig(None, None, None), DomainError),
    "expectation-None-state": (lambda: expectation(None, np.eye(2)), DomainError),
    "from_values-None-labels": (lambda: OutcomeDistribution.from_values(None, [1.0]), DomainError),
    "validate_effect_stack-None-labels": (
        lambda: validate_effect_stack(np.eye(2)[None], None),
        DomainError,
    ),
    "build_whichway-None": (lambda: build_whichway(None), DomainError),
    "chsh_aspect-None-state": (lambda: chsh_aspect(None, 0, 0, 0, 0), DomainError),
    "martens_check-None": (lambda: martens_check(None), DomainError),
    "quad_distribution-None": (lambda: quad_distribution(None), DomainError),
    "empirical_frequencies-None": (lambda: empirical_frequencies(None), DomainError),
    "sample-None-povm-with-distribution": (
        lambda: sample(None, None, 10, 1, distribution=OutcomeDistribution(("a",), [1.0])),
        DomainError,
    ),
    "distribution-None-labels": (lambda: OutcomeDistribution(None, [1.0]), DomainError),
    "Povm-None-labels": (lambda: Povm(np.zeros((1, 1, 1)), None), DomainError),
}


class TestInputBoundary:
    @pytest.mark.parametrize("case", sorted(JUNK))
    def test_junk_input_raises_a_typed_error(self, case):
        call, error = JUNK[case]
        with pytest.raises(PovmBellError) as caught:
            call()
        assert type(caught.value) is error

    def test_errors_name_the_input(self):
        with pytest.raises(ShapeMismatchError, match="^widths must be one regular array, not ragged$"):
            _as_array(RAGGED, np.float64, "widths")
        with pytest.raises(DomainError, match=r"^widths must be numeric \(could not convert"):
            _as_array(["x"], np.float64, "widths")
        with pytest.raises(DomainError, match=r"^widths must be numeric \(float\(\) argument"):
            _as_array(None, float, "widths")
        with pytest.raises(ShapeMismatchError, match="^widths must be 2-D, got ndim=1$"):
            _as_array([1.0], np.float64, "widths", 2)
