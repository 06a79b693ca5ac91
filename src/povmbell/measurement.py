"""Generalized measurements: effects, POVM/PVM validation, Born-rule distributions.

A measurement is a labeled collection of positive operators (effects) summing
to the identity. Every measurement built from caller input passes through
`validate_povm` (effects one by one) or `povm_from_stack` (one (k, d, d)
stack), which return the sharper `Pvm` type for mutually orthogonal
projectors; `validate_effect_stack` checks the axioms, on whole batches of
shape (..., k, d, d) too. Measurements derived from checked ones by an
axiom-preserving operation (tensor product, convex combination) are proved
in tests, not re-checked. A `Povm` keeps its effects as one frozen stack, so
the Born rule (`born_values`) is one einsum over it or over a batch of stacks.

One qubit stack of shape (k, 2, 2), such as a which-way arm, is first
checked in scalar Python, where numpy's per-call dispatch would cost more than
the arithmetic on 4k numbers: hermiticity, the closed-form eigenvalues,
completeness, and in `povm_from_stack` the sharpness residue. That branch
only certifies: it returns a verdict when every quantity clears its tolerance
by `_CERTAIN`, and never raises. Failing stacks, NaN or infinite entries,
stacks within `_CERTAIN` of a tolerance, batches and d > 2 take the array
path, which gives every error, message and deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DomainError,
    InvariantViolationError,
    NotCompleteError,
    NotHermitianError,
    NotPositiveError,
    ShapeMismatchError,
)
from .qcore import (
    DEFAULT_POLICY,
    ArrayRecord,
    ComplexMatrix,
    PolarizationAngle,
    StateDescriptor,
    _as_array,
    _of_type,
    as_matrix,
    identity,
    projector_from_angle,
)

__all__ = [
    "Effect",
    "Povm",
    "Pvm",
    "OutcomeDistribution",
    "validate_povm",
    "validate_effect_stack",
    "povm_from_stack",
    "born_values",
    "born_probabilities",
    "polarization_pvm",
]


@dataclass(frozen=True, eq=False)
class Effect(ArrayRecord):
    """One positive operator of a measurement, tagged with its outcome label."""

    matrix: ComplexMatrix
    label: str

    def __post_init__(self) -> None:
        mat = as_matrix(self.matrix)
        if mat.shape[0] != mat.shape[1]:
            raise ShapeMismatchError(f"effect must be square, got {mat.shape}")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "label", str(self.label))

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


@dataclass(frozen=True, eq=False)
class Povm(ArrayRecord):
    """A validated positive-operator-valued measure.

    Build via validate_povm() or povm_from_stack(). The effects are held as
    one frozen (k, d, d) complex `stack`, in the order of `labels`;
    `effects`, `effect(label)`, `len` and iteration present it as Effect
    objects.
    """

    stack: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        stack = _as_array(self.stack, np.complex128, "effect stack", frozen=True)
        labels = tuple(str(label) for label in _label_tuple(self.labels))
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[0] != len(labels):
            raise ShapeMismatchError(
                f"effect stack of shape {stack.shape} does not fit {len(labels)} labels"
            )
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return int(self.stack.shape[-1])

    @property
    def effects(self) -> tuple[Effect, ...]:
        return tuple(Effect(matrix, label) for matrix, label in zip(self.stack, self.labels))

    def effect(self, label: str) -> Effect:
        if label not in self.labels:
            raise DomainError(f"no effect labeled {label!r}")
        return Effect(self.stack[self.labels.index(label)], label)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.effects)


@dataclass(frozen=True, eq=False)
class Pvm(Povm):
    """A POVM whose effects are mutually orthogonal projectors (a sharp measurement)."""


def _label_tuple(labels: object) -> tuple:
    """`labels` as a tuple; DomainError for an object that is not iterable."""
    try:
        return tuple(labels)
    except TypeError:
        raise DomainError(f"outcome labels must be a sequence, got {type(labels).__name__}") from None


# How far a scalar qubit quantity must clear its tolerance to be certified:
# over 100 times the rounding gap between the closed forms below and
# LAPACK/BLAS on entries of size <= 1, which every checked effect has.
_CERTAIN = 1e-13


def _qubit_certified(rows: list) -> bool:
    """True when the (k, 2, 2) effects `rows` (nested lists of complex) clear
    hermiticity, eigenvalues in [0, 1] and completeness by `_CERTAIN` each.

    False means "not shown", never "failed". Float and complex arithmetic and
    math.hypot give inf or NaN rather than raise, and every comparison is
    phrased so that NaN fails it; a NaN or infinite entry reaches the sums.
    """
    algebra = DEFAULT_POLICY.atol_algebra - _CERTAIN
    low = _CERTAIN - DEFAULT_POLICY.atol_positivity
    high = 1.0 + DEFAULT_POLICY.atol_positivity - _CERTAIN
    s00 = s01 = s10 = s11 = 0j
    for (a, b), (c, d) in rows:
        # |E - E^H| entry by entry; the diagonal's is twice its imaginary part
        if not (
            2.0 * abs(a.imag) <= algebra
            and 2.0 * abs(d.imag) <= algebra
            and math.hypot(b.real - c.real, b.imag + c.imag) <= algebra
        ):
            return False
        # eigenvalues of the Hermitian matrix of the lower triangle, which is
        # what eigvalsh reads: (a + d)/2 -+ hypot((a - d)/2, |c|)
        mean = (a.real + d.real) / 2.0
        radius = math.hypot((a.real - d.real) / 2.0, c.real, c.imag)
        if not (mean - radius >= low and mean + radius <= high):
            return False
        s00 += a
        s01 += b
        s10 += c
        s11 += d
    return (
        math.hypot(s00.real - 1.0, s00.imag) <= algebra
        and math.hypot(s01.real, s01.imag) <= algebra
        and math.hypot(s10.real, s10.imag) <= algebra
        and math.hypot(s11.real - 1.0, s11.imag) <= algebra
    )


def _qubit_sharp(rows: list) -> bool | None:
    """Whether the checked (k, 2, 2) effects `rows` form a Pvm, when the
    sharpness residue of `povm_from_stack` clears atol_algebra by `_CERTAIN`;
    None when it lies within `_CERTAIN` of it. Checked entries have size
    about 1 at most, so no product or `abs` here can overflow."""
    tol = DEFAULT_POLICY.atol_algebra
    worst = 0.0
    k = len(rows)
    # the diagonal blocks first: an unsharp effect is rarely idempotent
    for offset in range(k):
        for i in range(k - offset):
            (a, b), (c, d) = rows[i]
            (e, f), (g, h) = rows[i + offset]
            # block (i, i + offset) is E_i E_j, less E_i on the diagonal
            p00, p01, p10, p11 = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
            if not offset:
                p00, p01, p10, p11 = p00 - a, p01 - b, p10 - c, p11 - d
            residue = max(abs(p00), abs(p01), abs(p10), abs(p11))
            if residue > tol + _CERTAIN:
                return False
            worst = max(worst, residue)
    return True if worst <= tol - _CERTAIN else None


def validate_effect_stack(stack: object, labels: Sequence[str]) -> None:
    """Check the POVM axioms on every measurement of an effect stack at once.

    `stack` has shape (..., k, d, d): any number of leading batch axes, then
    the k effects of one measurement, labeled by `labels` in that order. The
    checks run as whole-stack array operations, in this order: hermiticity,
    eigenvalues in [0, 1], completeness. The first failing check raises
    NotHermitianError, NotPositiveError or NotCompleteError; it names the
    first offending effect (batch entries and effects in input order) and
    carries that effect's deviation, or the failing measurement's
    completeness defect. An effect with a NaN or infinite entry fails the
    hermiticity check. Returns None when every measurement passes. One
    (k, 2, 2) stack that clears every check by a margin returns from the
    scalar branch (see the module docstring) without reaching the arrays.
    """
    effects = _as_array(stack, np.complex128, "effect stack")
    if effects.ndim < 3 or effects.shape[-1] != effects.shape[-2]:
        raise ShapeMismatchError(f"effect stack must have shape (..., k, d, d), got {effects.shape}")
    k, dim = effects.shape[-3], effects.shape[-1]
    labels = _label_tuple(labels)
    if k == 0 or len(labels) != k:
        raise ShapeMismatchError(f"got {len(labels)} labels for {k} effects")
    if effects.ndim == 3 and dim == 2 and _qubit_certified(effects.tolist()):
        return

    def first(failing: np.ndarray) -> tuple[int, ...]:
        # index of the first True of `failing`, in C order over its axes
        return np.unravel_index(int(np.argmax(failing)), failing.shape)

    # each check first reduces the whole stack at once; the per-effect
    # reductions that name the culprit run only once a check has failed.
    # Any NaN or infinite entry gives a NaN or infinite hermiticity defect,
    # and the test is phrased so that a NaN defect fails it; inf - inf is
    # such a NaN, not a warning.
    with np.errstate(invalid="ignore"):
        herm = np.abs(effects - effects.swapaxes(-1, -2).conj())
    if not herm.max(initial=0.0) <= DEFAULT_POLICY.atol_algebra:
        herm_defects = herm.max(axis=(-2, -1))
        at = first(~(herm_defects <= DEFAULT_POLICY.atol_algebra))
        defect = float(herm_defects[at])
        raise NotHermitianError(
            f"effect {labels[at[-1]]!r} is not Hermitian (max deviation {defect:.3e})",
            deviation=defect,
        )

    eigs = np.linalg.eigvalsh(effects)
    margin = DEFAULT_POLICY.atol_positivity
    if eigs.min() < -margin or eigs.max() > 1.0 + margin:
        low, high = eigs[..., 0], eigs[..., -1]
        out_of_range = (low < -margin) | (high > 1.0 + margin)
        at = first(out_of_range)
        lo, hi = float(low[at]), float(high[at])
        worst = max(-lo, hi - 1.0)
        raise NotPositiveError(
            f"effect {labels[at[-1]]!r} has eigenvalues in [{lo:.6e}, {hi:.6e}], "
            f"outside [0, 1] (deviation {worst:.3e})",
            deviation=worst,
        )

    incomplete = np.abs(effects.sum(axis=-3) - np.eye(dim))
    if incomplete.max(initial=0.0) > DEFAULT_POLICY.atol_algebra:
        complete_defects = incomplete.max(axis=(-2, -1))
        defect = float(complete_defects[first(complete_defects > DEFAULT_POLICY.atol_algebra)])
        raise NotCompleteError(
            f"effects sum to identity only within {defect:.3e} "
            f"(allowed {DEFAULT_POLICY.atol_algebra:.1e})",
            deviation=defect,
        )


def validate_povm(effects: object) -> Povm:
    """Check the POVM axioms and classify the result, as `povm_from_stack` does.

    Accepts Effect objects or (matrix, label) pairs (else DomainError), all of one dimension.
    """
    try:
        items = [entry if isinstance(entry, Effect) else Effect(*entry) for entry in effects]
    except TypeError:  # not iterable, or an entry that is no pair
        raise DomainError("effects must be Effect objects or (matrix, label) pairs") from None
    if not items:
        raise DomainError("a measurement needs at least one effect")

    dim = items[0].dim
    for e in items:
        if e.dim != dim:
            raise ShapeMismatchError(
                f"effect {e.label!r} has dimension {e.dim}, expected {dim}"
            )
    return povm_from_stack(np.array([e.matrix for e in items]), [e.label for e in items])


def povm_from_stack(stack: object, labels: Sequence[str]) -> Povm:
    """Check the POVM axioms on one (k, d, d) effect stack and classify it.

    The labels must be unique. The axioms are checked by one
    `validate_effect_stack` call; returns a Pvm when the measurement is
    sharp (every effect idempotent, distinct effects mutually orthogonal,
    all within atol_algebra), otherwise a plain Povm. A qubit stack whose
    residue clears atol_algebra by a margin is classified in scalar Python.
    """
    effects = _as_array(stack, np.complex128, "effect stack", 3, frozen=True)
    labels = _label_tuple(labels)
    if len(set(labels)) != len(labels):
        raise DomainError(f"outcome labels must be unique, got {list(labels)}")
    validate_effect_stack(effects, labels)
    sharp = _qubit_sharp(effects.tolist()) if effects.shape[1] == 2 else None
    if sharp is not None:
        return (Pvm if sharp else Povm)(stack=effects, labels=labels)
    # one product holds every E_i E_j: rows stacks the effects vertically,
    # cols side by side, so block (i, j) of rows @ cols is E_i E_j. Sharp
    # means E_i E_i - E_i = 0 (diagonal blocks) and E_i E_j = 0 for i < j.
    k, dim, _ = effects.shape
    products = effects.reshape(k * dim, dim) @ effects.swapaxes(0, 1).reshape(dim, k * dim)
    # blocks[i, j] is a view of block (i, j): writes reach products
    blocks = products.reshape(k, dim, k, dim).swapaxes(1, 2)
    blocks[np.arange(k), np.arange(k)] -= effects
    block_of = np.arange(k * dim) // dim
    residue = np.abs(products) * (block_of[:, None] <= block_of)  # zero below the diagonal blocks
    cls = Pvm if residue.max() <= DEFAULT_POLICY.atol_algebra else Povm
    return cls(stack=effects, labels=labels)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution(ArrayRecord):
    """Probabilities over a fixed ordered label set; sums to one."""

    labels: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        labels = _label_tuple(self.labels)
        probs = _as_array(self.probs, np.float64, "probabilities", 1, frozen=True)
        if probs.shape[0] != len(labels):
            raise ShapeMismatchError(f"got {probs.shape} probabilities for {len(labels)} labels")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_values(cls, labels: object, values: object) -> "OutcomeDistribution":
        """Validate, clamp floating-point dust, and renormalize.

        The labels must be nonempty and unique (DomainError). Values below
        -DEFAULT_POLICY.atol_positivity or a total off from 1 by more than
        that tolerance are treated as genuine contract violations, not noise;
        so is any NaN or infinite value, which makes the total NaN or infinite.
        """
        labels = _label_tuple(labels)
        if not labels or len(set(labels)) != len(labels):
            raise DomainError(f"outcome labels must be nonempty and unique, got {list(labels)}")
        probs = _as_array(values, np.float64, "probabilities")
        tol = DEFAULT_POLICY.atol_positivity
        lowest = float(probs.min(initial=0.0))  # no values: the total check fails
        if lowest < -tol:
            raise InvariantViolationError(
                f"probability {lowest!r} is negative beyond tolerance {tol}"
            )
        total = float(probs.sum())
        if not abs(total - 1.0) <= tol:  # a NaN total fails too
            raise InvariantViolationError(
                f"probabilities sum to {total!r}; must equal 1 within {tol}"
            )
        probs = np.clip(probs, 0.0, 1.0)
        probs = probs / probs.sum()
        return cls(labels=labels, probs=probs)

    def prob(self, label: str) -> float:
        for lbl, p in zip(self.labels, self.probs):
            if lbl == label:
                return float(p)
        raise DomainError(f"no outcome labeled {label!r}")

    def as_dict(self) -> dict[str, float]:
        return {lbl: float(p) for lbl, p in zip(self.labels, self.probs)}


def born_values(state: StateDescriptor, stack: object, labels: Sequence[str]) -> np.ndarray:
    """Born-rule values of every effect of an effect stack, by one einsum.

    `stack` has shape (..., k, d, d), its effects labeled by `labels`; the
    result has shape (..., k): <psi|E|psi> for a pure state, Tr(rho E)
    otherwise. Values of validated effects are real up to rounding; an
    imaginary part beyond atol_positivity means the inputs broke contract,
    and raises InvariantViolationError naming the first such effect (batch
    entries and effects in input order).
    """
    effects = _as_array(stack, np.complex128, "effect stack")
    dim = _of_type(state, StateDescriptor, "state").dim
    if effects.ndim < 3 or effects.shape[-2:] != (dim, dim):
        raise ShapeMismatchError(
            f"effect shape {effects.shape[-2:]} does not match state dimension {dim}"
        )
    if state.is_pure:
        vec = state.vector
        values = np.einsum("i,...ij,j->...", vec.conj(), effects, vec)
    else:
        values = np.einsum("ji,...ij->...", state.matrix, effects)
    non_real = np.abs(values.imag) > DEFAULT_POLICY.atol_positivity
    if non_real.any():
        at = np.unravel_index(int(np.argmax(non_real)), non_real.shape)
        raise InvariantViolationError(
            f"effect {labels[at[-1]]!r} produced non-real probability {complex(values[at])!r}"
        )
    return values.real


def born_probabilities(state: StateDescriptor, povm: Povm) -> OutcomeDistribution:
    """Outcome distribution of `povm` in `state` via the Born rule (see `born_values`)."""
    _of_type(povm, Povm, "povm")
    values = born_values(state, povm.stack, povm.labels)
    return OutcomeDistribution.from_values(povm.labels, values)


def polarization_pvm(theta: float | PolarizationAngle) -> Pvm:
    """Ideal two-outcome polarization measurement along `theta`.

    Labels "+" (transmitted by the analyzer) and "-" (absorbed/deflected).
    """
    plus = projector_from_angle(theta)
    minus = identity(2) - plus
    # the check classifies the projectors as a Pvm at every finite angle;
    # tests/test_derived_povms.py proves it
    return validate_povm([(plus, "+"), (minus, "-")])
