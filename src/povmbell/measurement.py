"""Generalized measurements: effects, POVM/PVM validation, Born-rule distributions.

A measurement is a labeled collection of positive operators (effects) summing
to the identity. Every measurement built from caller input, by `Povm(...)`
and `Pvm(...)` too, passes through `validate_povm`, which takes one (k, d, d)
effect stack and its labels and returns the sharper `Pvm` type for mutually
orthogonal projectors; `validate_effect_stack` checks the axioms, on whole
batches of shape (..., k, d, d) too. Measurements derived from checked ones
by an axiom-preserving operation (tensor product, convex combination) are
proved in tests, not re-checked. A `Povm` keeps its effects as one frozen stack, so
the Born rule (`born_values`) is one einsum over it or over a batch of stacks.

`validate_povm` checks one qubit stack of shape (k, 2, 2), such as a
which-way arm, first in scalar Python, where numpy's per-call dispatch would
cost more than the arithmetic on 4k numbers, by the verdict `_qubit_class`:
the axiom certificate `_qubit_certificate` (hermiticity, the closed-form
eigenvalues, completeness), then the sharpness residue that classifies. Both
only certify: they answer when every quantity clears its tolerance by
`_CERTAIN`, and never raise. Failing stacks, NaN or infinite entries and
stacks within `_CERTAIN` of a tolerance take the array path `_povm_class`,
as d > 2 stacks do; it runs `validate_effect_stack`, which gives every error,
message and deviation, and classifies by the sharpness residue.

Each public check is a boundary part, which converts and checks caller
arguments (types, shapes, labels), and a private kernel, which does the
arithmetic and the numeric checks: `validate_povm` ends at `_qubit_class`
and `_povm_class`, `born_values` at `_born` (the einsum and its
imaginary-residue check), and `OutcomeDistribution.from_values` at
`_probabilities` (the negativity and total checks of each distribution,
then the clamp and the renormalization). The CLI's arm kernel and one-row
runners call the kernels on stacks and values the library made, labeled by
constants a test checks once. An arm that is reduced to numbers within one
call needs no class: the arm kernel runs the certificate alone, or else
`validate_effect_stack`; only the arm of a `Povm` that is handed on (to the
sampler) is classified too.
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
    _trusted,
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
    "born_values",
    "born_probabilities",
    "polarization_pvm",
]


@dataclass(frozen=True, eq=False)
class Effect(ArrayRecord):
    """One positive operator of a measurement, tagged with its outcome label: the
    view of a `Povm` stack that acceptance criterion 09 reads."""

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

    `Povm(stack, labels)` checks its effects by `validate_povm` (`Pvm(...)`
    of unsharp ones raises DomainError) and holds them as one frozen copied
    (k, d, d) complex `stack`, in the order of `labels` (strings); `effects`,
    `effect(label)`, `len` and iteration present it as Effect objects, the
    view acceptance criterion 09 reads.
    """

    stack: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        checked = validate_povm(self.stack, self.labels)
        if isinstance(self, Pvm) and not isinstance(checked, Pvm):
            raise DomainError("a Pvm needs mutually orthogonal projectors; these effects are unsharp")
        self.__dict__.update(stack=checked.stack, labels=checked.labels)

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
    """`labels` as a tuple; DomainError for an object that is not iterable, or
    holds a label that is not hashable, as every set and lookup of labels needs."""
    try:
        items = tuple(labels)
        hash(items)
    except TypeError:
        kind = type(labels).__name__
        raise DomainError(f"outcome labels must be a sequence of hashables, got {kind}") from None
    return items


# How far a scalar qubit quantity must clear its tolerance to be certified:
# over 100 times the rounding gap between the closed forms below and
# LAPACK/BLAS on entries of size <= 1, which every checked effect has.
_CERTAIN = 1e-13


def _qubit_certificate(rows: list) -> bool:
    """Whether the (k, 2, 2) effects `rows` (nested lists of complex) clear the
    tolerances of hermiticity, eigenvalues in [0, 1] and completeness of
    `validate_effect_stack` each by `_CERTAIN`.

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


def _qubit_class(rows: list) -> type[Povm] | None:
    """Pvm or Povm for the (k, 2, 2) effects `rows` (nested lists of complex)
    when `_qubit_certificate` certifies them and the sharpness residue of
    `validate_povm` clears its tolerance by `_CERTAIN`; None means "not shown"."""
    if not _qubit_certificate(rows):
        return None
    # the certified entries have size about 1 at most: no product overflows.
    # The diagonal blocks first: an unsharp effect is rarely idempotent
    algebra = DEFAULT_POLICY.atol_algebra - _CERTAIN
    worst = 0.0
    k = len(rows)
    for offset in range(k):
        for i in range(k - offset):
            (a, b), (c, d) = rows[i]
            (e, f), (g, h) = rows[i + offset]
            # block (i, i + offset) is E_i E_j, less E_i on the diagonal
            p00, p01, p10, p11 = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
            if not offset:
                p00, p01, p10, p11 = p00 - a, p01 - b, p10 - c, p11 - d
            residue = max(abs(p00), abs(p01), abs(p10), abs(p11))
            if residue > DEFAULT_POLICY.atol_algebra + _CERTAIN:
                return Povm
            worst = max(worst, residue)
    return Pvm if worst <= algebra else None


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
    hermiticity check. Returns None when every measurement passes.
    """
    effects = _as_array(stack, np.complex128, "effect stack")
    if effects.ndim < 3 or effects.shape[-1] != effects.shape[-2]:
        raise ShapeMismatchError(f"effect stack must have shape (..., k, d, d), got {effects.shape}")
    k, dim = effects.shape[-3], effects.shape[-1]
    labels = _label_tuple(labels)
    if k == 0 or len(labels) != k:
        raise ShapeMismatchError(f"got {len(labels)} labels for {k} effects")

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


def validate_povm(stack: object, labels: Sequence[str]) -> Povm:
    """Check the POVM axioms on one (k, d, d) effect stack and classify it.

    The one checked constructor of a measurement from caller effects:
    `stack[i]` is the effect labeled `labels[i]`, and the labels, which the
    measurement keeps as strings, must be unique as strings (DomainError).
    Returns a Pvm when the measurement is sharp (every effect idempotent,
    distinct effects mutually orthogonal, all within atol_algebra),
    otherwise a plain Povm. A qubit stack that clears every
    tolerance by a margin is certified and classified in one scalar pass
    (see the module docstring); any other stack is checked by
    `validate_effect_stack` and classified by the array residue.
    """
    effects = _as_array(stack, np.complex128, "effect stack", 3, frozen=True)
    labels = _label_tuple(labels)
    # unique as the strings the measurement keeps: 1 and "1" are one label
    names = tuple(map(str, labels))
    if len(set(names)) != len(names):
        raise DomainError(f"outcome labels must be unique, got {list(labels)}")
    cls = None
    if effects.shape[1:] == (2, 2) and len(effects) == len(labels):
        cls = _qubit_class(effects.tolist())
    return _trusted(cls or _povm_class(effects, labels), stack=effects, labels=names)


def _povm_class(effects: np.ndarray, labels: tuple) -> type[Povm]:
    """The array path of `validate_povm`: Pvm or Povm for a (k, d, d) complex stack and its
    labels, checked by `validate_effect_stack`, which raises every error, then classified by
    the sharpness residue. `validate_povm` and the CLI's arm kernel take it where the
    scalar verdict `_qubit_class` does not answer."""
    validate_effect_stack(effects, labels)
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
    return Pvm if residue.max() <= DEFAULT_POLICY.atol_algebra else Povm


@dataclass(frozen=True, eq=False)
class OutcomeDistribution(ArrayRecord):
    """Probabilities over a fixed ordered label set; sums to one.

    `OutcomeDistribution(labels, probs)` runs the checks of `from_values`
    and raises its errors, and keeps the probabilities as given, in a frozen
    copy; only `from_values` clamps and renormalizes them.
    """

    labels: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        labels = _distribution_labels(self.labels)
        probs = _as_array(self.probs, np.float64, "probabilities", frozen=True)
        _check_values(probs, None)
        _check_shape(probs, labels)
        self.__dict__.update(labels=labels, probs=probs)

    @classmethod
    def from_values(cls, labels: object, values: object) -> "OutcomeDistribution":
        """Validate, clamp floating-point dust, and renormalize.

        The labels must be nonempty and unique (DomainError). Values below
        -DEFAULT_POLICY.atol_positivity or a total off from 1 by more than
        that tolerance are treated as genuine contract violations, not noise;
        so is any NaN or infinite value, which makes the total NaN or infinite.
        Values of any shape but one per label raise ShapeMismatchError, after
        the value checks. One value per label goes to the kernel `_probabilities`.
        """
        labels = _distribution_labels(labels)
        values = _as_array(values, np.float64, "probabilities")
        if values.ndim != 1 or len(values) != len(labels):
            _check_values(values, None)  # the value errors come first
            _check_shape(values, labels)
        return _trusted(cls, labels=labels, probs=_probabilities(values))

    def prob(self, label: str) -> float:
        for lbl, p in zip(self.labels, self.probs):
            if lbl == label:
                return float(p)
        raise DomainError(f"no outcome labeled {label!r}")

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.labels, self.probs.tolist()))


def _distribution_labels(labels: object) -> tuple:
    labels = _label_tuple(labels)
    if not labels or len(set(labels)) != len(labels):
        raise DomainError(f"outcome labels must be nonempty and unique, got {list(labels)}")
    return labels


def _check_values(values: np.ndarray, axis: int | None) -> None:
    """The value checks of a distribution: all of `values` as one (`axis` None), or each
    row of a batch along the last axis (`axis` -1). InvariantViolationError for the first
    distribution that holds a value below -atol_positivity, or else whose total is off
    from 1 by more than that tolerance (a NaN total too). A distribution's total is taken
    only once its lowest value has passed, so -inf never meets +inf in a sum."""
    tol = DEFAULT_POLICY.atol_positivity
    # the lowest value of every distribution at once, then each total; NaN fails either test
    if values.min(initial=0.0) >= -tol:
        totals = values.sum(axis=axis, keepdims=True).ravel().tolist()
        if all(abs(total - 1.0) <= tol for total in totals):
            return
    for row in [values] if axis is None else values.reshape(-1, values.shape[-1]):
        lowest = float(row.min(initial=0.0))
        if lowest < -tol:
            raise InvariantViolationError(f"probability {lowest!r} is negative beyond tolerance {tol}")
        total = float(row.sum())
        if not abs(total - 1.0) <= tol:
            raise InvariantViolationError(f"probabilities sum to {total!r}; must equal 1 within {tol}")


def _check_shape(probs: np.ndarray, labels: tuple) -> None:
    if probs.ndim != 1:
        raise ShapeMismatchError(f"probabilities must be 1-D, got ndim={probs.ndim}")
    if probs.shape[0] != len(labels):
        raise ShapeMismatchError(f"got {probs.shape} probabilities for {len(labels)} labels")


def _probabilities(values: np.ndarray) -> np.ndarray:
    """The kernel of `from_values`: the distributions of a float64 array of shape (..., k),
    one along its last axis, each checked by `_check_values`, then clamped to [0, 1] and
    renormalized, as a new frozen array. The caller made `values` and knows its shape."""
    _check_values(values, -1)
    probs = values.clip(0.0, 1.0)
    probs /= probs.sum(axis=-1, keepdims=True)
    probs.setflags(write=False)
    return probs


def born_values(state: StateDescriptor, stack: object, labels: Sequence[str]) -> np.ndarray:
    """Born-rule values of every effect of an effect stack, by one einsum.

    `stack` has shape (..., k, d, d), its effects labeled by `labels`; the
    result has shape (..., k): <psi|E|psi> for a pure state, Tr(rho E)
    otherwise. Values of validated effects are real up to rounding; an
    imaginary part beyond atol_positivity means the inputs broke contract,
    and raises InvariantViolationError naming the first such effect (batch
    entries and effects in input order). The checks of the arguments end
    here; the einsum and the residue check are the kernel `_born`.
    """
    effects = _as_array(stack, np.complex128, "effect stack")
    dim = _of_type(state, StateDescriptor, "state").dim
    if effects.ndim < 3 or effects.shape[-2:] != (dim, dim):
        raise ShapeMismatchError(
            f"effect shape {effects.shape[-2:]} does not match state dimension {dim}"
        )
    labels = _label_tuple(labels)
    if len(labels) != effects.shape[-3]:
        raise ShapeMismatchError(f"got {len(labels)} labels for {effects.shape[-3]} effects")
    return _born(state, effects, labels)


def _born(state: StateDescriptor, effects: np.ndarray, labels: tuple) -> np.ndarray:
    """The kernel of `born_values`: the real Born values of a complex stack of shape
    (..., k, d, d) that matches the state's dimension, its k effects labeled by
    `labels`, and the imaginary-residue check."""
    if state.is_pure:
        vec = state.vector
        values = np.einsum("i,...ij,j->...", vec.conj(), effects, vec)
    else:
        values = np.einsum("ji,...ij->...", state.matrix, effects)
    residue = np.abs(values.imag)
    # one reduction screens every residue; a NaN residue fails the screen, not the check
    if not residue.max(initial=0.0) <= DEFAULT_POLICY.atol_positivity:
        non_real = residue > DEFAULT_POLICY.atol_positivity
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
    return validate_povm(np.stack((plus, minus)), ("+", "-"))
