"""Dense complex linear algebra and state primitives for small Hilbert spaces.

Operators are plain numpy complex128 matrices, pure states are amplitude
vectors, mixed states are density operators. The intended dimensions are 2
(single-photon polarization) and 4 (photon pairs), but nothing here is
hardcoded to them. Arrays handed out by this module are frozen (read-only)
so shared references cannot be mutated behind a caller's back.

Caller arrays and numbers enter through `_as_array`: ragged input raises
ShapeMismatchError, entries that are not numbers DomainError (both
ValueErrors; a former TypeError is not). A parameter that takes an object of
the package, such as a state, enters through `_of_type`: anything else
raises DomainError.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError, ShapeMismatchError

ComplexMatrix = NDArray[np.complex128]
# numpy's warning that a cast to a real dtype drops imaginary parts (np.exceptions since 1.25)
_ComplexWarning = getattr(np, "exceptions", np).ComplexWarning

__all__ = [
    "ComplexMatrix",
    "NumericPolicy",
    "DEFAULT_POLICY",
    "PolarizationAngle",
    "StateDescriptor",
    "as_matrix",
    "expectation",
    "identity",
    "projector_from_angle",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
]


@dataclass(frozen=True)
class NumericPolicy:
    """The tolerances of every double-precision check in the package.

    atol_algebra bounds direct algebraic identities (hermiticity,
    completeness, idempotence, norms). atol_positivity bounds quantities that
    pass through an eigensolver or accumulate across sums (eigenvalue floors,
    probability dust), which pick up more rounding than direct identities.
    The one instance is DEFAULT_POLICY; the checks read it directly, and no
    function takes a tolerance argument. It stays public because
    `perfbench/checks.py` reads `DEFAULT_POLICY.atol_positivity`.
    """

    atol_algebra: float = 1e-12
    atol_positivity: float = 1e-10


DEFAULT_POLICY = NumericPolicy()


class ArrayRecord:
    """Value equality for frozen dataclasses that hold numpy arrays.

    A dataclass-generated __eq__ compares field tuples, which raises on array
    fields (the truth value of an elementwise comparison is ambiguous). Two
    records are equal when they have the same class, their array fields are
    equal per `np.array_equal` (same shape and values) and their other fields
    compare equal. Records stay unhashable, as their arrays are. Subclasses
    are declared with `@dataclass(eq=False)` so they inherit this __eq__.
    """

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        for field in dataclasses.fields(self):  # type: ignore[arg-type]
            mine, theirs = getattr(self, field.name), getattr(other, field.name)
            if isinstance(mine, np.ndarray) or isinstance(theirs, np.ndarray):
                if not np.array_equal(mine, theirs):
                    return False
            elif mine != theirs:
                return False
        return True


def _trusted(cls: type, **fields: object):
    """A `cls` record of `fields` as given, past its constructor's checks and copies: the
    one unchecked path to a record, for the call sites `tests/test_exports.py` names, each
    of which made and checked every field itself (arrays frozen, held by no caller)."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


def _as_array(values: object, dtype: object, what: str, ndim: int | None = None, *, frozen: bool = False):
    """The one conversion of caller input: `values` as `dtype`, naming `what` in errors.

    The builtin `float` gives a Python float by `float()`; a numpy dtype (or
    None, numpy's choice) an array, of `ndim` dimensions if given. Ragged
    input raises ShapeMismatchError; entries that are not numbers, and complex
    values where `dtype` is real (a list is read by numpy's choice first, so
    that a nested one shows), DomainError. A `frozen` array is read-only and
    this function's own: a copy of a caller array, so no caller write reaches
    it, or the array it made from a list, which it does not copy again.
    """
    if dtype is float and type(values) is float:
        return values  # what float() returns of it
    made = False
    if dtype is np.float64 or dtype is float:
        if dtype is np.float64 and not isinstance(values, (np.ndarray, np.generic)):
            # keeps nested complex values complex; a frozen one is the library's own copy
            values, made = _as_array(values, None, what, frozen=frozen), True
        if isinstance(values, (np.ndarray, np.generic)) and (
            values.dtype.kind == "c" or values.dtype.kind == "O" and any(map(np.iscomplexobj, values.flat))
        ):
            raise DomainError(f"{what} must be real, got complex values")
    try:
        if dtype is float:
            return float(values)
        if not frozen:
            array = np.asarray(values, dtype=dtype)
        else:
            array = values if made and values.dtype == dtype else np.array(values, dtype=dtype)
            array.setflags(write=False)
    except (TypeError, ValueError, OverflowError, _ComplexWarning) as exc:
        if "inhomogeneous" in str(exc):
            raise ShapeMismatchError(f"{what} must be one regular array, not ragged") from None
        raise DomainError(f"{what} must be numeric ({exc})") from None
    if ndim is not None and array.ndim != ndim:
        raise ShapeMismatchError(f"{what} must be {ndim}-D, got ndim={array.ndim}")
    return array


def _of_type(value: object, cls: type, what: str):
    """`value` itself if it is a `cls`; DomainError naming `what` for anything else."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise DomainError(f"{what} must be {article} {cls.__name__}, got {type(value).__name__}")
    return value


def as_matrix(values: object) -> ComplexMatrix:
    """`values` as an immutable complex128 matrix, a copy of a caller array."""
    return _as_array(values, np.complex128, "matrix", 2, frozen=True)


def identity(dim: int) -> ComplexMatrix:
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
        raise DomainError(f"dimension must be a positive integer, got {dim!r}")
    try:
        return as_matrix(np.eye(dim))
    except ValueError:  # more entries than one numpy array can hold
        raise DomainError(f"dimension {dim!r} is too large for one array") from None


def hermiticity_defect(mat: object) -> float:
    """Largest entry-wise deviation of a square matrix from its adjoint."""
    m = as_matrix(mat)
    if m.shape[0] != m.shape[1] or m.size == 0:
        raise ShapeMismatchError(f"hermiticity is defined for nonempty square matrices, got {m.shape}")
    return float(np.max(np.abs(m - m.conj().T)))


@dataclass(frozen=True)
class PolarizationAngle:
    """Analyzer orientation in radians, canonical in [0, pi).

    Polarization directions are pi-periodic: theta and theta + pi select the
    same transmission axis, so construction reduces modulo pi.
    """

    theta: float

    def __post_init__(self) -> None:
        given = _as_array(self.theta, float, "polarization angle")
        theta = given % math.pi
        if not theta < math.pi:  # NaN for a NaN or infinite angle
            if math.isnan(theta):
                raise DomainError(f"polarization angle must be finite, got {given!r}")
            theta = 0.0  # inputs a hair below a multiple of pi round up to pi
        self.__dict__["theta"] = theta  # a third the cost of object.__setattr__ here


def as_angle(theta: float | PolarizationAngle) -> PolarizationAngle:
    return theta if isinstance(theta, PolarizationAngle) else PolarizationAngle(theta)


class StateDescriptor:
    """A pure state vector or a density operator, validated on construction.

    Build with :meth:`pure` (amplitude vector, unit norm) or :meth:`density`
    (Hermitian, unit trace, positive semidefinite). Both representations are
    kept as frozen numpy arrays; `expectation` dispatches on which one is set.
    Two states are equal when they have the same representation and equal
    arrays per `np.array_equal`; like `ArrayRecord`s they are unhashable.
    A pure state of an array the library made takes `_pure_state` instead.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, vector: object | None = None, matrix: object | None = None):
        if (vector is None) == (matrix is None):
            raise DomainError("provide exactly one of vector= or matrix=")
        if vector is not None:
            vec = _as_array(vector, np.complex128, "pure state", frozen=True)
            if vec.ndim != 1 or vec.size == 0:
                raise ShapeMismatchError("pure state must be a nonempty 1-D amplitude vector")
            self._vector: ComplexMatrix | None = _unit_vector(vec)
            self._matrix: ComplexMatrix | None = None
        else:
            rho = as_matrix(matrix)
            # first: the tests below would name a non-finite entry as a
            # hermiticity or trace defect, or let a NaN pass
            if not np.isfinite(rho).all():
                raise DomainError("density operator entries must be finite")
            defect = hermiticity_defect(rho)
            if defect > DEFAULT_POLICY.atol_algebra:
                raise DomainError(f"density operator is not Hermitian (max deviation {defect:.3e})")
            trace = complex(np.trace(rho))
            if abs(trace - 1.0) > DEFAULT_POLICY.atol_algebra:
                raise DomainError(f"density operator trace is {trace!r}; must equal 1")
            lowest = float(np.linalg.eigvalsh(rho)[0])
            if lowest < -DEFAULT_POLICY.atol_positivity:
                raise DomainError(f"density operator has negative eigenvalue {lowest!r}")
            self._vector = None
            self._matrix = rho

    @classmethod
    def pure(cls, amplitudes: object) -> "StateDescriptor":
        return cls(vector=amplitudes)

    @classmethod
    def density(cls, rho: object) -> "StateDescriptor":
        return cls(matrix=rho)

    @property
    def is_pure(self) -> bool:
        return self._vector is not None

    @property
    def vector(self) -> ComplexMatrix:
        if self._vector is None:
            raise DomainError("state was built as a density operator; no amplitude vector")
        return self._vector

    @property
    def matrix(self) -> ComplexMatrix:
        if self._matrix is None:
            raise DomainError("state was built as a pure vector; no density matrix stored")
        return self._matrix

    @property
    def dim(self) -> int:
        if self._vector is not None:
            return int(self._vector.shape[0])
        assert self._matrix is not None
        return int(self._matrix.shape[0])

    def to_density(self) -> ComplexMatrix:
        """Density-operator form regardless of representation."""
        if self._matrix is not None:
            return self._matrix
        assert self._vector is not None
        rho = np.outer(self._vector, self._vector.conj())
        rho.setflags(write=False)
        return rho

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine = self._vector if self.is_pure else self._matrix
        theirs = other._vector if other.is_pure else other._matrix
        return self.is_pure == other.is_pure and np.array_equal(mine, theirs)

    def __repr__(self) -> str:
        kind = "pure" if self.is_pure else "density"
        return f"StateDescriptor({kind}, dim={self.dim})"


def _unit_vector(vec: np.ndarray) -> np.ndarray:
    """`vec`, a nonempty 1-D complex128 array, once its amplitudes are finite and its
    squared norm is 1 within atol_algebra; DomainError otherwise."""
    if not np.isfinite(vec).all():
        raise DomainError("pure state amplitudes must be finite")
    norm_sq = float(np.vdot(vec, vec).real)
    if abs(norm_sq - 1.0) > DEFAULT_POLICY.atol_algebra:
        raise DomainError(
            f"pure state squared norm is {norm_sq!r}; must equal 1 within {DEFAULT_POLICY.atol_algebra}"
        )
    return vec


def _pure_state(vector: np.ndarray) -> StateDescriptor:
    """The pure state of `vector`, a nonempty 1-D complex128 array that the library made
    and hands over, frozen here: the finiteness and unit-norm checks of
    `StateDescriptor.pure`, without its conversion and copy."""
    vector.setflags(write=False)
    return _trusted(StateDescriptor, _vector=_unit_vector(vector), _matrix=None)


def expectation(state: StateDescriptor, op: object) -> complex:
    """Born-rule expectation value: <psi|A|psi> for pure states, Tr(rho A) else."""
    _of_type(state, StateDescriptor, "state")
    mat = as_matrix(op)
    dim = state.dim
    if mat.shape != (dim, dim):
        raise ShapeMismatchError(f"operator shape {mat.shape} does not match state dimension {dim}")
    if state.is_pure:
        vec = state.vector
        return complex(np.vdot(vec, mat @ vec))
    return complex(np.trace(state.matrix @ mat))


def projector_from_angle(theta: float | PolarizationAngle) -> ComplexMatrix:
    """Rank-1 projector onto the linear-polarization direction (cos t, sin t)."""
    t = as_angle(theta).theta
    vec = np.array([math.cos(t), math.sin(t)], dtype=np.complex128)
    proj = np.outer(vec, vec.conj())
    proj.setflags(write=False)
    return proj


PAULI_X = as_matrix([[0, 1], [1, 0]])
PAULI_Y = as_matrix([[0, -1j], [1j, 0]])
PAULI_Z = as_matrix([[1, 0], [0, -1]])
