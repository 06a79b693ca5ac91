"""Dense complex linear algebra and state primitives for small Hilbert spaces.

Operators are plain numpy complex128 matrices, pure states are amplitude
vectors, mixed states are density operators. The intended dimensions are 2
(single-photon polarization) and 4 (photon pairs), but nothing here is
hardcoded to them. Arrays handed out by this module are frozen (read-only)
so shared references cannot be mutated behind a caller's back.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError, ShapeMismatchError

ComplexMatrix = NDArray[np.complex128]

__all__ = [
    "ComplexMatrix",
    "NumericPolicy",
    "DEFAULT_POLICY",
    "PolarizationAngle",
    "StateDescriptor",
    "as_angle",
    "as_matrix",
    "expectation",
    "hermiticity_defect",
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
    function takes a tolerance argument.
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


def as_matrix(values: object) -> ComplexMatrix:
    """Copy `values` into an immutable complex128 matrix."""
    mat = np.array(values, dtype=np.complex128)
    if mat.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D matrix, got ndim={mat.ndim}")
    mat.setflags(write=False)
    return mat


def identity(dim: int) -> ComplexMatrix:
    if dim < 1:
        raise DomainError(f"dimension must be >= 1, got {dim}")
    return as_matrix(np.eye(dim))


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
        theta = float(self.theta)
        if not math.isfinite(theta):
            raise DomainError(f"polarization angle must be finite, got {theta!r}")
        theta = theta % math.pi
        if theta == math.pi:  # inputs a hair below a multiple of pi round up
            theta = 0.0
        object.__setattr__(self, "theta", theta)


def as_angle(theta: float | PolarizationAngle) -> PolarizationAngle:
    if isinstance(theta, PolarizationAngle):
        return theta
    return PolarizationAngle(float(theta))


class StateDescriptor:
    """A pure state vector or a density operator, validated on construction.

    Build with :meth:`pure` (amplitude vector, unit norm) or :meth:`density`
    (Hermitian, unit trace, positive semidefinite). Both representations are
    kept as frozen numpy arrays; `expectation` dispatches on which one is set.
    Two states are equal when they have the same representation and equal
    arrays per `np.array_equal`; like `ArrayRecord`s they are unhashable.
    """

    __slots__ = ("_vector", "_matrix")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, vector: object | None = None, matrix: object | None = None):
        if (vector is None) == (matrix is None):
            raise DomainError("provide exactly one of vector= or matrix=")
        if vector is not None:
            vec = np.array(vector, dtype=np.complex128)
            if vec.ndim != 1 or vec.size == 0:
                raise ShapeMismatchError("pure state must be a nonempty 1-D amplitude vector")
            if not np.all(np.isfinite(vec)):
                raise DomainError("pure state amplitudes must be finite")
            norm_sq = float(np.real(np.vdot(vec, vec)))
            if abs(norm_sq - 1.0) > DEFAULT_POLICY.atol_algebra:
                raise DomainError(
                    f"pure state squared norm is {norm_sq!r}; must equal 1 "
                    f"within {DEFAULT_POLICY.atol_algebra}"
                )
            vec.setflags(write=False)
            self._vector: ComplexMatrix | None = vec
            self._matrix: ComplexMatrix | None = None
        else:
            rho = as_matrix(matrix)
            if rho.shape[0] != rho.shape[1]:
                raise ShapeMismatchError(f"density operator must be square, got {rho.shape}")
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


def expectation(state: StateDescriptor, op: object) -> complex:
    """Born-rule expectation value: <psi|A|psi> for pure states, Tr(rho A) else."""
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
