"""Finite-dimensional real associative unital algebras given by structure constants.

An algebra of dimension n is stored as a rank-3 tensor C with
``v_i * v_j = sum_k C[i, j, k] v_k`` over a fixed basis ``v_1, ..., v_n``.
Elements are coordinate vectors relative to that basis.  The left-regular
representation ``M(x)`` (column j holds the coordinates of ``x * v_j``)
identifies the algebra with a subalgebra of n-by-n real matrices, and every
element is exactly one of: zero, a unit, or a zero-divisor.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    AlgebraMismatch,
    AssociativityViolation,
    DimensionMismatch,
    DomainError,
    NotAUnit,
    SearchFailed,
    UnityViolation,
)

__all__ = [
    "AElement",
    "Algebra",
    "Classification",
    "Kind",
    "classify",
    "find_invertible_basis",
    "invert",
    "make_algebra",
    "mul",
    "mul_batch",
    "norm",
    "number_map",
    "regrep",
    "regrep_batch",
    "submult_bound",
]

# Relative singular-value cutoff below which regrep(x) counts as singular.
SINGULAR_RTOL = 1e-10
# Shifts +/-c, c = 1, 1/2, 1/4, ..., of w + c*1 tried by find_invertible_basis
# after c = 0.
MAX_UNIT_SHIFTS = 64
_UNIT_SHIFTS = (0.0, *(s * 0.5 ** k for k in range(MAX_UNIT_SHIFTS) for s in (1.0, -1.0)))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Algebra:
    """A validated algebra; immutable after construction via :func:`make_algebra`.

    Facts derived from the structure tensor alone are computed on first use
    and held, read-only, for the life of the algebra.
    """

    name: str
    dim: int
    structure: np.ndarray      # shape (n, n, n), read-only
    unity: np.ndarray          # shape (n,), read-only
    basis_labels: tuple[str, ...]
    commutative: bool

    @cached_property
    def rep_basis(self) -> np.ndarray:
        """Shape (n^2, n); column i is vec M(v_i), with M(v_i)[k, j] = C[i, j, k],
        so ``(rep_basis @ x).reshape(n, n)`` is M(x)."""
        n = self.dim
        return _freeze(self.structure.transpose(0, 2, 1).reshape(n, n * n).T)

    @cached_property
    def cr_projector(self) -> np.ndarray:
        """Shape (n^2, n^2): P = I - rep_basis (I kron unity^T).  For a Jacobian
        J, ``P @ J.ravel()`` is vec(J - M(J 1)), the residual of the generalized
        Cauchy-Riemann equations; :func:`acalc.eqgen.gen_cr` writes out its rows."""
        n = self.dim
        P = np.eye(n * n) - self.rep_basis @ np.kron(np.eye(n), self.unity[None, :])
        # entries at most 1e-12 of their row's largest are rounding noise of
        # an inexact table: exact 0, so gen_cr and the report function read clean rows
        P[np.abs(P) <= 1e-12 * np.abs(P).max(axis=1, keepdims=True)] = 0.0
        return _freeze(P)

    @cached_property
    def basis_inverses(self) -> tuple[AElement | None, ...]:
        """The inverse of each basis vector v_j, or None where v_j is not a unit."""
        return tuple(classify(v).inverse for v in self.basis())

    @cached_property
    def unity_first(self) -> bool:
        """Whether the unity is the first basis vector v_1."""
        return bool(np.array_equal(self.unity, np.eye(self.dim)[0]))

    def element(self, coords) -> AElement:
        """The library's one point coercion: an element passes as it is if its
        algebra has this structure, else raises :class:`AlgebraMismatch`.  An
        element of this very algebra, the common case, passes on the first
        line, before any other check."""
        if coords.__class__ is AElement and coords.algebra is self:
            return coords
        if isinstance(coords, AElement):
            _check_same(self, coords.algebra)
            return coords
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.dim,):
            raise DimensionMismatch(
                f"expected {self.dim} coordinates, got shape {coords.shape}"
            )
        return AElement(self, _freeze(coords))

    def basis_element(self, i: int) -> AElement:
        coords = np.zeros(self.dim)
        coords[i] = 1.0
        return AElement(self, _freeze(coords))

    def basis(self) -> list[AElement]:
        return [self.basis_element(i) for i in range(self.dim)]

    def one(self) -> AElement:
        return AElement(self, self.unity)

    def zero(self) -> AElement:
        return AElement(self, _freeze(np.zeros(self.dim)))

    def same_structure(self, other: "Algebra") -> bool:
        return (
            self.dim == other.dim
            and np.array_equal(self.structure, other.structure)
            and np.array_equal(self.unity, other.unity)
        )

    def __repr__(self) -> str:
        kind = "commutative" if self.commutative else "noncommutative"
        return f"Algebra({self.name!r}, dim={self.dim}, {kind})"


@dataclass(frozen=True, eq=False, slots=True)
class AElement:
    """An algebra number: a coordinate vector tied to its algebra; slotted,
    so it has no ``__dict__``."""

    algebra: Algebra
    coords: np.ndarray

    def __add__(self, other: "AElement") -> "AElement":
        _check_same(self.algebra, other.algebra)
        return AElement(self.algebra, _freeze(self.coords + other.coords))

    def __sub__(self, other: "AElement") -> "AElement":
        _check_same(self.algebra, other.algebra)
        return AElement(self.algebra, _freeze(self.coords - other.coords))

    def __neg__(self) -> "AElement":
        return AElement(self.algebra, _freeze(-self.coords))

    def __mul__(self, other):
        if isinstance(other, AElement):
            return mul(self, other)
        return AElement(self.algebra, _freeze(self.coords * float(other)))

    def __rmul__(self, other) -> "AElement":
        return AElement(self.algebra, _freeze(self.coords * float(other)))

    def __truediv__(self, other):
        if isinstance(other, AElement):
            return mul(self, invert(other))  # right division x * other^(-1)
        return AElement(self.algebra, _freeze(self.coords / float(other)))

    def __pow__(self, k: int) -> "AElement":
        if k < 0:
            return invert(self) ** (-k)
        out = self.algebra.one()
        for _ in range(k):
            out = mul(out, self)
        return out

    @property
    def norm(self) -> float:
        return math.hypot(*self.coords.tolist())

    def __repr__(self) -> str:
        terms = []
        for c, label in zip(self.coords, self.algebra.basis_labels):
            if label == "1":
                terms.append(f"{c:g}")
            else:
                terms.append(f"{c:g}*{label}")
        return " + ".join(terms)


def _element_maker(algebra: Algebra):
    """``make(*values)``, which builds ``algebra.element(values)`` from n floats
    without the coercion and the dataclass ``__init__``: the coordinates are a
    read-only float64 array over the bytes of one prebound ``struct`` pack, and
    both fields are written through their slot descriptors, past the frozen
    ``__setattr__``.  A report function binds one maker for its algebra."""
    pack = struct.Struct(f"{algebra.dim}d").pack
    frombuffer, new = np.frombuffer, object.__new__
    set_algebra, set_coords = AElement.algebra.__set__, AElement.coords.__set__

    def make(*values) -> AElement:
        x = new(AElement)
        set_algebra(x, algebra)
        set_coords(x, frombuffer(pack(*values)))
        return x

    return make


class Kind(Enum):
    ZERO = "zero"
    UNIT = "unit"
    ZERO_DIVISOR = "zero-divisor"


@dataclass(frozen=True)
class Classification:
    """Outcome of the zero / unit / zero-divisor trichotomy."""

    kind: Kind
    inverse: AElement | None = None    # present iff kind is UNIT
    witness: AElement | None = None    # unit-norm b with x*b ~ 0, iff ZERO_DIVISOR


def _check_same(a: Algebra, b: Algebra) -> None:
    if a is not b and not a.same_structure(b):
        raise AlgebraMismatch(f"cannot mix elements of {a.name!r} and {b.name!r}")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def make_algebra(dim, structure, unity, labels=None, name="algebra") -> Algebra:
    """Build and validate an algebra from its structure tensor.

    Checks associativity over all basis triples and that ``unity`` is a
    two-sided identity.  Integer-valued tensors are checked exactly; float
    tensors are checked to a scale-aware tolerance.
    """
    C = np.asarray(structure, dtype=float)
    u = np.asarray(unity, dtype=float)
    if C.shape != (dim, dim, dim):
        raise DimensionMismatch(f"structure tensor must be {dim}^3, got {C.shape}")
    if u.shape != (dim,):
        raise DimensionMismatch(f"unity must have {dim} coordinates, got {u.shape}")
    if not (np.isfinite(C).all() and np.isfinite(u).all()):
        raise ValueError("structure tensor and unity must be finite")
    cmax = float(np.max(np.abs(C)))
    # the associativity check below subtracts two sums of dim products of entries
    if cmax > math.sqrt(np.finfo(float).max / (2 * dim)):
        raise ValueError(f"structure tensor entry {cmax:g} is too large: its products leave the float range")
    if labels is None:
        labels = tuple(f"v{i + 1}" for i in range(dim))
    labels = tuple(str(s) for s in labels)
    if len(labels) != dim:
        raise DimensionMismatch(f"expected {dim} basis labels, got {len(labels)}")

    exact = np.array_equal(C, np.round(C)) and np.array_equal(u, np.round(u))
    scale = max(1.0, cmax ** 2)
    tol = 0.0 if exact else 1e-10 * scale

    # (v_i v_j) v_l  vs  v_i (v_j v_l), all components m
    lhs = np.einsum("ijk,klm->ijlm", C, C)
    rhs = np.einsum("jlk,ikm->ijlm", C, C)
    diff = np.abs(lhs - rhs)
    if np.max(diff) > tol:
        i, j, l, m = np.unravel_index(int(np.argmax(diff)), diff.shape)
        raise AssociativityViolation(int(i), int(j), int(l), int(m), float(diff[i, j, l, m]))

    utol = 0.0 if exact else 1e-10 * max(1.0, cmax)
    left = np.einsum("i,ijk->jk", u, C)    # row j: coords of unity * v_j
    right = np.einsum("i,jik->jk", u, C)   # row j: coords of v_j * unity
    eye = np.eye(dim)
    for j in range(dim):
        if np.max(np.abs(left[j] - eye[j])) > utol or np.max(np.abs(right[j] - eye[j])) > utol:
            raise UnityViolation(j)

    commutative = bool(np.max(np.abs(C - C.transpose(1, 0, 2))) <= tol)
    return Algebra(
        name=name,
        dim=dim,
        structure=_freeze(C),
        unity=_freeze(u),
        basis_labels=labels,
        commutative=commutative,
    )


# ---------------------------------------------------------------------------
# arithmetic and representation
# ---------------------------------------------------------------------------

def mul(x: AElement, y: AElement) -> AElement:
    """Algebra product: (x*y)_k = sum_ij x_i y_j C[i,j,k]."""
    _check_same(x.algebra, y.algebra)
    out = np.einsum("i,j,ijk->k", x.coords, y.coords, x.algebra.structure)
    return AElement(x.algebra, _freeze(out))


def mul_batch(algebra: Algebra, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise products of coordinate batches X, Y of shape (m, n)."""
    return np.einsum("bi,bj,ijk->bk", X, Y, algebra.structure)


def regrep(x: AElement) -> np.ndarray:
    """Left-regular representation matrix M(x); column j is coords of x * v_j."""
    return np.einsum("i,ijk->kj", x.coords, x.algebra.structure)


def regrep_batch(algebra: Algebra, X: np.ndarray) -> np.ndarray:
    """Stack of representation matrices for a coordinate batch of shape (m, n)."""
    return np.einsum("bi,ijk->bkj", X, algebra.structure)


def number_map(algebra: Algebra, matrix: np.ndarray) -> AElement:
    """Recover the element represented by a matrix: #(M(x)) = x.

    Contracts against the unity coordinates, so it works whether or not the
    unity is itself a basis vector: M(x) [unity] = [x * unity] = [x].
    """
    matrix = np.asarray(matrix, dtype=float)
    n = algebra.dim
    if matrix.shape != (n, n):
        raise DimensionMismatch(f"expected a {n}x{n} matrix, got {matrix.shape}")
    return AElement(algebra, _freeze(matrix @ algebra.unity))


def norm(x: AElement) -> float:
    """Euclidean norm of the coordinate vector."""
    return x.norm


def submult_bound(algebra: Algebra) -> float:
    """Constant K with ||x*y|| <= K ||x|| ||y||: K = Cmax (n^2 - n + 1) sqrt(n)."""
    n = algebra.dim
    cmax = float(np.max(np.abs(algebra.structure)))
    return cmax * (n * n - n + 1) * math.sqrt(n)


# ---------------------------------------------------------------------------
# classification and inversion
# ---------------------------------------------------------------------------

def classify(x: AElement) -> Classification:
    """Decide zero / unit / zero-divisor, with inverse or annihilator witness.

    Zero means every coordinate is 0.0.  A unit has sigma_min(M(x)) >
    SINGULAR_RTOL * sigma_max, a rule that does not change under scaling of
    x.  The SVD reads x scaled exactly by a power of two to a largest
    coordinate in [1/2, 1), so a subnormal x stays in range, and the inverse
    undoes the scale; an inverse out of the float range, or a coordinate
    that is not finite, raises :class:`DomainError`.  For a zero-divisor the
    witness is the right-singular vector of the smallest singular value, so
    ||x * b|| = sigma_min with ||b|| = 1.
    """
    if not x.coords.any():
        return Classification(kind=Kind.ZERO)
    largest = float(np.abs(x.coords).max())  # nan if any coordinate is
    if not math.isfinite(largest):
        raise DomainError("coordinates must be finite")
    e = math.frexp(largest)[1]
    U, s, Vt = np.linalg.svd(regrep(AElement(x.algebra, np.ldexp(x.coords, -e))))
    if s[-1] > SINGULAR_RTOL * s[0]:
        with np.errstate(over="ignore"):  # an inverse that overflows is refused below
            inv_coords = np.ldexp((Vt.T * (1.0 / s)) @ (U.T @ x.algebra.unity), -e)
        if not np.isfinite(inv_coords).all():
            raise DomainError("the inverse of this unit leaves the float range")
        return Classification(kind=Kind.UNIT, inverse=AElement(x.algebra, _freeze(inv_coords)))
    w = Vt[-1]
    pivot = int(np.argmax(np.abs(w)))
    if w[pivot] < 0:
        w = -w
    return Classification(kind=Kind.ZERO_DIVISOR, witness=AElement(x.algebra, _freeze(w)))


def invert(x: AElement) -> AElement:
    """Multiplicative inverse; raises :class:`NotAUnit` with the classification."""
    c = classify(x)
    if c.kind is not Kind.UNIT:
        raise NotAUnit(f"element is {c.kind.value}, not invertible", classification=c)
    return c.inverse


def find_invertible_basis(algebra: Algebra) -> list[AElement]:
    """A basis of units starting with the unity.

    The unity and every standard basis vector e_i but e_m, m the last index
    of a nonzero unity coordinate u_m, form a basis: their determinant is
    +/-u_m.  Each of those e_i becomes its first unit e_i + c*1 over
    c = 0, 1, -1, 1/2, -1/2, ...; adding a multiple of the unity keeps the
    determinant.
    """
    one = algebra.one()
    others = algebra.basis()
    del others[int(np.flatnonzero(algebra.unity)[-1])]
    result = [one]
    for w in others:
        for c in _UNIT_SHIFTS:
            unit = w + c * one
            if classify(unit).kind is Kind.UNIT:
                break
        else:
            raise SearchFailed(f"no unit of the form w + c*1 found within {MAX_UNIT_SHIFTS} attempts")
        result.append(unit)
    return result
