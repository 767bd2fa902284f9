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
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    AlgebraMismatch,
    AssociativityViolation,
    DimensionMismatch,
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
    "minimal_polynomial_witness",
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
# Absolute coordinate-norm below which an element counts as zero.
ZERO_TOL = 1e-14
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
    def _unity_rows(self) -> np.ndarray:
        """Shape (n, n^2): I kron unity^T, which takes vec(J) to J 1; the
        Jacobian kernel of an :class:`acalc.expr.ExprFn` ends with these rows."""
        return _freeze(np.kron(np.eye(self.dim), self.unity[None, :]))

    @cached_property
    def cr_projector(self) -> np.ndarray:
        """Shape (n^2, n^2): P = I - rep_basis (I kron unity^T).  For a Jacobian
        J, ``P @ J.ravel()`` is vec(J - M(J 1)), the residual of the generalized
        Cauchy-Riemann equations; :func:`acalc.eqgen.gen_cr` writes out its rows."""
        P = np.eye(self.dim ** 2) - self.rep_basis @ self._unity_rows
        # entries at most 1e-12 of their row's largest are rounding noise of
        # an inexact table: exact 0, so gen_cr and cr_kernel read clean rows
        P[np.abs(P) <= 1e-12 * np.abs(P).max(axis=1, keepdims=True)] = 0.0
        return _freeze(P)

    @cached_property
    def cr_kernel(self):
        """``cr_projector`` compiled to straight-line code: a function of
        vec(J), as n^2 floats or arrays, that returns the entries of
        P vec(J).  Each line is a nonzero entry of P."""
        from .expr import _combine, compile_expr, var  # expr imports this module

        return compile_expr(_combine(self.cr_projector, [var(j) for j in range(self.dim ** 2)]))

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
        algebra has this structure, else raises :class:`AlgebraMismatch`."""
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


@dataclass(frozen=True, eq=False)
class AElement:
    """An algebra number: a coordinate vector tied to its algebra."""

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

    def allclose(self, other: "AElement", atol: float = 1e-12) -> bool:
        _check_same(self.algebra, other.algebra)
        return bool(np.allclose(self.coords, other.coords, atol=atol, rtol=0.0))

    def __repr__(self) -> str:
        terms = []
        for c, label in zip(self.coords, self.algebra.basis_labels):
            if label == "1":
                terms.append(f"{c:g}")
            else:
                terms.append(f"{c:g}*{label}")
        return " + ".join(terms)


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

    commutative = bool(np.allclose(C, C.transpose(1, 0, 2), atol=tol, rtol=0.0)) if not exact \
        else bool(np.array_equal(C, C.transpose(1, 0, 2)))
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

    Zero means ||x|| <= ZERO_TOL.  A unit has sigma_min(M(x)) >
    SINGULAR_RTOL * sigma_max, a rule that does not change under scaling of
    x.  For a zero-divisor the witness is the right-singular vector of the
    smallest singular value, so ||x * b|| = sigma_min with ||b|| = 1.
    """
    if x.norm <= ZERO_TOL:
        return Classification(kind=Kind.ZERO)
    M = regrep(x)
    U, s, Vt = np.linalg.svd(M)
    if s[-1] > SINGULAR_RTOL * s[0]:
        inv_coords = (Vt.T * (1.0 / s)) @ (U.T @ x.algebra.unity)
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


def minimal_polynomial_witness(x: AElement) -> AElement | None:
    """Exact zero-divisor witness from the minimal polynomial of M(x).

    Works in rational arithmetic (floats are taken at their exact binary
    values), so on integer structure tensors this is an independent
    cross-check of the SVD-based witness in :func:`classify`.  Returns a
    unit-norm b with x*b = 0 = b*x, or None when M(x) is invertible.
    """
    from fractions import Fraction  # only this routine needs it; not loaded with algebra

    n = x.algebra.dim
    A = [[Fraction(v) for v in row] for row in regrep(x)]

    def matmul(P, Q):
        return [
            [sum(P[i][k] * Q[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    powers = [eye]
    while True:
        powers.append(matmul(powers[-1], A))
        k = len(powers) - 1
        # solve sum_m a_m vec(A^m) = vec(A^k) exactly, m < k
        rows = n * n
        aug = [
            [powers[m][i][j] for m in range(k)] + [powers[k][i][j]]
            for i in range(n)
            for j in range(n)
        ]
        piv_rows: list[int] = []
        col_of_row: list[int] = []
        r = 0
        for col in range(k):
            sel = next((i for i in range(r, rows) if aug[i][col] != 0), None)
            if sel is None:
                continue
            aug[r], aug[sel] = aug[sel], aug[r]
            inv_p = 1 / aug[r][col]
            aug[r] = [v * inv_p for v in aug[r]]
            for i in range(rows):
                if i != r and aug[i][col] != 0:
                    f = aug[i][col]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
            piv_rows.append(r)
            col_of_row.append(col)
            r += 1
        consistent = all(aug[i][k] == 0 for i in range(r, rows))
        if not consistent:
            continue  # powers still independent; take another power
        coeffs = [Fraction(0)] * k
        for row_i, col in zip(piv_rows, col_of_row):
            coeffs[col] = aug[row_i][k]
        # minimal polynomial t^k - sum a_m t^m; constant term nonzero <=> unit
        if coeffs[0] != 0:
            return None
        # cofactor polynomial: B = A^{k-1} - a_{k-1} A^{k-2} - ... - a_1 I
        B = [[Fraction(0)] * n for _ in range(n)]
        for m in range(1, k + 1):
            c = Fraction(1) if m == k else -coeffs[m]
            if c != 0:
                P = powers[m - 1]
                for i in range(n):
                    for j in range(n):
                        B[i][j] += c * P[i][j]
        b = np.array([[float(v) for v in row] for row in B]) @ x.algebra.unity
        nb = np.linalg.norm(b)
        if nb == 0:
            return None
        return AElement(x.algebra, _freeze(b / nb))


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
