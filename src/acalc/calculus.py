"""Differential calculus over an algebra.

A function is algebra-differentiable at p exactly when its Jacobian J is
right-linear over the algebra, J = M(d) for some element d.  Since
M(x) 1 = x, that element can only be d = J 1, so the test is the identity
J = M(J 1): the n^2 - n generalized Cauchy-Riemann equations, with the
derivative J 1.  The module also provides conjugate coordinates and the
generalized Wirtinger operators for algebras with an invertible basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import AElement, Algebra, _freeze, invert, mul
from .errors import NonInvertibleBasis, NotADifferentiable, NotAUnit
from .expr import ExprFn

__all__ = [
    "ConjugateFrame",
    "DiffReport",
    "adiff_test",
    "conjugate_coords",
    "conjugate_frame",
    "derivative",
    "higher_derivative",
    "jacobian_fd",
    "jacobian_sym",
    "taylor_eval",
    "wirtinger_apply",
]

DEFAULT_ADIFF_TOL = 1e-6

_EPS_CUBE_ROOT = float(np.finfo(float).eps) ** (1.0 / 3.0)


@dataclass(frozen=True)
class DiffReport:
    """Outcome of a differentiability test at one point."""

    point: AElement
    jacobian: np.ndarray
    residual: float          # ||J - M(J 1)||_F / max(1, ||J||_F)
    is_adiff: bool
    derivative: AElement | None  # present iff is_adiff
    tol: float


def _norm(a: np.ndarray) -> float:
    """The Frobenius norm as ``np.linalg.norm`` sums it, without its call overhead."""
    v = a.ravel(order="K")
    return math.sqrt(v.dot(v))


def jacobian_fd(f: ExprFn, p) -> np.ndarray:
    """Central-difference Jacobian; column i is d f / d x_{i+1}.

    The step balances truncation and rounding: h = eps^(1/3) * max(1, ||p||).
    """
    x = f.algebra.element(p).coords
    n = f.algebra.dim
    # a huge point overflows h to inf; evaluation refuses the stencil, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        h = _EPS_CUBE_ROOT * max(1.0, _norm(x))
        stencil = x + h * _central_stencil(n)
    values = f.eval_coords(stencil)
    return (values[:n] - values[n:]).T / (2.0 * h)


@lru_cache(maxsize=None)
def _central_stencil(n: int) -> np.ndarray:
    """Offsets +e_1..+e_n, then -e_1..-e_n, of the central-difference Jacobian."""
    return _freeze(np.concatenate([np.eye(n), -np.eye(n)]))


def jacobian_sym(f: ExprFn, p) -> np.ndarray:
    """Exact Jacobian from symbolic partials (oracle for the FD route)."""
    return f.eval_jacobian(p)


def adiff_test(f: ExprFn, p, tol: float = DEFAULT_ADIFF_TOL, method: str = "fd") -> DiffReport:
    """Test differentiability over the algebra at p.

    Checks the identity J = M(J 1), with M(d) formed from the algebra's held
    representation basis; the residual is ||J - M(J 1)||_F / max(1, ||J||_F).
    On success the derivative is J 1.  ``method`` is ``"fd"`` (central
    differences) or ``"symbolic"`` (exact partials).
    """
    if method not in ("fd", "symbolic"):
        raise ValueError(f"method must be 'fd' or 'symbolic', got {method!r}")
    algebra = f.algebra
    point = algebra.element(p)
    J = jacobian_fd(f, point) if method == "fd" else jacobian_sym(f, point)
    d = J @ algebra.unity
    residual = _norm(J - (algebra.rep_basis @ d).reshape(J.shape)) / max(1.0, _norm(J))
    ok = residual <= tol
    deriv = AElement(algebra, _freeze(d)) if ok else None
    return DiffReport(point=point, jacobian=J, residual=residual,
                      is_adiff=ok, derivative=deriv, tol=tol)


def _require_adiff(f: ExprFn, p, tol: float = DEFAULT_ADIFF_TOL, method: str = "fd") -> DiffReport:
    """:func:`adiff_test`, raising :class:`NotADifferentiable` on failure."""
    report = adiff_test(f, p, tol=tol, method=method)
    if not report.is_adiff:
        raise NotADifferentiable(report.residual)
    return report


def derivative(f: ExprFn, p, tol: float = DEFAULT_ADIFF_TOL, method: str = "fd") -> AElement:
    """The derivative element; raises :class:`NotADifferentiable` on failure."""
    return _require_adiff(f, p, tol, method).derivative


def higher_derivative(f: ExprFn, p, k: int) -> AElement:
    """k-th derivative: the k-fold exact derivative along the unity (d^k/dx1^k
    when the unity is v_1), for k >= 0.  Raises :class:`NotADifferentiable` if
    f fails the first-order test at p."""
    if k < 0:
        raise ValueError(f"derivative order must be >= 0, got {k}")
    point = _require_adiff(f, p).point
    g = f
    for _ in range(k):
        g = g.unity_derivative
    return g(point)


# ---------------------------------------------------------------------------
# conjugate coordinates and Wirtinger operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugateFrame:
    """Inverses of the non-unity basis vectors; needs v_1 = 1 and all v_j units."""

    algebra: Algebra
    inverse_basis: tuple[AElement, ...]  # 1/v_2, ..., 1/v_n


def conjugate_frame(algebra: Algebra) -> ConjugateFrame:
    if not algebra.unity_first:
        raise NonInvertibleBasis("conjugates need the first basis vector to be the unity")
    inverses = []
    for j in range(1, algebra.dim):
        vj = algebra.basis_element(j)
        try:
            inverses.append(invert(vj))
        except NotAUnit as exc:
            raise NonInvertibleBasis(
                f"basis vector {algebra.basis_labels[j]!r} is not a unit"
            ) from exc
    return ConjugateFrame(algebra=algebra, inverse_basis=tuple(inverses))


def conjugate_coords(frame: ConjugateFrame, zeta: AElement) -> list[AElement]:
    """The n-1 conjugates: the j-th flips the sign of coordinate j."""
    out = []
    for j in range(1, frame.algebra.dim):
        coords = zeta.coords.copy()
        coords[j] = -coords[j]
        out.append(frame.algebra.element(coords))
    return out


def _parse_which(which, dim: int) -> tuple[str, int | None]:
    if which == "zeta":
        return "zeta", None
    if isinstance(which, str) and which.startswith("zbar"):
        j = int(which[4:])
    else:
        raise ValueError(f"operator must be 'zeta' or 'zbar<j>', got {which!r}")
    if not 2 <= j <= dim:
        raise ValueError(f"conjugate index must be in 2..{dim}")
    return "zbar", j


def wirtinger_apply(f: ExprFn, which: str, p, frame: ConjugateFrame | None = None) -> AElement:
    """Apply a Wirtinger operator to f at p using exact symbolic partials.

    ``which`` is ``"zeta"`` for
    (1/2)((3-n) d/dx1 + sum_j (1/v_j) d/dx_j), or ``"zbar<j>"`` for
    (1/2)(d/dx1 - (1/v_j) d/dx_j).
    """
    algebra = f.algebra
    if frame is None:
        frame = conjugate_frame(algebra)
    n = algebra.dim
    point = algebra.element(p)
    kind, j = _parse_which(which, n)
    partials = [algebra.element(column) for column in jacobian_sym(f, point).T]
    if kind == "zbar":
        return 0.5 * (partials[0] - mul(frame.inverse_basis[j - 2], partials[j - 1]))
    acc = (3.0 - n) * partials[0]
    for m in range(1, n):
        acc = acc + mul(frame.inverse_basis[m - 1], partials[m])
    return 0.5 * acc


# ---------------------------------------------------------------------------
# Taylor expansion
# ---------------------------------------------------------------------------

def taylor_eval(f: ExprFn, p, h: AElement, k: int) -> AElement:
    """Degree-k Taylor value: sum_m f^(m)(p) * h^m / m! for m = 0..k, k >= 0."""
    if k < 0:
        raise ValueError(f"Taylor degree must be >= 0, got {k}")
    point = _require_adiff(f, p).point
    total = f(point)
    g = f
    h_power = f.algebra.one()
    for m in range(1, k + 1):
        g = g.unity_derivative
        h_power = mul(h_power, h)
        total = total + (1.0 / math.factorial(m)) * mul(g(point), h_power)
    return total
