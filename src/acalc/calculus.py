"""Differential calculus over an algebra.

A function is algebra-differentiable at p exactly when its Jacobian matrix
lies in the span of the representation matrices of the basis vectors; the
derivative is then the element whose left-multiplication matrix is that
projection.  The module also provides conjugate coordinates and the
generalized Wirtinger operators for algebras with an invertible basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import AElement, Algebra, _freeze, invert, mul, number_map, regrep
from .errors import NonInvertibleBasis, NotADifferentiable, NotAUnit, UnityNotFirst
from .expr import ExprFn

__all__ = [
    "ConjugateFrame",
    "DiffReport",
    "adiff_test",
    "conjugate_coords",
    "conjugate_frame",
    "cr_residual",
    "derivative",
    "higher_derivative",
    "jacobian_fd",
    "jacobian_sym",
    "taylor_eval",
    "wirtinger_apply",
]

DEFAULT_ADIFF_TOL = 1e-6

_EPS_CUBE_ROOT = float(np.finfo(float).eps) ** (1.0 / 3.0)

# central stencils for the k-th derivative along the unity: offsets in steps
# of h, integer weights, and the factor in front of h^k in the divisor
_FD_STENCILS = {
    1: ((1, -1), (1, -1), 2.0),
    2: ((1, 0, -1), (1, -2, 1), 1.0),
    3: ((2, 1, -1, -2), (1, -2, 2, -1), 2.0),
}


@dataclass(frozen=True)
class DiffReport:
    """Outcome of a differentiability test at one point."""

    point: AElement
    jacobian: np.ndarray
    residual: float          # ||J - proj||_F / max(1, ||J||_F)
    is_adiff: bool
    derivative: AElement | None  # present iff is_adiff
    tol: float


def _as_coords(algebra: Algebra, point) -> np.ndarray:
    if isinstance(point, AElement):
        return point.coords
    return np.asarray(point, dtype=float)


def jacobian_fd(f: ExprFn, p, h: float | None = None) -> np.ndarray:
    """Central-difference Jacobian; column i is d f / d x_{i+1}.

    The default step balances truncation and rounding:
    h = eps^(1/3) * max(1, ||p||).
    """
    x = _as_coords(f.algebra, p)
    n = f.algebra.dim
    if h is None:
        h = _EPS_CUBE_ROOT * max(1.0, float(np.linalg.norm(x)))
    values = f.eval_coords(x + h * _central_stencil(n))
    return (values[:n] - values[n:]).T / (2.0 * h)


@lru_cache(maxsize=None)
def _central_stencil(n: int) -> np.ndarray:
    """Offsets +e_1..+e_n, then -e_1..-e_n, of the central-difference Jacobian."""
    return _freeze(np.concatenate([np.eye(n), -np.eye(n)]))


def jacobian_sym(f: ExprFn, p) -> np.ndarray:
    """Exact Jacobian from symbolic partials (oracle for the FD route)."""
    x = _as_coords(f.algebra, p)
    n = f.algebra.dim
    J = np.empty((n, n))
    for i in range(n):
        J[:, i] = f.partial(i).eval_coords(x)
    return J


def adiff_test(f: ExprFn, p, tol: float = DEFAULT_ADIFF_TOL, method: str = "fd") -> DiffReport:
    """Test differentiability over the algebra at p.

    Projects the Jacobian onto the span of the basis representation matrices
    by least squares, through the algebra's held pseudo-inverse; the scaled
    Frobenius distance to that span is the residual.  On success the
    derivative is the element represented by the projection.
    """
    algebra = f.algebra
    point = p if isinstance(p, AElement) else algebra.element(p)
    J = jacobian_fd(f, point) if method == "fd" else jacobian_sym(f, point)
    coeffs = algebra.rep_projector @ J.reshape(-1)
    proj = (algebra.rep_basis @ coeffs).reshape(J.shape)
    residual = float(np.linalg.norm(J - proj) / max(1.0, np.linalg.norm(J)))
    ok = residual <= tol
    deriv = number_map(algebra, proj) if ok else None
    return DiffReport(point=point, jacobian=J, residual=residual,
                      is_adiff=ok, derivative=deriv, tol=tol)


def derivative(f: ExprFn, p, tol: float = DEFAULT_ADIFF_TOL, method: str = "fd") -> AElement:
    """The derivative element; raises :class:`NotADifferentiable` on failure."""
    report = adiff_test(f, p, tol=tol, method=method)
    if not report.is_adiff:
        raise NotADifferentiable(report.residual)
    return report.derivative


def cr_residual(f: ExprFn, p, method: str = "fd") -> float:
    """Scaled residual of the componentwise equations d f/d x_j = (d f/d x_1) * v_j.

    Independent route to the same differentiability criterion as
    :func:`adiff_test`; requires the first basis vector to be the unity.
    """
    algebra = f.algebra
    if not algebra.unity_first:
        raise UnityNotFirst("componentwise equations need v_1 = 1")
    point = p if isinstance(p, AElement) else algebra.element(p)
    J = jacobian_fd(f, point) if method == "fd" else jacobian_sym(f, point)
    # column j of M(d f/d x_1) holds (d f/d x_1) * v_j
    expected = regrep(algebra.element(J[:, 0]))
    worst = float(np.max(np.abs(J[:, 1:] - expected[:, 1:]), initial=0.0))
    return worst / max(1.0, float(np.linalg.norm(J)))


def higher_derivative(f: ExprFn, p, k: int, tol: float = DEFAULT_ADIFF_TOL,
                      method: str = "symbolic") -> AElement:
    """k-th derivative via the k-fold directional partial along the unity
    (the plain d^k/dx1^k when the unity is the first basis vector).

    Symbolic by default; a finite-difference fallback covers k <= 3.
    Raises :class:`NotADifferentiable` if the first-order test fails at p.
    """
    report = adiff_test(f, p, tol=tol)
    if not report.is_adiff:
        raise NotADifferentiable(report.residual)
    algebra = f.algebra
    point = p if isinstance(p, AElement) else algebra.element(p)
    if k == 0:
        return f(point)
    if method == "symbolic":
        g = f
        for _ in range(k):
            g = g.unity_derivative
        return g(point)
    if k > 3:
        raise ValueError("finite-difference fallback supports k <= 3")
    x = point.coords
    h = float(np.finfo(float).eps) ** (1.0 / (2.0 + k)) * max(1.0, float(np.linalg.norm(x)))
    offsets, weights, scale = _FD_STENCILS[k]
    values = f.eval_coords(x + np.outer(h * np.asarray(offsets), algebra.unity))
    return algebra.element(np.asarray(weights) @ values / (scale * h ** k))


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
    elif isinstance(which, int):
        j = which
    else:
        raise ValueError(f"operator must be 'zeta' or 'zbar<j>', got {which!r}")
    if not 2 <= j <= dim:
        raise ValueError(f"conjugate index must be in 2..{dim}")
    return "zbar", j


def wirtinger_apply(f: ExprFn, which, p, frame: ConjugateFrame | None = None) -> AElement:
    """Apply a Wirtinger operator to f at p using exact symbolic partials.

    ``which`` is ``"zeta"`` for
    (1/2)((3-n) d/dx1 + sum_j (1/v_j) d/dx_j), or ``"zbar<j>"`` for
    (1/2)(d/dx1 - (1/v_j) d/dx_j).
    """
    algebra = f.algebra
    if frame is None:
        frame = conjugate_frame(algebra)
    n = algebra.dim
    point = p if isinstance(p, AElement) else algebra.element(p)
    kind, j = _parse_which(which, n)
    d1 = f.partial(0)(point)
    if kind == "zbar":
        dj = f.partial(j - 1)(point)
        return 0.5 * (d1 - mul(frame.inverse_basis[j - 2], dj))
    acc = (3.0 - n) * d1
    for m in range(1, n):
        dm = f.partial(m)(point)
        acc = acc + mul(frame.inverse_basis[m - 1], dm)
    return 0.5 * acc


# ---------------------------------------------------------------------------
# Taylor expansion
# ---------------------------------------------------------------------------

def taylor_eval(f: ExprFn, p, h: AElement, k: int, tol: float = DEFAULT_ADIFF_TOL) -> AElement:
    """Degree-k Taylor value: sum_m f^(m)(p) * h^m / m! for m = 0..k."""
    algebra = f.algebra
    point = p if isinstance(p, AElement) else algebra.element(p)
    report = adiff_test(f, point, tol=tol)
    if not report.is_adiff:
        raise NotADifferentiable(report.residual)
    total = f(point)
    g = f
    h_power = algebra.one()
    for m in range(1, k + 1):
        g = g.unity_derivative
        h_power = mul(h_power, h)
        total = total + (1.0 / math.factorial(m)) * mul(g(point), h_power)
    return total
