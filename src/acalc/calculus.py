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
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .algebra import AElement, Algebra, _element_maker, _freeze, mul
from .errors import DomainError, NonInvertibleBasis, NotADifferentiable
from .expr import _NOT_FINITE, _POINT_NS, _ZERO, Expr, ExprFn, _combine, _kernel_lines, _refused

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


class DiffReport(NamedTuple):
    """Outcome of a differentiability test at one point; read-only."""

    point: AElement
    jacobian_vec: tuple[float, ...]  # vec(J), row by row, as the kernel gave it
    residual: float          # ||J - M(J 1)||_F / max(1, ||J||_F)
    is_adiff: bool
    derivative: AElement | None  # present iff is_adiff
    tol: float

    @property
    def jacobian(self) -> np.ndarray:
        """J, shape (n, n), built from ``jacobian_vec`` on each read."""
        n = self.point.algebra.dim
        return np.array(self.jacobian_vec).reshape(n, n)


def jacobian_fd(f: ExprFn, p) -> np.ndarray:
    """Central-difference Jacobian, the test oracle of :func:`jacobian_sym`;
    no verdict reads it.  Column i is d f / d x_{i+1}.

    The step balances truncation and rounding: h = eps^(1/3) * max(1, ||p||).
    Each stencil point is evaluated on floats, the route of ``f(p)``.
    """
    x = f.algebra.element(p).coords
    n = f.algebra.dim
    # a huge point overflows h to inf; evaluation refuses the stencil, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        h = _EPS_CUBE_ROOT * max(1.0, math.sqrt(x.dot(x)))
        stencil = x + h * _central_stencil(n)
    values = [f._compiled(row) for row in stencil.tolist()]
    two_h = 2.0 * h
    # a difference that overflows gives inf, unwarned, and is refused
    J = np.array([[(fk[i] - fk[n + i]) / two_h for i in range(n)] for fk in zip(*values)])
    if not np.isfinite(J).all():
        raise DomainError(_NOT_FINITE)
    return J


@lru_cache(maxsize=None)
def _central_stencil(n: int) -> np.ndarray:
    """Offsets +e_1..+e_n, then -e_1..-e_n, of the central-difference Jacobian."""
    return _freeze(np.concatenate([np.eye(n), -np.eye(n)]))


def jacobian_sym(f: ExprFn, p) -> np.ndarray:
    """The exact Jacobian, from the held kernel that every verdict reads."""
    return f.eval_jacobian(p)


def adiff_test(f: ExprFn, p, tol: float = DEFAULT_ADIFF_TOL, method: str = "symbolic") -> DiffReport:
    """Test differentiability over the algebra at p.

    Checks the identity J = M(J 1) on the exact Jacobian through the
    algebra's held projector, vec(J - M(J 1)) = P vec(J); the residual is
    ||J - M(J 1)||_F / max(1, ||J||_F).  On success the derivative is J 1.
    The whole verdict is one call of f's held report function (see
    :func:`_compile_report`).  ``method`` may be ``"fd"`` or ``"symbolic"``;
    both name the one route.
    """
    if method not in ("fd", "symbolic"):
        raise ValueError(f"method must be 'fd' or 'symbolic', got {method!r}")
    point = f.algebra.element(p)
    return f._report(point, tol)


def _report_source(trees: tuple[Expr, ...], algebra: Algebra) -> str:
    """``report(point, tol)`` over the trees of f's n components and vec(J),
    plus the verdict's rows composed here: the nonzero rows of P vec(J) and
    J 1, the rows of I kron 1^T over vec(J) (J's first column, which adds no
    line, when the unity is v_1).  The kernel's lines, then adiff_test's
    checks in order.  An f(p) that is not finite is refused (hypot is not
    finite exactly when an entry is not or the norm overflows, so the entries
    are read only then); the residual is num / max(1, den), as a conditional
    that gives the bits of ``max`` without its call, or the scaled rerun where
    a norm is not finite; J 1 is read only for a true verdict, as it may
    overflow where f and J are finite."""
    n = algebra.dim
    cr = tuple(r for r in _combine(algebra.cr_projector, trees[n:]) if r != _ZERO)
    lines, values = _kernel_lines(trees + cr + _combine(np.kron(np.eye(n), algebra.unity), trees[n:]))
    m = len(trees)
    f, vec, cr, tail = (", ".join(v) for v in (values[:n], values[n:m], values[m:-n], values[-n:]))
    finite = [f"_isfinite({v})" for v in values]
    return "\n".join(["def report(point, tol):", "    x = point.coords.tolist()", *lines, f"""\
    if not _isfinite(_hypot({f})) and not ({" and ".join(finite[:n])}):
        raise DomainError(_NOT_FINITE)
    vec = ({vec},)
    num, den = _hypot({cr}), _hypot({vec})
    if _isfinite(num) and _isfinite(den):
        residual = num / (den if den > 1.0 else 1.0)
    else:
        residual = _scaled_residual(_algebra.cr_projector, vec)
    if residual <= tol:
        if not ({" and ".join(finite[-n:])}):
            raise DomainError(_NOT_FINITE)
        return _new(DiffReport, (point, vec, residual, True, _derivative({tail}), tol))
    return _new(DiffReport, (point, vec, residual, False, None, tol))"""])


@lru_cache(maxsize=4096)
def _compile_report(algebra: Algebra, trees: tuple[Expr, ...]):
    """The verdict at one point over the trees of f and vec(J) as one
    function, held by :class:`ExprFn` as ``_report`` and shared by equal
    trees on one algebra (see :func:`_report_source`).  It runs the float
    routes of the primitives and packs the report as ``DiffReport(...)``
    does, without its call; the derivative J 1 is built by the algebra's
    element maker, bound once here as ``_derivative``."""
    namespace = {**_POINT_NS, "_isfinite": math.isfinite, "_hypot": math.hypot, "_new": tuple.__new__,
                 "DiffReport": DiffReport, "DomainError": DomainError, "_NOT_FINITE": _NOT_FINITE,
                 "_scaled_residual": _scaled_residual, "_derivative": _element_maker(algebra), "_algebra": algebra,
                 "_refused": _refused}
    exec(_report_source(trees, algebra), namespace)
    return namespace["report"]


def _scaled_residual(P: np.ndarray, vec: tuple[float, ...]) -> float:
    """The residual where P vec(J) or ||vec(J)|| overflows: vec(J), if finite,
    is scaled exactly by a power of two to a largest entry in [1/2, 1), P's
    nonzero entries are applied to it in the kernel's order, and the ratio
    undoes the scale."""
    if not all(map(math.isfinite, vec)):
        raise DomainError(_NOT_FINITE)
    s = math.ldexp(1.0, -math.frexp(max(map(abs, vec)))[1])
    scaled = [v * s for v in vec]
    rows = (reduce(operator.add, (c * v for c, v in zip(row, scaled) if c), 0.0) for row in P.tolist())
    # num / max(1, den), with num and den both scaled by s
    return math.hypot(*rows) / max(s, math.hypot(*scaled))


def _require_adiff(f: ExprFn, p, tol: float = DEFAULT_ADIFF_TOL) -> DiffReport:
    """:func:`adiff_test`, raising :class:`NotADifferentiable` on failure."""
    report = adiff_test(f, p, tol=tol)
    if not report.is_adiff:
        raise NotADifferentiable(report.residual)
    return report


def derivative(f: ExprFn, p, tol: float = DEFAULT_ADIFF_TOL) -> AElement:
    """The derivative element; raises :class:`NotADifferentiable` on failure."""
    return _require_adiff(f, p, tol).derivative


def _derivative_chain(f: ExprFn, p, k: int, order: str) -> tuple[AElement, list[ExprFn]]:
    """The point p, once f passes the first-order test there, and f, f', ...,
    f^(k), each the derivative along the unity of the one before."""
    if k < 0:
        raise ValueError(f"{order} must be >= 0, got {k}")
    point = _require_adiff(f, p).point
    chain = [f]
    for _ in range(k):
        chain.append(chain[-1].unity_derivative)
    return point, chain


def higher_derivative(f: ExprFn, p, k: int) -> AElement:
    """k-th derivative f^(k)(p), for k >= 0.  Raises
    :class:`NotADifferentiable` if f fails the first-order test at p."""
    point, chain = _derivative_chain(f, p, k, "derivative order")
    return chain[k](point)


# ---------------------------------------------------------------------------
# conjugate coordinates and Wirtinger operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugateFrame:
    """Inverses of the non-unity basis vectors; needs v_1 = 1 and all v_j units."""

    algebra: Algebra
    inverse_basis: tuple[AElement, ...]  # 1/v_2, ..., 1/v_n


def conjugate_frame(algebra: Algebra) -> ConjugateFrame:
    """The frame of the algebra's held ``basis_inverses``."""
    if not algebra.unity_first:
        raise NonInvertibleBasis("conjugates need the first basis vector to be the unity")
    inverses = algebra.basis_inverses[1:]
    for label, inverse in zip(algebra.basis_labels[1:], inverses):
        if inverse is None:
            raise NonInvertibleBasis(f"basis vector {label!r} is not a unit")
    return ConjugateFrame(algebra=algebra, inverse_basis=inverses)


def conjugate_coords(frame: ConjugateFrame, zeta) -> list[AElement]:
    """The n-1 conjugates: the j-th flips the sign of coordinate j."""
    zeta = frame.algebra.element(zeta)
    out = []
    for j in range(1, frame.algebra.dim):
        coords = zeta.coords.copy()
        coords[j] = -coords[j]
        out.append(frame.algebra.element(coords))
    return out


def _parse_which(which, dim: int) -> tuple[str, int | None]:
    if which == "zeta":
        return "zeta", None
    if not (isinstance(which, str) and which.startswith("zbar") and which[4:].isdecimal()):
        raise ValueError(f"operator must be 'zeta' or 'zbar<j>', got {which!r}")
    j = int(which[4:])
    if not 2 <= j <= dim:
        raise ValueError(f"conjugate index must be in 2..{dim}")
    return "zbar", j


def wirtinger_apply(f: ExprFn, which: str, p) -> AElement:
    """Apply a Wirtinger operator to f at p using exact symbolic partials.

    ``which`` is ``"zeta"`` for
    (1/2)((3-n) d/dx1 + sum_j (1/v_j) d/dx_j), or ``"zbar<j>"`` for
    (1/2)(d/dx1 - (1/v_j) d/dx_j); the 1/v_j are the algebra's held
    ``basis_inverses``.
    """
    algebra = f.algebra
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
    """Degree-k Taylor value: sum_m f^(m)(p) * h^m / m! for m = 0..k, k >= 0.

    An offset h with a coordinate that is not finite, or a power h^m that
    overflows, raises DomainError."""
    point, chain = _derivative_chain(f, p, k, "Taylor degree")
    if not np.isfinite(h.coords).all():
        raise DomainError("Taylor offset coordinates must be finite")
    total, h_power = f(point), f.algebra.one()
    for m in range(1, k + 1):
        h_power = mul(h_power, h)
        if not np.isfinite(h_power.coords).all():
            raise DomainError(f"Taylor offset power h^{m} is not finite")
        total = total + (1.0 / math.factorial(m)) * mul(chain[m](point), h_power)
    return total
