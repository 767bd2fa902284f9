"""Generation of the linear PDE systems attached to an algebra.

Two families are produced from the multiplication structure alone:

* the n^2 - n first-order component equations characterizing
  algebra-differentiability (one vector equation
  d f/d x_j = (d f/d x_1) * v_j per non-unity basis vector, expanded into
  scalar equations), and
* second- and higher-order equations: every vanishing symmetric combination
  sum B_I v_{i_1} * ... * v_{i_k} = 0 of basis products forces
  sum B_I d^k Phi / d x_{i_1} ... d x_{i_k} = 0 on every scalar component
  Phi of a k-times differentiable function.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .algebra import Algebra, mul
from .errors import (
    CombinatorialLimit,
    NonCommutativeUnsupported,
    UnityNotFirst,
)
from .expr import ExprFn, compile_expr, derive, eval_compiled

__all__ = [
    "Equation",
    "EquationSystem",
    "Term",
    "check_residual",
    "gen_cr",
    "gen_laplace",
    "gen_laplace_k",
    "render_system",
]

NULLSPACE_RTOL = 1e-10
MAX_SYMMETRIC_TENSOR = 3000


@dataclass(frozen=True)
class Term:
    """coeff * (derivative given by per-coordinate orders) applied to a component.

    ``component`` indexes the component function (0-based) for first-order
    systems; ``None`` means the equation holds for every scalar component.
    """

    coeff: float
    orders: tuple[int, ...]
    component: int | None = None


@dataclass(frozen=True)
class Equation:
    terms: tuple[Term, ...]


@dataclass(frozen=True)
class EquationSystem:
    kind: str                 # "CR" | "Laplace2" | "LaplaceK"
    order: int
    algebra: Algebra
    equations: tuple[Equation, ...]

    def __len__(self) -> int:
        return len(self.equations)


def _orders_from_pair(index_tuple: tuple[int, ...], n: int) -> tuple[int, ...]:
    orders = [0] * n
    for i in index_tuple:
        orders[i] += 1
    return tuple(orders)


def gen_cr(algebra: Algebra) -> EquationSystem:
    """The n(n-1) scalar equations equivalent to differentiability over A."""
    if not algebra.unity_first:
        raise UnityNotFirst("component equations need v_1 = 1")
    n = algebra.dim
    C = algebra.structure
    equations = []
    for j in range(1, n):
        dj = _orders_from_pair((j,), n)
        d1 = _orders_from_pair((0,), n)
        for k in range(n):
            terms = [Term(1.0, dj, k)]
            for i in range(n):
                c = C[i, j, k]
                if c != 0.0:
                    terms.append(Term(-float(c), d1, i))
            equations.append(Equation(tuple(terms)))
    return EquationSystem(kind="CR", order=1, algebra=algebra, equations=tuple(equations))


def _nullspace_canonical(P: np.ndarray) -> list[np.ndarray]:
    """Canonical basis of the nullspace of P.

    SVD gives a rank-revealing decomposition with cutoff 1e-10 * sigma_max;
    the raw nullspace basis is then reduced to echelon form over the column
    order, and each row is scaled so its largest-magnitude coefficient
    (first among ties) equals +1.
    """
    m = P.shape[1]
    _, s, Vt = np.linalg.svd(P, full_matrices=True)
    cutoff = NULLSPACE_RTOL * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    basis = Vt[rank:]
    if basis.size == 0:
        return []
    # row-reduce over coefficient positions in lexicographic multi-index order
    rows = [row.copy() for row in basis]
    pivots: list[int] = []
    r = 0
    for col in range(m):
        sel = None
        best = 0.0
        for i in range(r, len(rows)):
            if abs(rows[i][col]) > max(best, 1e-9):
                best = abs(rows[i][col])
                sel = i
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        rows[r] = rows[r] / rows[r][col]
        for i in range(len(rows)):
            if i != r and abs(rows[i][col]) > 0.0:
                rows[i] = rows[i] - rows[i][col] * rows[r]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    out = []
    for row in rows[:r]:
        row = np.where(np.abs(row) < 1e-12, 0.0, row)
        # first coefficient of maximal magnitude, with slack for float noise
        a = np.abs(row)
        scale_idx = int(np.argmax(a >= float(a.max()) * (1.0 - 1e-9)))
        row = row / row[scale_idx]
        # snap away SVD float noise; coefficients are O(1) after scaling
        out.append(np.round(row, 12) + 0.0)
    return out


def _laplace_system(algebra: Algebra, k: int, kind: str) -> EquationSystem:
    if not algebra.commutative:
        raise NonCommutativeUnsupported(
            "higher-order equation generation needs a commutative algebra"
        )
    if k < 2:
        raise ValueError("order must be at least 2")
    n = algebra.dim
    if comb(n + k - 1, k) > MAX_SYMMETRIC_TENSOR:
        raise CombinatorialLimit(f"symmetric order-{k} tensors in dimension {n} are too large")
    index_tuples = list(combinations_with_replacement(range(n), k))
    P = np.empty((n, len(index_tuples)))
    for col, idx in enumerate(index_tuples):
        prod = algebra.basis_element(idx[0])
        for i in idx[1:]:
            prod = mul(prod, algebra.basis_element(i))
        P[:, col] = prod.coords
    equations = []
    for vec in _nullspace_canonical(P):
        terms = [
            Term(float(c), _orders_from_pair(idx, n), None)
            for c, idx in zip(vec, index_tuples)
            if c != 0.0
        ]
        equations.append(Equation(tuple(terms)))
    return EquationSystem(kind=kind, order=k, algebra=algebra, equations=tuple(equations))


def gen_laplace(algebra: Algebra) -> EquationSystem:
    """Second-order equations solved by every component of a differentiable
    function; one equation per nullspace direction of the symmetrized
    basis-product map."""
    return _laplace_system(algebra, 2, "Laplace2")


def gen_laplace_k(algebra: Algebra, k: int) -> EquationSystem:
    """Order-k generalization of :func:`gen_laplace` over symmetric k-tensors."""
    return _laplace_system(algebra, k, "LaplaceK" if k != 2 else "Laplace2")


def check_residual(system: EquationSystem, f: ExprFn, grid) -> float:
    """Largest absolute residual of every equation at every grid point.

    Equations with ``component=None`` are applied to each scalar component
    of f separately; derivatives are exact symbolic partials.
    """
    X = np.array([getattr(p, "coords", p) for p in grid], dtype=float).reshape(-1, f.algebra.dim)
    worst = 0.0
    for eq in system.equations:
        per_component = all(t.component is None for t in eq.terms)
        coeffs = np.array([t.coeff for t in eq.terms])
        for target in range(f.algebra.dim) if per_component else [None]:
            derivs = tuple(
                compile_expr(derive(f.components[target if per_component else t.component], t.orders))
                for t in eq.terms
            )
            residuals = eval_compiled(derivs, X) @ coeffs
            worst = max(worst, float(np.max(np.abs(residuals), initial=0.0)))
    return worst


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_DEFAULT_COMPONENTS = {2: ("u", "v"), 3: ("u", "v", "w")}


def _coord_names(n: int, coords=None) -> tuple[str, ...]:
    if coords is not None:
        return tuple(coords)
    if n <= 3:
        return ("x", "y", "z")[:n]
    return tuple(f"x{i + 1}" for i in range(n))


def _component_names(n: int, components=None) -> tuple[str, ...]:
    if components is not None:
        return tuple(components)
    return _DEFAULT_COMPONENTS.get(n, tuple(f"u{i + 1}" for i in range(n)))


def _fmt_coeff(c: float, latex: bool) -> str:
    if c == int(c):
        return str(int(c))
    return f"{c:.6g}"


def _term_str(t: Term, names, comp_name: str, latex: bool) -> str:
    subs = "".join(names[i] * k for i, k in enumerate(t.orders))
    if latex:
        base = f"{comp_name}_{{{subs}}}"
    else:
        base = f"{comp_name}_{subs}"
    c = t.coeff
    if c == 1.0:
        return base
    if c == -1.0:
        return f"-{base}"
    return f"{_fmt_coeff(c, latex)}*{base}" if not latex else f"{_fmt_coeff(c, latex)} {base}"


def render_system(system: EquationSystem, coords=None, components=None,
                  latex: bool = False) -> list[str]:
    """Human-readable equation strings, one per generated equation."""
    n = system.algebra.dim
    names = _coord_names(n, coords)
    comps = _component_names(n, components)
    lines = []
    for eq in system.equations:
        parts = []
        for t in eq.terms:
            comp_name = (r"\Phi" if latex else "Phi") if t.component is None else comps[t.component]
            s = _term_str(t, names, comp_name, latex)
            if parts and not s.startswith("-"):
                parts.append(f"+ {s}")
            elif parts:
                parts.append(f"- {s[1:]}")
            else:
                parts.append(s)
        lines.append(" ".join(parts) + " = 0")
    return lines
