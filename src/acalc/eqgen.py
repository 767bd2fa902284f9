"""Generation of the linear PDE systems attached to an algebra.

Two families are produced from the multiplication structure alone:

* the n^2 - n first-order component equations characterizing
  algebra-differentiability: the rows of the algebra's ``cr_projector``,
  the components of d f/d x_j = (d f/d 1) * v_j with d/d1 the derivative
  along the unity, less the block of the first j with u_j != 0, and
* second- and higher-order equations: every vanishing symmetric combination
  sum B_I v_{i_1} * ... * v_{i_k} = 0 of basis products forces
  sum B_I d^k Phi / d x_{i_1} ... d x_{i_k} = 0 on every scalar component
  Phi of a k-times differentiable function.

The order-k equations are the nullspace of the symmetric-product map P,
read off the multiplication table; one Gauss-Jordan elimination of P gives
them in canonical reduced echelon form, one per free column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .algebra import Algebra
from .errors import CombinatorialLimit, DimensionMismatch, NonCommutativeUnsupported
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
    """The n^2 - n scalar equations equivalent to differentiability over A.

    Row k*n + j of ``algebra.cr_projector`` is the equation
    d f_k/d x_j - ((d f/d 1) * v_j)_k = 0, d/d1 the derivative along the
    unity u.  The n relations sum_j u_j row(k, j) = 0 each use the block
    j0 of the first nonzero u_j, so the rows outside it are independent.
    Each equation leads with its d f_k/d x_j term, then follows column
    order, and its first coefficient is positive."""
    n, P = algebra.dim, algebra.cr_projector
    j0 = int(np.flatnonzero(algebra.unity)[0])
    equations = []
    for r in (k * n + j for j in range(n) if j != j0 for k in range(n)):
        cols = sorted(np.flatnonzero(P[r]).tolist(), key=lambda c: c != r)
        sign = -1.0 if P[r, cols[0]] < 0 else 1.0
        equations.append(Equation(tuple(
            Term(sign * float(P[r, c]), _orders_from_pair((c % n,), n), c // n) for c in cols
        )))
    return EquationSystem(kind="CR", order=1, algebra=algebra, equations=tuple(equations))


def _nullspace_canonical(P: np.ndarray):
    """Yield the canonical nullspace basis of P, one ``(columns, coeffs)``
    row at a time: the reduced echelon basis over the column order, each row
    scaled so its largest-magnitude coefficient (first among ties) is +1.

    One Gauss-Jordan elimination of P takes its columns right to left, with
    partial pivoting and the pivot cutoff NULLSPACE_RTOL * max|P|.  Each free
    column f gives the row with 1 at f and -R[:, f] at the pivot columns; a
    pivot left of f came from rows that were zero at f, so f leads its row.
    """
    R = np.array(P, dtype=float)
    n, m = R.shape
    cutoff = NULLSPACE_RTOL * np.abs(R).max()
    pivots: list[int] = []
    for col in range(m - 1, -1, -1):
        r = len(pivots)
        if r == n:
            break
        sel = r + int(np.argmax(np.abs(R[r:, col])))
        if abs(R[sel, col]) <= cutoff:
            continue
        R[[r, sel]] = R[[sel, r]]
        pivot_row = R[r] / R[r, col]
        R -= np.outer(R[:, col], pivot_row)
        R[r] = pivot_row
        pivots.append(col)
    free = [f for f in range(m) if f not in pivots]
    for f, values in zip(free, (-R[:len(pivots), free]).T.tolist()):
        columns, row = zip(*sorted([(f, 1.0), *zip(pivots, values)]))
        row = np.where(np.abs(row) < 1e-12, 0.0, row)
        # first coefficient of maximal magnitude, with slack for float noise
        a = np.abs(row)
        row = row / row[np.argmax(a >= a.max() * (1.0 - 1e-9))]
        # snap away elimination noise; coefficients are O(1) after scaling
        yield columns, np.round(row, 12) + 0.0


@lru_cache(maxsize=256, typed=True)  # typed: an order 2.0 is still refused
def _laplace_system(algebra: Algebra, k: int) -> EquationSystem:
    """Order-k equations: the nullspace of P, whose column I (multi-indices
    i_1 <= ... <= i_k in lexicographic order) is v_{i_1} * ... * v_{i_k},
    built one factor at a time from the structure tensor.  A system holds only
    tuples and floats and is frozen, so one is held per (algebra, k) and
    returned again; a refusal is raised on every call."""
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
    factors = np.array(index_tuples)
    products = np.eye(n)[factors[:, 0]]
    for j in factors[:, 1:].T:  # row I times its next factor: x @ C[:, j[I], :]
        products = np.einsum("Ii,iIk->Ik", products, algebra.structure[:, j, :])
    equations = tuple(
        Equation(tuple(
            Term(c, _orders_from_pair(index_tuples[col], n), None)
            for col, c in zip(columns, row.tolist()) if c != 0.0
        ))
        for columns, row in _nullspace_canonical(products.T)
    )
    return EquationSystem(kind="Laplace2" if k == 2 else "LaplaceK", order=k, algebra=algebra,
                          equations=equations)


def gen_laplace(algebra: Algebra) -> EquationSystem:
    """Second-order equations solved by every component of a differentiable
    function; one equation per nullspace direction of the symmetrized
    basis-product map."""
    return _laplace_system(algebra, 2)


def gen_laplace_k(algebra: Algebra, k: int) -> EquationSystem:
    """Order-k generalization of :func:`gen_laplace` over symmetric k-tensors."""
    return _laplace_system(algebra, k)


def check_residual(system: EquationSystem, f: ExprFn, grid) -> float:
    """Largest absolute residual of every equation at every grid point.

    Equations with ``component=None`` are applied to each scalar component
    of f separately; derivatives are exact symbolic partials.
    """
    X = np.array([f.algebra.element(p).coords for p in grid]).reshape(-1, f.algebra.dim)
    derivs: list = []
    blocks = []  # the coefficients of each applied equation, over its run of derivs
    for eq in system.equations:
        per_component = all(t.component is None for t in eq.terms)
        coeffs = np.array([t.coeff for t in eq.terms])
        for target in range(f.algebra.dim) if per_component else [None]:
            derivs.extend(
                derive(f.components[target if per_component else t.component], t.orders)
                for t in eq.terms
            )
            blocks.append(coeffs)
    values = eval_compiled(compile_expr(tuple(derivs)), X)
    worst, start = 0.0, 0
    for coeffs in blocks:
        residuals = values[:, start:start + len(coeffs)] @ coeffs
        start += len(coeffs)
        worst = max(worst, float(np.max(np.abs(residuals), initial=0.0)))
    return worst


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_DEFAULT_COMPONENTS = {2: ("u", "v"), 3: ("u", "v", "w")}


def _names(given, n: int, kind: str, default) -> tuple[str, ...]:
    """The n given names, else ``default``."""
    if given is None:
        return default
    if len(given := tuple(given)) != n:
        raise DimensionMismatch(f"expected {n} {kind} names, got {len(given)}")
    return given


def _fmt_coeff(c: float) -> str:
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
    return f"{_fmt_coeff(c)}*{base}" if not latex else f"{_fmt_coeff(c)} {base}"


def render_system(system: EquationSystem, coords=None, components=None,
                  latex: bool = False) -> list[str]:
    """Human-readable equation strings, one per generated equation."""
    n = system.algebra.dim
    names = _names(coords, n, "coordinate",
                   ("x", "y", "z")[:n] if n <= 3 else tuple(f"x{i + 1}" for i in range(n)))
    comps = _names(components, n, "component",
                   _DEFAULT_COMPONENTS.get(n, tuple(f"u{i + 1}" for i in range(n))))
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
