"""Oracles for the tests: routes that do not go through the compiled kernels.

- :func:`interpret` walks expression trees and applies each operator's
  primitive from ``expr._OPS``, for any number type.  On floats it gives the
  compiled kernels' values bit for bit.  On ``Fraction`` it is exact, since
  every constant and every float coordinate is a binary rational.
- :func:`cr_residual` and :func:`exact_cr_residual` give the generalized
  Cauchy-Riemann residual P vec(J) in rational arithmetic.
- :func:`minimal_polynomial_witness` finds a zero-divisor witness from the
  minimal polynomial, a cross-check of the SVD in ``classify``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from acalc.algebra import AElement, _freeze, regrep
from acalc.errors import DomainError
from acalc.expr import _NOT_FINITE, _OPS, Lit, Var, _postorder


def _apply(fn, e, operands):
    """``fn`` of ``operands`` and, for ``^``, the exponent."""
    return fn(*operands) if e.k is None else fn(*operands, e.k)


def interpret(trees, point, num=float) -> list:
    """The value of each tree at a coordinate point, by one walk over the
    trees' distinct nodes; coordinates and constants are read as ``num``.

    As in compiled evaluation, only the results must be finite: ``1/exp(x1)``
    at x1 = 1000 is 0, and ``exp(x1)`` there raises DomainError.
    """
    values: dict = {}

    def value(a):
        return num(a.value) if isinstance(a, Lit) else values[a]

    for node in _postorder(trees):
        values[node] = (num(point[node.index]) if isinstance(node, Var)
                        else _apply(_OPS[node.op].fn, node, [value(a) for a in node.args]))
    out = [value(e) for e in trees]
    if any(isinstance(v, float) and not math.isfinite(v) for v in out):
        raise DomainError(_NOT_FINITE)
    return out


def evaluate(e, point, num=float):
    """The value of one tree at a point (see :func:`interpret`)."""
    return interpret((e,), point, num)[0]


def cr_residual(algebra, vec) -> list[Fraction]:
    """P vec(J) in rationals: the entries of vec(J) and of the held projector
    P = ``algebra.cr_projector`` are read at their exact binary values."""
    return [sum((Fraction(c) * Fraction(v) for c, v in zip(row, vec) if c), Fraction(0))
            for row in algebra.cr_projector.tolist()]


def exact_cr_residual(f, p) -> list[Fraction]:
    """P vec(J) of the function ``f`` at the point ``p``, exactly, with vec(J)
    from the interpreter in rationals over the trees of ``f._vec``."""
    coords = p.coords.tolist() if isinstance(p, AElement) else p
    return cr_residual(f.algebra, interpret(f._vec, coords, Fraction))


def minimal_polynomial_witness(x: AElement) -> AElement | None:
    """Exact zero-divisor witness from the minimal polynomial of x.

    M is faithful (M(x) 1 = x) and multiplicative, so p(M(x)) = M(p(x)) is
    zero exactly when p(x) is: M(x) and x have one minimal polynomial,
    t^k - sum_{m<k} a_m t^m, read from the first power x^k = M(x)^k 1 that
    depends on the powers below it.  If a_0 != 0, x is a unit: None.  Else
    p(t) = t q(t), and b = q(x) is nonzero, as the powers below x^k are
    independent, with x*b = b*x = p(x) = 0; b is scaled exactly to a largest
    entry of 1, then to unit norm.  The arithmetic is rational (floats are
    taken at their exact binary values), so on integer structure tensors
    this is an independent cross-check of the SVD witness of ``classify``.
    """
    n = x.algebra.dim
    M = [[Fraction(v) for v in row] for row in regrep(x).tolist()]
    powers = [[Fraction(v) for v in x.algebra.unity.tolist()]]
    for _ in range(n):
        powers.append([sum(a * v for a, v in zip(row, powers[-1])) for row in M])
    # Gauss-Jordan over the columns x^0, ..., x^n up to the first without a
    # pivot, x^k; the powers below it are independent, so column m takes its
    # pivot in row m, and x^k = sum_m aug[m][k] x^m
    aug = [list(row) for row in zip(*powers)]
    k = 0
    while (pivot := next((i for i in range(k, n) if aug[i][k] != 0), None)) is not None:
        aug[k], aug[pivot] = aug[pivot], aug[k]
        aug[k] = [v / aug[k][k] for v in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                aug[i] = [v - aug[i][k] * w for v, w in zip(aug[i], aug[k])]
        k += 1
    if aug[0][k] != 0:
        return None
    # q(x) = x^(k-1) - sum_{0<m<k} a_m x^(m-1), a_m = aug[m][k]
    b = [powers[k - 1][i] - sum(aug[m][k] * powers[m - 1][i] for m in range(1, k)) for i in range(n)]
    largest = max(map(abs, b))
    b = np.array([float(v / largest) for v in b])
    return AElement(x.algebra, _freeze(b / np.linalg.norm(b)))
