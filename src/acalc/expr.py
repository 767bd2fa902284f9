"""Expression language for component functions of an algebra variable.

A function f on an n-dimensional algebra is given by n real component
expressions in the coordinates x1..xn.  Expressions support + - * / ,
integer powers, unary minus and sin/cos/exp/log/sqrt, and can be
differentiated symbolically, which serves as the exact oracle against the
finite-difference machinery elsewhere in the package.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .algebra import AElement, Algebra, _freeze
from .errors import (
    AlgebraMismatch,
    ArityError,
    DimensionMismatch,
    DomainError,
    ExprSyntaxError,
    UnknownVariable,
)

__all__ = [
    "Expr",
    "ExprFn",
    "conjugate_fn",
    "constant_fn",
    "derive",
    "diff",
    "evaluate",
    "exprfn_from_dict",
    "exprfn_mul",
    "identity_fn",
    "load_function",
    "parse",
    "poly_fn",
    "substitute",
    "to_str",
]


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Expr:
    """Base class for immutable expression nodes."""

    __slots__ = ()

    def __call__(self, point) -> float:
        return evaluate(self, point)


@dataclass(frozen=True)
class Lit(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")

_ZERO = Lit(0.0)
_ONE = Lit(1.0)


def lit(v: float) -> Expr:
    return Lit(float(v))


def var(i: int, name: str | None = None) -> Expr:
    return Var(i, name or f"x{i + 1}")


# smart constructors: fold constants and drop identity terms so that
# symbolic derivatives stay readable
def add(a: Expr, b: Expr) -> Expr:
    if a == _ZERO:
        return b
    if b == _ZERO:
        return a
    if isinstance(a, Lit) and isinstance(b, Lit):
        return Lit(a.value + b.value)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if b == _ZERO:
        return a
    if isinstance(a, Lit) and isinstance(b, Lit):
        return Lit(a.value - b.value)
    if a == _ZERO:
        return neg(b)
    return Sub(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Lit):
        return Lit(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def mul(a: Expr, b: Expr) -> Expr:
    if a == _ZERO or b == _ZERO:
        return _ZERO
    if a == _ONE:
        return b
    if b == _ONE:
        return a
    if isinstance(a, Lit) and isinstance(b, Lit):
        return Lit(a.value * b.value)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if b == _ONE:
        return a
    if a == _ZERO and not b == _ZERO:
        return _ZERO
    return Div(a, b)


def pow_(a: Expr, k: int) -> Expr:
    if k == 0:
        return _ONE
    if k == 1:
        return a
    if isinstance(a, Lit):
        return Lit(a.value ** k)
    return Pow(a, int(k))


def call(fn: str, arg: Expr) -> Expr:
    return Call(fn, arg)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)

_VAR_PATTERN = re.compile(r"^x(\d+)$")


class _Parser:
    def __init__(self, src: str, dim: int, names: dict[str, int] | None):
        self.src = src
        self.dim = dim
        self.names = names or {}
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(src):
            if src[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(src, pos)
            if m is None:
                raise ExprSyntaxError(pos, "a number, name or operator")
            kind = m.lastgroup
            self.tokens.append((kind, m.group(), pos))
            pos = m.end()
        self.tokens.append(("end", "", len(src)))
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        kind, text, pos = self.peek()
        if text != value:
            raise ExprSyntaxError(pos, f"'{value}'")
        self.advance()

    def parse(self) -> Expr:
        e = self.expression()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(pos, "end of input or an operator")
        return e

    def expression(self) -> Expr:
        e = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            rhs = self.factor()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def factor(self) -> Expr:
        if self.peek()[1] == "-":
            self.advance()
            return neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[1] == "^":
            _, _, caret_pos = self.advance()
            exponent = self.factor()  # right-associative; may itself be a power
            k = _const_int(exponent)
            if k is None:
                raise ExprSyntaxError(caret_pos, "an integer exponent")
            return pow_(base, k)
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Lit(float(text))
        if text == "(":
            e = self.expression()
            self.expect(")")
            return e
        if kind == "name":
            if self.peek()[1] == "(":
                if text not in FUNCTIONS:
                    raise UnknownVariable(text, pos)
                self.advance()
                args = [self.expression()]
                while self.peek()[1] == ",":
                    self.advance()
                    args.append(self.expression())
                self.expect(")")
                if len(args) != 1:
                    raise ArityError(text, pos, len(args))
                return Call(text, args[0])
            if text in self.names:
                return Var(self.names[text], text)
            m = _VAR_PATTERN.match(text)
            if m:
                idx = int(m.group(1))
                if 1 <= idx <= self.dim:
                    return Var(idx - 1, text)
            raise UnknownVariable(text, pos)
        raise ExprSyntaxError(pos, "a number, variable or '('")


def _const_int(e: Expr) -> int | None:
    v = _const_value(e)
    if v is None or v != int(v):
        return None
    return int(v)


def _const_value(e: Expr) -> float | None:
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Neg):
        v = _const_value(e.arg)
        return None if v is None else -v
    if isinstance(e, Pow):
        v = _const_value(e.base)
        return None if v is None else v ** e.exponent
    return None


def parse(src: str, dim: int, names: dict[str, int] | None = None) -> Expr:
    """Parse a component expression over variables x1..x<dim>.

    ``names`` may map extra variable names to coordinate indices (used for
    the curve parameter ``t``).
    """
    return _Parser(src, dim, names).parse()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _checked_div(a: float, b: float) -> float:
    if b == 0.0:
        raise DomainError("division by zero")
    return a / b


def _checked_pow(a: float, k: int) -> float:
    if a == 0.0 and k < 0:
        raise DomainError("zero raised to a negative power")
    return a ** k


def _checked_log(a: float) -> float:
    if a <= 0.0:
        raise DomainError(f"log of non-positive value {a:g}")
    return math.log(a)


def _checked_sqrt(a: float) -> float:
    if a < 0.0:
        raise DomainError(f"sqrt of negative value {a:g}")
    return math.sqrt(a)


_CALLS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": _checked_log,
    "sqrt": _checked_sqrt,
}


def evaluate(e: Expr, point) -> float:
    """Interpret the tree at a coordinate point (sequence of reals)."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        return float(point[e.index])
    if isinstance(e, Neg):
        return -evaluate(e.arg, point)
    if isinstance(e, Add):
        return evaluate(e.left, point) + evaluate(e.right, point)
    if isinstance(e, Sub):
        return evaluate(e.left, point) - evaluate(e.right, point)
    if isinstance(e, Mul):
        return evaluate(e.left, point) * evaluate(e.right, point)
    if isinstance(e, Div):
        return _checked_div(evaluate(e.left, point), evaluate(e.right, point))
    if isinstance(e, Pow):
        return _checked_pow(evaluate(e.base, point), e.exponent)
    if isinstance(e, Call):
        return _CALLS[e.fn](evaluate(e.arg, point))
    raise TypeError(f"not an expression node: {e!r}")


def _source(e: Expr) -> str:
    if isinstance(e, Lit):
        return repr(e.value)
    if isinstance(e, Var):
        return f"x[{e.index}]"
    if isinstance(e, Neg):
        return f"(-{_source(e.arg)})"
    if isinstance(e, Add):
        return f"({_source(e.left)}+{_source(e.right)})"
    if isinstance(e, Sub):
        return f"({_source(e.left)}-{_source(e.right)})"
    if isinstance(e, Mul):
        return f"({_source(e.left)}*{_source(e.right)})"
    if isinstance(e, Div):
        return f"_div({_source(e.left)},{_source(e.right)})"
    if isinstance(e, Pow):
        return f"_pow({_source(e.base)},{e.exponent})"
    if isinstance(e, Call):
        return f"_{e.fn}({_source(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


_COMPILE_NS = {
    "_div": _checked_div,
    "_pow": _checked_pow,
    "_log": _checked_log,
    "_sqrt": _checked_sqrt,
    "_sin": math.sin,
    "_cos": math.cos,
    "_exp": math.exp,
}


@lru_cache(maxsize=4096)
def compile_expr(e: Expr):
    """Compile a tree to a plain Python callable of the coordinate vector."""
    return eval(f"lambda x: {_source(e)}", dict(_COMPILE_NS))


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4}


def _prec(e: Expr) -> int:
    return _PREC.get(type(e), 5)


def _wrap(e: Expr, parent_prec: int, strict: bool = False) -> str:
    s = to_str(e)
    p = _prec(e)
    if p < parent_prec or (strict and p == parent_prec):
        return f"({s})"
    return s


def to_str(e: Expr) -> str:
    """Render with minimal parentheses; reparsing evaluates identically."""
    if isinstance(e, Lit):
        # full repr precision so that printing and reparsing round-trips
        s = str(int(e.value)) if e.value == int(e.value) and abs(e.value) < 1e15 else repr(e.value)
        return f"({s})" if e.value < 0 else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"-{_wrap(e.arg, 3, strict=True)}"
    if isinstance(e, Add):
        return f"{_wrap(e.left, 1)} + {_wrap(e.right, 1, strict=True)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.left, 1)} - {_wrap(e.right, 1, strict=True)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.left, 2)}*{_wrap(e.right, 2, strict=True)}"
    if isinstance(e, Div):
        return f"{_wrap(e.left, 2)}/{_wrap(e.right, 2, strict=True)}"
    if isinstance(e, Pow):
        exp = str(e.exponent) if e.exponent >= 0 else f"({e.exponent})"
        return f"{_wrap(e.base, 4, strict=True)}^{exp}"
    if isinstance(e, Call):
        return f"{e.fn}({to_str(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# symbolic differentiation and substitution
# ---------------------------------------------------------------------------

@lru_cache(maxsize=65536)
def diff(e: Expr, i: int) -> Expr:
    """Exact partial derivative with respect to coordinate i (0-based)."""
    if isinstance(e, Lit):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.index == i else _ZERO
    if isinstance(e, Neg):
        return neg(diff(e.arg, i))
    if isinstance(e, Add):
        return add(diff(e.left, i), diff(e.right, i))
    if isinstance(e, Sub):
        return sub(diff(e.left, i), diff(e.right, i))
    if isinstance(e, Mul):
        return add(mul(diff(e.left, i), e.right), mul(e.left, diff(e.right, i)))
    if isinstance(e, Div):
        num = sub(mul(diff(e.left, i), e.right), mul(e.left, diff(e.right, i)))
        return div(num, pow_(e.right, 2))
    if isinstance(e, Pow):
        du = diff(e.base, i)
        return mul(mul(lit(e.exponent), pow_(e.base, e.exponent - 1)), du)
    if isinstance(e, Call):
        du = diff(e.arg, i)
        u = e.arg
        if e.fn == "sin":
            return mul(call("cos", u), du)
        if e.fn == "cos":
            return neg(mul(call("sin", u), du))
        if e.fn == "exp":
            return mul(call("exp", u), du)
        if e.fn == "log":
            return div(du, u)
        if e.fn == "sqrt":
            return div(du, mul(lit(2.0), call("sqrt", u)))
    raise TypeError(f"not an expression node: {e!r}")


@lru_cache(maxsize=16384)
def derive(e: Expr, orders: tuple[int, ...]) -> Expr:
    """Iterated partial derivative by a multi-index of per-coordinate orders."""
    out = e
    for i, k in enumerate(orders):
        for _ in range(k):
            out = diff(out, i)
    return out


def substitute(e: Expr, mapping: dict[int, Expr]) -> Expr:
    """Replace variables by expressions (used for composition)."""
    if isinstance(e, Lit):
        return e
    if isinstance(e, Var):
        return mapping.get(e.index, e)
    if isinstance(e, Neg):
        return neg(substitute(e.arg, mapping))
    if isinstance(e, Add):
        return add(substitute(e.left, mapping), substitute(e.right, mapping))
    if isinstance(e, Sub):
        return sub(substitute(e.left, mapping), substitute(e.right, mapping))
    if isinstance(e, Mul):
        return mul(substitute(e.left, mapping), substitute(e.right, mapping))
    if isinstance(e, Div):
        return div(substitute(e.left, mapping), substitute(e.right, mapping))
    if isinstance(e, Pow):
        return pow_(substitute(e.base, mapping), e.exponent)
    if isinstance(e, Call):
        return call(e.fn, substitute(e.arg, mapping))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# algebra-valued functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExprFn:
    """A function A -> A given by one component expression per coordinate.

    The compiled components and the partial derivatives are built on first
    use and held, so repeated evaluation does not hash the trees again.
    """

    algebra: Algebra
    components: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.components) != self.algebra.dim:
            raise DimensionMismatch(
                f"expected {self.algebra.dim} components, got {len(self.components)}"
            )

    def __call__(self, point) -> AElement:
        coords = self.eval_coords(point)
        return AElement(self.algebra, _freeze(coords))

    def eval_coords(self, point) -> np.ndarray:
        if isinstance(point, AElement):
            if point.algebra is not self.algebra and not point.algebra.same_structure(self.algebra):
                raise AlgebraMismatch("point belongs to a different algebra")
            x = point.coords
        else:
            x = np.asarray(point, dtype=float)
        return np.array([fn(x) for fn in self._compiled])

    @cached_property
    def _compiled(self) -> tuple:
        return tuple(compile_expr(c) for c in self.components)

    @cached_property
    def _partials(self) -> tuple["ExprFn", ...]:
        return tuple(
            ExprFn(self.algebra, tuple(diff(c, i) for c in self.components))
            for i in range(self.algebra.dim)
        )

    def partial(self, i: int) -> "ExprFn":
        """Componentwise exact partial derivative with respect to x_{i+1}."""
        return self._partials[i]

    def directional(self, coords) -> "ExprFn":
        """Directional derivative sum_i c_i d/dx_i (still an ExprFn).

        Along the unity coordinates this is the derivative function of a
        differentiable f; it reduces to d/dx1 when the unity is the first
        basis vector.
        """
        comps = []
        for comp in self.components:
            s: Expr = _ZERO
            for i, c in enumerate(np.asarray(coords, dtype=float)):
                if c != 0.0:
                    s = add(s, mul(lit(c), diff(comp, i)))
            comps.append(s)
        return ExprFn(self.algebra, tuple(comps))


def constant_fn(algebra: Algebra, value: AElement) -> ExprFn:
    return ExprFn(algebra, tuple(lit(v) for v in value.coords))


def identity_fn(algebra: Algebra) -> ExprFn:
    return ExprFn(algebra, tuple(var(i) for i in range(algebra.dim)))


def conjugate_fn(algebra: Algebra, j: int) -> ExprFn:
    """The j-th conjugate (2-based): coordinate j sign-flipped, rest identity."""
    n = algebra.dim
    if not 2 <= j <= n:
        raise DimensionMismatch(f"conjugate index must be in 2..{n}")
    comps = [var(i) for i in range(n)]
    comps[j - 1] = neg(comps[j - 1])
    return ExprFn(algebra, tuple(comps))


def _sym_product(algebra: Algebra, u: tuple[Expr, ...], v: tuple[Expr, ...]) -> tuple[Expr, ...]:
    C = algebra.structure
    n = algebra.dim
    out = []
    for k in range(n):
        s: Expr = _ZERO
        for i in range(n):
            if u[i] == _ZERO:
                continue
            for j in range(n):
                c = C[i, j, k]
                if c != 0.0 and v[j] != _ZERO:
                    s = add(s, mul(lit(c), mul(u[i], v[j])))
        out.append(s)
    return tuple(out)


def exprfn_mul(f: ExprFn, g: ExprFn) -> ExprFn:
    """Symbolic algebra product of two functions: (f*g)(z) = f(z)*g(z)."""
    if not f.algebra.same_structure(g.algebra):
        raise AlgebraMismatch("functions live on different algebras")
    return ExprFn(f.algebra, _sym_product(f.algebra, f.components, g.components))


def poly_fn(algebra: Algebra, coeffs) -> ExprFn:
    """Polynomial c0 + c1*z + c2*z^2 + ... expanded into component expressions.

    Coefficients may be elements of the algebra or real scalars (taken as
    scalar multiples of the unity).
    """
    coeffs = list(coeffs)
    n = algebra.dim
    zeta = tuple(var(i) for i in range(n))
    power = tuple(lit(v) for v in algebra.unity)  # z^0
    comps: list[Expr] = [_ZERO] * n
    for k, c in enumerate(coeffs):
        if isinstance(c, AElement):
            if not c.algebra.same_structure(algebra):
                raise AlgebraMismatch("coefficient belongs to a different algebra")
            c_coords = c.coords
        else:
            c_coords = float(c) * algebra.unity
        if any(v != 0.0 for v in c_coords):
            c_exprs = tuple(lit(v) for v in c_coords)
            term = _sym_product(algebra, c_exprs, power)
            comps = [add(s, t) for s, t in zip(comps, term)]
        if k + 1 < len(coeffs):
            power = _sym_product(algebra, power, zeta)
    return ExprFn(algebra, tuple(comps))


# ---------------------------------------------------------------------------
# function files
# ---------------------------------------------------------------------------

def exprfn_from_dict(doc: dict, algebra: Algebra) -> ExprFn:
    if "poly" in doc:
        coeffs = [algebra.element(c) if isinstance(c, (list, tuple)) else float(c)
                  for c in doc["poly"]]
        return poly_fn(algebra, coeffs)
    comps = doc["components"]
    if len(comps) != algebra.dim:
        raise DimensionMismatch(
            f"function needs {algebra.dim} components, got {len(comps)}"
        )
    return ExprFn(algebra, tuple(parse(src, algebra.dim) for src in comps))


def load_function(path: str, algebra: Algebra | None = None) -> ExprFn:
    """Load a function file: algebra name plus components or poly coefficients."""
    from .fixtures import get_algebra

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if algebra is None:
        algebra = get_algebra(doc["algebra"])
    return exprfn_from_dict(doc, algebra)
