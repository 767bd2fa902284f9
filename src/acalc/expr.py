"""Expression language for component functions of an algebra variable.

A function f on an n-dimensional algebra is given by n real component
expressions in the coordinates x1..xn.  Expressions support + - * / ,
integer powers, unary minus and sin/cos/exp/log/sqrt, and are
differentiated exactly: every differentiability verdict of the package reads
these partials, and central differences remain only as a test oracle.

A tree holds constants (``Lit``), coordinates (``Var``) and operators
(``Op``).  The table ``_OPS`` is the one place that defines an operator: its
primitive for points, batches and constant folds, its compiled and printed
forms, its precedence and its derivative rule.  Parsing, compiling, printing
and differentiation only read it; substitution rebuilds each node as it is,
so a composed tree evaluates every operand that the original one did.  The
package evaluates a tree only through a compiled kernel.

Every constant is finite.  Two constants fold to one through the operator's
primitive; a fold that the primitive refuses or whose value is not finite
stays a node, which evaluation refuses at every point, also under an
operation that would absorb its value (1/inf is 0).  Whether a node is
refused is decided once, where it is built (``Op.refused``).
"""

from __future__ import annotations

import math
import operator
import re
import weakref
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

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

    __slots__ = ("__weakref__",)  # for the node table of Op
    refused = False  # only an Op can be refused, see Op.refused


@dataclass(frozen=True)
class Lit(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int
    name: str


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Op(Expr):
    """Operator ``op`` (a key of ``_OPS``) applied to ``args``; ``k`` is the
    exponent of ``^``, else None.  Nodes are hash-consed: the constructor returns
    the live node with equal fields from ``_NODES`` if there is one, so equal
    trees are one object, and equality and hashing are identity, whatever the
    tree's size.  ``partials`` maps a coordinate to the node's partial
    derivative, taken by :func:`diff` and held as long as the node lives.
    ``refused``, set once here, is true for a fold that stayed a node and for
    a node over a refused one: evaluation refuses such a node at every point."""

    op: str
    args: tuple[Expr, ...]
    k: int | None = None
    partials: dict[int, Expr] = field(repr=False)
    refused: bool = field(repr=False)

    def __new__(cls, op: str, args: tuple[Expr, ...], k: int | None = None) -> "Op":
        key = (op, args, k)
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            object.__setattr__(node, "op", op)
            object.__setattr__(node, "args", args)
            object.__setattr__(node, "k", k)
            object.__setattr__(node, "partials", {})
            # an operator has one or two operands
            object.__setattr__(node, "refused", args[0].refused or args[-1].refused or (
                isinstance(args[0], Lit) and isinstance(args[-1], Lit) and _folded(op, args, k) is None))
            _NODES[key] = node
        return node

    def __reduce__(self):
        # the tree as a flat list, so that a deep one pickles without
        # recursion; copy, deepcopy and unpickling return the live node
        order = _postorder((self,))
        index = {e: j for j, e in enumerate(order)}
        return _rebuild, ([e if isinstance(e, Var) else
                           (e.op, tuple(index.get(a, a) for a in e.args), e.k) for e in order],)

    def __repr__(self) -> str:
        # the walk of to_str, not the dataclass repr's recursion through args
        return f"Op({to_str(self)!r})"


_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _rebuild(entries) -> Expr:
    """The tree that ``Op.__reduce__`` flattened: each entry is a coordinate or
    (op, operands, k), an operand being a constant or the index of an earlier
    entry; the last entry is the root."""
    built: list[Expr] = []
    for entry in entries:
        if not isinstance(entry, Var):
            op, args, k = entry
            entry = Op(op, tuple(built[a] if isinstance(a, int) else a for a in args), k)
        built.append(entry)
    return built[-1]


_ZERO = Lit(0.0)
_ONE = Lit(1.0)


def lit(v: float) -> Lit:
    """The constant ``v``; one that is not finite is refused here, where it
    enters a tree, as a compiled kernel could not name it."""
    # + 0.0 makes -0.0 a plain zero: Lit(-0.0) prints as 0 and is equal to
    # Lit(0.0), so a node or a kernel built over one would serve the other
    value = float(v) + 0.0
    if not math.isfinite(value):
        raise DomainError(f"constant {value!r} is not finite")
    return Lit(value)


def var(i: int, name: str | None = None) -> Expr:
    return Var(i, name or f"x{i + 1}")


def _binary(op: str, a: Expr, b: Expr) -> Expr:
    """``a op b``; two constants fold by :func:`_fold`."""
    if isinstance(a, Lit) and isinstance(b, Lit):
        return _fold(op, (a, b))
    return Op(op, (a, b))


# smart constructors: fold constants and drop identity terms so that
# symbolic derivatives stay readable
def add(a: Expr, b: Expr) -> Expr:
    if a == _ZERO:
        return b
    if b == _ZERO:
        return a
    return _binary("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if b == _ZERO:
        return a
    if a == _ZERO:
        return neg(b)
    return _binary("-", a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Lit):
        return lit(-a.value)
    if isinstance(a, Op) and a.op == "neg":
        return a.args[0]
    return Op("neg", (a,))


def mul(a: Expr, b: Expr) -> Expr:
    if a == _ZERO or b == _ZERO:
        return _ZERO
    if a == _ONE:
        return b
    if b == _ONE:
        return a
    return _binary("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if b == _ONE:
        return a
    if a == _ZERO and not b == _ZERO:
        return _ZERO
    return _binary("/", a, b)


def pow_(a: Expr, k: int) -> Expr:
    if k == 0:
        return _ONE
    if k == 1:
        return a
    if isinstance(a, Lit):
        return _fold("^", (a,), int(k))
    return Op("^", (a,), int(k))


def call(fn: str, arg: Expr) -> Expr:
    return Op(fn, (arg,))


# ---------------------------------------------------------------------------
# the operator table
# ---------------------------------------------------------------------------

# Every primitive takes a float (one point), which goes to ``math`` and keeps
# single-point calls cheap, or an array (one entry per point of a batch), which
# goes to numpy.  A value outside the real domain raises DomainError on both
# routes; an overflow gives numpy's inf or nan on both, which evaluation then
# refuses.  The float route of each primitive is a function of its own, its
# ``point``, which the dual primitive calls and a report function binds.

def _point_div(a: float, b: float) -> float:
    if b == 0.0:
        raise DomainError("division by zero")
    return a / b


def _div(a, b):
    if isinstance(b, np.ndarray):
        return a / b if b.all() else _point_div(a, 0.0)  # raises the one message
    return _point_div(a, b)


def _point_pow(a: float, k: int) -> float:
    if k < 0 and a == 0.0:
        raise DomainError("zero raised to a negative power")
    try:
        return a ** k
    except OverflowError:
        return math.copysign(math.inf, a) if k % 2 else math.inf


def _pow(a, k: int):
    if isinstance(a, np.ndarray):
        return a ** k if k >= 0 or a.all() else _point_pow(0.0, k)  # raises the one message
    return _point_pow(a, k)


def _primitive(scalar, vector, fallback=math.nan, invalid=None, message=""):
    """A primitive's two routes: ``point`` sends a float to ``scalar``, and the
    dual one sends an array to ``vector`` and anything else to ``point``.

    ``fallback`` is numpy's value where ``math`` raises (an overflowing exp,
    the sine of an infinity); ``invalid`` flags arguments outside the domain.
    """
    def point(a: float) -> float:
        if invalid is not None and invalid(a):
            raise DomainError(f"{message} {a:g}")
        try:
            return scalar(a)
        except (OverflowError, ValueError):
            return fallback

    def fn(a):
        if not isinstance(a, np.ndarray):
            return point(a)
        if invalid is not None and invalid(a).any():
            raise DomainError(f"{message} {np.min(a):g}")
        return vector(a)

    return fn, point


class _Operator(NamedTuple):
    fn: Callable      # the primitive, for evaluation, compiled code and folds
    source: str       # compiled template: {0}, {1} are the operands, {k} the exponent
    text: str         # printed template over the printed operands
    prec: int         # printing precedence
    rule: Callable    # rule(e, d): the derivative of e, d that of each operand
    point: Callable | None = None  # fn's float route, where the template calls fn


_ATOM = 5  # the precedence of constants, coordinates and calls


def _function(name: str, routes, rule) -> _Operator:
    # its operand is one above every precedence, so it prints in parentheses
    fn, point = routes
    return _Operator(fn, f"_{name}({{0}})", f"{name}{{0}}", _ATOM, rule, point=point)


_OPS = {
    "+": _Operator(operator.add, "({0}+{1})", "{0} + {1}", 1, lambda e, d: add(*d)),
    "-": _Operator(operator.sub, "({0}-{1})", "{0} - {1}", 1, lambda e, d: sub(*d)),
    "*": _Operator(operator.mul, "({0}*{1})", "{0}*{1}", 2,
                   lambda e, d: add(mul(d[0], e.args[1]), mul(e.args[0], d[1]))),
    # (u/v)' = (u' - (u/v) v') / v, which needs no v^2 that could overflow
    "/": _Operator(_div, "_div({0},{1})", "{0}/{1}", 2,
                   lambda e, d: div(sub(d[0], mul(e, d[1])), e.args[1]), _point_div),
    "neg": _Operator(operator.neg, "(-{0})", "-{0}", 3, lambda e, d: neg(*d)),
    "^": _Operator(_pow, "_pow({0},{k})", "{0}^{k}", 4,
                   lambda e, d: mul(mul(lit(e.k), pow_(e.args[0], e.k - 1)), *d), _point_pow),
    "sin": _function("sin", _primitive(math.sin, np.sin),
                     lambda e, d: mul(call("cos", *e.args), *d)),
    "cos": _function("cos", _primitive(math.cos, np.cos),
                     lambda e, d: neg(mul(call("sin", *e.args), *d))),
    "exp": _function("exp", _primitive(math.exp, np.exp, fallback=math.inf),
                     lambda e, d: mul(e, *d)),
    "log": _function("log", _primitive(math.log, np.log, invalid=lambda a: a <= 0.0,
                                       message="log of non-positive value"),
                     lambda e, d: div(*d, *e.args)),
    "sqrt": _function("sqrt", _primitive(math.sqrt, np.sqrt, invalid=lambda a: a < 0.0,
                                         message="sqrt of negative value"),
                      lambda e, d: div(*d, mul(lit(2.0), e))),
}

FUNCTIONS = tuple(name for name, o in _OPS.items() if o.prec == _ATOM)
# the precedence of each binary operator, + - * /: those printed with two operands
_BINARY = {name: o.prec for name, o in _OPS.items() if "{1}" in o.text}


def _postorder(roots, skip=None) -> list[Expr]:
    """Each distinct coordinate and operator node of the trees ``roots`` once,
    after its operands, in the order the trees evaluate, by a walk with its own
    stack; constants, and the operator nodes for which ``skip`` is true, with
    what is reached only through them, are left out."""
    order: list[Expr] = []
    walked: dict[Expr, bool] = {}  # False while a node's operands are walked, then True
    stack = list(reversed(roots))
    while stack:
        e = stack.pop()
        if isinstance(e, Lit):
            continue
        state = walked.get(e)
        if state:
            continue
        if state is False or isinstance(e, Var):
            walked[e] = True
            order.append(e)
        elif skip is None or not skip(e):
            walked[e] = False
            stack.append(e)
            stack.extend(reversed(e.args))
    return order


def _folded(op: str, args: tuple[Lit, ...], k: int | None = None) -> Lit | None:
    """The constant ``op`` gives on the constants ``args``, computed as
    evaluation computes it, or None where the primitive refuses them (1/0,
    0^(-1)) or the value is not finite (1e308+1e308, 2^65536)."""
    operands = [a.value for a in args] if k is None else [args[0].value, k]
    try:
        return lit(_OPS[op].fn(*operands))
    except DomainError:  # the primitive refuses the operands, or lit the value
        return None


def _fold(op: str, args: tuple[Lit, ...], k: int | None = None) -> Expr:
    """The fold of the smart constructors and the parser: the constant of
    :func:`_folded`, else the node as it is, which is refused.  So no tree
    fails where it is built, and each prints as text that parses back to it."""
    value = _folded(op, args, k)
    return Op(op, args, k) if value is None else value


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)

_VAR_PATTERN = re.compile(r"^x(\d+)$")

# deepest nesting parsed: well under the ~160 levels the recursive descent survives
MAX_NESTING = 100


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
        self.depth = 0

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
        e = self.binary(0)
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(pos, "end of input or an operator")
        return e

    def binary(self, prec: int) -> Expr:
        # factors joined by the operators binding at least as tightly as prec; a
        # right operand binds more tightly, so a - b - c is (a - b) - c
        e = self.factor()
        while (op := self.peek()[1]) in _BINARY and _BINARY[op] >= prec:
            self.advance()
            # constants fold, but no identity is dropped: 0*(1/x1) still fails at x1 = 0
            e = _binary(op, e, self.binary(_BINARY[op] + 1))
        return e

    def factor(self) -> Expr:
        # every nesting (parentheses, call, unary minus, exponent) passes here
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(self.peek()[2], f"at most {MAX_NESTING} levels of nesting")
        self.depth += 1
        if self.peek()[1] == "-":
            self.advance()
            e = neg(self.factor())
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[1] == "^":
            _, _, caret_pos = self.advance()
            exponent = self.factor()  # right-associative; may itself be a power
            k = _const_int(exponent)
            if k is None:
                raise ExprSyntaxError(caret_pos, "an integer exponent")
            if k == 0 and isinstance(base, Op):
                # no identity is dropped (see binary): (1/x1)^0 still fails at x1 = 0
                return Op("^", (base,), 0)
            return pow_(base, k)
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):  # a numeral past the float range
                raise ExprSyntaxError(pos, "a finite number")
            return Lit(value)
        if text == "(":
            e = self.binary(0)
            self.expect(")")
            return e
        if kind == "name":
            if self.peek()[1] == "(":
                if text not in FUNCTIONS:
                    raise UnknownVariable(text, pos)
                self.advance()
                args = [self.binary(0)]
                while self.peek()[1] == ",":
                    self.advance()
                    args.append(self.binary(0))
                self.expect(")")
                if len(args) != 1:
                    raise ArityError(text, pos, len(args))
                return call(text, args[0])
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
    """The value of an integer constant; the parser folds every constant
    exponent with a finite value to a ``Lit``, and every ``Lit`` is finite."""
    if isinstance(e, Lit) and e.value == int(e.value):
        return int(e.value)
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

_NOT_FINITE = "evaluation overflowed or gave a non-finite value"


def _kernel_lines(exprs: tuple[Expr, ...]) -> tuple[list[str], list[str]]:
    """A line ``tN = ...`` per distinct operator node of ``exprs``, in the
    order the trees evaluate, and a line ``xI = x[I]`` per coordinate read;
    then the name, or the inlined constant, that holds each tree's value.

    A division by a nonzero constant is the inline ``(a/c)``, which gives
    the bits of ``_div`` on both routes, as its float route returns a / c
    there; a division by the constant 0 keeps ``_div`` and its message.

    The line of a node over a refused one (see ``Op.refused``) passes its
    value through :func:`_refused`: 1/inf is 0, but 1/(1e308+1e308) raises.
    A refused fold's own line needs no check: it raises or is not finite.  A
    tree's own value is left to the caller, as every value that is not finite
    is: the verdict rescales an overflowing Cauchy-Riemann row."""
    names: dict[Expr, str] = {}
    lines = []

    def name(a: Expr) -> str:
        return repr(a.value) if isinstance(a, Lit) else names[a]

    for e in _postorder(exprs):
        if isinstance(e, Var):
            # a batch row is a new view on every x[I], so read it once
            source, names[e] = f"x[{e.index}]", f"x{e.index}"
        else:
            template = ("({0}/{1})" if e.op == "/" and isinstance(e.args[1], Lit) and e.args[1].value != 0.0
                        else _OPS[e.op].source)
            source, names[e] = template.format(*map(name, e.args), k=e.k), f"t{len(names)}"
            if any(a.refused for a in e.args):
                source = f"_refused({source})"
        lines.append(f"    {names[e]} = {source}")
    return lines, [name(e) for e in exprs]


def _kernel_source(exprs: tuple[Expr, ...]) -> str:
    """One ``def`` of the lines of :func:`_kernel_lines` that returns the
    value of every tree."""
    lines, values = _kernel_lines(exprs)
    return "\n".join(["def kernel(x):", *lines, f"    return ({''.join(v + ',' for v in values)})"])


def _refused(value):
    """A float or array over a refused node, which raises where it is finite."""
    if np.isfinite(value).any():
        raise DomainError(_NOT_FINITE)
    return value


# the names the compiled templates call, such as _div: the dual primitives in a
# kernel, and their float routes in a function that only ever sees one point
_COMPILE_NS = {o.source.partition("(")[0]: o.fn for o in _OPS.values() if o.point}
_POINT_NS = {o.source.partition("(")[0]: o.point for o in _OPS.values() if o.point}


@lru_cache(maxsize=4096)
def compile_expr(exprs: tuple[Expr, ...]):
    """Compile a tuple of trees to one kernel: a Python function of the
    coordinates ``x`` that returns the tuple of their values.

    A subterm that several trees share is computed once.  ``x[i]`` may be a
    float or an array of one coordinate over a batch of points; each value is
    then a float or an array (a constant stays a float).  The one verdict at a
    point is a function of its own (see :func:`acalc.calculus.adiff_test`).
    """
    namespace = {**_COMPILE_NS, "_refused": _refused}
    exec(_kernel_source(exprs), namespace)
    return namespace["kernel"]


def eval_compiled(kernel, x: np.ndarray) -> np.ndarray:
    """Evaluate a kernel at one point ``(n,)`` -> ``(k,)`` or at a batch
    ``(m, n)`` -> ``(m, k)``, one column per compiled tree.

    A point is passed as floats, so the primitives take their ``math`` route;
    a batch is passed transposed, so each ``x[i]`` is one coordinate over all
    points, and constant results are broadcast to the batch.  A non-finite
    result raises DomainError, on either route.
    """
    if x.ndim == 1:
        values = kernel(x.tolist())
        if all(map(math.isfinite, values)):
            return np.array(values)
    else:
        with np.errstate(all="ignore"):  # an overflow is refused below, not warned about
            columns = kernel(x.T)
        values = np.empty((len(columns), len(x)))
        for j, column in enumerate(columns):
            values[j] = column
        if np.isfinite(values).all():
            return values.T
    raise DomainError(_NOT_FINITE)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def to_str(e: Expr) -> str:
    """Render with minimal parentheses; reparsing evaluates identically."""
    order = _postorder((e,))
    # a text is dropped at its last use: a long chain holds no text per prefix
    uses = Counter(a for node in order if isinstance(node, Op) for a in node.args)
    printed: dict[Expr, tuple[str, int]] = {}

    def text(a: Expr, prec: int = 0) -> str:
        if isinstance(a, Lit):
            # full repr precision so that printing and reparsing round-trips
            s = str(int(a.value)) if a.value == int(a.value) and abs(a.value) < 1e15 else repr(a.value)
            s, p = (f"({s})" if a.value < 0 else s), _ATOM
        else:
            uses[a] -= 1
            s, p = printed[a] if uses[a] else printed.pop(a)
        return f"({s})" if p < prec else s

    for node in order:
        if isinstance(node, Var):
            printed[node] = node.name, _ATOM
            continue
        o = _OPS[node.op]
        # an operand binding looser than the operator is parenthesised, and so is
        # the last one when it binds as loosely: a - (b - c), (x1^2)^3, -(-x1)
        last = len(node.args) - 1
        operands = [text(a, o.prec + (j == last)) for j, a in enumerate(node.args)]
        k = f"({node.k})" if node.k is not None and node.k < 0 else node.k
        printed[node] = o.text.format(*operands, k=k), o.prec
    return text(e)


# ---------------------------------------------------------------------------
# symbolic differentiation and substitution
# ---------------------------------------------------------------------------

@lru_cache(maxsize=65536)
def diff(e: Expr, i: int) -> Expr:
    """Exact partial derivative with respect to coordinate i (0-based).  Each
    node holds its partials, so its rule is applied once per coordinate, however
    many trees and calls share it.

    A refused node (see ``Op.refused``), which evaluation refuses at every
    point, has no finite value and so no finite derivative: its partial is
    ``0*node``, built past :func:`mul`, which is refused too.  A rule would
    drop it, as the partial of a constant is 0."""
    def partial_of(a: Expr) -> Expr:
        if isinstance(a, Op):
            return a.partials[i]
        return _ONE if isinstance(a, Var) and a.index == i else _ZERO

    for node in _postorder((e,), skip=lambda a: i in a.partials):
        if isinstance(node, Op):
            node.partials[i] = (Op("*", (_ZERO, node)) if node.refused
                                else _OPS[node.op].rule(node, [partial_of(a) for a in node.args]))
    return partial_of(e)


def derive(e: Expr, orders: tuple[int, ...]) -> Expr:
    """Iterated partial derivative by a multi-index of per-coordinate orders."""
    out = e
    for i, k in enumerate(orders):
        for _ in range(k):
            out = diff(out, i)
    return out


def substitute(exprs: tuple[Expr, ...], mapping: dict[int, Expr]) -> tuple[Expr, ...]:
    """Replace variables by expressions in every tree: the one composition.
    Each distinct node of all the trees is rebuilt once, as it is, with no
    constant fold and no identity dropped, so a factor 0 that the parser kept
    still evaluates its other operand, and a division by zero there raises
    where the composed tree is evaluated."""
    memo: dict[Expr, Expr] = {}
    for node in _postorder(exprs):
        memo[node] = (mapping.get(node.index, node) if isinstance(node, Var)
                      else Op(node.op, tuple(memo.get(a, a) for a in node.args), node.k))
    return tuple(memo.get(e, e) for e in exprs)


# ---------------------------------------------------------------------------
# algebra-valued functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExprFn:
    """A function A -> A given by one component expression per coordinate.

    The kernel of the components, the kernel of f and J, the verdict's
    report function and f' are built on first use and held, so repeated
    evaluation does not hash the trees again.  Every derivative is :meth:`directional`.
    """

    algebra: Algebra
    components: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.components) != self.algebra.dim:
            raise DimensionMismatch(
                f"expected {self.algebra.dim} components, got {len(self.components)}"
            )

    def __call__(self, point) -> AElement:
        coords = self.eval_coords(self.algebra.element(point))
        return AElement(self.algebra, _freeze(coords))

    def _coords(self, point) -> np.ndarray:
        """A point ``(n,)`` or a batch ``(m, n)`` as a float array."""
        if isinstance(point, AElement):
            return self.algebra.element(point).coords
        x = np.asarray(point, dtype=float)
        if x.shape[-1:] != (self.algebra.dim,) or x.ndim > 2:
            raise DimensionMismatch(
                f"expected a point ({self.algebra.dim},) or a batch (m, {self.algebra.dim}), "
                f"got shape {x.shape}"
            )
        return x

    def eval_coords(self, point) -> np.ndarray:
        """Coordinates of f at one point ``(n,)``, or at a batch ``(m, n)``
        with one row per point; raises DomainError on a non-finite value."""
        return eval_compiled(self._compiled, self._coords(point))

    def eval_jacobian(self, point) -> np.ndarray:
        """The exact Jacobian, J[k, i] = d f_k / d x_{i+1}, at one point
        ``(n,)`` -> ``(n, n)`` or at a batch ``(m, n)`` -> ``(m, n, n)``: the
        held Jacobian kernel's n^2 values after f's n components, which are J
        row by row.  Raises DomainError where f or an entry is not finite."""
        n = self.algebra.dim
        x = self._coords(point)
        return eval_compiled(self._jacobian, x)[..., n:].reshape(x.shape[:-1] + (n, n))

    @cached_property
    def _compiled(self):
        return compile_expr(self.components)

    @cached_property
    def _vec(self) -> tuple[Expr, ...]:
        """The trees of vec(J), J row by row."""
        n = self.algebra.dim
        return tuple(diff(c, i) for c in self.components for i in range(n))

    @cached_property
    def _jacobian(self):
        # f's components, then J row by row
        return compile_expr(self.components + self._vec)

    @cached_property
    def _report(self):
        # the verdict at a point over f and vec(J) (see calculus._compile_report)
        from .calculus import _compile_report

        return _compile_report(self.algebra, self.components + self._vec)

    def partial(self, i: int) -> "ExprFn":
        """Componentwise exact partial derivative with respect to x_{i+1}, the
        directional derivative along e_{i+1}; a new ExprFn on each call, which
        carries no refusal of f at a single point (see :meth:`directional`)."""
        n = self.algebra.dim
        try:
            k = operator.index(i)  # an integer type: 1.5 and "1" are refused
        except TypeError:
            k = -1
        if isinstance(i, bool) or not 0 <= k < n:
            raise DimensionMismatch(f"coordinate index must be an integer in 0..{n - 1}, got {i!r}")
        return self.directional(np.eye(n)[k])

    @cached_property
    def unity_derivative(self) -> "ExprFn":
        """The directional derivative along the unity, held: its value at p is
        J 1, and for a differentiable f it is the derivative function f'."""
        return self.directional(self.algebra.unity)

    def directional(self, coords) -> "ExprFn":
        """Directional derivative sum_i c_i d/dx_i (still an ExprFn), the one
        rule by which a derivative of f is formed.

        Along the unity coordinates this is the derivative function of a
        differentiable f; it reduces to d/dx1 when the unity is the first
        basis vector.  Each component is the combination of its partials with
        c as the one row (see :func:`_combine`); only the partials along
        nonzero c_i are taken.  A refusal of f at a single point is not carried
        into its derivatives: x1 + 0*(1/x1) is refused at x1 = 0, and its
        partial along x1 is 1 there; only a node refused at every point has a
        refused partial (see :func:`diff`).
        """
        n = self.algebra.dim
        c = np.asarray(coords, dtype=float)
        if c.shape != (n,):
            raise DimensionMismatch(f"expected a direction of shape ({n},), got {c.shape}")
        row = c.tolist()
        return ExprFn(self.algebra, tuple(
            _combine([row], [diff(comp, i) if v != 0.0 else _ZERO for i, v in enumerate(row)])[0]
            for comp in self.components))


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


def _combine(rows, exprs) -> tuple[Expr, ...]:
    """One expression per row, sum_j row[j] * exprs[j]: the one linear
    combination of trees.  Zero terms are not built; a Cauchy-Riemann row
    such as J_12 + J_21 may overflow where J does not, and like every fold
    that is not finite it stays a node and overflows where it is evaluated."""
    out = []
    for row in np.asarray(rows, dtype=float).tolist():
        s: Expr = _ZERO
        for c, e in zip(row, exprs):
            if c != 0.0:
                s = add(s, mul(lit(c), e))
        out.append(s)
    return tuple(out)


def _sym_product(algebra: Algebra, u: tuple[Expr, ...], v: tuple[Expr, ...]) -> tuple[Expr, ...]:
    """Components of u*v: row k of the structure tensor, C[i, j, k] at i*n + j,
    applied to the pair products u_i v_j.  A pair with v_i v_j = 0 is not
    multiplied."""
    n = algebra.dim
    table = algebra.structure.reshape(n * n, n)
    pairs = [mul(u[p // n], v[p % n]) if table[p].any() else _ZERO for p in range(n * n)]
    return _combine(table.T, pairs)


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
            c_coords = lit(c).value * algebra.unity  # lit refuses a scalar that is not finite
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
    """Load a function file: algebra name plus components or poly coefficients.
    A given ``algebra`` must have the structure of the declared one."""
    from .fixtures import declared_algebra, read_file_doc

    doc = read_file_doc(path)
    return exprfn_from_dict(doc, declared_algebra(doc, algebra))
