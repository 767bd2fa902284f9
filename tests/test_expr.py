import copy
import gc
import math
import pickle
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from acalc import expr as E
from acalc.errors import (
    AlgebraMismatch,
    ArityError,
    DimensionMismatch,
    DomainError,
    ExprSyntaxError,
    UnknownVariable,
)
from acalc.expr import (
    MAX_NESTING,
    ExprFn,
    Lit,
    Op,
    Var,
    compile_expr,
    conjugate_fn,
    diff,
    exprfn_mul,
    identity_fn,
    parse,
    poly_fn,
    substitute,
    to_str,
)
from acalc.algebra import mul
from acalc.calculus import taylor_eval
from acalc.fixtures import bundled_algebras, get_algebra

from conftest import distinct_ops, nodes_built, random_element
from oracles import evaluate, interpret


# exp on the 3-hyperbolic numbers, j^3 = 1, with its divisions by 2 and 3
_EXP3 = tuple(
    f"(exp(x1+x2+x3)+2*exp(x1-(x2+x3)/2)*cos({math.sqrt(3.0) / 2.0!r}*(x2-x3)-{2 * math.pi * k / 3!r}))/3"
    for k in range(3)
)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_and_eval_basic():
    e = parse("x1^2 - x2^2", 2)
    assert evaluate(e, (3.0, 2.0)) == 5.0


def test_parse_single_variable():
    e = parse("x1", 2)
    assert evaluate(e, (7.0, 0.0)) == 7.0


def test_unbalanced_paren_position():
    with pytest.raises(ExprSyntaxError) as excinfo:
        parse("x1*(x2", 2)
    assert excinfo.value.position == 6


@pytest.mark.parametrize("wrap", [("(", ")"), ("sin(", ")"), ("-", ""), ("1^", "")])
def test_nesting_cap(wrap):
    opening, closing = wrap

    def nested(k):
        return opening * k + "1" + closing * k

    parse(nested(MAX_NESTING), 1)
    with pytest.raises(ExprSyntaxError):
        parse(nested(MAX_NESTING + 1), 1)


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse("x3", 2)
    with pytest.raises(UnknownVariable):
        parse("y", 2)
    with pytest.raises(UnknownVariable):
        parse("foo(x1)", 2)


def test_arity_error():
    with pytest.raises(ArityError):
        parse("sin(x1, x2)", 2)


def test_precedence():
    assert evaluate(parse("2 + 3 * 4", 1), (0.0,)) == 14.0
    assert evaluate(parse("2 * 3 ^ 2", 1), (0.0,)) == 18.0
    assert evaluate(parse("-2 ^ 2", 1), (0.0,)) == -4.0      # ^ binds before unary -
    assert evaluate(parse("2 - 3 - 4", 1), (0.0,)) == -5.0   # left assoc
    assert evaluate(parse("8 / 4 / 2", 1), (0.0,)) == 1.0
    assert evaluate(parse("2 ^ 3 ^ 2", 1), (0.0,)) == 512.0  # right assoc
    assert evaluate(parse("x1 ^ -2", 1), (2.0,)) == 0.25


def test_integer_exponent_required():
    with pytest.raises(ExprSyntaxError):
        parse("x1^x1", 1)
    with pytest.raises(ExprSyntaxError):
        parse("x1^2.5", 1)
    with pytest.raises(ExprSyntaxError):
        parse("x1^1e400", 1)


@pytest.mark.parametrize("src, position", [
    ("-1e400", 1), ("-(1e400)*x1", 2), ("1e400*0", 0), ("1e400+1", 0), ("2-1e400", 2),
    ("1e400^2", 0), ("1/1e400", 2), ("1e400+0^(-1)", 0),
])
def test_overflowing_numeral_is_reported_at_the_numeral(src, position):
    # not as the fold it meets, whose message would name an inf the input never wrote
    with pytest.raises(ExprSyntaxError, match="expected a finite number") as excinfo:
        parse(src, 1)
    assert excinfo.value.position == position


def test_constant_powers_fold():
    assert parse("x1^(2^2)", 1) == parse("x1^4", 1)
    assert parse("(-2)^3", 1) == Lit(-8.0)
    assert parse("x1^(2*2)", 1) == parse("x1^(8/2)", 1) == parse("x1^(1+3)", 1) == parse("x1^4", 1)


def test_whitespace_insensitive():
    a = parse("x1^2-x2 ^ 2", 2)
    b = parse(" x1 ^ 2 - x2^2 ", 2)
    for pt in [(1.5, -0.5), (0.0, 2.0)]:
        assert evaluate(a, pt) == evaluate(b, pt)


def test_extra_names():
    e = parse("t^2 + 1", 1, names={"t": 0})
    assert evaluate(e, (3.0,)) == 10.0


# ---------------------------------------------------------------------------
# evaluation errors
# ---------------------------------------------------------------------------

def test_eval_domain_errors():
    assert evaluate(parse("exp(0)", 1), (0.0,)) == 1.0
    with pytest.raises(DomainError):
        evaluate(parse("1/x1", 1), (0.0,))
    with pytest.raises(DomainError):
        evaluate(parse("log(x1)", 1), (-1.0,))
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x1)", 1), (-1.0,))
    with pytest.raises(DomainError):
        evaluate(parse("x1^-1", 1), (0.0,))


def test_trig_identity():
    e = parse("sin(x1)^2 + cos(x1)^2", 1)
    assert abs(evaluate(e, (0.7,)) - 1.0) <= 1e-12


def test_compiled_matches_interpreter():
    rng = np.random.default_rng(2)
    srcs = [
        "x1^3 - 2*x2*x1 + 4",
        "sin(x1*x2) + exp(x2/ (1 + x1^2))",
        "sqrt(x1^2 + x2^2 + 1) / (2 + cos(x2))",
        "-x1 + x2 - -x1",
    ]
    for src in srcs:
        e = parse(src, 2)
        fn = compile_expr((e,))
        for _ in range(20):
            pt = rng.uniform(-2, 2, 2)
            assert abs(fn(pt)[0] - evaluate(e, pt)) < 1e-12


def test_compiled_domain_errors():
    fn = compile_expr((parse("log(x1)", 1),))
    with pytest.raises(DomainError):
        fn((0.0,))


# ---------------------------------------------------------------------------
# printing round trip
# ---------------------------------------------------------------------------

def _random_expr(rng, depth, dim):
    roll = rng.integers(0, 8)
    if depth == 0 or roll == 0:
        if rng.integers(0, 2):
            return Lit(float(np.round(rng.uniform(-5, 5), 3)))
        i = int(rng.integers(0, dim))
        return Var(i, f"x{i + 1}")
    if roll == 1:
        return Op("neg", (_random_expr(rng, depth - 1, dim),))
    if roll == 2:
        return Op("^", (_random_expr(rng, depth - 1, dim),), int(rng.integers(0, 4)))
    if roll == 3:
        return Op(["sin", "cos", "exp"][rng.integers(0, 3)], (_random_expr(rng, depth - 1, dim),))
    op = ["+", "-", "*", "/"][rng.integers(0, 4)]
    return Op(op, (_random_expr(rng, depth - 1, dim), _random_expr(rng, depth - 1, dim)))


def test_parse_print_parse_fixpoint():
    rng = np.random.default_rng(4)
    count = 0
    while count < 60:
        e = _random_expr(rng, 4, 2)
        src = to_str(e)
        try:
            reparsed = parse(src, 2)
        except Exception:
            raise AssertionError(f"could not reparse printed form {src!r}")
        ok_points = 0
        for _ in range(10):
            pt = rng.uniform(0.1, 2, 2)
            try:
                v1 = evaluate(e, pt)
            except DomainError:
                continue
            v2 = evaluate(reparsed, pt)
            assert np.isclose(v1, v2, rtol=1e-12, atol=1e-12), src
            ok_points += 1
        if ok_points:
            count += 1


_BINARY = {"+": E.add, "-": E.sub, "*": E.mul, "/": E.div}


# constants whose folds divide by zero, overflow or stay finite
_CONSTANTS = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, 1e200, -1e200, 1e308, -1e308]))


@st.composite
def _smart_trees(draw, depth=4):
    """Trees over x1, x2 built by the smart constructors: every operator, all
    five functions, exponents -3..4 (0 and 1 included) and constants in -5..5,
    0, +-1e200 and +-1e308, so some folds stay nodes."""
    if depth == 0 or draw(st.integers(0, 5)) == 0:
        if draw(st.booleans()):
            return E.lit(draw(_CONSTANTS))
        return E.var(draw(st.integers(0, 1)))
    op = draw(st.sampled_from(["neg", "^", "call", *_BINARY]))
    a = draw(_smart_trees(depth - 1))
    if op == "neg":
        return E.neg(a)
    if op == "^":
        return E.pow_(a, draw(st.integers(-3, 4)))
    if op == "call":
        return E.call(draw(st.sampled_from(E.FUNCTIONS)), a)
    return _BINARY[op](a, draw(_smart_trees(depth - 1)))


@settings(max_examples=300, deadline=None)
@given(_smart_trees())
def test_printing_is_a_fixpoint_of_parsing(e):
    assert to_str(parse(to_str(e), 2)) == to_str(e)


@st.composite
def _tree_tuples(draw):
    """One to three trees, then one to two more built on them, so that the
    tuple's trees share subtrees; tuples of 2 to 5 trees."""
    trees = draw(st.lists(_smart_trees(), min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 2))):
        op = draw(st.sampled_from([*_BINARY]))
        a, b = draw(st.sampled_from(trees)), draw(st.sampled_from(trees))
        trees.append(_BINARY[op](a, b))
    return tuple(trees)


@settings(max_examples=300, deadline=None)
@given(_tree_tuples(), st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
def test_compiled_point_equals_interpreter_bit_for_bit(trees, point):
    # the batch route is not compared: numpy's sin and exp differ from math's
    # in the last bits
    kernel = compile_expr(trees)
    try:
        want = [evaluate(e, point) for e in trees]
    except DomainError:
        with pytest.raises(DomainError):
            E.eval_compiled(kernel, np.array(point))
        return
    got = E.eval_compiled(kernel, np.array(point))
    assert [float(v).hex() for v in got] == [v.hex() for v in want]


def test_kernel_has_one_line_per_distinct_operator_node():
    Q = get_algebra("quaternions")
    f = poly_fn(Q, [0.0] * 8 + [1.0])  # z^8
    lines = E._kernel_source(f.components).splitlines()
    assignments = [line for line in lines if line.lstrip().startswith("t")]
    assert len(assignments) == len(distinct_ops(f.components))
    assert len(set(line.split(" = ")[1] for line in assignments)) == len(assignments)
    # besides: the def, one read of each coordinate and the return
    assert len(lines) == len(assignments) + 1 + Q.dim + 1


def _outcome(fn, *args):
    """A primitive's value as hex (nan as one word), or its DomainError's message."""
    try:
        v = fn(*args)
    except DomainError as exc:
        return f"DomainError: {exc}"
    return "nan" if math.isnan(v) else v.hex()


def test_each_point_primitive_is_the_float_route_of_its_dual_primitive():
    # the report function binds the point primitives, and batch kernels the
    # dual ones; on a float both give the same bits, or raise the same message
    called = {name: o for name, o in E._OPS.items() if o.point is not None}
    assert sorted(called) == ["/", "^", "cos", "exp", "log", "sin", "sqrt"]
    assert E._POINT_NS == {o.source.partition("(")[0]: o.point for o in called.values()}
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 710.0, 1e308, -1.0]
    for name, o in called.items():
        if name == "/":
            cases = [(a, b) for a in values for b in values]
        elif name == "^":
            cases = [(a, k) for a in values for k in (-3, -2, -1, 2, 3, 1001)]
        else:
            cases = [(a,) for a in values]
        for args in cases:
            assert _outcome(o.point, *args) == _outcome(o.fn, *args), (name, args)
    # the domain edges
    edges = {"log": [(0.0,), (-0.0,), (-1e-300,), (-math.inf,)], "sqrt": [(-1e-300,), (-math.inf,)],
             "/": [(1.0, 0.0), (0.0, -0.0), (math.nan, 0.0)], "^": [(0.0, -1), (-0.0, -2)]}
    for name, cases in edges.items():
        o = called[name]
        for args in cases:
            got = _outcome(o.point, *args)
            assert got.startswith("DomainError: ") and got == _outcome(o.fn, *args), (name, args)
    assert _outcome(called["log"].point, -0.0) == "DomainError: log of non-positive value -0"


def _assert_postorder(trees):
    order = E._postorder(trees)
    position = {e: j for j, e in enumerate(order)}
    ops = distinct_ops(trees)
    # each distinct coordinate and operator node once, and no constant
    assert len(position) == len(order)
    assert {e for e in order if isinstance(e, Op)} == ops
    assert {e for e in order if not isinstance(e, Op)} == {
        a for a in (*trees, *(a for op in ops for a in op.args)) if isinstance(a, Var)}
    # every operand before its user
    assert all(position[a] < position[e] for e in ops for a in e.args if not isinstance(a, Lit))


@settings(max_examples=200, deadline=None)
@given(_tree_tuples())
def test_postorder_lists_each_node_once_after_its_operands(trees):
    _assert_postorder(trees)


def test_postorder_of_every_fixture_z6_jacobian(fixtures):
    for a in fixtures.values():
        f = poly_fn(a, [0.0] * 6 + [1.0])
        _assert_postorder(f.components + tuple(diff(c, i) for c in f.components for i in range(a.dim)))


def _count_rules(monkeypatch) -> list:
    """The node of each derivative-rule application, in order."""
    applied = []
    for name, o in E._OPS.items():
        monkeypatch.setitem(E._OPS, name, o._replace(
            rule=lambda e, d, rule=o.rule: applied.append(e) or rule(e, d)))
    return applied


def test_each_rule_is_applied_once_per_node_and_coordinate(monkeypatch):
    applied = _count_rules(monkeypatch)

    def held():
        return {node: len(node.partials) for node in list(E._NODES.values())}

    # the Taylor chain diffs each derivative along the unity, and the trees of
    # its steps share nodes; the coefficient makes the top nodes new here
    A = get_algebra("CxC")
    f = poly_fn(A, [0.0] * 12 + [0.625])
    before = held()
    taylor_eval(f, A.element([0.3, 0.4, 0.5, 0.6]), A.element([0.01, 0.02, 0.03, 0.04]), 12)
    after = held()
    # so each application holds a partial along one more coordinate on its node
    assert applied
    assert all(after[e] - before.get(e, 0) == k for e, k in Counter(applied).items())

    e = parse("sin(x1*x2)/(x1 + 0.123456789)^3 - exp(x2*x1)", 2)
    applied.clear()
    d = diff(e, 0)
    assert e in applied and len(applied) == len(set(applied))
    applied.clear()
    assert diff.__wrapped__(e, 0) is d  # past the cache of diff
    assert applied == []
    diff(E.call("cos", e), 0)
    assert applied == [E.call("cos", e)]


def test_equal_long_trees_compare_without_recursion():
    # each tree is 2,000 levels deep, past the recursion limit
    src = "+".join(["x1"] + ["1"] * 1999)
    a, b = parse(src, 1), parse(src, 1)
    assert a is b
    assert a == b and hash(a) == hash(b)
    assert a != parse(src + "+1", 1)
    assert a != parse(src.replace("x1+", "x1-", 1), 1)


def test_every_pass_takes_a_sum_of_any_length():
    # 10,000 levels deep, far past the recursion limit
    src = "+".join(["x1"] + ["1"] * 9999)
    e = parse(src, 1)
    assert evaluate(e, (0.5,)) == 9999.5
    assert E.eval_compiled(compile_expr((e,)), np.array([0.5])).tolist() == [9999.5]
    assert diff(e, 0) == Lit(1.0)
    assert substitute((e,), {0: E.var(0)}) == (e,)
    # each prefix's text is dropped once it is used, so printing holds a few
    # texts at a time, not the 200 MB of all 10,000 prefixes
    tracemalloc.start()
    try:
        assert to_str(e) == src.replace("+", " + ")
        assert tracemalloc.get_traced_memory()[1] < 10_000_000
    finally:
        tracemalloc.stop()
    assert repr(e) == str(e) == f"Op({src.replace('+', ' + ')!r})"


def test_copies_and_pickles_return_the_live_node():
    e = poly_fn(get_algebra("quaternions"), [0.0, 0.0, 1.0]).components[1]
    assert copy.copy(e) is e
    assert copy.deepcopy(e) is e
    assert pickle.loads(pickle.dumps(e)) is e


def test_deep_tree_pickles_and_copies_without_recursion():
    # a 10,000-level sum: __reduce__ gives one flat list, not a nest per level
    e = parse("+".join(f"x{1 + k % 2}*{k}" for k in range(10_000)), 2)
    data = pickle.dumps(e)
    assert pickle.loads(data) is e
    assert copy.deepcopy(e) is e and copy.copy(e) is e
    text = to_str(e)
    del e
    gc.collect()
    assert to_str(pickle.loads(data)) == text  # built anew, once the tree is gone


def test_node_without_referrers_leaves_the_table():
    inner_key = ("*", (Lit(0.123456789), Var(0, "x1")), None)
    e = Op("sin", (Op(*inner_key),))
    assert E._NODES[inner_key] is e.args[0] and E._NODES[("sin", e.args, None)] is e
    refs = weakref.ref(e), weakref.ref(e.args[0])
    del e
    gc.collect()
    assert [r() for r in refs] == [None, None]
    assert inner_key not in E._NODES


def test_equal_functions_share_nodes_and_kernels():
    Q = get_algebra("quaternions")
    f = poly_fn(Q, [0.0] * 8 + [1.0])
    f._jacobian
    before = compile_expr.cache_info()
    g = poly_fn(Q, [0.0] * 8 + [1.0])
    assert all(a is b for a, b in zip(f.components, g.components, strict=True))
    assert g._jacobian is f._jacobian
    after = compile_expr.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_print_known_forms():
    e = parse("x1^2 - x2^2", 2)
    assert evaluate(parse(to_str(e), 2), (3.0, 2.0)) == 5.0


# ---------------------------------------------------------------------------
# symbolic differentiation
# ---------------------------------------------------------------------------

def test_diff_power_rule():
    e = parse("x1^3", 1)
    d = diff(e, 0)
    for v in (0.3, -1.2, 2.0):
        assert abs(evaluate(d, (v,)) - 3 * v * v) < 1e-12


def test_diff_other_variable_is_zero():
    assert diff(parse("x1", 2), 1) == Lit(0.0)


def test_diff_chain_rule_vs_central_difference():
    # d/dx1 sin(x1*x2) = x2 cos(x1*x2), checked against the FD oracle
    e = parse("sin(x1*x2)", 2)
    d = diff(e, 0)
    rng = np.random.default_rng(8)
    h = 1e-5
    for _ in range(10):
        x1, x2 = rng.uniform(-2, 2, 2)
        fd = (evaluate(e, (x1 + h, x2)) - evaluate(e, (x1 - h, x2))) / (2 * h)
        sym = evaluate(d, (x1, x2))
        assert abs(sym - fd) <= 1e-6 * (1 + abs(sym))
        assert abs(sym - x2 * math.cos(x1 * x2)) < 1e-12


def test_diff_vs_fd_property():
    rng = np.random.default_rng(16)
    srcs = [
        "x1^4 - x2^2*x1",
        "exp(x1)*cos(x2)",
        "x1 / (2 + x2^2)",
        "sqrt(1 + x1^2 + x2^2)",
        "log(2 + x1^2)",
    ]
    h = 1e-5
    for src in srcs:
        e = parse(src, 2)
        for i in range(2):
            d = diff(e, i)
            for _ in range(10):
                pt = rng.uniform(-2, 2, 2)
                step = np.zeros(2)
                step[i] = h
                fd = (evaluate(e, pt + step) - evaluate(e, pt - step)) / (2 * h)
                sym = evaluate(d, pt)
                assert abs(sym - fd) <= 1e-6 * (1 + abs(sym))


def test_substitute_composition():
    outer = (parse("x1^2 + x2", 2), parse("x1*x2", 2))
    composed = substitute(outer, {0: parse("x2 - 1", 2), 1: parse("3*x1", 2)})
    # f(g) with g = (x2-1, 3*x1): ((x2-1)^2 + 3*x1, (x2-1)*3*x1)
    assert [evaluate(c, (2.0, 5.0)) for c in composed] == [16.0 + 6.0, 4.0 * 6.0]


def test_substitute_rebuilds_each_distinct_node_once(monkeypatch):
    Q = get_algebra("quaternions")
    f = poly_fn(Q, [0.0] * 10 + [1.0])  # z^10
    identity = {i: E.var(i) for i in range(Q.dim)}
    rebuilt = nodes_built(monkeypatch)
    # one memo for all four components, so a node they share is rebuilt once
    assert all(a is b for a, b in zip(substitute(f.components, identity), f.components, strict=True))
    assert len(rebuilt) == len(set(rebuilt)) == len(distinct_ops(f.components)) == 306


def test_substitute_keeps_every_node_as_it_is():
    # the parser keeps a factor 0 and a factor 1, and so does composition: the
    # composed tree still divides by x2 - 1, and raises where f does
    zero_times, times_one = parse("0*(1/x1)", 2), parse("x1*1", 2)
    assert substitute((zero_times, times_one), {0: E.var(0)}) == (zero_times, times_one)
    composed = substitute((zero_times, times_one), {0: parse("x2 - 1", 2)})
    assert composed == (parse("0*(1/(x2 - 1))", 2), parse("(x2 - 1)*1", 2))
    with pytest.raises(DomainError, match="division by zero"):
        E.eval_compiled(compile_expr(composed), np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# algebra-valued functions
# ---------------------------------------------------------------------------

def test_poly_fn_hyperbolic_square():
    # zeta^2 over the hyperbolic numbers has components (x1^2 + x2^2, 2 x1 x2)
    H = get_algebra("H")
    f = poly_fn(H, [0.0, 0.0, 1.0])
    rng = np.random.default_rng(21)
    for _ in range(20):
        p = random_element(H, rng)
        expected = mul(p, p)
        assert np.allclose(f(p).coords, expected.coords, atol=1e-12)
    x1, x2 = 1.7, -0.3
    assert np.allclose(f((x1, x2)).coords, [x1 * x1 + x2 * x2, 2 * x1 * x2])


def test_poly_fn_constant():
    C = get_algebra("C")
    c = C.element([2.0, -1.0])
    f = poly_fn(C, [c])
    assert np.allclose(f((5.0, 5.0)).coords, c.coords)


def test_poly_fn_identity(fixtures):
    rng = np.random.default_rng(25)
    for a in fixtures.values():
        f = poly_fn(a, [0.0, 1.0])
        p = random_element(a, rng)
        assert np.allclose(f(p).coords, p.coords)


def test_poly_fn_matches_power_evaluation(fixtures):
    rng = np.random.default_rng(27)
    for a in fixtures.values():
        f = poly_fn(a, [0.0, 0.0, 0.0, 1.0])  # zeta^3
        p = random_element(a, rng, scale=1.5)
        assert np.allclose(f(p).coords, (p ** 3).coords, atol=1e-10)


def test_poly_fn_general_coefficients():
    H = get_algebra("H")
    c0 = H.element([1.0, -2.0])
    c1 = H.element([0.5, 0.5])
    f = poly_fn(H, [c0, c1, 2.0])
    rng = np.random.default_rng(31)
    p = random_element(H, rng)
    expected = c0 + mul(c1, p) + 2.0 * mul(p, p)
    assert np.allclose(f(p).coords, expected.coords, atol=1e-12)


def test_exprfn_mul():
    H = get_algebra("H")
    f = poly_fn(H, [0.0, 1.0])
    g = poly_fn(H, [0.0, 0.0, 1.0])
    h = exprfn_mul(f, g)  # zeta^3
    rng = np.random.default_rng(33)
    p = random_element(H, rng)
    assert np.allclose(h(p).coords, (p ** 3).coords, atol=1e-12)


def test_conjugate_fn():
    C = get_algebra("C")
    f = conjugate_fn(C, 2)
    assert np.allclose(f((1.5, 2.5)).coords, [1.5, -2.5])


def test_identity_fn_partial():
    H = get_algebra("H")
    f = identity_fn(H)
    d0 = f.partial(0)
    assert np.allclose(d0((1.0, 2.0)).coords, [1.0, 0.0])


@pytest.mark.parametrize("method, arg", [
    ("directional", [1.0]), ("directional", [1.0, 0.0, 5.0]), ("directional", [[1.0, 0.0]]),
    ("directional", 1.0), ("partial", -1), ("partial", 2), ("partial", 5),
    ("partial", 1.5), ("partial", 1.0), ("partial", True), ("partial", False),
    ("partial", "1"), ("partial", None), ("partial", np.float64(1.0)),
])
def test_derivative_along_another_width_is_refused(method, arg):
    f = poly_fn(get_algebra("C"), [0.0, 0.0, 1.0])
    with pytest.raises(DimensionMismatch):
        getattr(f, method)(arg)


def test_partial_takes_any_integer_type():
    f = poly_fn(get_algebra("C"), [0.0, 0.0, 1.0])
    for i in range(2):
        assert f.partial(np.int64(i)).components == f.partial(i).components


def test_unexpected_character_position():
    with pytest.raises(ExprSyntaxError) as excinfo:
        parse("x1 $ 2", 1)
    assert excinfo.value.position == 3


def test_negative_exponent_round_trip():
    e = parse("x1^-2", 1)
    assert to_str(e) == "x1^(-2)"
    reparsed = parse(to_str(e), 1)
    assert evaluate(reparsed, (2.0,)) == 0.25


def test_expr_nodes_are_not_callable():
    # the package evaluates a tree only through a compiled kernel; the
    # interpreter is the tests' oracle
    e = parse("x1 + 1", 1)
    with pytest.raises(TypeError):
        e((2.0,))
    assert evaluate(e, (2.0,)) == compile_expr((e,))([2.0])[0] == 3.0


# ---------------------------------------------------------------------------
# batch evaluation
# ---------------------------------------------------------------------------

# every fixture with each function kind; the conjugate needs dimension 2 or more
BATCH_CASES = [(name, kind) for name, a in sorted(bundled_algebras().items())
               for kind in ("poly", "exp", "inverse", "conjugate")
               if kind != "conjugate" or a.dim >= 2]


def _test_function(name, kind):
    a = get_algebra(name)
    n = a.dim
    if kind == "poly":
        rng = np.random.default_rng(5)
        return poly_fn(a, [a.element(rng.uniform(-1, 1, n)) for _ in range(4)])
    if kind == "exp":
        return ExprFn(a, tuple(parse(f"exp(x{i + 1})*cos(x{(i + 1) % n + 1})", n) for i in range(n)))
    if kind == "inverse":
        square = " + ".join(f"x{i + 1}^2" for i in range(n))
        return ExprFn(a, tuple(parse(f"x{i + 1}/({square})", n) for i in range(n)))
    return conjugate_fn(a, 2)


@pytest.mark.parametrize("name, kind", BATCH_CASES)
def test_batch_rows_match_single_points(name, kind):
    f = _test_function(name, kind)
    n = f.algebra.dim
    points = st.integers(1, 6).flatmap(lambda m: hnp.arrays(
        float, (m, n), elements=st.floats(-3.0, 3.0, allow_nan=False)))

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(points)
    def check(X):
        assume(np.all(np.sum(X ** 2, axis=1) > 1e-6))
        batch = f.eval_coords(X)
        assert batch.shape == X.shape
        for i in range(len(X)):
            np.testing.assert_allclose(batch[i], f.eval_coords(X[i]), rtol=1e-14, atol=0.0)

    check()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("src, bad", [
    ("1/x1", 0.0),
    ("x1^-2", 0.0),
    ("log(x1)", -1.0),
    ("sqrt(x1)", -1.0),
    ("exp(x1)", 1000.0),
    ("x1^1000000", 2.0),
    ("x1*x1", 1e200),
    ("sin(x1*x1)", 1e200),
])
def test_one_point_and_batch_raise_alike(src, bad):
    C = get_algebra("C")
    f = ExprFn(C, (parse(src, 2), parse("x2", 2)))
    good = np.array([0.5, 1.0])
    f.eval_coords(good)
    with pytest.raises(DomainError):
        f.eval_coords(np.array([bad, 1.0]))
    with pytest.raises(DomainError):
        f.eval_coords(np.array([good, [bad, 1.0], good]))
    with pytest.raises(DomainError):
        evaluate(f.components[0], (bad, 1.0))
    with pytest.raises(DomainError):
        f(C.element([bad, 1.0]))


def test_only_the_result_must_be_finite():
    # exp(1000) overflows on the way, and 1/inf = 0 is a finite result
    e = parse("1/exp(x1)", 1)
    assert evaluate(e, (1000.0,)) == compile_expr((e,))([1000.0])[0] == 0.0


def test_constant_components_broadcast_over_a_batch():
    C = get_algebra("C")
    f = ExprFn(C, (parse("2", 2), parse("x1 + x2", 2)))
    X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_array_equal(f.eval_coords(X), [[2.0, 3.0], [2.0, 7.0], [2.0, 11.0]])


@pytest.mark.parametrize("point", [
    [1.0, 2.0, 99.0],          # one coordinate too many is not ignored
    np.zeros((3, 5)),          # a batch of 5-coordinate rows
    [1.0],                     # too few, once a bare IndexError
    2.0,
    np.zeros((2, 2, 2)),
])
def test_eval_coords_refuses_points_of_another_width(point):
    f = poly_fn(get_algebra("C"), [0.0, 0.0, 1.0])
    with pytest.raises(DimensionMismatch):
        f.eval_coords(point)


def test_call_takes_one_point_only():
    f = poly_fn(get_algebra("C"), [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(f([1.0, 2.0]).coords, [-3.0, 4.0])
    with pytest.raises(DimensionMismatch):
        f([[1.0, 2.0], [0.5, 0.0]])


# ---------------------------------------------------------------------------
# combination trees against the sum loops they replace
# ---------------------------------------------------------------------------

def _loop_product(C, u, v):
    """sum_ij C[i, j, k] u_i v_j by the triple loop, skipping zero terms."""
    n = len(u)
    out = []
    for k in range(n):
        s = E.lit(0.0)
        for i in range(n):
            if u[i] == E.lit(0.0):
                continue
            for j in range(n):
                c = C[i, j, k]
                if c != 0.0 and v[j] != E.lit(0.0):
                    s = E.add(s, E.mul(E.lit(c), E.mul(u[i], v[j])))
        out.append(s)
    return tuple(out)


def _loop_poly(a, coeffs):
    """poly_fn's expansion with the triple-loop product."""
    zeta = tuple(E.var(i) for i in range(a.dim))
    power = tuple(E.lit(v) for v in a.unity)
    comps = (E.lit(0.0),) * a.dim
    for k, c in enumerate(coeffs):
        c_coords = c.coords if hasattr(c, "coords") else float(c) * a.unity
        if any(v != 0.0 for v in c_coords):
            term = _loop_product(a.structure, tuple(E.lit(v) for v in c_coords), power)
            comps = tuple(E.add(s, t) for s, t in zip(comps, term))
        if k + 1 < len(coeffs):
            power = _loop_product(a.structure, power, zeta)
    return comps


def _loop_directional(components, coords):
    out = []
    for comp in components:
        s = E.lit(0.0)
        for i, c in enumerate(np.asarray(coords, dtype=float)):
            if c != 0.0:
                s = E.add(s, E.mul(E.lit(c), diff(comp, i)))
        out.append(s)
    return tuple(out)


@pytest.mark.parametrize("name", sorted(bundled_algebras()))
def test_combination_trees_match_sum_loops(name):
    a = get_algebra(name)
    n = a.dim
    rng = np.random.default_rng(43)
    direction = rng.integers(-2, 3, n).astype(float)
    direction[0] = 0.0
    elements = [a.element(rng.integers(-2, 3, n).astype(float)) for _ in range(4)]
    for coeffs in ([0.0] * 4 + [1.0], [1.0, 0.0, -2.0, 3.0], elements):
        f = poly_fn(a, coeffs)
        assert f.components == _loop_poly(a, coeffs)
        assert f.directional(direction).components == _loop_directional(f.components, direction)
        assert f.unity_derivative.components == _loop_directional(f.components, a.unity)
        g = conjugate_fn(a, n) if n >= 2 else identity_fn(a)
        assert exprfn_mul(g, f).components == _loop_product(a.structure, g.components, f.components)


@pytest.mark.parametrize("name", sorted(bundled_algebras()))
def test_combination_skips_zero_coefficients_to_the_same_nodes(name):
    P = get_algebra(name).cr_projector
    xs = [E.var(j) for j in range(P.shape[1])]
    want = []
    for row in P.tolist():
        s = E.lit(0.0)
        for c, e in zip(row, xs):
            s = E.add(s, E.mul(E.lit(c), e))
        want.append(s)
    assert all(a is b for a, b in zip(E._combine(P, xs), want, strict=True))


def test_combination_multiplies_only_nonzero_coefficients(monkeypatch):
    P = get_algebra("triangular6").cr_projector
    products = []
    mul_ = E.mul
    monkeypatch.setattr(E, "mul", lambda a, b: products.append(a) or mul_(a, b))
    E._combine(P, [E.var(j) for j in range(P.shape[1])])
    assert len(products) == np.count_nonzero(P) == 54


def test_product_skips_pairs_whose_basis_product_is_zero():
    # eps * eps = 0, so the huge constants there are never multiplied
    dual = get_algebra("dual")
    big = ExprFn(dual, (E.lit(1.0), E.lit(1e200)))
    assert exprfn_mul(big, big).components == (E.lit(1.0), E.lit(2e200))


@pytest.mark.parametrize("fold, node", [
    (lambda: E.add(E.lit(1e308), E.lit(1e308)), "1e+308 + 1e+308"),
    (lambda: E.mul(E.lit(-1e200), E.lit(1e200)), "(-1e+200)*1e+200"),
    (lambda: E.div(E.lit(1.0), E.lit(0.0)), "1/0"),
    (lambda: E.pow_(E.lit(0.0), -1), "0^(-1)"),
    (lambda: E.pow_(E.lit(2.0), 65536), "2^65536"),
    (lambda: parse("2^2^2^2^2", 1), "2^65536"),
], ids=["sum", "product", "quotient", "negative power", "power", "parsed power"])
def test_fold_that_raises_or_is_not_finite_stays_a_node(fold, node):
    # built without an error, printed as text that parses back to it, and
    # refused at every point and batch
    e = fold()
    assert isinstance(e, Op) and to_str(e) == node and parse(node, 1) is e
    kernel = compile_expr((e,))
    for x in (np.array([0.5]), np.zeros((3, 1))):
        with pytest.raises(DomainError):
            E.eval_compiled(kernel, x)


@pytest.mark.parametrize("text", [
    "1/(1e308+1e308)", "exp(-(2^65536))", "(1e308*10)^(-1)", "(1e308+1e308)^0", "x2/(x1-(1e308+1e308))",
    "1/exp(1000)",
])
def test_operation_that_absorbs_a_refused_fold_is_refused(text):
    # 1/inf and exp(-inf) are 0 and inf^0 is 1, but the fold under them is
    # refused, so they are too: at a point, a batch and a verdict
    from acalc.calculus import adiff_test

    f = ExprFn(get_algebra("C"), (parse(text, 2), parse("x2", 2)))
    for call in (lambda: f([1.0, 1.0]), lambda: f.eval_coords(np.ones((3, 2))),
                 lambda: f.eval_jacobian([1.0, 1.0]), lambda: adiff_test(f, [1.0, 1.0])):
        with pytest.raises(DomainError, match="^evaluation overflowed or gave a non-finite value$"):
            call()


@pytest.mark.parametrize("text, message", [
    ("x1+(1e308+1e308)", "non-finite"), ("x1+0*(1e308+1e308)", "non-finite"),
    ("x1*exp(1000)", "non-finite"), ("x1+1/0", "^division by zero$"),
])
def test_derivative_of_a_tree_over_a_refused_fold_is_refused(text, message):
    # f is refused at every point, so its partials and f' are too, at every
    # order: the partial of a node over a refused fold is 0*node, where a rule
    # gave 1 as the partial of x1 and 0 as that of the constant
    C = get_algebra("C")
    f = ExprFn(C, (parse(text, 2), parse("x2", 2)))
    for g in (f.partial(0), f.unity_derivative, f.partial(1), f.unity_derivative.unity_derivative):
        for call in (lambda: g.eval_coords([1.0, 1.0]), lambda: g.eval_coords(np.ones((3, 2))),
                     lambda: g.eval_jacobian([1.0, 1.0]), lambda: g.eval_jacobian(np.ones((3, 2)))):
            with pytest.raises(DomainError, match=message):
                call()
        for c in g.components:
            assert parse(to_str(c), 2) == c
    assert to_str(f.partial(0).components[0]) == f"0*({to_str(f.components[0])})"


@pytest.mark.parametrize("texts", [
    ("x1/3", "(x1+x2)/2"), ("x1/(-0.1)", "(x2/7)/x1"), _EXP3,
], ids=["thirds and halves", "negative and nested", "3-hyperbolic exp"])
def test_division_by_a_constant_is_inline_and_bit_for_bit(texts):
    # a / c for a constant c != 0 is compiled as (a/c), which gives the bits
    # of _div, as the interpreter applies it: on floats at a point, and on
    # arrays, numpy's route, on a batch
    trees = tuple(parse(t, 3) for t in texts)
    lines, _ = E._kernel_lines(trees)
    assert sum("_div(" in line for line in lines) == sum(
        1 for e in distinct_ops(trees) if e.op == "/" and not isinstance(e.args[1], Lit))
    kernel = compile_expr(trees)
    rng = np.random.default_rng(47)
    X = np.concatenate([rng.uniform(-3.0, 3.0, (40, 3)), [[0.5, -0.0, 1e-308], [-2.0, 5e-324, 3.0]]])
    assert E.eval_compiled(kernel, X).tobytes() == np.stack(interpret(trees, list(X.T), np.asarray)).T.tobytes()
    for x in X:
        assert E.eval_compiled(kernel, x).tobytes() == np.array(interpret(trees, x.tolist())).tobytes()


def test_division_by_zero_keeps_its_message_on_both_routes():
    for text in ("x1/0", "1/(x1-x1)", "x2/(0*x1)"):
        trees = (parse(text, 2),)
        kernel = compile_expr(trees)
        for x in (np.array([1.5, 2.0]), np.ones((3, 2))):
            with pytest.raises(DomainError, match="^division by zero$"):
                E.eval_compiled(kernel, x)
    assert "_div(x0,0.0)" in E._kernel_source((parse("x1/0", 1),))


def test_zero_power_of_an_operation_keeps_its_base():
    # no identity is dropped, as 0*(1/x1) keeps its factor: (1/x1)^0 still
    # fails at x1 = 0, and (1/0)^0 everywhere; a coordinate to the 0 is 1
    assert parse("x1^0", 1) == E.lit(1.0) and parse("2^0", 1) == E.lit(1.0)
    e = parse("(1/x1)^0", 1)
    assert to_str(e) == "(1/x1)^0" and parse(to_str(e), 1) is e
    assert E.eval_compiled(compile_expr((e,)), np.array([2.0])).tolist() == [1.0]
    for text, x in (("(1/x1)^0", 0.0), ("(1/0)^0", 2.0)):
        with pytest.raises(DomainError, match="^division by zero$"):
            E.eval_compiled(compile_expr((parse(text, 1),)), np.array([x]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build", [
    lambda C: E.constant_fn(C, C.element([math.inf, 0.0])),
    lambda C: poly_fn(C, [0.0, math.inf]),
    lambda C: poly_fn(C, [0.0, 0.0, 1.0]).directional([math.inf, 0.0]),
], ids=["constant_fn", "poly_fn", "directional"])
def test_constant_that_is_not_finite_is_refused_where_it_enters_a_tree(build):
    # a compiled kernel named it inf, and failed with NameError at a point
    with pytest.raises(DomainError, match="^constant inf is not finite$"):
        build(get_algebra("C"))


def test_product_of_constants_that_overflows_raises_where_it_is_evaluated():
    # a pair product of two constants that is not finite stays a node, as
    # every such fold does: 1e200 * 1e200 builds
    from acalc.calculus import adiff_test

    C = get_algebra("C")
    big = E.constant_fn(C, C.element([1e200, 0.0]))
    f = exprfn_mul(big, big)
    assert f.components == (Op("*", (E.lit(1e200), E.lit(1e200))), E.lit(0.0))
    for evaluate_f in (lambda: f([0.5, 0.5]), lambda: f.eval_coords(np.zeros((3, 2))),
                       lambda: adiff_test(f, [0.5, 0.5])):
        with pytest.raises(DomainError, match="non-finite"):
            evaluate_f()


@pytest.mark.parametrize("build, error, message", [
    (lambda C, H: parse("x1 x2", 2), ExprSyntaxError,
     "syntax error at position 3: expected end of input or an operator"),
    (lambda C, H: ExprFn(C, (parse("x1", 2),)), DimensionMismatch, "expected 2 components, got 1"),
    (lambda C, H: E.exprfn_from_dict({"components": ["x1"]}, C), DimensionMismatch,
     "function needs 2 components, got 1"),
    (lambda C, H: exprfn_mul(identity_fn(C), identity_fn(H)), AlgebraMismatch,
     "functions live on different algebras"),
    (lambda C, H: poly_fn(C, [H.one()]), AlgebraMismatch, "coefficient belongs to a different algebra"),
], ids=["trailing-operand", "components", "file-components", "product-across-algebras",
        "coefficient-across-algebras"])
def test_malformed_input_is_refused_with_its_message(build, error, message):
    with pytest.raises(error) as info:
        build(get_algebra("C"), get_algebra("H"))
    assert str(info.value) == message
