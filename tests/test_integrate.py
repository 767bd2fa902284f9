from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from acalc.algebra import invert, mul, norm
from acalc.errors import DomainError, QuadratureNonConvergence
from acalc.expr import ExprFn, conjugate_fn, parse, poly_fn
from acalc.fixtures import get_algebra
from acalc.integrate import (
    GK_NODES,
    ParametricCurve,
    Polyline,
    antiderivative_probe,
    integrate_curve,
    load_curve,
    loop_integral,
    ml_bound_check,
    reverse_curve,
    riemann_sum,
    segment,
)

from conftest import random_element
from oracles import interpret


def unit_circle(algebra):
    comps = (parse("cos(t)", 1, names={"t": 0}), parse("sin(t)", 1, names={"t": 0}))
    return ParametricCurve(algebra=algebra, components=comps, t0=0.0, t1=2.0 * np.pi)


def random_quadratic_curve(algebra, rng):
    """z(t) = a + b t + c t^2 with random coefficients, over [0, 1]."""
    a, b, c = (rng.uniform(-1, 1, algebra.dim) for _ in range(3))
    comps = []
    for k in range(algebra.dim):
        src = f"({float(a[k])!r}) + ({float(b[k])!r})*t + ({float(c[k])!r})*t^2"
        comps.append(parse(src, 1, names={"t": 0}))
    return ParametricCurve(algebra=algebra, components=tuple(comps), t0=0.0, t1=1.0)


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------

def test_constant_integrates_to_displacement():
    H = get_algebra("H")
    f = poly_fn(H, [H.one()])
    p, q = H.element([0.0, 0.0]), H.element([2.0, -1.0])
    result = integrate_curve(f, segment(p, q))
    assert norm(result.value - (q - p)) <= 1e-10


def test_fundamental_theorem_quadratic_curves():
    # int 3 z^2 dz = Q^3 - P^3 along any curve
    rng = np.random.default_rng(1)
    for name in ("H", "C", "3-hyperbolic"):
        a = get_algebra(name)
        f = poly_fn(a, [0.0, 0.0, 3.0])
        for _ in range(4):
            curve = random_quadratic_curve(a, rng)
            result = integrate_curve(f, curve)
            expected = curve.end ** 3 - curve.start ** 3
            assert norm(result.value - expected) <= 1e-8


def test_fundamental_theorem_polyline(commutative_fixtures):
    C = get_algebra("C")
    f = poly_fn(C, [0.0, 0.0, 3.0])
    verts = tuple(C.element(v) for v in ([0.0, 0.0], [1.0, 0.5], [0.5, 2.0], [-1.0, 1.0]))
    result = integrate_curve(f, Polyline(verts))
    expected = verts[-1] ** 3 - verts[0] ** 3
    assert norm(result.value - expected) <= 1e-9
    # against F(end) - F(start) in rationals, F' = f a cubic: the quadrature
    # is exact for it, so only its error estimate and rounding remain
    rng = np.random.default_rng(2)
    for a in commutative_fixtures.values():
        f = poly_fn(a, [0.5, -1.0, 0.75, 0.25])
        F = poly_fn(a, [0.0, 0.5, -0.5, 0.25, 0.0625])
        verts = tuple(a.element(rng.integers(-12, 13, a.dim) / 8) for _ in range(3))
        result = integrate_curve(f, Polyline(verts))
        end, start = (interpret(F.components, v.coords, Fraction) for v in (verts[-1], verts[0]))
        exact = [e - s for e, s in zip(end, start)]
        tol = result.error_bound + 4 * np.spacing(max(1.0, float(max(map(abs, exact)))))
        for v, e in zip(result.value.coords.tolist(), exact):
            assert abs(Fraction(v) - e) <= tol, a.name


def test_hyperbolic_component_decomposition():
    # over H the integral splits into int u dx + v dy and int v dx + u dy,
    # cross-checked against scipy quadrature of the real line integrals
    H = get_algebra("H")
    f = poly_fn(H, [H.element([0.5, -1.0]), 0.0, 1.0])  # c + z^2
    curve = random_quadratic_curve(H, np.random.default_rng(7))

    def xy(t):
        return curve.point(t), curve.velocity(t)

    def u(t):
        z, _ = xy(t)
        return f.eval_coords(z)[0]

    def v(t):
        z, _ = xy(t)
        return f.eval_coords(z)[1]

    first = quad(lambda t: u(t) * xy(t)[1][0] + v(t) * xy(t)[1][1], 0.0, 1.0,
                 epsabs=1e-12)[0]
    second = quad(lambda t: v(t) * xy(t)[1][0] + u(t) * xy(t)[1][1], 0.0, 1.0,
                  epsabs=1e-12)[0]
    result = integrate_curve(f, curve)
    assert abs(result.value.coords[0] - first) <= 1e-9
    assert abs(result.value.coords[1] - second) <= 1e-9


def test_linearity(commutative_fixtures):
    from acalc.expr import add, constant_fn, exprfn_mul

    rng = np.random.default_rng(3)
    for a in list(commutative_fixtures.values())[:4]:
        f = poly_fn(a, [0.0, 1.0])
        g = poly_fn(a, [a.one(), 0.0, 1.0])
        alpha = random_element(a, rng)
        curve = random_quadratic_curve(a, rng)
        scaled = exprfn_mul(constant_fn(a, alpha), f)
        combined = ExprFn(a, tuple(
            add(cf, cg) for cf, cg in zip(scaled.components, g.components)
        ))
        lhs = integrate_curve(combined, curve).value
        rhs = mul(alpha, integrate_curve(f, curve).value) + integrate_curve(g, curve).value
        assert norm(lhs - rhs) <= 1e-9


def test_reversal_antisymmetry():
    H = get_algebra("H")
    f = poly_fn(H, [H.element([1.0, 2.0]), 1.0, 1.0])
    rng = np.random.default_rng(5)
    curve = random_quadratic_curve(H, rng)
    forward = integrate_curve(f, curve).value
    backward = integrate_curve(f, reverse_curve(curve)).value
    assert norm(forward + backward) <= 1e-10
    # polyline reversal too
    verts = tuple(H.element(v) for v in ([0.0, 0.0], [1.0, 1.5], [2.0, 0.5]))
    poly = Polyline(verts)
    fw = integrate_curve(f, poly).value
    bw = integrate_curve(f, reverse_curve(poly)).value
    assert norm(fw + bw) <= 1e-10


def test_reversal_where_t0_plus_t1_overflows_raises_domain_error():
    # t -> t0 + t1 - t needs the constant t0 + t1, which is not finite here;
    # the reversed curve's kernel named it inf and failed with NameError
    C = get_algebra("C")
    t = {"t": 0}
    curve = ParametricCurve(C, (parse("t/1e308", 1, names=t), parse("0", 1, names=t)), 1e308, 1.7e308)
    with pytest.raises(DomainError, match="^constant inf is not finite$"):
        reverse_curve(curve)


def test_concatenation_additivity():
    C = get_algebra("C")
    f = poly_fn(C, [0.0, 0.0, 1.0])
    curve = random_quadratic_curve(C, np.random.default_rng(9))
    first = ParametricCurve(algebra=C, components=curve.components, t0=0.0, t1=0.4)
    second = ParametricCurve(algebra=C, components=curve.components, t0=0.4, t1=1.0)
    total = integrate_curve(f, curve).value
    split_sum = integrate_curve(f, first).value + integrate_curve(f, second).value
    assert norm(total - split_sum) <= 1e-10


def test_riemann_sum_converges_to_quadrature():
    # open arc: the one-sided sum converges at first order in 1/m
    H = get_algebra("H")
    f = poly_fn(H, [0.0, 0.0, 1.0])
    comps = (parse("cos(t)", 1, names={"t": 0}), parse("sin(t)", 1, names={"t": 0}))
    arc = ParametricCurve(algebra=H, components=comps, t0=0.0, t1=np.pi / 2)
    target = integrate_curve(f, arc).value
    errs = [norm(riemann_sum(f, arc, m) - target) for m in (64, 256, 1024)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-2
    assert errs[0] / errs[2] > 8.0  # at least first-order decay across 16x refinement


def test_straight_segment_parametric_matches_polyline():
    # one segment in both curve kinds: every integration routine must agree
    C = get_algebra("C")
    f = poly_fn(C, [C.element([0.5, -1.0]), 0.0, 1.0, 1.0])
    p, q = [0.2, -0.4], [1.3, 0.9]
    comps = tuple(parse(f"({a!r}) + ({b - a!r})*t", 1, names={"t": 0}) for a, b in zip(p, q))
    line = ParametricCurve(algebra=C, components=comps, t0=0.0, t1=1.0)
    poly = segment(C.element(p), C.element(q))
    lhs, rhs = integrate_curve(f, line).value, integrate_curve(f, poly).value
    assert norm(lhs - rhs) <= 1e-12 * norm(rhs)
    lhs, rhs = riemann_sum(f, line, 50), riemann_sum(f, poly, 50)
    assert norm(lhs - rhs) <= 1e-12 * norm(rhs)
    a, b = ml_bound_check(f, line), ml_bound_check(f, poly)
    assert abs(a.L - b.L) <= 1e-12 * b.L
    assert abs(a.M - b.M) <= 1e-12 * b.M
    assert a.holds and b.holds


# ---------------------------------------------------------------------------
# ML bound
# ---------------------------------------------------------------------------

def test_ml_bound_unit_segment():
    H = get_algebra("H")
    f = poly_fn(H, [H.one()])
    report = ml_bound_check(f, segment(H.element([0.0, 0.0]), H.element([1.0, 0.0])))
    assert report.holds
    assert abs(report.lhs - 1.0) <= 1e-10
    assert abs(report.L - 1.0) <= 1e-10
    assert abs(report.M - 1.0) <= 1e-12
    assert abs(report.K - 3 * np.sqrt(2)) <= 1e-12


def test_ml_bound_identity_on_circle():
    H = get_algebra("H")
    report = ml_bound_check(poly_fn(H, [0.0, 1.0]), unit_circle(H))
    assert report.holds
    assert abs(report.L - 2 * np.pi) <= 1e-8
    assert abs(report.M - 1.0) <= 1e-6


def test_ml_bound_square_polyline():
    H = get_algebra("H")
    f = poly_fn(H, [0.0, 0.0, 1.0])
    square = Polyline(tuple(H.element(v) for v in (
        [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [1.0, 1.0])))
    assert square.closed
    assert ml_bound_check(f, square).holds


# ---------------------------------------------------------------------------
# loops and path independence
# ---------------------------------------------------------------------------

def test_loop_integrals_vanish_for_differentiable():
    for name in ("H", "C"):
        a = get_algebra(name)
        circle = unit_circle(a)
        for coeffs in ([0.0, 1.0], [0.0, 0.0, 1.0], [a.element([1.0, -0.5])]):
            result = loop_integral(poly_fn(a, coeffs), circle)
            assert result.vanishes
            assert norm(result.value) <= 1e-8


def test_conjugate_loop_does_not_vanish():
    # classical witness: the conjugate around the unit circle gives 2 pi i
    C = get_algebra("C")
    result = loop_integral(conjugate_fn(C, 2), unit_circle(C))
    assert not result.vanishes
    assert norm(result.value) > 0.1
    assert np.allclose(result.value.coords, [0.0, 2.0 * np.pi], atol=1e-8)


def test_loop_requires_closed_curve():
    H = get_algebra("H")
    with pytest.raises(ValueError):
        loop_integral(poly_fn(H, [0.0, 1.0]), segment(H.element([0.0, 0.0]), H.element([1.0, 0.0])))


def test_antiderivative_probe_exact_for_polynomials():
    H = get_algebra("H")
    f = poly_fn(H, [0.0, 2.0])  # antiderivative z^2 exists
    samples = [H.element(v) for v in ([0.0, 0.0], [1.0, 0.2], [-0.5, 1.0], [0.7, -0.7], [2.0, 1.0])]
    report = antiderivative_probe(f, samples, seed=0)
    assert report.max_discrepancy <= 1e-8


def test_antiderivative_probe_constant():
    C = get_algebra("C")
    f = poly_fn(C, [C.element([1.0, 1.0])])
    samples = [C.element(v) for v in ([0.0, 0.0], [1.0, 1.0], [2.0, -1.0])]
    assert antiderivative_probe(f, samples, seed=1).max_discrepancy <= 1e-10


def test_antiderivative_probe_detects_path_dependence():
    C = get_algebra("C")
    f = conjugate_fn(C, 2)
    samples = [C.element(v) for v in ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.5])]
    report = antiderivative_probe(f, samples, seed=0)
    assert report.max_discrepancy > 0.1


def test_ftc_derivative_of_accumulated_integral():
    # F(z) = int_{z0}^{z} f, built numerically, has derivative f(z)
    H = get_algebra("H")
    f = poly_fn(H, [H.element([0.3, 0.1]), 0.0, 3.0])
    z0 = H.element([0.1, 0.0])

    def F(coords):
        return integrate_curve(f, segment(z0, H.element(coords))).value.coords

    # wrap the numeric primitive as a black-box for a small FD Jacobian
    z = H.element([0.9, 0.4])
    h = 1e-5
    J = np.empty((2, 2))
    for i in range(2):
        step = np.zeros(2)
        step[i] = h
        J[:, i] = (F(z.coords + step) - F(z.coords - step)) / (2 * h)
    # J should be the representation matrix of f(z): columns f(z)*v_i
    from acalc.algebra import regrep

    assert np.max(np.abs(J - regrep(f(z)))) <= 1e-4


def test_log_integrand_in_units_region():
    # g(z) = int_1^z d eta / eta over the unit wedge of H satisfies g' = 1/z
    H = get_algebra("H")
    inv_fn = ExprFn(H, (parse("x1/(x1^2 - x2^2)", 2), parse("-x2/(x1^2 - x2^2)", 2)))
    one = H.one()

    def g(coords):
        return integrate_curve(inv_fn, segment(one, H.element(coords))).value.coords

    z = H.element([2.0, 0.5])  # inside the x > |y| wedge, segment stays in units
    h = 1e-5
    J = np.empty((2, 2))
    for i in range(2):
        step = np.zeros(2)
        step[i] = h
        J[:, i] = (g(z.coords + step) - g(z.coords - step)) / (2 * h)
    from acalc.algebra import regrep

    assert np.max(np.abs(J - regrep(inv_fn(z)))) <= 1e-4
    assert np.max(np.abs(J - regrep(invert(z)))) <= 1e-4


def test_domain_error_on_zero_divisor_crossing():
    # rational integrand along a segment through the light-cone singularity
    H = get_algebra("H")
    inv_fn = ExprFn(H, (parse("x1/(x1^2 - x2^2)", 2), parse("-x2/(x1^2 - x2^2)", 2)))
    bad = segment(H.element([1.0, 1.0]), H.element([1.0, 1.0]) * 3.0)  # on the cone
    with pytest.raises((DomainError, QuadratureNonConvergence)):
        integrate_curve(inv_fn, bad)


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def test_load_parametric_curve(tmp_path):
    import json

    doc = {
        "algebra": "H",
        "kind": "parametric",
        "components": ["cos(t)", "sin(t)"],
        "t0": 0.0,
        "t1": 2.0 * np.pi,
    }
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(doc))
    curve = load_curve(str(path))
    assert curve.closed
    f = poly_fn(curve.algebra, [0.0, 0.0, 1.0])
    assert norm(integrate_curve(f, curve).value) <= 1e-8


def test_load_polyline_curve(tmp_path):
    import json

    doc = {"algebra": "C", "kind": "polyline", "vertices": [[0, 0], [1, 0], [1, 1]]}
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(doc))
    curve = load_curve(str(path))
    assert not curve.closed
    assert len(curve.vertices) == 3


def test_quadrature_nonconvergence_near_singularity():
    # the path crosses the singular cone at a non-dyadic parameter, so no
    # sample hits the pole exactly and refinement runs out of depth
    H = get_algebra("H")
    inv_fn = ExprFn(H, (parse("x1/(x1^2 - x2^2)", 2), parse("-x2/(x1^2 - x2^2)", 2)))
    crossing = segment(H.element([2.0, 1.0]), H.element([2.0, 3.0 + 1e-7]))
    with pytest.raises(QuadratureNonConvergence) as excinfo:
        integrate_curve(inv_fn, crossing)
    assert excinfo.value.error_bound > 0


# ---------------------------------------------------------------------------
# batch evaluation: scipy oracle, call counts, refinement cap
# ---------------------------------------------------------------------------

def _smooth_fn(A):
    return ExprFn(A, (parse("exp(x1)*cos(x2) + x2^2", 2), parse("x1*x2 - sin(x1)", 2)))


def _quad_oracle(f, point, velocity, t0, t1):
    """int f(z(t)) * z'(t) dt per component by scipy, one point at a time."""
    A = f.algebra

    def component(k):
        def integrand(t):
            return mul(f(A.element(point(t))), A.element(velocity(t))).coords[k]
        value, err = quad(integrand, t0, t1, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert err <= 1e-12  # the oracle itself is two orders finer than the checks
        return value

    return np.array([component(k) for k in range(A.dim)])


# On the dual circle scipy warns that roundoff keeps its estimate (1.2e-13)
# just above its 1e-13 target; the oracle asserts its own error instead.
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_integral_matches_scipy_on_circle_and_polyline():
    t = {"t": 0}
    verts = np.array([[0.0, 0.0], [1.0, 0.5], [0.5, 2.0], [-1.0, 1.0]])
    for name in ("C", "H", "dual"):
        A = get_algebra(name)
        f = _smooth_fn(A)
        circle = ParametricCurve(A, (parse("0.2 + 1.3*cos(t)", 1, names=t),
                                     parse("-0.1 + 1.3*sin(t)", 1, names=t)), 0.0, 2.0 * np.pi)
        want = _quad_oracle(f, circle.point, circle.velocity, circle.t0, circle.t1)
        assert np.max(np.abs(integrate_curve(f, circle).value.coords - want)) <= 1e-10
        # segment p -> q is p + s (q - p) for s in [0, 1]
        want = sum(_quad_oracle(f, lambda s, p=p, d=q - p: p + s * d, lambda s, d=q - p: d, 0.0, 1.0)
                   for p, q in zip(verts, verts[1:]))
        poly = Polyline(tuple(A.element(v) for v in verts))
        assert np.max(np.abs(integrate_curve(f, poly).value.coords - want)) <= 1e-10


def test_gauss_kronrod_tables_are_exact_for_polynomials():
    # K15 integrates t^k over [-1, 1] exactly up to k = 22, G7 up to k = 13
    from acalc.integrate import GK_NODES, GK_WEIGHTS

    kronrod, gauss = GK_WEIGHTS[0], GK_WEIGHTS[0] - GK_WEIGHTS[1]
    for k in range(23):
        exact = (1 - (-1) ** (k + 1)) / (k + 1)
        assert abs(kronrod @ GK_NODES ** k - exact) <= 1e-15
        if k <= 13:
            assert abs(gauss @ GK_NODES ** k - exact) <= 1e-15
    assert abs(gauss @ GK_NODES ** 14 - 2 / 15) > 1e-6


def test_quadrature_rows_on_unit_circle(eval_rows):
    C = get_algebra("C")
    result = integrate_curve(poly_fn(C, [0.0, 0.0, 1.0]), unit_circle(C))
    assert norm(result.value) <= 1e-12
    assert result.error_bound <= 1e-10
    assert sum(eval_rows) <= 300
    assert len(eval_rows) <= 5


def test_polyline_and_probe_are_one_call(eval_calls):
    C = get_algebra("C")
    f = poly_fn(C, [C.element([0.3, -0.2]), 1.0, C.element([0.5, 0.5]), 1.0])
    rng = np.random.default_rng(4)
    verts = [random_element(C, rng) for _ in range(6)]
    integrate_curve(f, Polyline(tuple(verts)))
    assert len(eval_calls) == 1
    eval_calls.clear()
    assert antiderivative_probe(f, verts, seed=2).max_discrepancy <= 1e-10
    assert len(eval_calls) == 1


def test_quadrature_makes_one_call_per_level(eval_calls):
    from acalc.integrate import MAX_DEPTH

    C = get_algebra("C")
    result = integrate_curve(poly_fn(C, [0.0, 0.0, 1.0]), unit_circle(C))
    assert norm(result.value) <= 1e-8
    assert len(eval_calls) <= MAX_DEPTH + 2
    # 1/z on a circle that passes 1e-3 from its pole refines on 15 levels, so
    # two calls a level would break the bound
    eval_calls.clear()
    t = {"t": 0}
    near_pole = ParametricCurve(C, (parse("1.001 + cos(t)", 1, names=t), parse("sin(t)", 1, names=t)),
                                0.0, 2.0 * np.pi)
    inv = ExprFn(C, (parse("x1/(x1^2+x2^2)", 2), parse("-x2/(x1^2+x2^2)", 2)))
    assert norm(integrate_curve(inv, near_pole).value) <= 1e-8
    assert 15 <= len(eval_calls) <= MAX_DEPTH + 2


def test_riemann_sum_is_one_call(eval_calls):
    H = get_algebra("H")
    curve = Polyline(tuple(H.element(v) for v in ([0.0, 0.0], [1.0, 0.5], [0.5, 1.5])))
    riemann_sum(poly_fn(H, [0.0, 0.0, 1.0]), curve, 200)
    assert len(eval_calls) == 1


def test_refinement_cap_stops_a_hopeless_integral_quickly():
    import time

    C = get_algebra("C")
    f = ExprFn(C, (parse("exp(x1)*cos(x2)", 2), parse("exp(x1)*sin(x2)", 2)))
    t = {"t": 0}
    circle = ParametricCurve(C, (parse("30*cos(t)", 1, names=t),
                                 parse("30*sin(t)", 1, names=t)), 0.0, 2.0 * np.pi)
    times = []
    for _ in range(3):  # best of three, so that a busy machine does not decide
        start = time.perf_counter()
        with pytest.raises(QuadratureNonConvergence):
            integrate_curve(f, circle)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1


def test_exp_loops_vanish_up_to_radius_nine():
    # |exp| reaches e^9 on the largest circle; the quadrature still converges
    C = get_algebra("C")
    f = ExprFn(C, (parse("exp(x1)*cos(x2)", 2), parse("exp(x1)*sin(x2)", 2)))
    t = {"t": 0}
    for r in range(1, 10):
        circle = ParametricCurve(C, (parse(f"{r}*cos(t)", 1, names=t),
                                     parse(f"{r}*sin(t)", 1, names=t)), 0.0, 2.0 * np.pi)
        result = loop_integral(f, circle)
        assert result.vanishes
        assert result.error_bound <= 1e-10


# ---------------------------------------------------------------------------
# pinned bits
# ---------------------------------------------------------------------------

INTEGRALS_GOLDEN = Path(__file__).resolve().parent / "data" / "integrals.txt"


def _ellipse(a):
    """z_k(t) = c_k + a_k cos t + b_k sin t over [0, 2 pi], a closed curve in every dimension."""
    comps = tuple(parse(f"{0.125 * (k + 1) * (-1) ** k!r} + {1.25 - 0.25 * k!r}*cos(t)"
                        f" + {0.5 + 0.125 * k!r}*sin(t)", 1, names={"t": 0}) for k in range(a.dim))
    return ParametricCurve(a, comps, 0.0, 2.0 * np.pi)


def _vertices(a, count=4):
    return tuple(a.element([((3 * j + 5 * k) % 7 - 3) / 4 for k in range(a.dim)]) for j in range(count))


def _pinned_functions(a):
    cubic = [a.element([(m - k) / (m + k + 2) for k in range(a.dim)]) for m in range(4)]
    return [("z^2", lambda: poly_fn(a, [0.0, 0.0, 1.0])),
            ("cubic", lambda: poly_fn(a, cubic)),
            ("zbar2", lambda: conjugate_fn(a, 2))]


def _hex(*values) -> str:
    return " ".join(float(v).hex() for v in values)


def _integrals() -> str:
    """On every fixture, for z^2, a cubic with element coefficients and the
    second conjugate: the ML report (the integral's value and error bound, and
    lhs, M and L) along an ellipse and a polyline, and the probe's largest
    discrepancy, all in hex, or the error with its message."""
    from acalc.errors import AcalcError
    from acalc.fixtures import bundled_algebras

    lines = []
    for name, a in bundled_algebras().items():
        for label, make_f in _pinned_functions(a):
            for kind, make_curve in (("ellipse", lambda: _ellipse(a)), ("polyline", lambda: Polyline(_vertices(a)))):
                try:
                    rep = ml_bound_check(make_f(), make_curve())
                    text = (f"value={_hex(*rep.integral.value.coords)} error_bound={_hex(rep.integral.error_bound)}"
                            f" lhs={_hex(rep.lhs)} M={_hex(rep.M)} L={_hex(rep.L)}")
                except AcalcError as exc:
                    text = f"{type(exc).__name__}: {exc}"
                lines.append(f"{name} {label} {kind}: {text}\n")
            try:
                text = f"max_discrepancy={_hex(antiderivative_probe(make_f(), _vertices(a, 6), seed=3).max_discrepancy)}"
            except AcalcError as exc:
                text = f"{type(exc).__name__}: {exc}"
            lines.append(f"{name} {label} probe: {text}\n")
    return "".join(lines)


def test_integrals_are_pinned():
    assert _integrals().encode("utf-8") == INTEGRALS_GOLDEN.read_bytes()


def test_fused_integrand_rows_equal_the_three_call_route_bit_for_bit(fixtures):
    # a parametric curve's one kernel gives the rows that evaluating z, z'
    # and f separately and multiplying gives, on every fixture: no fixture
    # differs in any bit
    from acalc.algebra import mul_batch

    t = np.concatenate([np.pi * (1.0 + GK_NODES), 0.375 * (1.0 + GK_NODES) + 0.125])
    for a in fixtures.values():
        curve = _ellipse(a)
        for label, make_f in _pinned_functions(a)[: 3 if a.dim > 1 else 2]:
            f = make_f()
            want = mul_batch(a, f.eval_coords(curve.point(t)), curve.velocity(t))
            got = curve.integrand(f)(np.zeros(len(t), dtype=int), t)
            assert got.tobytes() == want.tobytes(), (a.name, label)


def test_fused_integrand_is_built_once_per_function():
    C = get_algebra("C")
    curve, f, g = unit_circle(C), poly_fn(C, [0.0, 0.0, 1.0]), conjugate_fn(C, 2)
    assert curve.integrand(f) is curve.integrand(f)
    assert curve.integrand(f) is not curve.integrand(g)
    assert len(curve._integrands) == 2
    del f
    assert len(curve._integrands) == 1  # held only as long as the function lives


def test_fused_route_raises_domain_error():
    C = get_algebra("C")
    t = {"t": 0}
    z2, zero = poly_fn(C, [0.0, 0.0, 1.0]), poly_fn(C, [0.0])
    # a curve point that overflows, whether or not f or the product reads it
    far = ParametricCurve(C, (parse("1e308*(2 + cos(t))", 1, names=t), parse("sin(t)", 1, names=t)),
                          0.0, 2.0 * np.pi)
    for f in (z2, zero):
        with pytest.raises(DomainError, match="non-finite"):
            integrate_curve(f, far)
    # the pole of 1/z at the centre node t = 0 of the line z(t) = (t, t)
    inv = ExprFn(C, (parse("x1/(x1^2+x2^2)", 2), parse("-x2/(x1^2+x2^2)", 2)))
    diagonal = ParametricCurve(C, (parse("t", 1, names=t), parse("t", 1, names=t)), -1.0, 1.0)
    with pytest.raises(DomainError, match="division by zero"):
        integrate_curve(inv, diagonal)
    # a factor 0 that the parser kept still evaluates the pole it multiplies
    zero_times_pole = ExprFn(C, (parse("0*(1/x1)", 2), parse("x2", 2)))
    with pytest.raises(DomainError, match="division by zero"):
        integrate_curve(zero_times_pole, diagonal)
    # f = 1e200 and z' ~ 1e200 are finite, f * z' overflows: a DomainError,
    # where the three-call route refined the inf rows to QuadratureNonConvergence
    big = poly_fn(C, [C.element([1e200, 0.0])])
    wide = ParametricCurve(C, (parse("1e200*cos(t)", 1, names=t), parse("1e200*sin(t)", 1, names=t)),
                           0.0, 2.0 * np.pi)
    assert np.isfinite(wide.velocity(np.linspace(0.0, 2.0 * np.pi, 9))).all()
    with pytest.raises(DomainError, match="non-finite"):
        integrate_curve(big, wide)
