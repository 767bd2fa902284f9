import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from acalc.algebra import make_algebra, mul, norm, regrep
from acalc.calculus import (
    DEFAULT_ADIFF_TOL,
    _EPS_CUBE_ROOT,
    _central_stencil,
    adiff_test,
    conjugate_coords,
    conjugate_frame,
    derivative,
    higher_derivative,
    jacobian_fd,
    jacobian_sym,
    taylor_eval,
    wirtinger_apply,
)
from acalc.diffquot import d2_probe
from acalc.errors import AcalcError, AlgebraMismatch, DomainError, NonInvertibleBasis, NotADifferentiable
from acalc.expr import (
    ExprFn,
    conjugate_fn,
    constant_fn,
    diff,
    exprfn_mul,
    identity_fn,
    lit,
    mul as expr_mul,
    parse,
    poly_fn,
    substitute,
    to_str,
)
from acalc.fixtures import bundled_algebras, get_algebra, n_hyperbolic, triangular6
from acalc.integrate import Polyline, antiderivative_probe, integrate_curve, ml_bound_check, riemann_sum

from conftest import random_element
from oracles import cr_residual, evaluate, exact_cr_residual, interpret


def zeta_power(algebra, n):
    return poly_fn(algebra, [0.0] * n + [1.0])


def frame_fixtures(fixtures):
    """Fixtures whose standard basis is invertible with the unity first."""
    out = {}
    for name, a in fixtures.items():
        try:
            out[name] = (a, conjugate_frame(a))
        except NonInvertibleBasis:
            pass
    return out


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------

def test_jacobian_of_square_is_rep_of_2p():
    H = get_algebra("H")
    f = zeta_power(H, 2)
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = random_element(H, rng)
        J = jacobian_fd(f, p)
        assert np.allclose(J, regrep(2.0 * p), atol=1e-7)
        assert np.allclose(jacobian_sym(f, p), regrep(2.0 * p), atol=1e-12)


def test_jacobian_of_constant_is_zero():
    C = get_algebra("C")
    f = poly_fn(C, [C.element([3.0, -1.0])])
    assert np.allclose(jacobian_fd(f, C.element([0.4, 0.2])), np.zeros((2, 2)), atol=1e-9)


def test_jacobian_of_conjugate():
    C = get_algebra("C")
    f = conjugate_fn(C, 2)
    J = jacobian_fd(f, C.element([1.0, 1.0]))
    assert np.allclose(J, [[1, 0], [0, -1]], atol=1e-9)


def test_fd_and_symbolic_jacobians_agree(commutative_fixtures):
    rng = np.random.default_rng(3)
    for a in commutative_fixtures.values():
        f = zeta_power(a, 3)
        p = random_element(a, rng)
        J_fd = jacobian_fd(f, p)
        J_sym = jacobian_sym(f, p)
        assert np.max(np.abs(J_fd - J_sym)) <= 1e-6 * max(1.0, np.max(np.abs(J_sym)))


def test_symbolic_jacobian_equals_interpreted_partials_bit_for_bit(fixtures):
    # one kernel computes every entry, each shared subterm once; a point must
    # still give the interpreter's bits, and a batch those of one batch
    # evaluation per partial
    rng = np.random.default_rng(4)
    for a in fixtures.values():
        n = a.dim
        g = ExprFn(a, tuple(parse(f"sin(x{k + 1})*exp(x1/4) + x{n}^2", n) for k in range(n)))
        f = exprfn_mul(zeta_power(a, 2), g)
        p = random_element(a, rng)
        want = [[evaluate(diff(c, i), p.coords).hex() for i in range(n)] for c in f.components]
        assert [[v.hex() for v in row] for row in jacobian_sym(f, p).tolist()] == want, a.name
        X = np.array([random_element(a, rng).coords for _ in range(3)])
        per_partial = np.stack([f.partial(i).eval_coords(X) for i in range(n)], axis=-1)
        np.testing.assert_array_equal(f.eval_jacobian(X), per_partial)


# ---------------------------------------------------------------------------
# differentiability test
# ---------------------------------------------------------------------------

def test_adiff_powers_with_derivative(commutative_fixtures):
    rng = np.random.default_rng(5)
    for a in commutative_fixtures.values():
        for n in range(1, 6):
            f = zeta_power(a, n)
            p = random_element(a, rng, scale=1.5)
            report = adiff_test(f, p)
            assert report.is_adiff, (a.name, n, report.residual)
            expected = float(n) * p ** (n - 1)
            scale = max(1.0, norm(expected))
            assert norm(report.derivative - expected) <= 1e-6 * scale


def test_conjugate_nowhere_adiff(fixtures):
    # the conjugate is defined relative to a basis whose first vector is the
    # unity; there the sign flip can never be a left multiplication
    rng = np.random.default_rng(7)
    for a in fixtures.values():
        if a.dim < 2 or not np.allclose(a.unity, np.eye(a.dim)[0]):
            continue
        f = conjugate_fn(a, 2)
        for _ in range(5):
            report = adiff_test(f, random_element(a, rng))
            assert not report.is_adiff
            assert report.residual > 0.1
            assert report.derivative is None


def test_noncommutative_product_order_matters():
    # f = (1,1,1,1,1,x3^2), g = (0,0,0,x2,0,x5): f*g stays differentiable,
    # g*f does not (the Jacobian leaves the representation pattern).
    A = triangular6()
    one = "1"
    f = ExprFn(A, tuple(parse(s, 6) for s in (one, one, one, one, one, "x3^2")))
    g = ExprFn(A, tuple(parse(s, 6) for s in ("0", "0", "0", "x2", "0", "x5")))
    fg = exprfn_mul(f, g)
    gf = exprfn_mul(g, f)
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = random_element(A, rng)
        assert adiff_test(fg, p).is_adiff
        assert not adiff_test(gf, p).is_adiff
    # the obstruction sits where the representation has no free entry
    p = random_element(A, rng)
    J = jacobian_sym(gf, p)
    assert abs(J[5, 1]) > 0.1


def test_derivative_raises_on_failure():
    C = get_algebra("C")
    with pytest.raises(NotADifferentiable):
        derivative(conjugate_fn(C, 2), C.element([0.3, 0.4]))


@pytest.mark.parametrize("call, method, error, match", [
    (adiff_test, "exact", ValueError, "'fd' or 'symbolic'"),
    # derivative takes no method: both names meant the one exact route
    (derivative, "fd", TypeError, "'method'"),
], ids=["adiff_test", "derivative"])
def test_unknown_method_is_refused(call, method, error, match):
    C = get_algebra("C")
    with pytest.raises(error, match=match):
        call(zeta_power(C, 2), C.element([0.3, 0.4]), method=method)


def test_derivative_of_constant_is_zero(commutative_fixtures):
    for a in commutative_fixtures.values():
        f = poly_fn(a, [a.one()])
        d = derivative(f, a.zero())
        assert norm(d) <= 1e-9


def test_product_rule(commutative_fixtures):
    rng = np.random.default_rng(11)
    for a in commutative_fixtures.values():
        f = poly_fn(a, [a.one(), 0.0, 1.0])          # 1 + z^2
        g = poly_fn(a, [0.0, 1.0, 0.0, 2.0])         # z + 2 z^3
        h = exprfn_mul(f, g)
        p = random_element(a, rng)
        lhs = derivative(h, p)
        rhs = mul(derivative(f, p), g(p)) + mul(f(p), derivative(g, p))
        assert norm(lhs - rhs) <= 1e-9 * max(1.0, norm(rhs))


def test_chain_rule(commutative_fixtures):
    rng = np.random.default_rng(13)
    for a in commutative_fixtures.values():
        f = poly_fn(a, [0.0, 0.0, 1.0])              # z^2
        g = poly_fn(a, [a.one(), 2.0, 0.0, 1.0])     # 1 + 2z + z^3
        composed = ExprFn(a, substitute(f.components, dict(enumerate(g.components))))
        p = random_element(a, rng, scale=1.0)
        lhs = derivative(composed, p)
        rhs = mul(derivative(f, g(p)), derivative(g, p))
        assert norm(lhs - rhs) <= 1e-8 * max(1.0, norm(rhs))


def test_cr_route_agrees_with_projection_route(commutative_fixtures):
    # oracle: the componentwise CR equations J[:, 1:] = M(J[:, 0])[:, 1:],
    # written out here for the fixtures whose unity is v_1
    rng = np.random.default_rng(15)
    for a in commutative_fixtures.values():
        if not np.allclose(a.unity, np.eye(a.dim)[0]):
            continue  # the componentwise form needs v_1 = 1
        p = random_element(a, rng)
        fns = [(zeta_power(a, 2), True)]
        if a.dim >= 2:
            fns.append((conjugate_fn(a, 2), False))
        for f, good in fns:
            J = jacobian_sym(f, p)
            cr = np.max(np.abs(J[:, 1:] - regrep(a.element(J[:, 0]))[:, 1:]), initial=0.0)
            assert (cr <= 1e-6) if good else (cr > 1e-3), a.name
            assert adiff_test(f, p).is_adiff == good, a.name


def _kernel_functions(a):
    n = a.dim
    rng = np.random.default_rng(29)
    fns = [
        zeta_power(a, 2),
        zeta_power(a, 3),
        poly_fn(a, [random_element(a, rng, scale=1.0) for _ in range(4)]),
        ExprFn(a, tuple(parse(f"exp(x{i + 1})*cos(x{(i + 1) % n + 1})", n) for i in range(n))),
    ]
    if n >= 2:
        fns.append(conjugate_fn(a, 2))
    return fns


def test_adiff_verdict_matches_least_squares_oracle(fixtures):
    # oracle: the least-squares distance from vec J to the span of the vec
    # M(v_i), stacked from regrep.  With E the part of J off the span,
    # J - M(J 1) = E - M(E 1), so dist <= residual <= kappa * dist: the
    # verdicts agree unless dist lies in (tol / kappa, tol].
    rng = np.random.default_rng(31)
    for a in fixtures.values():
        B = np.stack([regrep(v).reshape(-1) for v in a.basis()], axis=1)
        kappa = 1.0 + np.linalg.norm(B, 2) * np.linalg.norm(a.unity)
        for f in _kernel_functions(a):
            for scale in (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2):
                v = rng.normal(size=a.dim)
                p = a.element(scale * v / np.linalg.norm(v))
                r = adiff_test(f, p)
                vec = r.jacobian.reshape(-1)
                coeffs, *_ = np.linalg.lstsq(B, vec, rcond=None)
                dist = np.linalg.norm(vec - B @ coeffs) / max(1.0, np.linalg.norm(vec))
                assert dist - 1e-13 <= r.residual <= kappa * dist + 1e-13
                if not r.tol / kappa < dist <= r.tol:
                    assert r.is_adiff == (dist <= r.tol), (a.name, scale)


def test_derivative_of_left_multiplication(fixtures):
    # f(z) = c z + b has J = M(c) and derivative c on every algebra, also
    # where the unity is not the first basis vector (mat2)
    rng = np.random.default_rng(37)
    for a in fixtures.values():
        b, c, p = random_element(a, rng), random_element(a, rng), random_element(a, rng)
        d = derivative(poly_fn(a, [b, c]), p)
        assert norm(d - c) <= 1e-8 * max(1.0, norm(c)), a.name


_EXP = ("exp(x1)*cos(x2)", "exp(x1)*sin(x2)")


@settings(max_examples=200, deadline=None)
@given(x1=st.floats(-700.0, 700.0), x2=st.floats(-1e6, 1e6))
def test_exp_is_differentiable_at_every_scale(x1, x2):
    # a step that grew with ||p|| read exp as not differentiable at 0 + 1e4 i
    C = get_algebra("C")
    r = adiff_test(ExprFn(C, tuple(parse(s, 2) for s in _EXP)), C.element([x1, x2]))
    assert r.is_adiff, r.residual
    want = (math.exp(x1) * math.cos(x2), math.exp(x1) * math.sin(x2))
    d = r.derivative.coords.tolist()
    assert math.hypot(d[0] - want[0], d[1] - want[1]) <= 4 * np.finfo(float).eps * math.hypot(*want)


_COMMUTATIVE = sorted(name for name, a in bundled_algebras().items() if a.commutative)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(_COMMUTATIVE), k=st.integers(2, 5), data=st.data())
def test_powers_are_differentiable_at_every_scale(name, k, data):
    a = get_algebra(name)
    v = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=a.dim, max_size=a.dim))
    for t in (1e-3, 1.0, 1e3):
        r = adiff_test(zeta_power(a, k), a.element([t * x for x in v]))
        assert r.is_adiff, (t, r.residual)


def test_symmetric_cr_form_commutative(commutative_fixtures):
    # (df/dx_i) * v_j = v_i * (df/dx_j)
    rng = np.random.default_rng(17)
    for a in commutative_fixtures.values():
        f = zeta_power(a, 3)
        p = random_element(a, rng)
        partials = [f.partial(i)(p) for i in range(a.dim)]
        for i in range(a.dim):
            for j in range(a.dim):
                lhs = mul(partials[i], a.basis_element(j))
                rhs = mul(a.basis_element(i), partials[j])
                assert norm(lhs - rhs) <= 1e-9 * max(1.0, norm(rhs))


# ---------------------------------------------------------------------------
# higher derivatives
# ---------------------------------------------------------------------------

def test_higher_derivative_cubic():
    H = get_algebra("H")
    f = zeta_power(H, 3)
    rng = np.random.default_rng(19)
    p = random_element(H, rng)
    d2 = higher_derivative(f, p, 2)
    assert norm(d2 - 6.0 * p) <= 1e-9
    d4 = higher_derivative(f, p, 4)
    assert norm(d4) <= 1e-12
    assert norm(higher_derivative(f, p, 0) - f(p)) == 0.0
    with pytest.raises(ValueError):
        higher_derivative(f, p, -1)


def test_higher_derivative_fd_fallback():
    # oracle: central differences along the unity, d^k/dt^k f(p + t 1) = f^(k)(p)
    H = get_algebra("H")
    f = zeta_power(H, 3)
    p = H.element([0.5, 0.25])
    e = H.unity
    g = lambda t: f.eval_coords(p.coords + t * e)
    fd = {
        1: lambda h: (g(h) - g(-h)) / (2 * h),
        2: lambda h: (g(h) - 2 * g(0.0) + g(-h)) / h**2,
        3: lambda h: (g(2 * h) - 2 * g(h) + 2 * g(-h) - g(-2 * h)) / (2 * h**3),
    }
    for k, h in ((1, 1e-5), (2, 1e-4), (3, 1e-3)):
        sym = higher_derivative(f, p, k)
        assert norm(sym - H.element(fd[k](h))) <= 1e-4 * max(1.0, norm(sym)), k


def test_mixed_partial_identity(commutative_fixtures):
    # d^2 f / dx_i dx_j = f'' * v_i * v_j
    rng = np.random.default_rng(23)
    for a in commutative_fixtures.values():
        f = zeta_power(a, 3)
        p = random_element(a, rng)
        fpp = higher_derivative(f, p, 2)
        for i in range(a.dim):
            for j in range(a.dim):
                mixed = f.partial(i).partial(j)(p)
                expected = mul(mul(fpp, a.basis_element(i)), a.basis_element(j))
                assert norm(mixed - expected) <= 1e-8 * max(1.0, norm(expected))


# ---------------------------------------------------------------------------
# conjugate coordinates
# ---------------------------------------------------------------------------

def test_conjugate_frame_rejects_nilpotent_basis():
    with pytest.raises(NonInvertibleBasis):
        conjugate_frame(get_algebra("dual"))
    with pytest.raises(NonInvertibleBasis):
        conjugate_frame(get_algebra("RxR"))  # unity (1, 1) not the first basis vector
    with pytest.raises(NonInvertibleBasis):
        conjugate_frame(get_algebra("mat2"))  # unity not the first basis vector


def test_conjugate_frame_rejects_zero_divisor_basis():
    # R x R over the basis 1, e = (1, 0): the unity is v_1, and the idempotent
    # e, with e (1 - e) = 0, is a zero divisor
    C = np.zeros((2, 2, 2))
    C[0, 0, 0] = C[0, 1, 1] = C[1, 0, 1] = C[1, 1, 1] = 1.0
    A = make_algebra(2, C, [1, 0], labels=["1", "e"], name="RxR over 1, e")
    assert A.unity_first
    with pytest.raises(NonInvertibleBasis) as info:
        conjugate_frame(A)
    assert str(info.value) == "basis vector 'e' is not a unit"


def test_conjugate_frame_inverses(fixtures):
    for name, a in fixtures.items():
        try:
            frame = conjugate_frame(a)
        except NonInvertibleBasis:
            continue
        for j, inv in enumerate(frame.inverse_basis, start=1):
            prod = mul(a.basis_element(j), inv)
            assert norm(prod - a.one()) <= 1e-10


def test_repeat_frame_and_wirtinger_do_not_classify_again(monkeypatch):
    import acalc.algebra as alg

    calls = []
    original = alg.classify
    monkeypatch.setattr(alg, "classify", lambda x: calls.append(x) or original(x))
    A3 = n_hyperbolic(3)  # a new algebra, whose basis inverses are not yet held
    first = conjugate_frame(A3)
    assert len(calls) == A3.dim
    calls.clear()
    again = conjugate_frame(A3)
    assert all(x is y for x, y in zip(again.inverse_basis, first.inverse_basis))
    wirtinger_apply(zeta_power(A3, 2), "zbar2", A3.element([0.3, -0.1, 1.1]))
    assert calls == []


def test_conjugate_coords_coerce_the_point():
    C, H = get_algebra("C"), get_algebra("H")
    frame = conjugate_frame(C)
    (zbar,) = conjugate_coords(frame, [1.0, 2.0])
    assert zbar.algebra is C and zbar.coords.tolist() == [1.0, -2.0]
    with pytest.raises(AlgebraMismatch):
        conjugate_coords(frame, H.element([1.0, 2.0]))


def test_trihyperbolic_conjugate():
    A3 = get_algebra("3-hyperbolic")
    frame = conjugate_frame(A3)
    zeta = A3.element([1.0, 2.0, 3.0])
    conj = conjugate_coords(frame, zeta)
    assert np.allclose(conj[0].coords, [1.0, -2.0, 3.0])   # x - jy + j^2 z
    assert np.allclose(conj[1].coords, [1.0, 2.0, -3.0])


def test_complex_conjugate_matches_classical():
    C = get_algebra("C")
    frame = conjugate_frame(C)
    z = C.element([1.5, -0.5])
    (zbar,) = conjugate_coords(frame, z)
    assert np.allclose(zbar.coords, [1.5, 0.5])


def test_conjugate_reconstruction_identities(fixtures):
    # x_j = (1/(2 v_j)) (zeta - conj_j)  and  x_1 = ((3-n) zeta + sum conj_j)/2
    rng = np.random.default_rng(29)
    for name, a in fixtures.items():
        try:
            frame = conjugate_frame(a)
        except NonInvertibleBasis:
            continue
        n = a.dim
        zeta = random_element(a, rng)
        conj = conjugate_coords(frame, zeta)
        for j in range(1, n):
            xj = 0.5 * mul(frame.inverse_basis[j - 1], zeta - conj[j - 1])
            expected = zeta.coords[j] * a.unity
            assert np.allclose(xj.coords, expected, atol=1e-12), name
        acc = (3.0 - n) * zeta
        for c in conj:
            acc = acc + c
        x1 = 0.5 * acc
        assert np.allclose(x1.coords, zeta.coords[0] * a.unity, atol=1e-12)


# ---------------------------------------------------------------------------
# Wirtinger operators
# ---------------------------------------------------------------------------

def test_wirtinger_identity_table(fixtures):
    # d zeta / d zeta = 1, d conj_j / d zeta = 0, d conj_j / d conj_k = delta_jk,
    # d zeta / d conj_j = 0
    rng = np.random.default_rng(31)
    for name, a in fixtures.items():
        if a.dim < 2:
            continue
        try:
            frame = conjugate_frame(a)
        except NonInvertibleBasis:
            continue
        p = random_element(a, rng)
        ident = identity_fn(a)
        assert norm(wirtinger_apply(ident, "zeta", p) - a.one()) <= 1e-10
        for j in range(2, a.dim + 1):
            conj_j = conjugate_fn(a, j)
            assert norm(wirtinger_apply(conj_j, "zeta", p)) <= 1e-10
            assert norm(wirtinger_apply(ident, f"zbar{j}", p)) <= 1e-10
            for k in range(2, a.dim + 1):
                val = wirtinger_apply(conj_j, f"zbar{k}", p)
                target = a.one() if j == k else a.zero()
                assert norm(val - target) <= 1e-10, (name, j, k)


def test_wirtinger_product_zeta_zbar2():
    # f = zeta * conj_2:  df/dconj_2 = zeta and df/dzeta = conj_2
    for name in ("C", "H", "3-hyperbolic"):
        a = get_algebra(name)
        frame = conjugate_frame(a)
        f = exprfn_mul(identity_fn(a), conjugate_fn(a, 2))
        rng = np.random.default_rng(33)
        p = random_element(a, rng)
        conj = conjugate_coords(frame, p)
        assert norm(wirtinger_apply(f, "zbar2", p) - p) <= 1e-10
        assert norm(wirtinger_apply(f, "zeta", p) - conj[0]) <= 1e-10


def test_adiff_implies_conjugate_derivatives_vanish(fixtures):
    rng = np.random.default_rng(35)
    for name, a in fixtures.items():
        if not a.commutative or a.dim < 2:
            continue
        try:
            frame = conjugate_frame(a)
        except NonInvertibleBasis:
            continue
        f = poly_fn(a, [a.one(), 2.0, 0.0, 1.0])
        p = random_element(a, rng)
        for j in range(2, a.dim + 1):
            assert norm(wirtinger_apply(f, f"zbar{j}", p)) <= 1e-9


def test_wirtinger_inverse_relation(fixtures):
    # d/dx1 = d/dzeta + sum_j d/dconj_j on random polynomials
    rng = np.random.default_rng(37)
    for name, a in fixtures.items():
        if a.dim < 2:
            continue
        try:
            frame = conjugate_frame(a)
        except NonInvertibleBasis:
            continue
        coeffs = [random_element(a, rng), random_element(a, rng), random_element(a, rng)]
        f = poly_fn(a, coeffs)
        p = random_element(a, rng)
        acc = wirtinger_apply(f, "zeta", p)
        for j in range(2, a.dim + 1):
            acc = acc + wirtinger_apply(f, f"zbar{j}", p)
        direct = f.partial(0)(p)
        assert norm(acc - direct) <= 1e-9 * max(1.0, norm(direct))


def test_wirtinger_inverse_relation_per_coordinate(fixtures):
    # d/dx_k = v_k * (d/dzeta + sum_j d/dconj_j - 2 d/dconj_k) for k >= 2
    rng = np.random.default_rng(38)
    for name, a in fixtures.items():
        if a.dim < 2:
            continue
        try:
            frame = conjugate_frame(a)
        except NonInvertibleBasis:
            continue
        f = poly_fn(a, [random_element(a, rng), random_element(a, rng), 1.0])
        p = random_element(a, rng)
        zeta_part = wirtinger_apply(f, "zeta", p)
        zbar_parts = [wirtinger_apply(f, f"zbar{j}", p) for j in range(2, a.dim + 1)]
        total = zeta_part
        for z in zbar_parts:
            total = total + z
        for k in range(2, a.dim + 1):
            combo = total - 2.0 * zbar_parts[k - 2]
            lhs = mul(a.basis_element(k - 1), combo)
            rhs = f.partial(k - 1)(p)
            assert norm(lhs - rhs) <= 1e-9 * max(1.0, norm(rhs)), (name, k)


def test_wirtinger_product_rule(fixtures):
    rng = np.random.default_rng(39)
    for name, a in fixtures.items():
        if not a.commutative or a.dim < 2:
            continue
        try:
            frame = conjugate_frame(a)
        except NonInvertibleBasis:
            continue
        f = poly_fn(a, [random_element(a, rng), random_element(a, rng)])
        g = exprfn_mul(identity_fn(a), conjugate_fn(a, 2))
        h = exprfn_mul(f, g)
        p = random_element(a, rng)
        for which in ["zeta"] + [f"zbar{j}" for j in range(2, a.dim + 1)]:
            lhs = wirtinger_apply(h, which, p)
            rhs = mul(wirtinger_apply(f, which, p), g(p)) + mul(
                f(p), wirtinger_apply(g, which, p)
            )
            assert norm(lhs - rhs) <= 1e-8 * max(1.0, norm(rhs)), (name, which)


# ---------------------------------------------------------------------------
# Taylor expansion
# ---------------------------------------------------------------------------

def test_taylor_exact_for_quadratic():
    H = get_algebra("H")
    f = poly_fn(H, [H.element([1.0, 1.0]), 2.0, 1.0])
    rng = np.random.default_rng(41)
    p = random_element(H, rng)
    h = random_element(H, rng, scale=0.5)
    t2 = taylor_eval(f, p, h, 2)
    assert norm(t2 - f(p + h)) <= 1e-10


def test_taylor_degree_zero():
    C = get_algebra("C")
    f = poly_fn(C, [0.0, 0.0, 1.0])
    p = C.element([0.3, 0.7])
    h = C.element([0.1, -0.1])
    assert norm(taylor_eval(f, p, h, 0) - f(p)) == 0.0
    with pytest.raises(ValueError):
        taylor_eval(f, p, h, -1)


def test_taylor_remainder_order(commutative_fixtures):
    # truncation at k of a cubic decays like ||h||^(k+1): log-log slope fit
    rng = np.random.default_rng(43)
    for a in list(commutative_fixtures.values())[:5]:
        f = zeta_power(a, 3)
        p = random_element(a, rng, scale=1.0)
        direction = a.one()
        for k in (1, 2):
            logs_h, logs_r = [], []
            for m in range(3, 11):
                h = (2.0 ** -m) * direction
                r = norm(f(p + h) - taylor_eval(f, p, h, k))
                if r == 0.0:
                    continue
                logs_h.append(np.log(norm(h)))
                logs_r.append(np.log(r))
            slope = np.polyfit(logs_h, logs_r, 1)[0]
            assert slope >= k + 1 - 0.1, (a.name, k, slope)


def test_taylor_rejects_non_differentiable():
    C = get_algebra("C")
    f = conjugate_fn(C, 2)
    with pytest.raises(NotADifferentiable):
        taylor_eval(f, C.element([0.2, 0.3]), C.element([0.1, 0.1]), 2)


def test_taylor_refuses_a_non_finite_offset_or_power():
    # a NaN or infinite offset, and one whose square overflows, raise where
    # the sum would give nan + nan*i
    C = get_algebra("C")
    f = poly_fn(C, [0.0, 0.0, 1.0])
    for h in ([math.nan, 0.0], [math.inf, 0.0], [-math.inf, 0.5]):
        for k in (0, 1, 2):
            with pytest.raises(DomainError, match="offset coordinates must be finite"):
                taylor_eval(f, C.one(), C.element(h), k)
    with pytest.raises(DomainError, match=r"h\^2 is not finite"):
        taylor_eval(f, C.one(), C.element([1e200, 0.0]), 2)
    # degree 1 reads only h, which is finite: 1 + 2 h
    assert taylor_eval(f, C.one(), C.element([1e200, 0.0]), 1).coords.tolist() == [2e200, 0.0]


def test_wirtinger_rejects_bad_operator_name():
    C = get_algebra("C")
    f = zeta_power(C, 2)
    with pytest.raises(ValueError):
        wirtinger_apply(f, "zbar7", C.element([0.1, 0.2]))
    with pytest.raises(ValueError):
        wirtinger_apply(f, "nonsense", C.element([0.1, 0.2]))
    with pytest.raises(ValueError):
        wirtinger_apply(f, 2, C.element([0.1, 0.2]))


@pytest.mark.parametrize("which", ["zbarx", "zbar", "zbar-2", "zbar²"])
def test_wirtinger_names_the_operator_it_refuses(which):
    C = get_algebra("C")
    message = f"operator must be 'zeta' or 'zbar<j>', got {which!r}"
    with pytest.raises(ValueError, match=message):
        wirtinger_apply(zeta_power(C, 2), which, C.element([0.1, 0.2]))


@pytest.mark.parametrize("call", [
    lambda f, p, curve: adiff_test(f, p, method="fd"),
    lambda f, p, curve: adiff_test(f, p, method="symbolic"),
    lambda f, p, curve: wirtinger_apply(f, "zbar2", p),
    lambda f, p, curve: d2_probe(f, p),
    lambda f, p, curve: taylor_eval(f, p, p, 2),
    lambda f, p, curve: antiderivative_probe(f, [p, 2.0 * p]),
    lambda f, p, curve: integrate_curve(f, curve),
    lambda f, p, curve: riemann_sum(f, curve, 8),
    lambda f, p, curve: ml_bound_check(f, curve),
], ids=["adiff_fd", "adiff_symbolic", "wirtinger", "d2_probe", "taylor", "antiderivative_probe",
        "integrate_curve", "riemann_sum", "ml_bound_check"])
def test_point_or_curve_of_another_algebra_is_refused(call):
    f = zeta_power(get_algebra("C"), 2)
    H = get_algebra("H")
    p = H.element([1.0, 2.0])
    with pytest.raises(AlgebraMismatch):
        call(f, p, Polyline((H.zero(), p)))


def _interpreted_fd(f, p):
    """Central differences of the interpreter at the rows of ``jacobian_fd``'s stencil."""
    n = f.algebra.dim
    h = _EPS_CUBE_ROOT * max(1.0, math.sqrt(p.coords.dot(p.coords)))
    rows = p.coords + h * _central_stencil(n)
    values = [interpret(f.components, row) for row in rows]
    return np.array([[(values[i][k] - values[n + i][k]) / (2.0 * h) for i in range(n)]
                     for k in range(n)])


def test_jacobian_fd_evaluates_stencil_points_on_floats(eval_calls):
    # each stencil row runs through the components kernel on floats, so J is
    # the interpreter's central differences bit for bit, and C-ordered
    Q = get_algebra("quaternions")
    f = zeta_power(Q, 3)
    p = Q.element([0.3, -0.2, 0.5, 0.1])
    J = jacobian_fd(f, p)
    assert eval_calls == []
    assert J.flags.c_contiguous
    assert [v.hex() for v in J.ravel().tolist()] == [v.hex() for v in _interpreted_fd(f, p).ravel().tolist()]
    assert np.max(np.abs(J - jacobian_sym(f, p))) <= 1e-6


_FD_TEMPLATES = ("exp(x{a}/2)*x{b}", "log(x{a})", "sqrt(x{a}^2 + x{b})", "x{a}^3/(x{b}^2 + 1)",
                 "x{b}/x{a}", "sin(x{a})^2 - x{b}^-1", "cos(x{b})*exp(x{a})^2")


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(bundled_algebras())), data=st.data())
def test_jacobian_fd_equals_interpreted_central_differences(name, data):
    a = get_algebra(name)
    n = a.dim
    index = st.integers(1, n)
    components = tuple(
        parse(data.draw(st.sampled_from(_FD_TEMPLATES)).format(a=data.draw(index), b=data.draw(index)), n)
        for _ in range(n)
    )
    f = ExprFn(a, components)
    p = a.element(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    try:
        want = _interpreted_fd(f, p)
    except DomainError:
        want = None
    if want is None or not np.isfinite(want).all():
        with pytest.raises(DomainError):
            jacobian_fd(f, p)
        return
    J = jacobian_fd(f, p)
    assert J.flags.c_contiguous
    assert [v.hex() for v in J.ravel().tolist()] == [v.hex() for v in want.ravel().tolist()]


# ---------------------------------------------------------------------------
# the held projector P = I - rep_basis (I kron unity^T)
# ---------------------------------------------------------------------------

def test_projector_annihilates_representation_matrices(fixtures):
    rng = np.random.default_rng(21)
    for a in fixtures.values():
        P = a.cr_projector
        assert P.shape == (a.dim ** 2, a.dim ** 2)
        for _ in range(20):
            M = regrep(random_element(a, rng))
            bound = 4 * np.spacing(np.linalg.norm(M))
            assert np.max(np.abs(P @ M.ravel())) <= bound, a.name


def _exact_residual(a, J):
    """||P vec(J)|| / max(1, ||J||_F) in rational arithmetic, rounded twice:
    to a float, then by its square root."""
    vec = J.ravel().tolist()
    r2 = sum(v * v for v in cr_residual(a, vec))
    return math.sqrt(r2 / max(1, sum(Fraction(v) ** 2 for v in vec)))


def test_projected_residual_matches_exact_residual(fixtures):
    # the oracle is exact: a float J - M(J 1) rounds d = J 1 first, which on
    # RxR (d_1 = J_11 + J_12) moves the residual by up to 7 ulps
    rng = np.random.default_rng(22)
    for a in fixtures.values():
        n = a.dim
        g = ExprFn(a, tuple(parse(f"exp(x{n})", n) for _ in range(n)))
        fns = [zeta_power(a, 3), conjugate_fn(a, 2) if n > 1 else zeta_power(a, 2),
               exprfn_mul(zeta_power(a, 2), g)]
        for f in fns:
            report = adiff_test(f, random_element(a, rng))
            J = report.jacobian
            exact = _exact_residual(a, J)
            assert abs(report.residual - exact) <= 4 * np.spacing(exact), a.name
            if report.is_adiff:
                assert report.derivative.coords.tobytes() == (J @ a.unity).tobytes()


def test_derivative_is_the_first_jacobian_column_when_unity_first(fixtures):
    # J 1 reads column 1 of J when 1 = v_1; tol=inf asks for it at every point
    rng = np.random.default_rng(25)
    for a in fixtures.values():
        if not a.unity_first:
            continue
        n = a.dim
        g = ExprFn(a, tuple(parse(f"exp(x{n})", n) for _ in range(n)))
        for f in (zeta_power(a, 3), exprfn_mul(zeta_power(a, 2), g)):
            for _ in range(5):
                report = adiff_test(f, random_element(a, rng), tol=math.inf)
                assert report.derivative.coords.tobytes() == report.jacobian[:, 0].tobytes(), a.name


def test_constant_function_has_zero_residual(fixtures):
    # J = 0: no power of two scales its largest entry into [1/2, 1)
    for a in fixtures.values():
        f = constant_fn(a, a.element(np.linspace(-1.0, 2.0, a.dim)))
        report = adiff_test(f, a.one())
        assert (report.residual, report.is_adiff) == (0.0, True), a.name
        assert not report.jacobian.any() and not report.derivative.coords.any()


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the residual ||P vec(J)|| / max(1, ||J||) is absolute below ||J|| = 1, so on "
           "quaternions, mat2 and triangular6 z^2 and z^3 read differentiable at small scales",
)
def test_verdict_is_the_exact_residual_test_for_polynomials(fixtures):
    # a polynomial f at a float point has an exact vec(J), so "P vec(J) = 0"
    # is decidable; 2^s p is exact too, so every scale asks the same question
    rng = np.random.default_rng(26)
    wrong = []
    for a in fixtures.values():
        n = a.dim
        fns = {"z^2": zeta_power(a, 2), "z^3": zeta_power(a, 3)}
        if n > 1:
            fns["conjugate 2"] = conjugate_fn(a, 2)
        points = [rng.integers(-8, 9, n) / 8 for _ in range(3)]
        for label, f in fns.items():
            for x in points:
                for s in range(-40, 11, 2):
                    p = a.element(np.ldexp(x, s))
                    if adiff_test(f, p).is_adiff != (not any(exact_cr_residual(f, p))):
                        wrong.append((a.name, label, x.tolist(), s))
    assert wrong == [], f"{len(wrong)} verdicts differ from the exact test, such as {wrong[:3]}"


def test_exact_residual_of_powers_vanishes_exactly_on_commutative_fixtures(fixtures):
    # P vec(J) of z^k is a polynomial in the point; at a random rational point
    # it is 0 unless the polynomial is nonzero, with probability at most its
    # degree over the number of numerators (Schwartz-Zippel), so no tolerance
    rng = np.random.default_rng(27)
    for a in fixtures.values():
        point = [Fraction(int(rng.integers(-10 ** 9, 10 ** 9)), int(rng.integers(1, 10 ** 9)))
                 for _ in range(a.dim)]
        for k in (2, 3, 4):
            vanishes = not any(exact_cr_residual(zeta_power(a, k), point))
            assert vanishes == a.commutative, (a.name, k)
    assert sum(a.commutative for a in fixtures.values()) == 13


ADIFF_VERDICTS_GOLDEN = Path(__file__).resolve().parent / "data" / "adiff_verdicts.txt"
_S3 = math.sqrt(3.0) / 2.0
# exp on the 3-hyperbolic numbers, j^3 = 1: the real character and the complex pair
_EXP_3H = tuple(f"(exp(x1+x2+x3)+2*exp(x1-(x2+x3)/2)*cos({_S3!r}*(x2-x3)-{2 * math.pi * k / 3!r}))/3"
                for k in range(3))


def _verdict(label, make_f, p) -> str:
    """One line: the residual, verdict, derivative and Jacobian of
    ``adiff_test`` in hex, or the error with its message."""
    try:
        r = adiff_test(make_f(), p)
    except AcalcError as exc:
        return f"{label}: {type(exc).__name__}: {exc}\n"
    d = "-" if r.derivative is None else " ".join(v.hex() for v in r.derivative.coords.tolist())
    J = " ".join(v.hex() for v in r.jacobian.ravel().tolist())
    return f"{label}: residual={r.residual.hex()} adiff={r.is_adiff} derivative={d} jacobian={J}\n"


def _verdict_cases() -> list:
    """z^2, z^3 and the second conjugate at a fixed point, 1e299 z^2 there
    (J near 1e300) and z^2 at that point times 1e-310 (J subnormal), on
    every fixture; exp near the top of the float range on C and the
    3-hyperbolic numbers; and three domain errors: (label, make_f, point)."""
    cases = []
    for name, a in bundled_algebras().items():
        p = [0.3 + 0.4 * i * (-1) ** i for i in range(a.dim)]
        cases += [(f"{name} {label} at {q}", make_f, q) for label, make_f, q in [
            ("z^2", lambda a=a: zeta_power(a, 2), p), ("z^3", lambda a=a: zeta_power(a, 3), p),
            ("zbar2", lambda a=a: conjugate_fn(a, 2), p),
            ("1e299*z^2", lambda a=a: poly_fn(a, [0.0, 0.0, 1e299]), p),
            ("z^2 subnormal", lambda a=a: zeta_power(a, 2), [1e-310 * v for v in p])]]
    C, A3 = get_algebra("C"), get_algebra("3-hyperbolic")
    exp_c = lambda: ExprFn(C, tuple(parse(s, 2) for s in _EXP))
    exp_3h = lambda: ExprFn(A3, tuple(parse(s, 3) for s in _EXP_3H))
    log_c = lambda: ExprFn(C, (parse("log(x1)", 2), parse("x2", 2)))
    cases += [(f"{label} at {q}", make_f, q) for label, make_f, q in [
        ("C exp", exp_c, [690.7, 0.5]),
        ("3-hyperbolic exp", exp_3h, [230.5, 230.7, 230.6]),
        ("C exp overflow", exp_c, [710.0, 0.5]),
        ("C z^2 overflow", lambda: zeta_power(C, 2), [1e300, 1e300]),
        ("C log", log_c, [-1.0, 0.5])]]
    return cases


def _adiff_verdicts() -> str:
    return "".join(_verdict(label, make_f, q) for label, make_f, q in _verdict_cases())


def test_adiff_verdicts_are_pinned():
    assert _adiff_verdicts().encode("utf-8") == ADIFF_VERDICTS_GOLDEN.read_bytes()


def test_derivative_trees_print_as_text_that_parses_back_to_them():
    # the Cauchy-Riemann sum 1e308 + 1e308 stays a node, as every fold that is
    # not finite does, so it prints as text the parser reads back to the node
    RxR = get_algebra("RxR")
    big = ExprFn(RxR, (parse("1e308*x1+1e308*x2", 2), parse("x2", 2)))
    functions = [big]
    for _, make_f, _ in _verdict_cases():
        try:
            functions.append(make_f())
        except AcalcError:  # R zbar2: R has no second coordinate
            continue
    for f in functions:
        n = f.algebra.dim
        for e in f.unity_derivative.components + f._vec:
            assert parse(to_str(e), n) == e, to_str(e)
    assert to_str(big.unity_derivative.components[0]) == "1e+308 + 1e+308"


def test_report_is_read_only_and_builds_the_kernels_jacobian():
    a = get_algebra("triangular6")
    f = zeta_power(a, 3)
    p = a.element([0.3 + 0.1 * i for i in range(a.dim)])
    report = adiff_test(f, p)
    for name in ("point", "jacobian_vec", "residual", "is_adiff", "derivative", "tol", "jacobian"):
        with pytest.raises(AttributeError):
            setattr(report, name, None)
    assert report.jacobian.shape == (a.dim, a.dim)
    assert report.jacobian.tobytes() == f.eval_jacobian(p).tobytes()


def test_batch_jacobian_is_each_reports_jacobian_vec_bit_for_bit(fixtures):
    # the Jacobian kernel at a batch runs the report function's lines of f and J
    rng = np.random.default_rng(30)
    assert len(fixtures) == 16
    for a in fixtures.values():
        X = np.array([random_element(a, rng).coords for _ in range(5)])
        for f in _three_functions(a):
            J = f.eval_jacobian(X)
            for x, Jx in zip(X, J):
                assert Jx.tobytes() == np.array(adiff_test(f, x).jacobian_vec).tobytes(), a.name


def test_true_verdict_derivative_is_a_read_only_float64_vector(fixtures):
    import pickle
    from dataclasses import FrozenInstanceError

    from acalc.algebra import AElement

    rng = np.random.default_rng(31)
    for a in fixtures.values():
        n = a.dim
        p = random_element(a, rng) if a.commutative else a.element(0.7 * a.unity)
        for f in (zeta_power(a, 2), zeta_power(a, 3)):
            d = adiff_test(f, p).derivative
            assert type(d) is AElement and d.algebra is a, a.name
            assert d.coords.dtype == np.float64 and d.coords.shape == (n,), a.name
            assert not d.coords.flags.writeable, a.name
            with pytest.raises(ValueError):
                d.coords[0] = 1.0
            with pytest.raises(FrozenInstanceError):
                d.coords = np.zeros(n)
            assert d.coords.tobytes() == f.unity_derivative(p).coords.tobytes(), a.name
            assert (d + d).coords.tobytes() == (2.0 * d).coords.tobytes(), a.name
            assert pickle.loads(pickle.dumps(d)).coords.tobytes() == d.coords.tobytes(), a.name


def test_norm_of_f_that_overflows_still_gives_a_verdict():
    # f = (1.5e308, 1.5e308) is finite at (0.5, 0.5) and its norm is not;
    # J = 1e308 I = M(1e308) is finite, with a finite norm
    C = get_algebra("C")
    f = ExprFn(C, (parse("1e308*x1+1e308", 2), parse("1e308*x2+1e308", 2)))
    report = adiff_test(f, [0.5, 0.5])
    assert (report.residual, report.is_adiff) == (0.0, True)
    assert report.derivative.coords.tolist() == [1e308, 0.0]
    assert _one_kernel_route(f, [0.5, 0.5]) == _scaled_route(f)([0.5, 0.5])
    # an entry of f that is not finite is still refused
    with pytest.raises(DomainError, match="non-finite"):
        adiff_test(f, [1.0, 0.5])


def test_jacobian_kernel_ends_with_the_derivative_rows(fixtures):
    # oracle: numpy's J @ unity, on a point and on a batch; triangular6 and
    # RxR are among the fixtures whose unity is not v_1
    from acalc.calculus import _report_source
    from acalc.expr import Op, _postorder, compile_expr, eval_compiled

    rng = np.random.default_rng(26)
    assert not fixtures["triangular6"].unity_first and not fixtures["RxR"].unity_first
    for a in fixtures.values():
        n = a.dim
        g = ExprFn(a, tuple(parse(f"exp(x{n})", n) for _ in range(n)))
        for f in (zeta_power(a, 3), exprfn_mul(zeta_power(a, 2), g)):
            p = random_element(a, rng)
            # at tol = inf the report reads J 1 for every residual
            report = f._report(p, math.inf)
            vec, tail = report.jacobian_vec, report.derivative.coords
            J = np.array(vec).reshape(n, n)
            want = J @ a.unity
            assert np.abs(np.array(tail) - want).max() <= 1e-15 * np.abs(want).max(), a.name
            # a batch runs the trees of J 1, which the report function's lines end with
            X = np.array([random_element(a, rng).coords for _ in range(3)])
            rows = eval_compiled(compile_expr(f.unity_derivative.components), X)
            assert np.allclose(rows, f.eval_jacobian(X) @ a.unity, rtol=1e-15, atol=0.0)
        if a.unity_first:
            # J 1 is J's first column: the report has no line for it, only
            # one per operator node of f, vec(J) and P vec(J)
            vec = tuple(diff(c, i) for c in f.components for i in range(n))
            cr = _cr_rows(a, vec)
            tail = f.unity_derivative.components
            assert tail == vec[::n], a.name
            lines = _report_source(f.components + vec + cr + tail, n).splitlines()
            assert sum(line.startswith("    t") for line in lines) == \
                sum(isinstance(e, Op) for e in _postorder(f.components + vec + cr)), a.name


def _cr_rows(a, vec):
    """The nonzero trees of P vec(J), as the Jacobian kernel lists them."""
    from acalc.expr import _ZERO, _combine

    return tuple(r for r in _combine(a.cr_projector, vec) if r != _ZERO)


def _three_functions(a):
    """z^2, z^3 and the second conjugate (the identity on R)."""
    return zeta_power(a, 2), zeta_power(a, 3), conjugate_fn(a, 2) if a.dim > 1 else identity_fn(a)


def test_every_derivative_is_a_directional_derivative(fixtures):
    # oracle: J 1 as the rows I kron unity^T over vec(J), and each partial as
    # the componentwise diff; equal trees are one object, so == is identity
    from acalc.calculus import _compile_report
    from acalc.expr import _combine, compile_expr

    for a in fixtures.values():
        n = a.dim
        rows = np.kron(np.eye(n), a.unity[None, :])
        for f in _three_functions(a):
            vec = tuple(diff(c, i) for c in f.components for i in range(n))
            tail = f.unity_derivative.components
            # the held report is the one compiled from these trees, bound to f's algebra
            assert f._report is _compile_report(a, f.components + vec + _cr_rows(a, vec) + tail), a.name
            assert f._report.__globals__["_algebra"] is a, a.name
            assert f._jacobian is compile_expr(f.components + vec), a.name
            assert tail == _combine(rows, vec), a.name
            for i in range(n):
                assert f.partial(i).components == tuple(diff(c, i) for c in f.components), a.name
                assert f.partial(i) is not f.partial(i)


def test_true_verdict_derivative_is_the_unity_derivative_bit_for_bit(fixtures):
    rng = np.random.default_rng(28)
    true_verdicts = 0
    for a in fixtures.values():
        for f in _three_functions(a):
            for p in (random_element(a, rng), a.element(0.7 * a.unity)):
                report = adiff_test(f, p)
                if report.is_adiff:
                    true_verdicts += 1
                    assert report.derivative.coords.tobytes() == f.unity_derivative(p).coords.tobytes()
    assert true_verdicts >= 40


@pytest.mark.filterwarnings("error")
def test_derivative_that_overflows_is_read_only_for_a_true_verdict():
    # J = [[1e308, 1e308], [0, 1]] is finite at 0, but J 1 = (2e308, 1) is not
    a = get_algebra("RxR")
    f = ExprFn(a, (parse("1e308*sin(x1)+1e308*sin(x2)", 2), parse("x2", 2)))
    J = np.array([[1e308, 1e308], [0.0, 1.0]])
    assert np.array_equal(f.eval_jacobian([0.0, 0.0]), J)
    assert np.array_equal(f.eval_jacobian(np.zeros((3, 2))), np.stack([J] * 3))
    report = adiff_test(f, [0.0, 0.0])
    assert (report.residual, report.is_adiff, report.derivative) == (1.0, False, None)
    # J_12 = 1e301 gives the residual 7.9e-8: a true verdict at the default
    # tol, whose J 1 overflows, and a false one at tol 1e-9, which does not read it
    top = repr(sys.float_info.max)
    g = ExprFn(a, (parse(f"{top}*x1+1e301*x2", 2), parse("x2", 2)))
    with pytest.raises(DomainError, match="non-finite"):
        adiff_test(g, [0.1, 0.1])
    report = adiff_test(g, [0.1, 0.1], tol=1e-9)
    assert 7e-8 < report.residual < 8e-8 and not report.is_adiff


def _scaled_route(f, tol=DEFAULT_ADIFF_TOL):
    """The verdict as two kernels gave it, as a function of the point: f,
    vec(J) and J 1 from one kernel, vec(J) scaled by a power of two, P vec(J)
    from a second kernel over the scaled entries, and the ratio of the two
    hypots.  It returns the residual's hex, the verdict and the derivative's
    hex, or the exception type."""
    from acalc.expr import _combine, compile_expr, var

    n = f.algebra.dim
    m = n + n * n
    vec_trees = tuple(diff(c, i) for c in f.components for i in range(n))
    kernel = compile_expr(f.components + vec_trees + f.unity_derivative.components)
    cr = compile_expr(_combine(f.algebra.cr_projector, [var(j) for j in range(n * n)]))

    def route(p):
        try:
            values = kernel(list(p))
            finite = all(map(math.isfinite, values))
            if not finite and not all(map(math.isfinite, values[:m])):
                raise DomainError("not finite")
            vec = values[n:m]
            e = max(math.frexp(max(map(abs, vec)))[1], sys.float_info.min_exp)
            s = math.ldexp(1.0, -e)
            scaled = [v * s for v in vec]
            num, den = math.hypot(*cr(scaled)), math.hypot(*scaled)
            residual = num / den if e > 0 else math.ldexp(num, e) / max(1.0, math.ldexp(den, e))
            ok = residual <= tol
            if ok and not finite:
                raise DomainError("not finite")
            return residual.hex(), ok, tuple(v.hex() for v in values[m:]) if ok else None
        except Exception as exc:  # noqa: BLE001 - the type is the outcome
            return type(exc)

    return route


def _one_kernel_route(f, p):
    try:
        r = adiff_test(f, p)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)
    return r.residual.hex(), r.is_adiff, tuple(v.hex() for v in r.derivative.coords) if r.is_adiff else None


def _primitive_functions(a):
    """Functions that call exp, sin, cos, log, sqrt, / and ^: the exp of the
    bench on C and H, 1/z on C, and on every algebra log(x1^2+1) and
    sqrt(x_k^2+1)*x1 components."""
    n = a.dim
    comps = {"C": [("exp", ("exp(x1)*cos(x2)", "exp(x1)*sin(x2)")),
                   ("1/z", ("x1/(x1^2+x2^2)", "-x2/(x1^2+x2^2)"))],
             "H": [("exp", ("(exp(x1+x2)+exp(x1-x2))/2", "(exp(x1+x2)-exp(x1-x2))/2"))]}.get(a.name, [])
    comps.append(("log, sqrt", tuple("log(x1^2+1)" if k == 0 else f"sqrt(x{k + 1}^2+1)*x1" for k in range(n))))
    return [(label, ExprFn(a, tuple(parse(c, n) for c in cs))) for label, cs in comps]


def test_one_kernel_verdict_matches_the_scaled_route_bit_for_bit(fixtures):
    # 16 fixtures x {z^2, z^3, zbar2, 1e250 z^3, log and sqrt components}, and
    # exp on C and H and 1/z on C, at 2^k p for k = -1070..1030 in steps of
    # 7: the power-of-two scale is exact where nothing under- or overflows,
    # so the residual, verdict and derivative keep their bits, and the error
    # type where f or J is not finite.  The reference runs a dual-dispatch
    # kernel; the report runs the point primitives
    cases = refusals = 0
    for a in fixtures.values():
        n = a.dim
        base = [math.ldexp(0.3 + 0.1 * i, -8) for i in range(n)]  # 2^1030 base is finite
        functions = list(zip(("z^2", "z^3", "zbar2", "1e250 z^3"),
                             (*_three_functions(a), poly_fn(a, [0.0, 0.0, 0.0, 1e250]))))
        for label, f in functions + _primitive_functions(a):
            reference = _scaled_route(f)
            for k in range(-1070, 1031, 7):
                p = [math.ldexp(v, k) for v in base]
                want = reference(p)
                assert _one_kernel_route(f, p) == want, (a.name, label, k)
                cases += 1
                refusals += want is DomainError
    assert cases == (16 * 5 + 3) * 301
    assert 0 < refusals < cases  # both the verdicts and the refusals are compared


@pytest.mark.filterwarnings("error")
def test_cauchy_riemann_rows_that_overflow_take_the_scaled_rerun(fixtures, monkeypatch):
    # J = [[1, 1e308], [1e308, 1]] is finite, and J_12 + J_21 = 2e308 is not:
    # the residual is that of 2^-1024 J, sqrt(2) * 2^1024 / (sqrt(2) * 2^1024)
    C = get_algebra("C")
    f = ExprFn(C, (parse("x1+1e308*x2", 2), parse("1e308*x1+x2", 2)))
    report = adiff_test(f, [0.5, 0.5])
    assert (report.residual.hex(), report.is_adiff) == ("0x1.6a09e667f3bccp+0", False)
    assert _one_kernel_route(f, [0.5, 0.5]) == _scaled_route(f)([0.5, 0.5])
    # f = -2.4e292 is finite at (pi, 0.5), and J_11 = 2e308 is not: refused
    g = ExprFn(C, (parse("1e308*sin(2*x1)", 2), parse("x2", 2)))
    with pytest.raises(DomainError, match="non-finite"):
        adiff_test(g, [math.pi, 0.5])
    assert _scaled_route(g)([math.pi, 0.5]) is DomainError
    # on every fixture, J entries of 1.2e308 to 1.7e308, whose norm
    # overflows: the rerun's sums keep the kernel's order, bit for bit
    from acalc import calculus

    reruns = []
    rerun = calculus._scaled_residual
    rng = np.random.default_rng(29)
    for a in fixtures.values():
        n = a.dim
        rows = [rng.integers(12, 18, n).tolist() for _ in range(n)]
        f = ExprFn(a, tuple(parse("+".join(f"{c}e307*sin(x{j + 1})" for j, c in enumerate(row)), n)
                            for row in rows))
        # the report binds the rerun in its own namespace
        monkeypatch.setitem(f._report.__globals__, "_scaled_residual",
                            lambda *args: reruns.append(args) or rerun(*args))
        p = [1e-3 * (i + 1) for i in range(n)]
        assert _one_kernel_route(f, p) == _scaled_route(f)(p), a.name
    assert len(reruns) == 15  # all but R, whose P is 0 and whose one entry is finite


_ALL = sorted(bundled_algebras())


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(_ALL), which=st.integers(0, 2), k=st.integers(-60, 60), data=st.data())
def test_power_of_two_multiple_has_the_same_residual(name, which, k, data):
    # vec(J) is scaled by an exact power of two, so where both largest entries
    # are at least 1 (e > 0), f and 2^k f must read the same residual, bit for bit
    a = get_algebra(name)
    n = a.dim
    v = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n))
    g = ExprFn(a, tuple(parse(f"exp(x{n})", n) for _ in range(n)))
    f = (zeta_power(a, 3), conjugate_fn(a, 2) if n > 1 else g, exprfn_mul(zeta_power(a, 2), g))[which]
    scaled = ExprFn(a, tuple(expr_mul(lit(2.0 ** k), c) for c in f.components))
    r, r2 = adiff_test(f, v), adiff_test(scaled, v)
    assume(np.array_equal(r2.jacobian, np.ldexp(r.jacobian, k)))  # 2^k J is exact
    assume(min(np.abs(r.jacobian).max(), np.abs(r2.jacobian).max()) >= 1.0)
    assert r2.is_adiff == r.is_adiff
    assert r2.residual.hex() == r.residual.hex()


def test_projector_is_held_and_read_only(fixtures):
    for a in fixtures.values():
        P = a.cr_projector
        assert a.cr_projector is P
        assert not P.flags.writeable
        with pytest.raises(ValueError):
            P[0, 0] = 1.0


def test_repeat_taylor_reuses_held_derivatives():
    from acalc.expr import compile_expr, diff

    A = get_algebra("4-hyperbolic")
    f = zeta_power(A, 5)
    p = A.element([0.3, -0.2, 0.1, 0.4])
    h = A.element([0.05, 0.02, -0.01, 0.03])
    first = taylor_eval(f, p, h, 5)

    def lookups():
        c, d = compile_expr.cache_info(), diff.cache_info()
        return c.hits + c.misses, d.hits + d.misses

    before = lookups()
    second = taylor_eval(f, p, h, 5)
    assert lookups() == before
    assert np.array_equal(first.coords, second.coords)
