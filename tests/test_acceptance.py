"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 9a is recorded exactly as handed down and marked strict-xfail:
the function it names, f(x + y*eps) = x + y*eps, is the identity map, whose
deleted quotient telescopes to h * h^{-1} = 1 for every unit offset h.  A
diverging verdict would require the false dual reciprocal
(a - b*eps/a)/a^2 - multiplying that by (a + b*eps) leaves a stray
(ab - b)*eps/a^2 - and the true reciprocal (a - b*eps)/a^2 is exactly what
criterion 2 pins down.
"""

import numpy as np
import pytest

from acalc.algebra import (
    Kind,
    classify,
    invert,
    mul,
    mul_batch,
    norm,
    regrep,
    regrep_batch,
    submult_bound,
)
from acalc.calculus import adiff_test, conjugate_frame, derivative, taylor_eval, wirtinger_apply
from acalc.diffquot import d2_probe
from acalc.eqgen import check_residual, gen_cr, gen_laplace, Term, Equation
from acalc.errors import NonInvertibleBasis
from acalc.expr import ExprFn, conjugate_fn, exprfn_mul, identity_fn, parse, poly_fn
from acalc.fixtures import bundled_algebras, triangular6, wave_algebra
from acalc.integrate import (
    ParametricCurve,
    integrate_curve,
    loop_integral,
    ml_bound_check,
    reverse_curve,
)
from acalc.isomorph import dalembert_solution, pairs_to_hyperbolic, verify_isomorphism

from conftest import random_element, random_elements

FIXTURES = bundled_algebras()
COMMUTATIVE = {k: a for k, a in FIXTURES.items() if a.commutative}
UNITY_FIRST = {k: a for k, a in FIXTURES.items()
               if np.allclose(a.unity, np.eye(a.dim)[0])}


def report(n, ok, text):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def zeta_power(a, n):
    return poly_fn(a, [0.0] * n + [1.0])


def test_criterion_01_representation_homomorphism():
    rng = np.random.default_rng(101)
    ok = True
    for a in FIXTURES.values():
        X = rng.uniform(-2, 2, (10_000, a.dim))
        Y = rng.uniform(-2, 2, (10_000, a.dim))
        P = mul_batch(a, X, Y)
        lhs = regrep_batch(a, P)
        rhs = regrep_batch(a, X) @ regrep_batch(a, Y)
        worst = float(np.max(np.sqrt(np.sum((lhs - rhs) ** 2, axis=(1, 2)))))
        ok = ok and worst <= 1e-10
    C, N = FIXTURES["C"], FIXTURES["dual"]
    a_, b_ = 1.25, -2.5
    ok = ok and np.array_equal(regrep(C.element([a_, b_])), [[a_, -b_], [b_, a_]])
    ok = ok and np.array_equal(regrep(N.element([a_, b_])), [[a_, 0.0], [b_, a_]])
    report(1, ok, "M(x*y) = M(x)M(y) at 1e-10 over 1e4 pairs per fixture; "
                  "complex and dual matrices entry-exact")


def test_criterion_02_trichotomy_and_inverses():
    # the raw inverse residual is eps times the condition number of M(x):
    # any double-precision inverse of a kappa = 1e8 unit leaves ~1e-8, so the
    # flat 1e-9 applies to units away from the singular cone and the
    # conditioned bound covers draws that land next to it
    eps = float(np.finfo(float).eps)
    rng = np.random.default_rng(102)
    ok = True
    for a in FIXTURES.values():
        kinds = {Kind.ZERO: 0, Kind.UNIT: 0, Kind.ZERO_DIVISOR: 0}
        X = rng.uniform(-2, 2, (10_000, a.dim))
        for coords in X:
            x = a.element(coords)
            c = classify(x)
            kinds[c.kind] += 1
            if c.kind is Kind.UNIT:
                resid = norm(mul(x, c.inverse) - a.one())
                s = np.linalg.svd(regrep(x), compute_uv=False)
                cond = s[0] / s[-1]
                if resid > max(1e-9, 100.0 * eps * cond):
                    ok = False
                if cond <= 1e5 and resid > 1e-9:
                    ok = False
            populated = (c.inverse is not None) + (c.witness is not None)
            if populated != (0 if c.kind is Kind.ZERO else 1):
                ok = False
        if sum(kinds.values()) != 10_000:
            ok = False
    # dual inverse formula to 1e-12
    N = FIXTURES["dual"]
    for a_, b_ in ((2.0, 3.0), (-0.5, 1.25), (4.0, 0.0)):
        got = invert(N.element([a_, b_]))
        ok = ok and np.allclose(got.coords, [1 / a_, -b_ / (a_ * a_)], atol=1e-12)
    # hyperbolic zero-divisor set is exactly the pair of lines a = +/- b
    H = FIXTURES["H"]
    for t in np.linspace(-3, 3, 25):
        if t == 0.0:
            continue
        ok = ok and classify(H.element([t, t])).kind is Kind.ZERO_DIVISOR
        ok = ok and classify(H.element([t, -t])).kind is Kind.ZERO_DIVISOR
        ok = ok and classify(H.element([t, 0.9 * t])).kind is Kind.UNIT
    report(2, ok, "trichotomy over 1e4 elements per fixture; unit inverses at 1e-9; "
                  "dual inverse (a-b*eps)/a^2 at 1e-12; hyperbolic cone exact")


def test_criterion_03_submultiplicative_bound():
    rng = np.random.default_rng(103)
    H = FIXTURES["H"]
    ok = abs(submult_bound(H) - 3.0 * np.sqrt(2.0)) <= 1e-15
    for a in FIXTURES.values():
        K = submult_bound(a)
        X = rng.uniform(-2, 2, (100_000, a.dim))
        Y = rng.uniform(-2, 2, (100_000, a.dim))
        lhs = np.linalg.norm(mul_batch(a, X, Y), axis=1)
        rhs = K * np.linalg.norm(X, axis=1) * np.linalg.norm(Y, axis=1)
        ok = ok and bool(np.all(lhs <= rhs * (1 + 1e-12)))
    x = H.element([1.0, 1.0])
    ok = ok and abs(norm(mul(x, x)) - np.sqrt(2.0) * norm(x) ** 2) <= 1e-12
    report(3, ok, "K_H = 3*sqrt(2) exact; bound holds on 1e5 pairs per fixture; "
                  "(1+j)^2 achieves factor sqrt(2) at 1e-12")


def test_criterion_04_adifferentiability():
    rng = np.random.default_rng(104)
    ok = True
    for a in COMMUTATIVE.values():
        for n in range(1, 6):
            f = zeta_power(a, n)
            for _ in range(50):
                p = random_element(a, rng, scale=1.5)
                rep = adiff_test(f, p)
                if not rep.is_adiff:
                    ok = False
                    continue
                expected = float(n) * p ** (n - 1)
                if norm(rep.derivative - expected) > 1e-6 * max(1.0, norm(expected)):
                    ok = False
    for a in UNITY_FIRST.values():
        if a.dim < 2:
            continue
        f = conjugate_fn(a, 2)
        for _ in range(10):
            rep = adiff_test(f, random_element(a, rng))
            if rep.is_adiff or rep.residual <= 0.1:
                ok = False
    A6 = triangular6()
    one = parse("1", 6)
    f6 = ExprFn(A6, (one, one, one, one, one, parse("x3^2", 6)))
    g6 = ExprFn(A6, (parse("0", 6), parse("0", 6), parse("0", 6),
                     parse("x2", 6), parse("0", 6), parse("x5", 6)))
    fg, gf = exprfn_mul(f6, g6), exprfn_mul(g6, f6)
    for _ in range(20):
        p = random_element(A6, rng)
        if not adiff_test(fg, p).is_adiff or adiff_test(gf, p).is_adiff:
            ok = False
    report(4, ok, "zeta^n differentiable with derivative n*zeta^(n-1) at 1e-6 "
                  "(50 points/commutative fixture); conjugate fails everywhere; "
                  "noncommutative product order split reproduced")


def test_criterion_05_wirtinger_identities():
    rng = np.random.default_rng(105)
    ok = True
    checked = 0
    for a in FIXTURES.values():
        if a.dim < 2:
            continue
        try:
            frame = conjugate_frame(a)
        except NonInvertibleBasis:
            continue
        checked += 1
        p = random_element(a, rng)
        ident = identity_fn(a)
        if norm(wirtinger_apply(ident, "zeta", p) - a.one()) > 1e-10:
            ok = False
        for j in range(2, a.dim + 1):
            cj = conjugate_fn(a, j)
            if norm(wirtinger_apply(cj, "zeta", p)) > 1e-10:
                ok = False
            if norm(wirtinger_apply(ident, f"zbar{j}", p)) > 1e-10:
                ok = False
            for k in range(2, a.dim + 1):
                got = wirtinger_apply(cj, f"zbar{k}", p)
                target = a.one() if j == k else a.zero()
                if norm(got - target) > 1e-10:
                    ok = False
        if a.commutative:
            # the product identity needs commutativity: for quaternions the
            # conjugate derivative of zeta*conj2 is (zeta + i^-1 zeta i)/2
            f = exprfn_mul(identity_fn(a), conjugate_fn(a, 2))
            if norm(wirtinger_apply(f, "zbar2", p) - p) > 1e-10:
                ok = False
    ok = ok and checked >= 7  # C, H, 3-/4-hyperbolic, waves, quaternions
    report(5, ok, "conjugate-variable independence table at 1e-10 on every "
                  f"invertible-basis fixture ({checked} algebras); "
                  "d(zeta*conj2)/dconj2 = zeta on the commutative ones")


def test_criterion_06_equation_generation():
    rng = np.random.default_rng(106)
    N = FIXTURES["dual"]
    dx, dy = (1, 0), (0, 1)
    ok = list(gen_cr(N).equations) == [
        Equation((Term(1.0, dy, 0),)),
        Equation((Term(1.0, dy, 1), Term(-1.0, dx, 0))),
    ]
    # 3-hyperbolic span
    A3 = FIXTURES["3-hyperbolic"]
    system = gen_laplace(A3)
    ok = ok and len(system.equations) == 3
    keys = sorted({t.orders for eq in system.equations for t in eq.terms})
    index_of = {k: i for i, k in enumerate(keys)}
    rows = []
    for eq in system.equations:
        v = np.zeros(len(keys))
        for t in eq.terms:
            v[index_of[t.orders]] = t.coeff
        rows.append(v)
    got = np.vstack(rows)
    expected = np.zeros((3, len(keys)))
    for r, (pos, neg) in enumerate((((2, 0, 0), (0, 1, 1)),
                                    ((0, 2, 0), (1, 0, 1)),
                                    ((0, 0, 2), (1, 1, 0)))):
        expected[r, index_of[pos]] = 1.0
        expected[r, index_of[neg]] = -1.0
    for row in expected:
        x, *_ = np.linalg.lstsq(got.T, row, rcond=None)
        ok = ok and np.linalg.norm(got.T @ x - row) <= 1e-10
    for row in got:
        x, *_ = np.linalg.lstsq(expected.T, row, rcond=None)
        ok = ok and np.linalg.norm(expected.T @ x - row) <= 1e-10
    # complex Laplacian
    (eq,) = gen_laplace(FIXTURES["C"]).equations
    ok = ok and {t.orders: t.coeff for t in eq.terms} == {(2, 0): 1.0, (0, 2): 1.0}
    # wave equation for c in {1, 2, 3}
    for c in (1.0, 2.0, 3.0):
        (weq,) = gen_laplace(wave_algebra(c)).equations
        coeffs = {t.orders: t.coeff for t in weq.terms}
        v = np.array([coeffs.get((2, 0), 0.0), coeffs.get((0, 2), 0.0)])
        target = np.array([c * c, -1.0])
        cross = abs(v[0] * target[1] - v[1] * target[0])
        ok = ok and cross <= 1e-10 * np.linalg.norm(v) * np.linalg.norm(target)
    # components of zeta^3 solve every generated system
    for a in COMMUTATIVE.values():
        f = zeta_power(a, 3)
        grid = random_elements(a, rng, 10)
        if a.dim >= 2 and np.allclose(a.unity, np.eye(a.dim)[0]):
            ok = ok and check_residual(gen_cr(a), f, grid) <= 1e-8
        ok = ok and check_residual(gen_laplace(a), f, grid) <= 1e-8
    report(6, ok, "dual component equations exact; 3-hyperbolic span equality at 1e-10; "
                  "complex Laplacian; wave equation for c in {1,2,3}; zeta^3 residuals <= 1e-8")


def test_criterion_07_taylor():
    rng = np.random.default_rng(107)
    ok = True
    for a in COMMUTATIVE.values():
        for k in (1, 2, 3):
            coeffs = [random_element(a, rng) for _ in range(k + 1)]
            f = poly_fn(a, coeffs)
            p = random_element(a, rng)
            h = random_element(a, rng, scale=0.5)
            if norm(taylor_eval(f, p, h, k) - f(p + h)) > 1e-10:
                ok = False
    for a in list(COMMUTATIVE.values())[:6]:
        f = zeta_power(a, 3)
        p = random_element(a, rng)
        for k in (1, 2):
            logs_h, logs_r = [], []
            for m in range(3, 11):
                h = (2.0 ** -m) * a.one()
                r = norm(f(p + h) - taylor_eval(f, p, h, k))
                if r > 0.0:
                    logs_h.append(np.log(2.0 ** -m))
                    logs_r.append(np.log(r))
            slope = np.polyfit(logs_h, logs_r, 1)[0]
            if slope < k + 0.9:
                ok = False
    report(7, ok, "degree-k Taylor exact at 1e-10 for degree-k polynomials; "
                  "remainder log-log slopes >= k+0.9 for cubic truncations")


def _unit_circle(a):
    return ParametricCurve(
        algebra=a,
        components=(parse("cos(t)", 1, names={"t": 0}), parse("sin(t)", 1, names={"t": 0})),
        t0=0.0, t1=2.0 * np.pi,
    )


def test_criterion_08_integration():
    rng = np.random.default_rng(108)
    ok = True
    ml_all = True
    for i in range(10):
        a = [FIXTURES["H"], FIXTURES["C"], FIXTURES["3-hyperbolic"]][i % 3]
        coeffs = [rng.uniform(-1, 1, a.dim) for _ in range(3)]
        comps = tuple(
            parse(
                f"({float(c0)!r}) + ({float(c1)!r})*t + ({float(c2)!r})*t^2",
                1, names={"t": 0},
            )
            for c0, c1, c2 in zip(*coeffs)
        )
        curve = ParametricCurve(algebra=a, components=comps, t0=0.0, t1=1.0)
        f = poly_fn(a, [0.0, 0.0, 3.0])
        value = integrate_curve(f, curve).value
        if norm(value - (curve.end ** 3 - curve.start ** 3)) > 1e-8:
            ok = False
        ml_all = ml_all and ml_bound_check(f, curve).holds
        fw = integrate_curve(f, curve).value
        bw = integrate_curve(f, reverse_curve(curve)).value
        if norm(fw + bw) > 1e-10:
            ok = False
    for name in ("H", "C"):
        a = FIXTURES[name]
        circle = _unit_circle(a)
        for k in (1, 2):
            result = loop_integral(zeta_power(a, k), circle)
            if norm(result.value) > 1e-8:
                ok = False
            ml_all = ml_all and ml_bound_check(zeta_power(a, k), circle).holds
    conj_loop = loop_integral(conjugate_fn(FIXTURES["C"], 2), _unit_circle(FIXTURES["C"]))
    ok = ok and norm(conj_loop.value) > 0.1
    ml_all = ml_all and ml_bound_check(conjugate_fn(FIXTURES["C"], 2),
                                       _unit_circle(FIXTURES["C"])).holds
    ok = ok and ml_all
    report(8, ok, "FTC over 10 random curves at 1e-8; unit-circle loops of zeta, zeta^2 "
                  "vanish in H and C; conjugate loop exceeds 0.1; ML bound never violated; "
                  "reversal antisymmetry at 1e-10")


@pytest.mark.xfail(
    strict=True,
    reason="contradicts criterion 2: f = x + y*eps is the identity map, so its "
           "deleted quotient is exactly 1 under the true dual reciprocal "
           "(a - b*eps)/a^2 that criterion 2 requires",
)
def test_criterion_09a_dual_probe_diverges_as_stated():
    rng = np.random.default_rng(109)
    N = FIXTURES["dual"]
    f = ExprFn(N, (parse("x1", 2), parse("x2", 2)))
    ok = True
    for _ in range(20):
        p = random_element(N, rng)
        if d2_probe(f, p).verdict != "diverges":
            ok = False
    report("9a", ok, "dual f = x + y*eps probes Diverges at 20 random points")


def test_criterion_09b_d1_d2_agreement():
    rng = np.random.default_rng(110)
    N = FIXTURES["dual"]
    f = ExprFn(N, (parse("x1", 2), parse("x2", 2)))
    ok = True
    for _ in range(20):
        p = random_element(N, rng)
        rep = adiff_test(f, p)
        if not rep.is_adiff or norm(rep.derivative - N.one()) > 1e-6:
            ok = False
        # correct-arithmetic behavior: the quotient of the identity is the unity
        probe = d2_probe(f, p)
        if probe.verdict != "converges" or norm(probe.limit - N.one()) > 1e-10:
            ok = False
    for name in ("RxR", "C"):
        a = FIXTURES[name]
        g = poly_fn(a, [a.element(rng.uniform(-1, 1, a.dim)), 2.0, 1.0])
        for _ in range(20):
            p = random_element(a, rng)
            probe = d2_probe(g, p)
            if probe.verdict != "converges":
                ok = False
                continue
            if norm(probe.limit - derivative(g, p)) > 1e-5:
                ok = False
    report("9b", ok, "dual identity passes adiff everywhere (probe converges to 1 "
                     "under correct arithmetic); R x R and C probe limits match "
                     "derivatives at 1e-5 over 20 points")


def test_criterion_10_dalembert_pipeline():
    ok = True
    for c in (1.0, 2.0):
        f, iso = dalembert_solution(c, "sin(s)", "s^2")
        ok = ok and verify_isomorphism(iso).ok
        u = f.components[0]
        from acalc.expr import compile_expr, derive

        residual_terms = [(c * c, derive(u, (2, 0))), (-1.0, derive(u, (0, 2)))]
        kernel = compile_expr(tuple(d for _, d in residual_terms))
        worst = 0.0
        for x in np.linspace(-1, 1, 20):
            for t in np.linspace(-1, 1, 20):
                r = sum(coef * v for (coef, _), v in zip(residual_terms, kernel((x, t))))
                worst = max(worst, abs(r))
        ok = ok and worst <= 1e-6
    report(10, ok, "|c^2 u_xx - u_tt| <= 1e-6 on a 20x20 grid for the transferred "
                   "sin/square profiles, c in {1, 2}")


def test_criterion_11_isomorphism_suite():
    rng = np.random.default_rng(111)
    m = pairs_to_hyperbolic()
    ok = verify_isomorphism(m).ok
    for _ in range(1000):
        x = random_element(m.source, rng)
        if classify(x).kind != classify(m(x)).kind:
            ok = False
    report(11, ok, "R x R -> H splitting map verifies; unit/zero-divisor kinds "
                   "transfer over 1e3 random elements")
