import numpy as np
import pytest

from acalc.algebra import Kind, classify, norm
from acalc.calculus import derivative
from acalc.diffquot import D2Options, d2_probe, deleted_quotient, unit_directions
from acalc.errors import NotAUnit
from acalc.expr import ExprFn, parse, poly_fn
from acalc.fixtures import get_algebra

from conftest import random_element


def linear_dual_fn():
    # f(x + y eps) = x + y eps: differentiable everywhere, quotient blows up
    N = get_algebra("dual")
    return ExprFn(N, (parse("x1", 2), parse("x2", 2)))


# ---------------------------------------------------------------------------
# single quotients
# ---------------------------------------------------------------------------

def test_quotient_of_square_is_2p_plus_h():
    H = get_algebra("H")
    f = poly_fn(H, [0.0, 0.0, 1.0])
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = random_element(H, rng)
        h = random_element(H, rng)
        if classify(h).kind is not Kind.UNIT:
            continue
        q = deleted_quotient(f, p, h)
        assert norm(q - (2.0 * p + h)) <= 1e-9 * max(1.0, norm(q))


def test_quotient_of_constant_is_zero():
    C = get_algebra("C")
    f = poly_fn(C, [C.element([1.0, -2.0])])
    q = deleted_quotient(f, C.element([0.2, 0.3]), C.element([0.5, 0.1]))
    assert norm(q) <= 1e-12


def test_quotient_rejects_zero_divisor_offset():
    H = get_algebra("H")
    f = poly_fn(H, [0.0, 1.0])
    with pytest.raises(NotAUnit):
        deleted_quotient(f, H.element([0.0, 0.0]), H.element([1.0, 1.0]))


def test_dual_quotient_of_identity_is_exactly_one():
    # f = x + y eps is the identity map, so the quotient telescopes to
    # h * h^{-1} = 1 for every unit offset; the true dual reciprocal is
    # (a - b eps)/a^2, under which no 1/dx term survives
    N = get_algebra("dual")
    f = linear_dual_fn()
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = random_element(N, rng)
        dx, dy = rng.uniform(-1, 1, 2)
        if abs(dx) < 1e-3:
            continue
        h = N.element([dx, dy])
        q = deleted_quotient(f, p, h)
        assert np.allclose(q.coords, [1.0, 0.0], atol=1e-12)


def test_dual_quotient_of_square_telescopes():
    # (z^2 - p^2)/(z - p) = z + p stays bounded on the dual numbers too
    N = get_algebra("dual")
    f = poly_fn(N, [0.0, 0.0, 1.0])
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = random_element(N, rng)
        h = random_element(N, rng, scale=0.5)
        if classify(h).kind is not Kind.UNIT:
            continue
        q = deleted_quotient(f, p, h)
        assert norm(q - (2.0 * p + h)) <= 1e-9


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def test_unit_directions_filtered_and_paired():
    N = get_algebra("dual")
    dirs = unit_directions(N, 16)
    assert len(dirs) == 16
    coords = np.array([d.coords for d in dirs])
    for d in dirs:
        assert classify(d).kind is Kind.UNIT
        assert abs(norm(d) - 1.0) <= 1e-12
    # +/- pairing keeps the mean at zero so limits cancel first-order terms
    assert np.allclose(coords.sum(axis=0), 0.0, atol=1e-12)


def test_dual_identity_probe_converges_to_one():
    N = get_algebra("dual")
    f = linear_dual_fn()
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = random_element(N, rng)
        probe = d2_probe(f, p)
        assert probe.verdict == "converges"
        assert norm(probe.limit - N.one()) <= 1e-10
        # consistent with the Jacobian-route derivative
        assert norm(derivative(f, p) - N.one()) <= 1e-9


def test_componentwise_square_on_pairs_converges():
    RxR = get_algebra("RxR")
    f = ExprFn(RxR, (parse("x1^2", 2), parse("x2^2", 2)))
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = random_element(RxR, rng)
        probe = d2_probe(f, p)
        assert probe.verdict == "converges"
        expected = RxR.element([2.0 * p.coords[0], 2.0 * p.coords[1]])
        assert norm(probe.limit - expected) <= 1e-5


def test_complex_square_converges_to_2p():
    C = get_algebra("C")
    f = poly_fn(C, [0.0, 0.0, 1.0])
    rng = np.random.default_rng(9)
    for _ in range(5):
        p = random_element(C, rng)
        probe = d2_probe(f, p)
        assert probe.verdict == "converges"
        assert norm(probe.limit - 2.0 * p) <= 1e-5


def test_probe_limits_match_derivative(commutative_fixtures):
    # wherever the probe converges the limit agrees with the Jacobian route
    rng = np.random.default_rng(11)
    for name in ("RxR", "C", "CxC", "RxRxR"):
        a = commutative_fixtures[name]
        f = poly_fn(a, [a.element(rng.uniform(-1, 1, a.dim)), 2.0, 1.0])
        for _ in range(5):
            p = random_element(a, rng)
            probe = d2_probe(f, p)
            assert probe.verdict == "converges", name
            d = derivative(f, p)
            assert norm(probe.limit - d) <= 1e-3  # 10x the probe tolerance
            assert norm(probe.limit - d) <= 1e-5  # actual agreement is far tighter


def test_probe_table_shape():
    C = get_algebra("C")
    f = poly_fn(C, [0.0, 1.0])
    opts = D2Options(n_directions=8, radii=(0.25, 0.125, 0.0625, 0.03125))
    probe = d2_probe(f, C.element([0.1, 0.2]), opts)
    assert len(probe.directions) == 8
    assert all(len(row) == 4 for row in probe.quotients)
    assert probe.quotients.shape == (8, 4, 2) and not probe.quotients.flags.writeable
    assert probe.radii == (0.25, 0.125, 0.0625, 0.03125)


def test_higher_order_dual_polynomials_converge():
    N3 = get_algebra("dual3")
    f = poly_fn(N3, [0.0, 0.0, 1.0])
    rng = np.random.default_rng(13)
    p = random_element(N3, rng)
    probe = d2_probe(f, p)
    assert probe.verdict == "converges"
    assert norm(probe.limit - 2.0 * p) <= 1e-4


def test_conjugate_on_complex_diverges():
    # the classical direction-dependence witness: quotients of z-bar sit on
    # the unit circle but never settle
    C = get_algebra("C")
    f = ExprFn(C, (parse("x1", 2), parse("-x2", 2)))
    rng = np.random.default_rng(15)
    for _ in range(5):
        p = random_element(C, rng)
        probe = d2_probe(f, p)
        assert probe.verdict == "diverges"
        assert probe.limit is None


def test_discontinuity_triggers_growth_divergence():
    # a sign jump makes quotient magnitudes double at every radius halving
    C = get_algebra("C")
    f = ExprFn(C, (parse("x1/sqrt(x1^2)", 2), parse("0", 2)))
    p = C.element([2.0 ** -20, 0.5])
    probe = d2_probe(f, p)
    assert probe.verdict == "diverges"


def test_truncated_radii_are_inconclusive():
    # with only coarse radii the quotients neither settle nor blow up
    C = get_algebra("C")
    f = poly_fn(C, [0.0, 0.0, 1.0])
    opts = D2Options(radii=(0.5, 0.25), tol=0.01)
    probe = d2_probe(f, C.element([0.3, 0.4]), opts)
    assert probe.verdict == "inconclusive"
    assert probe.limit is None


def test_probe_table_is_one_batch_call(eval_calls):
    C = get_algebra("C")
    probe = d2_probe(poly_fn(C, [0.0, 0.0, 1.0]), C.element([0.4, -0.3]))
    assert probe.verdict == "converges"
    assert len(eval_calls) <= 2


def test_repeat_probe_does_not_classify_again(monkeypatch):
    import acalc.diffquot as dq

    calls = []
    original = dq.classify

    def counted(x, *args, **kwargs):
        calls.append(x)
        return original(x, *args, **kwargs)

    monkeypatch.setattr(dq, "classify", counted)
    H = get_algebra("H")
    f = poly_fn(H, [0.0, 0.0, 1.0])
    opts = D2Options(seed=9173)
    first = d2_probe(f, H.element([0.7, 0.2]), opts)
    assert calls
    calls.clear()
    second = d2_probe(f, H.element([0.7, 0.2]), opts)
    assert calls == []
    assert second.verdict == first.verdict
    assert [d.coords.tolist() for d in second.directions] == [d.coords.tolist() for d in first.directions]
