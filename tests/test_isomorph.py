from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from acalc.algebra import Kind, classify, invert, mul, norm
from acalc.calculus import adiff_test, derivative
from acalc.errors import AlgebraMismatch, NotAnIsomorphism
from acalc.expr import ExprFn, identity_fn, poly_fn
from acalc.fixtures import get_algebra
from acalc.isomorph import (
    LinMap,
    dalembert_solution,
    load_linmap,
    pairs_to_hyperbolic,
    save_linmap,
    transfer_function,
    verify_isomorphism,
    wave_isomorphism,
)

from conftest import random_element


def test_pairs_to_hyperbolic_verifies():
    m = pairs_to_hyperbolic()
    assert m.verified_isomorphism
    report = verify_isomorphism(m)
    assert report.ok and report.invertible and report.unity_preserved
    assert report.max_mult_residual <= 1e-10


def test_identity_map_verifies():
    C = get_algebra("C")
    m = LinMap(source=C, target=C, matrix=np.eye(2))
    assert verify_isomorphism(m).ok


def test_i_to_one_map_fails():
    # sending i to 1 cannot be multiplicative: (i*i) maps to -1, images give +1
    C = get_algebra("C")
    m = LinMap(source=C, target=C, matrix=np.array([[1.0, 1.0], [0.0, 0.0]]))
    report = verify_isomorphism(m)
    assert not report.ok
    assert report.max_mult_residual > 0.1


def test_units_and_zero_divisors_transfer():
    m = pairs_to_hyperbolic()
    RxR = m.source
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = random_element(RxR, rng)
        kx = classify(x).kind
        ky = classify(m(x)).kind
        assert kx == ky
    # structured zero divisors on both axes
    for coords in ([1.5, 0.0], [0.0, -2.0]):
        x = RxR.element(coords)
        assert classify(x).kind is Kind.ZERO_DIVISOR
        assert classify(m(x)).kind is Kind.ZERO_DIVISOR


def test_inverse_transfers():
    m = pairs_to_hyperbolic()
    rng = np.random.default_rng(3)
    count = 0
    while count < 50:
        x = random_element(m.source, rng)
        if classify(x).kind is not Kind.UNIT:
            continue
        count += 1
        lhs = m(invert(x))
        rhs = invert(m(x))
        assert norm(lhs - rhs) <= 1e-9 * max(1.0, norm(rhs))


def test_transfer_square_function():
    # squaring on R x R transfers to squaring on H
    m = pairs_to_hyperbolic()
    f = poly_fn(m.source, [0.0, 0.0, 1.0])
    g = transfer_function(m, f)
    rng = np.random.default_rng(5)
    for _ in range(20):
        y = random_element(m.target, rng)
        assert norm(g(y) - mul(y, y)) <= 1e-12


def test_transfer_identity_function():
    m = pairs_to_hyperbolic()
    g = transfer_function(m, identity_fn(m.source))
    rng = np.random.default_rng(7)
    y = random_element(m.target, rng)
    assert norm(g(y) - y) <= 1e-15


def test_transfer_round_trip():
    m = pairs_to_hyperbolic()
    f = poly_fn(m.source, [m.source.element([1.0, -1.0]), 0.0, 1.0])
    g = transfer_function(m, f)
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = random_element(m.source, rng)
        back = m.inverse(g(m(x)))
        assert norm(back - f(x)) <= 1e-10


def test_transfer_preserves_differentiability_and_derivative():
    m = pairs_to_hyperbolic()
    f = poly_fn(m.source, [0.0, 0.0, 1.0])
    g_exprfn = poly_fn(m.target, [0.0, 0.0, 1.0])  # same polynomial on H
    g = transfer_function(m, f)
    assert isinstance(g, ExprFn) and g.algebra is m.target
    rng = np.random.default_rng(11)
    y = random_element(m.target, rng)
    assert norm(g(y) - g_exprfn(y)) <= 1e-12
    report = adiff_test(g_exprfn, y)
    assert report.is_adiff
    # g' = m o f' o m^{-1}
    d_source = derivative(f, m.inverse(y))
    assert norm(report.derivative - m(d_source)) <= 1e-6
    # the transferred function itself
    transferred = adiff_test(g, y)
    assert transferred.is_adiff
    assert norm(transferred.derivative - m(d_source)) <= 1e-6 * max(1.0, norm(m(d_source)))


def test_transfer_refuses_non_isomorphism():
    C = get_algebra("C")
    bad = LinMap(source=C, target=C, matrix=np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotAnIsomorphism):
        transfer_function(bad, lambda x: x)


def test_transfer_refuses_function_of_another_algebra():
    # C has the dimension of R x R but not its product
    m = pairs_to_hyperbolic()
    with pytest.raises(AlgebraMismatch):
        transfer_function(m, poly_fn(get_algebra("C"), [0.0, 0.0, 1.0]))


def test_inverse_is_held_and_inverts():
    m = wave_isomorphism(2.0)
    assert m.inverse is m.inverse
    assert m.inverse.inverse is m
    assert m.inverse.source is m.target and m.inverse.target is m.source
    np.testing.assert_allclose(m.inverse.matrix @ m.matrix, np.eye(2), atol=1e-15)
    x = m.source.element([0.3, -1.2])
    assert norm(m.inverse(m(x)) - x) <= 1e-15


def test_loose_verification_does_not_unlock_transfer():
    # i -> 2i is not multiplicative, (2i)^2 = -4 against m(-1) = -1; a loose
    # tolerance accepts it for that one report, but the map keeps its verdict
    C = get_algebra("C")
    m = LinMap(source=C, target=C, matrix=np.diag([1.0, 2.0]))
    assert verify_isomorphism(m, tol=10.0).ok
    assert not m.verified_isomorphism
    with pytest.raises(NotAnIsomorphism):
        transfer_function(m, poly_fn(C, [0.0, 0.0, 1.0]))


def test_linmap_is_frozen():
    C = get_algebra("C")
    m = LinMap(source=C, target=C, matrix=np.eye(2))
    with pytest.raises(FrozenInstanceError):
        m.matrix = np.diag([1.0, 2.0])
    with pytest.raises(ValueError):
        m.matrix[1, 1] = 2.0


def test_wave_isomorphism_values():
    m1 = wave_isomorphism(1.0)
    assert m1.verified_isomorphism
    assert np.allclose(m1(m1.source.element([1.0, 1.0])).coords, [2.0, 0.0])
    assert np.allclose(m1(m1.source.one()).coords, m1.target.unity)
    m2 = wave_isomorphism(2.0)
    assert np.allclose(m2(m2.source.element([0.0, 1.0])).coords, [2.0, -2.0])


def test_wave_transfer_gives_traveling_waves():
    # componentwise (F1(a), F2(b)) pulls back to the averaged traveling-wave form
    c = 2.0
    f, iso = dalembert_solution(c, "sin(s)", "s^2")
    for x, t in [(0.3, 0.1), (-1.0, 0.5), (2.0, -0.25)]:
        u = f((x, t)).coords[0]
        expected = 0.5 * (np.sin(x + c * t) + (x - c * t) ** 2)
        assert abs(u - expected) <= 1e-12
        v = f((x, t)).coords[1]
        expected_v = (np.sin(x + c * t) - (x - c * t) ** 2) / (2 * c)
        assert abs(v - expected_v) <= 1e-12


def test_linmap_files(tmp_path):
    m = pairs_to_hyperbolic()
    path = tmp_path / "split.json"
    save_linmap(m, str(path))
    loaded = load_linmap(str(path))
    assert verify_isomorphism(loaded).ok
    assert np.allclose(loaded.matrix, m.matrix)


def test_dimension_mismatch_rejected():
    import numpy as np
    from acalc.errors import DimensionMismatch

    C = get_algebra("C")
    R3 = get_algebra("RxRxR")
    with pytest.raises(DimensionMismatch):
        LinMap(source=C, target=R3, matrix=np.eye(2))
    m = LinMap(source=C, target=R3, matrix=np.zeros((3, 2)))
    with pytest.raises(DimensionMismatch):
        verify_isomorphism(m)
