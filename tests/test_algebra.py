import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acalc.algebra import (
    AElement,
    Kind,
    classify,
    find_invertible_basis,
    invert,
    make_algebra,
    mul,
    mul_batch,
    norm,
    number_map,
    regrep,
    regrep_batch,
    submult_bound,
)
from acalc.errors import (
    AlgebraMismatch,
    AssociativityViolation,
    DimensionMismatch,
    DomainError,
    NotAUnit,
    UnityViolation,
)
from acalc.fixtures import bundled_algebras, get_algebra, n_hyperbolic, triangular6

from conftest import random_element, random_elements
from oracles import minimal_polynomial_witness


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_make_complex_numbers():
    # i^2 = -1 table written out by hand
    C = np.zeros((2, 2, 2))
    C[0, 0] = [1, 0]
    C[0, 1] = [0, 1]
    C[1, 0] = [0, 1]
    C[1, 1] = [-1, 0]
    a = make_algebra(2, C, [1, 0], labels=["1", "i"], name="C")
    assert a.commutative
    assert a.dim == 2
    # a float table, checked to a tolerance: the basis 1, i/3 has (i/3)^2 = -1/9
    s = np.array([1.0, 1.0 / 3.0])
    assert make_algebra(2, np.einsum("ijk,i,j,k->ijk", C, s, s, 1.0 / s), [1, 0]).commutative


def test_make_one_dimensional():
    a = make_algebra(1, [[[1.0]]], [1.0], name="R")
    assert a.commutative
    x = a.element([3.0])
    assert mul(x, x).coords[0] == 9.0


def test_noncommutative_six_dim_accepted():
    a = triangular6()
    assert not a.commutative
    assert a.dim == 6
    # a float table: e4, e5, e6 scaled by 1/3 give e4 e5 = e6/3
    s = np.array([1.0, 1.0, 1.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])
    C = np.einsum("ijk,i,j,k->ijk", a.structure, s, s, 1.0 / s)
    assert not np.array_equal(C, np.round(C))
    assert not make_algebra(6, C, a.unity).commutative


def test_group_algebra_s3():
    # structure constants from composition in the symmetric group on 3 letters:
    # C[i][j][k] = 1 iff g_i g_j = g_k
    import itertools

    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # (p*q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(3))

    C = np.zeros((6, 6, 6))
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            C[i, j, index[compose(p, q)]] = 1.0
    unity = np.zeros(6)
    unity[index[(0, 1, 2)]] = 1.0
    a = make_algebra(6, C, unity, name="S3-group-algebra")
    assert not a.commutative
    # group elements are units with group-inverse representatives
    for i, p in enumerate(perms):
        c = classify(a.basis_element(i))
        assert c.kind is Kind.UNIT
        inv_perm = tuple(np.argsort(p))
        assert np.allclose(c.inverse.coords, np.eye(6)[index[inv_perm]], atol=1e-12)
    # the sum over a coset annihilates the alternating combination
    x = a.element([1, 1, 1, 1, 1, 1])
    assert classify(x).kind is Kind.ZERO_DIVISOR
    basis = find_invertible_basis(a)
    assert all(classify(w).kind is Kind.UNIT for w in basis)


def test_associativity_violation_rejected():
    a = n_hyperbolic(3)
    C = a.structure.copy()
    C[1, 2] = [0, 1, 0]  # v2*v3 = v2 breaks (v2 v2) v3 = v2 (v2 v3)
    C[2, 1] = [0, 1, 0]
    with pytest.raises(AssociativityViolation):
        make_algebra(3, C, a.unity)


def test_unity_violation_rejected():
    a = get_algebra("C")
    with pytest.raises(UnityViolation):
        make_algebra(2, a.structure, [0, 1])


def test_dimension_mismatch():
    a = get_algebra("C")
    with pytest.raises(DimensionMismatch):
        make_algebra(3, a.structure, [1, 0, 0])
    with pytest.raises(DimensionMismatch):
        a.element([1, 2, 3])


def test_elements_of_different_algebras_never_mix():
    x = get_algebra("C").element([1, 2])
    y = get_algebra("dual").element([1, 2])
    with pytest.raises(AlgebraMismatch):
        mul(x, y)
    # element() is the one point coercion: same structure passes as is
    with pytest.raises(AlgebraMismatch):
        get_algebra("dual").element(x)
    assert get_algebra("C").element(x) is x
    # a polyline's vertices share one algebra, of the same or another dimension
    from acalc.integrate import Polyline

    for other in (get_algebra("H").element([1, 1]), get_algebra("dual3").element([1, 1, 1])):
        with pytest.raises(AlgebraMismatch):
            Polyline((get_algebra("C").element([0, 0]), other))


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

def test_hyperbolic_square():
    H = get_algebra("H")
    x = H.element([1, 1])
    assert np.allclose(mul(x, x).coords, [2, 2])


def test_complex_product():
    # (a+ib)(c+id) = ac-bd + i(ad+bc): (1+2i)(3+4i) = -5+10i
    C = get_algebra("C")
    assert np.allclose(mul(C.element([1, 2]), C.element([3, 4])).coords, [-5, 10])


def test_unity_multiplication(fixtures):
    rng = np.random.default_rng(7)
    for a in fixtures.values():
        x = random_element(a, rng)
        assert np.allclose(mul(a.one(), x).coords, x.coords)
        assert np.allclose(mul(x, a.one()).coords, x.coords)


def test_associativity_random_triples(fixtures):
    rng = np.random.default_rng(11)
    for a in fixtures.values():
        for _ in range(20):
            x, y, z = random_elements(a, rng, 3)
            lhs = mul(mul(x, y), z)
            rhs = mul(x, mul(y, z))
            assert np.max(np.abs(lhs.coords - rhs.coords)) < 1e-12 * max(
                1.0, np.max(np.abs(lhs.coords))
            )


# ---------------------------------------------------------------------------
# regular representation and number map
# ---------------------------------------------------------------------------

def test_regrep_complex():
    C = get_algebra("C")
    assert np.array_equal(regrep(C.element([3, -2])), [[3, 2], [-2, 3]])


def test_regrep_dual():
    N = get_algebra("dual")
    assert np.array_equal(regrep(N.element([3, 5])), [[3, 0], [5, 3]])


def test_regrep_dual_order_four_lower_triangular():
    N4 = get_algebra("dual4")
    M = regrep(N4.element([1, 2, 3, 4]))
    expected = [[1, 0, 0, 0], [2, 1, 0, 0], [3, 2, 1, 0], [4, 3, 2, 1]]
    assert np.array_equal(M, expected)


def test_regrep_quaternions():
    Q = get_algebra("quaternions")
    a, b, c, d = 1.0, 2.0, 3.0, 4.0
    expected = [
        [a, -b, -c, -d],
        [b, a, -d, c],
        [c, d, a, -b],
        [d, -c, b, a],
    ]
    assert np.array_equal(regrep(Q.element([a, b, c, d])), expected)


def test_regrep_trihyperbolic_circulant():
    A3 = get_algebra("3-hyperbolic")
    a, b, c = 1.0, 2.0, 3.0
    expected = [[a, c, b], [b, a, c], [c, b, a]]
    assert np.array_equal(regrep(A3.element([a, b, c])), expected)


def test_regrep_quadhyperbolic_circulant():
    A4 = get_algebra("4-hyperbolic")
    a, b, c, d = 1.0, 2.0, 3.0, 4.0
    expected = [
        [a, d, c, b],
        [b, a, d, c],
        [c, b, a, d],
        [d, c, b, a],
    ]
    assert np.array_equal(regrep(A4.element([a, b, c, d])), expected)


def test_regrep_mat2_block_pattern():
    # (a, b, c, d) acts by [[a I, b I], [c I, d I]] on the E-basis coordinates
    M2 = get_algebra("mat2")
    a, b, c, d = 1.0, 2.0, 3.0, 4.0
    expected = [
        [a, 0, b, 0],
        [0, a, 0, b],
        [c, 0, d, 0],
        [0, c, 0, d],
    ]
    assert np.array_equal(regrep(M2.element([a, b, c, d])), expected)


def test_regrep_triangular6_pattern():
    A6 = triangular6()
    a, b, c, d, e, f = 1.0, 2.0, 3.0, 4.0, 5.0, 6.0
    expected = [
        [a, 0, 0, 0, 0, 0],
        [0, b, 0, 0, 0, 0],
        [0, 0, c, 0, 0, 0],
        [0, d, 0, a, 0, 0],
        [0, 0, e, 0, b, 0],
        [0, 0, f, 0, d, a],
    ]
    assert np.array_equal(regrep(A6.element([a, b, c, d, e, f])), expected)


def test_regrep_of_unity_is_identity(fixtures):
    for a in fixtures.values():
        assert np.allclose(regrep(a.one()), np.eye(a.dim))


def test_regrep_homomorphism(fixtures):
    rng = np.random.default_rng(3)
    for a in fixtures.values():
        for _ in range(50):
            x, y = random_elements(a, rng, 2)
            lhs = regrep(mul(x, y))
            rhs = regrep(x) @ regrep(y)
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_held_projection_matches_lstsq(fixtures):
    # oracle: the stacked vec M(v_i) and a fresh least-squares solve on it.
    # One matvec with the held basis forms M(x), and on the span the
    # projection J -> M(J 1) gives the lstsq coefficients with no residual.
    rng = np.random.default_rng(11)
    for a in fixtures.values():
        B = np.stack([regrep(v).reshape(-1) for v in a.basis()], axis=1)
        assert np.array_equal(a.rep_basis, B)
        x = random_element(a, rng)
        M = (a.rep_basis @ x.coords).reshape(a.dim, a.dim)
        assert np.allclose(M, regrep(x), rtol=1e-14, atol=1e-14)
        vec = M.reshape(-1)
        want, *_ = np.linalg.lstsq(B, vec, rcond=None)
        got = M @ a.unity
        assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))
        res_got = np.linalg.norm(vec - a.rep_basis @ got)
        assert res_got <= 1e-12 * max(1.0, np.linalg.norm(vec))


def test_held_kernels_match_the_products_on_points_and_columns(fixtures):
    # oracle: numpy's product with P, on the P vec(J) rows of the report
    # function, one per nonzero row of P: each f_k is a product of two linear
    # forms with nonzero coefficients, so no partial is the zero tree and no
    # other row drops.  The report reads only the rows' norm, so the
    # rows are read from the same trees compiled to return every value.  The
    # J 1 rows are checked in test_calculus
    from acalc.expr import _ZERO, ExprFn, _combine, compile_expr, eval_compiled, parse

    rng = np.random.default_rng(12)
    for a in fixtures.values():
        n = a.dim

        def form():
            return "+".join(f"{c!r}*x{j + 1}" for j, c in enumerate(rng.uniform(0.5, 2.0, n).round(2).tolist()))

        f = ExprFn(a, tuple(parse(f"({form()})*({form()})", n) for _ in range(n)))
        P = a.cr_projector
        X = rng.uniform(-2.0, 2.0, (5, n))
        cr = tuple(r for r in _combine(P, f._vec) if r != _ZERO)
        flat = compile_expr(f.components + f._vec + cr + f.unity_derivative.components)
        points = np.array([flat(x) for x in X.tolist()])
        m = n + n * n
        rows = points[:, m:points.shape[1] - n]
        assert rows.shape == (5, np.count_nonzero(P.any(axis=1))), a.name
        want = points[:, n:m] @ P[P.any(axis=1)].T
        assert np.allclose(rows, want, rtol=0.0, atol=1e-13 * np.abs(points[:, n:m]).max()), a.name
        # the report function runs the same lines and divides their norms; at
        # tol = inf it reads J 1 for every residual
        for x, values in zip(X.tolist(), points.tolist()):
            got = f._report(a.element(x), math.inf)
            residual = math.hypot(*values[m:-n]) / max(1.0, math.hypot(*values[n:m]))
            assert (got.jacobian_vec, got.residual, got.is_adiff) == (tuple(values[n:m]), residual, True), a.name
            assert got.derivative.coords.tolist() == values[-n:], a.name
        # a batch runs the same lines, and the Jacobian kernel their first ones
        assert np.array_equal(eval_compiled(flat, X), points), a.name
        assert np.array_equal(eval_compiled(f._jacobian, X), points[:, :m]), a.name


def test_element_is_slotted_and_frozen(fixtures):
    # no __dict__, no field can be set, and pickle and both copies give an
    # element with the same coordinate bytes
    rng = np.random.default_rng(41)
    assert len(fixtures) == 16
    for a in fixtures.values():
        x = random_element(a, rng)
        assert not hasattr(x, "__dict__"), a.name
        for name, value in (("algebra", a), ("coords", x.coords)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, value)
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(y) is AElement and y.coords.tobytes() == x.coords.tobytes(), a.name
            assert y.algebra.same_structure(a), a.name


def test_element_of_the_same_algebra_passes_the_coercion_as_it_is(fixtures):
    rng = np.random.default_rng(43)
    for a in fixtures.values():
        x = random_element(a, rng)
        assert a.element(x) is x
        # an element of an equal-structure copy still passes, both ways
        twin = make_algebra(a.dim, a.structure, a.unity, a.basis_labels, name=f"{a.name} copy")
        assert twin.element(x) is x
        y = twin.element(x.coords)
        assert a.element(y) is y and y.algebra is twin
        for other in fixtures.values():
            if not other.same_structure(a):
                with pytest.raises(AlgebraMismatch):
                    other.element(x)


def test_fixture_names_give_one_algebra_that_holds_its_facts():
    held = bundled_algebras()
    for name, a in held.items():
        assert get_algebra(name) is a
    assert get_algebra("complex") is held["C"] and get_algebra("wave1") is held["wave"]

    def facts(a):
        return a.rep_basis, a.cr_projector, a.basis_inverses

    first = facts(get_algebra("C"))
    assert all(x is y for x, y in zip(facts(get_algebra("C")), first))
    # a wave speed is not a fixture name: each spec builds its own algebra
    assert get_algebra("wave:2") is not get_algebra("wave:2")


def test_unity_first_flag(fixtures):
    for a in fixtures.values():
        assert a.unity_first == bool(np.allclose(a.unity, np.eye(a.dim)[0]))
    assert not fixtures["mat2"].unity_first
    assert fixtures["quaternions"].unity_first


def test_number_map_round_trip(fixtures):
    rng = np.random.default_rng(5)
    for a in fixtures.values():
        x = random_element(a, rng)
        back = number_map(a, regrep(x))
        assert np.allclose(back.coords, x.coords, atol=1e-14)


def test_number_map_reads_first_column_when_unity_first():
    # dual numbers: column read-off of [[a,0],[b,a]] gives a + b eps
    N = get_algebra("dual")
    x = number_map(N, np.array([[3.5, 0.0], [-2.0, 3.5]]))
    assert np.allclose(x.coords, [3.5, -2.0])


def test_number_map_identity_matrix(fixtures):
    for a in fixtures.values():
        one = number_map(a, np.eye(a.dim))
        assert np.allclose(one.coords, a.unity)


def test_number_map_hyperbolic_round_trip():
    H = get_algebra("H")
    x = H.element([2, 3])
    assert np.allclose(number_map(H, regrep(x)).coords, [2, 3])


# ---------------------------------------------------------------------------
# inversion and classification
# ---------------------------------------------------------------------------

def test_invert_dual():
    # 1/(a + b eps) = (a - b eps)/a^2
    N = get_algebra("dual")
    x = N.element([2.0, 3.0])
    assert np.allclose(invert(x).coords, [0.5, -0.75], atol=1e-12)


def test_invert_hyperbolic():
    # 1/(a + b j) = (a - b j)/(a^2 - b^2)
    H = get_algebra("H")
    x = H.element([2.0, 1.0])
    assert np.allclose(invert(x).coords, [2 / 3, -1 / 3], atol=1e-12)


def test_invert_unity(fixtures):
    for a in fixtures.values():
        assert np.allclose(invert(a.one()).coords, a.unity, atol=1e-12)


def test_invert_rejects_zero_divisor():
    H = get_algebra("H")
    with pytest.raises(NotAUnit) as excinfo:
        invert(H.element([1.0, 1.0]))
    c = excinfo.value.classification
    assert c.kind is Kind.ZERO_DIVISOR
    assert c.witness is not None


def test_classify_hyperbolic_zero_divisor_lines():
    H = get_algebra("H")
    c = classify(H.element([1.0, 1.0]))
    assert c.kind is Kind.ZERO_DIVISOR
    # witness proportional to 1 - j
    w = c.witness.coords
    assert abs(w[0] + w[1]) < 1e-12
    assert abs(norm(mul(H.element([1.0, 1.0]), c.witness))) < 1e-12
    # both lines a = +/- b, and nothing else nearby
    assert classify(H.element([2.0, -2.0])).kind is Kind.ZERO_DIVISOR
    assert classify(H.element([2.0, 1.99])).kind is Kind.UNIT


def test_classify_dual_eps():
    N = get_algebra("dual")
    c = classify(N.basis_element(1))
    assert c.kind is Kind.ZERO_DIVISOR


def test_classify_zero(fixtures):
    for a in fixtures.values():
        assert classify(a.zero()).kind is Kind.ZERO


@pytest.mark.filterwarnings("error")
def test_zero_means_every_coordinate_is_zero(fixtures):
    C = get_algebra("C")
    assert classify(C.element([-0.0, 0.0])).kind is Kind.ZERO
    c = classify(C.element([1e-15, 0.0]))
    assert c.kind is Kind.UNIT
    assert math.isclose(c.inverse.coords[0], 1e15, rel_tol=1e-15) and c.inverse.coords[1] == 0.0
    for a in fixtures.values():
        # a subnormal unit classifies without a warning; its inverse overflows
        tiny = a.element(1e-310 * a.unity)
        with pytest.raises(DomainError, match="float range"):
            classify(tiny)
        assert classify(a.element(1e-300 * a.unity)).kind is Kind.UNIT
    # the least subnormal is not zero: eps of the dual numbers times 5e-324
    assert classify(get_algebra("dual").element([0.0, 5e-324])).kind is Kind.ZERO_DIVISOR


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_are_refused_before_the_svd(fixtures, bad):
    from acalc.diffquot import deleted_quotient
    from acalc.expr import identity_fn

    for a in fixtures.values():
        x = a.element(np.where(np.arange(a.dim) == a.dim - 1, bad, 1.0))
        for call in (classify, invert, lambda h: deleted_quotient(identity_fn(a), a.one(), h)):
            with pytest.raises(DomainError, match="finite"):
                call(x)


def test_classify_reads_a_power_of_two_multiple_bit_for_bit(fixtures):
    # the SVD reads x scaled to a largest coordinate in [1/2, 1), so 2^k x
    # gives the same witness and 2^-k times the inverse, bit for bit
    rng = np.random.default_rng(32)
    for a in fixtures.values():
        for _ in range(20):
            x = a.element(rng.integers(-3, 4, a.dim).astype(float))
            c = classify(x)
            for k in (-1000, -40, 3, 900):
                ck = classify(a.element(np.ldexp(x.coords, k)))
                assert ck.kind is c.kind, a.name
                if c.kind is Kind.UNIT:
                    assert ck.inverse.coords.tobytes() == np.ldexp(c.inverse.coords, -k).tobytes(), a.name
                elif c.kind is Kind.ZERO_DIVISOR:
                    assert ck.witness.coords.tobytes() == c.witness.coords.tobytes(), a.name

def test_classify_trichotomy(fixtures):
    rng = np.random.default_rng(13)
    for a in fixtures.values():
        for _ in range(200):
            c = classify(random_element(a, rng))
            if c.kind is Kind.UNIT:
                assert c.inverse is not None and c.witness is None
            elif c.kind is Kind.ZERO_DIVISOR:
                assert c.witness is not None and c.inverse is None
                assert abs(c.witness.norm - 1.0) < 1e-12


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(bundled_algebras())),
       data=st.data(),
       t=st.floats(-12.0, 6.0).map(lambda e: 10.0 ** e))
def test_classify_is_scale_invariant(name, data, t):
    # integer coordinates hit the zero-divisors of the integer tables
    a = get_algebra(name)
    x = a.element(data.draw(st.lists(st.integers(-3, 3), min_size=a.dim, max_size=a.dim)))
    kind = classify(x).kind
    if kind is Kind.ZERO:
        return
    assert classify(t * x).kind is kind


def test_minimal_polynomial_witness_matches_svd_route(fixtures):
    # exact cross-check on integer-coordinate zero divisors of integer tensors
    rng = np.random.default_rng(17)
    total = 0
    for a in fixtures.values():
        found = 0
        for _ in range(300):
            coords = rng.integers(-3, 4, a.dim).astype(float)
            x = a.element(coords)
            if x.norm == 0 or classify(x).kind is not Kind.ZERO_DIVISOR:
                continue
            found += 1
            b = minimal_polynomial_witness(x)
            assert b is not None
            assert norm(mul(x, b)) < 1e-9 and norm(mul(b, x)) < 1e-9  # two-sided on mat2, triangular6
            svd_witness = classify(x).witness
            assert norm(mul(x, svd_witness)) < 1e-9
            if found >= 5:
                break
        total += found
    assert total >= 30  # division algebras contribute none, the rest must


def test_minimal_polynomial_witness_none_for_units(fixtures):
    H = get_algebra("H")
    assert minimal_polynomial_witness(H.element([2.0, 1.0])) is None
    # and only for units, on integer elements of every fixture
    rng = np.random.default_rng(23)
    for a in fixtures.values():
        for _ in range(60):
            x = a.element(rng.integers(-3, 4, a.dim).astype(float))
            assert (minimal_polynomial_witness(x) is None) == (classify(x).kind is Kind.UNIT), a.name


@pytest.mark.parametrize("scale", [1e-120, 1e150])
def test_minimal_polynomial_witness_scales_exactly(scale):
    # x = s eps has x^3 = 0, so the witness is x^2 = s^2 eps2, whose float
    # underflows at s = 1e-120 and overflows at s = 1e150
    x = get_algebra("dual3").element([0.0, scale, 0.0])
    assert minimal_polynomial_witness(x).coords.tolist() == [0.0, 0.0, 1.0]


# ---------------------------------------------------------------------------
# invertible basis
# ---------------------------------------------------------------------------

def _assert_invertible_basis(algebra, basis):
    assert len(basis) == algebra.dim
    assert np.allclose(basis[0].coords, algebra.unity)
    stacked = np.vstack([w.coords for w in basis])
    assert np.linalg.matrix_rank(stacked) == algebra.dim
    for w in basis:
        assert classify(w).kind is Kind.UNIT


def test_invertible_basis_complex_unchanged():
    C = get_algebra("C")
    basis = find_invertible_basis(C)
    _assert_invertible_basis(C, basis)
    assert np.allclose(basis[1].coords, [0, 1])  # i already a unit


def test_invertible_basis_dual_replaces_eps():
    N = get_algebra("dual")
    basis = find_invertible_basis(N)
    _assert_invertible_basis(N, basis)
    # eps itself is a zero divisor, so the returned vector must differ
    assert abs(basis[1].coords[0]) > 0


def test_invertible_basis_matrix_algebra_contains_identity():
    M2 = get_algebra("mat2")
    basis = find_invertible_basis(M2)
    _assert_invertible_basis(M2, basis)


def test_invertible_basis_all_fixtures(fixtures):
    for a in fixtures.values():
        _assert_invertible_basis(a, find_invertible_basis(a))


def _rebased(algebra, S):
    """``algebra`` on the basis whose k-th vector has coordinates S[:, k]."""
    S_inv = np.linalg.inv(S)
    C = np.einsum("ia,jb,ijk,ck->abc", S, S, algebra.structure, S_inv)
    return make_algebra(algebra.dim, C, S_inv @ algebra.unity, name=f"{algebra.name}-rebased")


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_invertible_basis_of_rebased_fixtures(fixtures, seed):
    rng = np.random.default_rng(seed)
    for a in fixtures.values():
        n = a.dim
        rebased = _rebased(a, np.eye(n) + rng.uniform(-0.5, 0.5, (n, n)))
        u = rebased.unity
        assert n == 1 or np.count_nonzero(u) > 1
        basis = find_invertible_basis(rebased)
        assert len(basis) == n
        assert basis[0].coords.tolist() == u.tolist()
        assert all(classify(w).kind is Kind.UNIT for w in basis)
        # the unity, the e_i but the last with u_i != 0, and shifts by the unity
        det = np.linalg.det(np.vstack([w.coords for w in basis]))
        assert abs(det) == pytest.approx(abs(u[np.flatnonzero(u)[-1]]), rel=1e-9)


# ---------------------------------------------------------------------------
# norm and submultiplicative bound
# ---------------------------------------------------------------------------

def test_norms():
    H = get_algebra("H")
    assert norm(H.one()) == 1.0
    assert abs(norm(H.element([1, 1])) - math.sqrt(2)) < 1e-15
    assert norm(H.zero()) == 0.0


@pytest.mark.filterwarnings("error")
def test_norm_past_1e154_does_not_overflow():
    C = get_algebra("C")
    x = C.element([1e308, 1e308])
    assert norm(x) == math.hypot(1e308, 1e308)
    assert classify(x).kind is Kind.UNIT


def test_submult_bound_values():
    assert abs(submult_bound(get_algebra("H")) - 3 * math.sqrt(2)) < 1e-15
    assert submult_bound(get_algebra("R")) == 1.0


def test_hyperbolic_sharp_factor():
    # ||(1+j)^2|| = sqrt(2) * ||1+j||^2
    H = get_algebra("H")
    x = H.element([1.0, 1.0])
    assert abs(norm(mul(x, x)) - math.sqrt(2) * norm(x) ** 2) < 1e-12


def test_submultiplicative_bound_random(fixtures):
    rng = np.random.default_rng(23)
    for a in fixtures.values():
        K = submult_bound(a)
        X = rng.uniform(-2, 2, (2000, a.dim))
        Y = rng.uniform(-2, 2, (2000, a.dim))
        P = mul_batch(a, X, Y)
        lhs = np.linalg.norm(P, axis=1)
        rhs = K * np.linalg.norm(X, axis=1) * np.linalg.norm(Y, axis=1)
        assert np.all(lhs <= rhs * (1 + 1e-12))


def test_quotient_inequality(fixtures):
    # ||a|| / ||b|| <= K ||a * b^{ -1 }|| for units b
    rng = np.random.default_rng(29)
    for alg in fixtures.values():
        K = submult_bound(alg)
        checked = 0
        while checked < 20:
            a = random_element(alg, rng)
            b = random_element(alg, rng)
            if classify(b).kind is not Kind.UNIT:
                continue
            checked += 1
            q = mul(a, invert(b))
            assert norm(a) / norm(b) <= K * norm(q) * (1 + 1e-9) + 1e-12


def test_unit_density(fixtures):
    rng = np.random.default_rng(31)
    for a in fixtures.values():
        for r in (1e-1, 1e-3, 1e-6):
            x = random_element(a, rng)
            found = False
            for _ in range(100):
                y = a.element(x.coords + r * rng.uniform(-1, 1, a.dim))
                if classify(y).kind is Kind.UNIT:
                    found = True
                    break
            assert found, f"no unit within {r} of a point of {a.name}"


def test_batched_helpers_match_scalar_ops(fixtures):
    rng = np.random.default_rng(37)
    for a in fixtures.values():
        X = rng.uniform(-2, 2, (8, a.dim))
        Y = rng.uniform(-2, 2, (8, a.dim))
        P = mul_batch(a, X, Y)
        R = regrep_batch(a, X)
        for i in range(8):
            assert np.allclose(P[i], mul(a.element(X[i]), a.element(Y[i])).coords)
            assert np.allclose(R[i], regrep(a.element(X[i])))


# ---------------------------------------------------------------------------
# element conveniences
# ---------------------------------------------------------------------------

def test_element_arithmetic():
    H = get_algebra("H")
    x = H.element([1, 2])
    y = H.element([3, -1])
    assert np.allclose((x + y).coords, [4, 1])
    assert np.allclose((x - y).coords, [-2, 3])
    assert np.allclose((-x).coords, [-1, -2])
    assert np.allclose((2.5 * x).coords, [2.5, 5.0])
    assert np.allclose((x ** 0).coords, H.unity)
    assert np.allclose((x ** 2).coords, mul(x, x).coords)
    assert np.allclose((x / 2).coords, [0.5, 1.0])
    z = x / y  # right division by a unit
    assert np.allclose(mul(z, y).coords, x.coords, atol=1e-12)


def test_coords_are_read_only():
    H = get_algebra("H")
    x = H.element([1, 2])
    with pytest.raises(ValueError):
        x.coords[0] = 5.0


def test_save_load_round_trip(tmp_path):
    from acalc.fixtures import load_algebra, save_algebra, quaternions

    q = quaternions()
    path = tmp_path / "quat.json"
    save_algebra(q, str(path))
    loaded = load_algebra(str(path))
    assert loaded.same_structure(q)
    assert loaded.basis_labels == q.basis_labels


@pytest.mark.parametrize("doc, field", [
    ('{"name": "C", "unity": [1, 0]}', "dim"),
    ('{"name": "C", "dim": 2, "relations": {"value": [-1, 0]}}', "generator_power"),
])
def test_missing_field_of_an_algebra_file_is_a_key_error_that_names_it(tmp_path, doc, field):
    # a nested object's field is named too; both printed the bare key
    from acalc.errors import MissingField
    from acalc.fixtures import load_algebra

    path = tmp_path / "alg.json"
    path.write_text(doc)
    with pytest.raises(KeyError) as info:
        load_algebra(str(path))
    assert isinstance(info.value, MissingField)
    assert (info.value.path, info.value.field) == (str(path), field)
    assert str(info.value) == f"{path}: missing field {field!r}"


def test_fixture_input_validation():
    from acalc.fixtures import cyclic_algebra, wave_algebra

    with pytest.raises(ValueError):
        wave_algebra(0.0)
    with pytest.raises(DimensionMismatch):
        cyclic_algebra(3, [1.0, 0.0], "bad")


@pytest.mark.parametrize("build, message", [
    (lambda C: make_algebra(2, C.structure, [1.0, 0.0, 0.0]), "unity must have 2 coordinates, got (3,)"),
    (lambda C: make_algebra(2, C.structure, [1.0, 0.0], labels=["1"]), "expected 2 basis labels, got 1"),
    (lambda C: number_map(C, np.eye(3)), "expected a 2x2 matrix, got (3, 3)"),
], ids=["unity-shape", "label-count", "number-map-shape"])
def test_algebra_input_of_the_wrong_shape_is_refused(build, message):
    with pytest.raises(DimensionMismatch) as info:
        build(get_algebra("C"))
    assert str(info.value) == message


@pytest.mark.parametrize("doc, message", [
    ({"dim": 2, "relations": {"generator_power": 3, "value": [1, 0]}}, "generator power must equal the dimension"),
    ({"dim": 2, "table": [[1, 0], [0, 1]], "unity": [1, 0]}, "table must be 2x2 vectors of length 2"),
], ids=["generator-power", "table-shape"])
def test_algebra_document_of_the_wrong_shape_is_refused(doc, message):
    from acalc.fixtures import algebra_from_dict

    with pytest.raises(DimensionMismatch) as info:
        algebra_from_dict(doc)
    assert str(info.value) == message


def test_product_of_two_elements_is_the_algebra_product():
    # oracle: Python's complex product, (1 + 2i)(3 + 4i) = -5 + 10i
    C = get_algebra("C")
    x, y = C.element([1.0, 2.0]), C.element([3.0, 4.0])
    w = complex(1.0, 2.0) * complex(3.0, 4.0)
    assert (x * y).coords.tolist() == [w.real, w.imag]
