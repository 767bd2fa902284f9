from itertools import combinations_with_replacement
from math import comb

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from acalc.calculus import adiff_test
from acalc.eqgen import (
    Equation,
    Term,
    check_residual,
    gen_cr,
    gen_laplace,
    gen_laplace_k,
    render_system,
)
from acalc.errors import NonCommutativeUnsupported
from acalc.expr import conjugate_fn, constant_fn, exprfn_mul, identity_fn, poly_fn
from acalc.fixtures import bundled_algebras, get_algebra, wave_algebra
from acalc.algebra import make_algebra, mul

from conftest import random_element, random_elements


def _coeff_vector(eq, index_of):
    v = np.zeros(len(index_of))
    for t in eq.terms:
        v[index_of[t.orders]] += t.coeff
    return v


def _system_matrix(system):
    """Rows = equations as coefficient vectors over the derivative multi-indices."""
    keys = sorted({t.orders for eq in system.equations for t in eq.terms})
    index_of = {k: i for i, k in enumerate(keys)}
    return np.vstack([_coeff_vector(eq, index_of) for eq in system.equations]), index_of


def _same_rowspace(A, B, tol=1e-10):
    if A.shape[0] != B.shape[0]:
        return False
    for row in A:
        x, res, *_ = np.linalg.lstsq(B.T, row, rcond=None)
        if np.linalg.norm(B.T @ x - row) > tol:
            return False
    for row in B:
        x, res, *_ = np.linalg.lstsq(A.T, row, rcond=None)
        if np.linalg.norm(A.T @ x - row) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# first-order systems
# ---------------------------------------------------------------------------

def test_cr_dual_exact():
    # dual numbers: u_y = 0 and v_y - u_x = 0
    N = get_algebra("dual")
    system = gen_cr(N)
    assert system.kind == "CR"
    assert len(system.equations) == 2
    dx, dy = (1, 0), (0, 1)
    expected = [
        Equation((Term(1.0, dy, 0),)),                      # u_y = 0
        Equation((Term(1.0, dy, 1), Term(-1.0, dx, 0))),     # v_y - u_x = 0
    ]
    assert list(system.equations) == expected


def test_cr_complex_exact():
    C = get_algebra("C")
    system = gen_cr(C)
    dx, dy = (1, 0), (0, 1)
    expected = [
        Equation((Term(1.0, dy, 0), Term(1.0, dx, 1))),      # u_y + v_x = 0
        Equation((Term(1.0, dy, 1), Term(-1.0, dx, 0))),     # v_y - u_x = 0
    ]
    assert list(system.equations) == expected


def test_cr_count_is_n_squared_minus_n(fixtures):
    for a in fixtures.values():
        assert len(gen_cr(a).equations) == a.dim * a.dim - a.dim


def _permuted(a, perm):
    """``a`` over the basis w_i = v_perm[i]."""
    perm = np.array(perm)
    return make_algebra(a.dim, a.structure[np.ix_(perm, perm, perm)], a.unity[perm],
                        name=f"{a.name}-perm")


def test_cr_rows_span_the_projector_rows(fixtures):
    """Each equation is a row of P over vec(J), index k*n + j for d f_k/d x_j;
    the n^2 - n of them are independent and span P's row space, also where
    the unity's first coordinate is 0."""
    swapped = (_permuted(fixtures["C"], [1, 0]), _permuted(fixtures["mat2"], [1, 0, 2, 3]))
    for a in (*fixtures.values(), *swapped):
        n = a.dim
        P = a.cr_projector
        G = np.zeros((len(gen_cr(a)), n * n))
        for r, eq in enumerate(gen_cr(a).equations):
            for t in eq.terms:
                assert type(t.component) is int
                G[r, t.component * n + t.orders.index(1)] = t.coeff
        rank = np.linalg.matrix_rank
        assert rank(G) == rank(P) == rank(np.vstack([G, P])) == n * n - n, a.name


def test_cr_rxr_exact():
    # the unity is v_1 + v_2, so d/d1 = d/dx + d/dy, and the block j = 1 is dropped
    system = gen_cr(get_algebra("RxR"))
    dx, dy = (1, 0), (0, 1)
    assert list(system.equations) == [
        Equation((Term(1.0, dy, 0),)),                      # u_y = 0
        Equation((Term(1.0, dx, 1),)),                      # v_x = 0
    ]
    assert render_system(system) == ["u_y = 0", "v_x = 0"]


def test_cr_complex_with_the_unity_second():
    # v_1 = i and v_2 = 1: the block j = 2 is dropped, and d/d1 = d/dy
    system = gen_cr(_permuted(get_algebra("C"), [1, 0]))
    assert render_system(system) == ["u_x - v_y = 0", "v_x + u_y = 0"]


def test_cr_rendering():
    lines = render_system(gen_cr(get_algebra("dual")))
    assert lines == ["u_y = 0", "v_y - u_x = 0"]


# ---------------------------------------------------------------------------
# second-order systems
# ---------------------------------------------------------------------------

def test_laplace_complex_is_laplacian():
    C = get_algebra("C")
    system = gen_laplace(C)
    assert len(system.equations) == 1
    (eq,) = system.equations
    coeffs = {t.orders: t.coeff for t in eq.terms}
    assert coeffs == {(2, 0): 1.0, (0, 2): 1.0}
    assert render_system(system) == ["Phi_xx + Phi_yy = 0"]


def test_laplace_trihyperbolic_span():
    A3 = get_algebra("3-hyperbolic")
    system = gen_laplace(A3)
    assert len(system.equations) == 3
    got, index_of = _system_matrix(system)
    expected_rows = []
    for pos, neg in (
        (((2, 0, 0)), ((0, 1, 1))),   # Phi_xx - Phi_yz
        (((0, 2, 0)), ((1, 0, 1))),   # Phi_yy - Phi_zx
        (((0, 0, 2)), ((1, 1, 0))),   # Phi_zz - Phi_xy
    ):
        row = np.zeros(len(index_of))
        row[index_of[pos]] = 1.0
        row[index_of[neg]] = -1.0
        expected_rows.append(row)
    assert _same_rowspace(got, np.vstack(expected_rows))


def test_laplace_wave_equation():
    # k^2 = c^2 gives c^2 Phi_xx - Phi_tt = 0 (up to scaling)
    for c in (1.0, 2.0, 3.0):
        W = wave_algebra(c)
        system = gen_laplace(W)
        assert len(system.equations) == 1
        (eq,) = system.equations
        coeffs = {t.orders: t.coeff for t in eq.terms}
        target = np.array([c * c, -1.0])
        got = np.array([coeffs.get((2, 0), 0.0), coeffs.get((0, 2), 0.0)])
        cross = got[0] * target[1] - got[1] * target[0]
        assert abs(cross) <= 1e-10 * np.linalg.norm(got) * np.linalg.norm(target)
        assert got[0] * target[0] > 0  # same orientation after normalization


def test_laplace_dual():
    # eps^2 = 0 makes Phi_yy = 0 one of the generated equations
    N = get_algebra("dual")
    system = gen_laplace(N)
    assert any(
        {t.orders: t.coeff for t in eq.terms} == {(0, 2): 1.0}
        for eq in system.equations
    )


def test_laplace_rejects_noncommutative():
    with pytest.raises(NonCommutativeUnsupported):
        gen_laplace(get_algebra("quaternions"))


def test_rank_nullity(fixtures):
    # equations + rank of the symmetric product map = n(n+1)/2
    for a in fixtures.values():
        if not a.commutative:
            continue
        n = a.dim
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        P = np.array([mul(a.basis_element(i), a.basis_element(j)).coords for i, j in pairs]).T
        rank = np.linalg.matrix_rank(P, tol=1e-10)
        assert len(gen_laplace(a).equations) + rank == n * (n + 1) // 2


def test_laplace_k2_reduces_to_laplace(commutative_fixtures):
    for a in commutative_fixtures.values():
        s2 = gen_laplace(a)
        sk = gen_laplace_k(a, 2)
        assert [eq for eq in s2.equations] == [eq for eq in sk.equations]


def test_laplace_k3_trihyperbolic():
    # j^3 = 1 induces Phi_yyy = Phi_xxx among the order-3 equations
    A3 = get_algebra("3-hyperbolic")
    system = gen_laplace_k(A3, 3)
    got, index_of = _system_matrix(system)
    target = np.zeros(len(index_of))
    target[index_of[(0, 3, 0)]] = 1.0
    target[index_of[(3, 0, 0)]] = -1.0
    # nullspace membership: target must lie in the row space of the system
    x, *_ = np.linalg.lstsq(got.T, target, rcond=None)
    assert np.linalg.norm(got.T @ x - target) <= 1e-10
    # and the corresponding algebra relation really vanishes
    j = A3.basis_element(1)
    relation = mul(mul(j, j), j) - mul(mul(A3.one(), A3.one()), A3.one())
    assert np.allclose(relation.coords, 0.0)


def test_laplace_k3_dual():
    # eps^3 = 0 (order-3 duals): Phi_yyy = 0 appears
    N3 = get_algebra("dual3")
    system = gen_laplace_k(N3, 3)
    mats, index_of = _system_matrix(system)
    target = np.zeros(len(index_of))
    target[index_of[(0, 3, 0)]] = 1.0
    x, *_ = np.linalg.lstsq(mats.T, target, rcond=None)
    assert np.linalg.norm(mats.T @ x - target) <= 1e-10


def test_laplace_row_space_invariant_under_basis_permutation():
    # reordering the non-unity basis vectors relabels derivative indices but
    # spans the same space of equations
    from acalc.algebra import make_algebra

    a = get_algebra("4-hyperbolic")
    perm = np.array([0, 2, 3, 1])  # new basis w_i = v_perm[i], unity fixed
    inv_perm = np.argsort(perm)
    Cp = a.structure[np.ix_(perm, perm, perm)]
    ap = make_algebra(4, Cp, a.unity[perm], name="4-hyp-perm")
    base, index_of = _system_matrix(gen_laplace(a))
    permuted, index_of_p = _system_matrix(gen_laplace(ap))
    # a new-coordinate multi-index o' corresponds to old orders o'[inv_perm]
    remap = np.zeros((permuted.shape[0], len(index_of)))
    for orders, col in index_of_p.items():
        back = tuple(np.array(orders)[inv_perm])
        remap[:, index_of[back]] = permuted[:, col]
    assert _same_rowspace(base, remap)


# ---------------------------------------------------------------------------
# residual checking
# ---------------------------------------------------------------------------

def test_components_of_cube_are_solutions():
    A3 = get_algebra("3-hyperbolic")
    f = poly_fn(A3, [0.0, 0.0, 0.0, 1.0])
    rng = np.random.default_rng(2)
    grid = random_elements(A3, rng, 20)
    system = gen_laplace(A3)
    assert check_residual(system, f, grid) <= 1e-9


def test_harmonic_polynomial_exact():
    C = get_algebra("C")
    from acalc.expr import ExprFn, parse

    u = ExprFn(C, (parse("x1^2 - x2^2", 2), parse("2*x1*x2", 2)))
    system = gen_laplace(C)
    grid = [C.element([x, y]) for x in (-1.0, 0.0, 2.0) for y in (-2.0, 0.5)]
    assert check_residual(system, u, grid) == 0.0


def test_non_solution_detected():
    C = get_algebra("C")
    from acalc.expr import ExprFn, parse

    f = ExprFn(C, (parse("x1^2", 2), parse("0", 2)))
    system = gen_laplace(C)
    assert abs(check_residual(system, f, [C.element([0.0, 0.0])]) - 2.0) < 1e-12


@pytest.mark.parametrize("grid", [
    [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],    # once read as three points of C
    [[1.0], [2.0]],
    [get_algebra("H").element([1.0, 2.0])],
])
def test_residual_refuses_points_of_another_shape(grid):
    from acalc.errors import AlgebraMismatch, DimensionMismatch

    C = get_algebra("C")
    with pytest.raises((DimensionMismatch, AlgebraMismatch)):
        check_residual(gen_laplace(C), poly_fn(C, [0.0, 0.0, 1.0]), grid)


def test_cr_residual_matches_adiff_on_grid(commutative_fixtures):
    rng = np.random.default_rng(3)
    for a in commutative_fixtures.values():
        if a.dim < 2:
            continue
        system = gen_cr(a)
        good = poly_fn(a, [0.0, 0.0, 1.0])
        # the 2nd conjugate acts per factor on RxR and RxRxR, so it is differentiable there
        bad = conjugate_fn(a, 2)
        bad_is_adiff = a.name in ("RxR", "RxRxR")
        grid = random_elements(a, rng, 100)
        assert check_residual(system, good, grid) <= 1e-8
        assert (check_residual(system, bad, grid) <= 1e-8) == bad_is_adiff
        if not bad_is_adiff:
            assert check_residual(system, bad, grid) > 0.1
        for p in grid[:3]:
            assert adiff_test(good, p).is_adiff
            assert adiff_test(bad, p).is_adiff == bad_is_adiff


# integer coordinates make each residual exactly 0 or at least of order 1
_INTS = st.integers(-3, 3)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(bundled_algebras())), data=st.data())
def test_cr_residual_verdict_is_the_adiff_verdict(name, data):
    a = get_algebra(name)
    c, p = (a.element(data.draw(st.lists(_INTS, min_size=a.dim, max_size=a.dim)))
            for _ in range(2))
    z, const = identity_fn(a), constant_fn(a, c)
    for f in (exprfn_mul(const, z), exprfn_mul(z, const)):
        assert (check_residual(gen_cr(a), f, [p]) <= 1e-9) == adiff_test(f, p).is_adiff


def test_adiff_polynomials_solve_laplace(commutative_fixtures):
    rng = np.random.default_rng(5)
    for a in commutative_fixtures.values():
        coeffs = [random_element(a, rng) for _ in range(4)]
        f = poly_fn(a, coeffs)
        system = gen_laplace(a)
        grid = random_elements(a, rng, 10)
        assert check_residual(system, f, grid) <= 1e-8


def test_latex_rendering():
    C = get_algebra("C")
    lines = render_system(gen_laplace(C), latex=True)
    assert lines == [r"\Phi_{xx} + \Phi_{yy} = 0"]


def test_laplace_k_bounds():
    A4 = get_algebra("4-hyperbolic")
    with pytest.raises(ValueError):
        gen_laplace_k(A4, 1)
    from acalc.errors import CombinatorialLimit

    with pytest.raises(CombinatorialLimit):
        gen_laplace_k(A4, 30)


# ---------------------------------------------------------------------------
# the canonical order-k basis
# ---------------------------------------------------------------------------

def _multi_indices(algebra, k):
    return list(combinations_with_replacement(range(algebra.dim), k))


def _product_matrix(algebra, k):
    """P with column I = v_{i_1} * ... * v_{i_k}, by repeated element products."""
    columns = []
    for idx in _multi_indices(algebra, k):
        prod = algebra.basis_element(idx[0])
        for i in idx[1:]:
            prod = mul(prod, algebra.basis_element(i))
        columns.append(prod.coords)
    return np.array(columns).T


def _dense_rows(system, algebra, k):
    """One row per equation, columns in lexicographic multi-index order."""
    col = {tuple(np.bincount(idx, minlength=algebra.dim)): j
           for j, idx in enumerate(_multi_indices(algebra, k))}
    B = np.zeros((len(system.equations), len(col)))
    for r, eq in enumerate(system.equations):
        for t in eq.terms:
            B[r, col[t.orders]] = t.coeff
    return B


def _exact_canonical_rows(algebra, k):
    """sympy's reduced echelon basis of the exact nullspace of P, each row
    scaled so its first coefficient of largest magnitude is +1."""
    n = algebra.dim
    C = algebra.structure.astype(int)
    columns = []
    for idx in _multi_indices(algebra, k):
        x = [int(i == idx[0]) for i in range(n)]
        for j in idx[1:]:
            x = [sum(x[i] * int(C[i, j, l]) for i in range(n)) for l in range(n)]
        columns.append(x)
    null = sympy.Matrix(columns).T.nullspace()
    if not null:
        return np.zeros((0, len(columns)))
    R = sympy.Matrix.hstack(*null).T.rref()[0]
    rows = []
    for r in range(R.rows):
        row = list(R.row(r))
        big = max(abs(v) for v in row)
        lead = next(v for v in row if abs(v) == big)
        rows.append([float(v / lead) for v in row])
    return np.array(rows)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_laplace_k_matches_exact_rref(commutative_fixtures, k):
    for a in commutative_fixtures.values():
        assert np.array_equal(a.structure, np.round(a.structure))
        want = _exact_canonical_rows(a, k)
        got = _dense_rows(gen_laplace_k(a, k), a, k)
        assert got.shape == want.shape, a.name
        assert np.allclose(got, want, rtol=0.0, atol=1e-12), a.name


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_laplace_k_is_reduced_echelon(commutative_fixtures, k):
    algebras = list(commutative_fixtures.values()) + [wave_algebra(c) for c in (0.7, 1.7, 2.5)]
    for a in algebras:
        B = _dense_rows(gen_laplace_k(a, k), a, k)
        m = B.shape[1]
        assert B.shape[0] == m - a.dim, a.name
        leads = [int(np.flatnonzero(row)[0]) for row in B]
        assert all(x < y for x, y in zip(leads, leads[1:])), a.name
        for r, lead in enumerate(leads):
            assert np.count_nonzero(B[:, lead]) == 1 and B[r, lead] != 0.0, a.name
        assert np.all(B[np.arange(len(B)), np.argmax(np.abs(B), axis=1)] == 1.0), a.name


def test_laplace_rotated_table_has_no_noise_terms():
    # a 45-degree rotation of the non-unity basis of the 3-hyperbolic numbers
    # puts rounding noise into the zero entries of the structure tensor
    a = get_algebra("3-hyperbolic")
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)  # these differ in the last bit
    S = np.eye(3)
    S[1:, 1:] = [[c, -s], [s, c]]
    S_inv = np.linalg.inv(S)
    C = np.einsum("ia,jb,ijk,ck->abc", S, S, a.structure, S_inv)
    assert 0.0 < np.abs(C[np.abs(C) < 1e-9]).max()
    rotated = make_algebra(3, C, S_inv @ a.unity, name="3-hyperbolic-rotated")
    for k in (2, 3, 4):
        system = gen_laplace_k(rotated, k)
        assert len(system) == comb(k + 2, k) - 3
        assert all(abs(t.coeff) >= 1e-12 for eq in system.equations for t in eq.terms)
        B = _dense_rows(system, rotated, k)
        assert np.abs(_product_matrix(rotated, k) @ B.T).max() <= 1e-9


def test_cr_rotated_table_has_no_noise_terms():
    # the rounding noise of a 45-degree rotation of the 3-hyperbolic basis
    # gave terms like -2.22045e-16*w_x
    a = get_algebra("3-hyperbolic")
    S = np.eye(3)
    S[1:, 1:] = [[np.cos(np.pi / 4), -np.sin(np.pi / 4)], [np.sin(np.pi / 4), np.cos(np.pi / 4)]]
    S_inv = np.linalg.inv(S)
    C = np.einsum("ia,jb,ijk,ck->abc", S, S, a.structure, S_inv)
    rotated = make_algebra(3, C, S_inv @ a.unity, name="3-hyperbolic-rotated")
    system = gen_cr(rotated)
    assert len(system) == 6
    assert all(abs(t.coeff) >= 1e-12 for eq in system.equations for t in eq.terms)
    P = rotated.cr_projector
    assert np.array_equal(P != 0, np.abs(P) >= 1e-12)
