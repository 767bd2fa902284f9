import pytest

from acalc.fixtures import bundled_algebras


@pytest.fixture(scope="session")
def fixtures():
    return bundled_algebras()


@pytest.fixture(scope="session")
def commutative_fixtures(fixtures):
    return {name: a for name, a in fixtures.items() if a.commutative}


def distinct_ops(trees) -> set:
    """The operator nodes of the trees, each once, by a walk of its own."""
    from acalc.expr import Op

    seen, todo = set(), list(trees)
    while todo:
        e = todo.pop()
        if isinstance(e, Op) and e not in seen:
            seen.add(e)
            todo.extend(e.args)
    return seen


def nodes_built(monkeypatch) -> list:
    """Record the fields (op, args, k) of every operator node built from now
    on, a new node or a live one that the constructor returns again."""
    from acalc.expr import Op

    built, new = [], Op.__new__
    monkeypatch.setattr(Op, "__new__", staticmethod(
        lambda cls, op, args, k=None: built.append((op, args, k)) or new(cls, op, args, k)))
    return built


def random_element(algebra, rng, scale=2.0):
    return algebra.element(rng.uniform(-scale, scale, algebra.dim))


def random_elements(algebra, rng, count, scale=2.0):
    return [random_element(algebra, rng, scale) for _ in range(count)]


def _count_evaluations(monkeypatch, record):
    """Call ``record(x)`` with the input of every evaluation of a function or
    of an integrand: each call of ``ExprFn.eval_coords``, and each compiled
    kernel call of ``acalc.integrate``, where a parametric curve evaluates its
    integrand f(z(t)) * z'(t), its points and its velocities."""
    from acalc import integrate
    from acalc.expr import ExprFn

    eval_coords, eval_compiled = ExprFn.eval_coords, integrate.eval_compiled

    def counted_coords(self, point):
        record(point)
        return eval_coords(self, point)

    def counted_compiled(kernel, x):
        record(x)
        return eval_compiled(kernel, x)

    monkeypatch.setattr(ExprFn, "eval_coords", counted_coords)
    monkeypatch.setattr(integrate, "eval_compiled", counted_compiled)


@pytest.fixture
def eval_calls(monkeypatch):
    """Inputs of the evaluations ``_count_evaluations`` counts; one batch call counts once."""
    calls = []
    _count_evaluations(monkeypatch, calls.append)
    return calls


@pytest.fixture
def eval_rows(monkeypatch):
    """Rows of each evaluation ``_count_evaluations`` counts: 1 for a point, m for an (m, n) batch."""
    import numpy as np

    rows = []
    _count_evaluations(monkeypatch, lambda x: rows.append(len(np.atleast_2d(x))))
    return rows
