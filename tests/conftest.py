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


def random_element(algebra, rng, scale=2.0):
    return algebra.element(rng.uniform(-scale, scale, algebra.dim))


def random_elements(algebra, rng, count, scale=2.0):
    return [random_element(algebra, rng, scale) for _ in range(count)]


@pytest.fixture
def eval_calls(monkeypatch):
    """Count calls of ``ExprFn.eval_coords``; one batch call counts once."""
    from acalc.expr import ExprFn

    calls = []
    original = ExprFn.eval_coords

    def counted(self, point):
        calls.append(point)
        return original(self, point)

    monkeypatch.setattr(ExprFn, "eval_coords", counted)
    return calls


@pytest.fixture
def eval_rows(monkeypatch):
    """Rows of each ``ExprFn.eval_coords`` call: 1 for a point, m for an (m, n) batch."""
    import numpy as np

    from acalc.expr import ExprFn

    rows = []
    original = ExprFn.eval_coords

    def counted(self, point):
        rows.append(len(np.atleast_2d(point)))
        return original(self, point)

    monkeypatch.setattr(ExprFn, "eval_coords", counted)
    return rows
