"""Bundled algebras and the algebra definition file format.

The cyclic constructor covers every one-generator algebra R[g]/(g^n - value):
complex numbers (g^2 = -1), hyperbolic numbers (g^2 = 1), dual numbers of any
order (g^n = 0), n-hyperbolic numbers (g^n = 1) and the wave algebra
(g^2 = c^2).  Direct products, quaternions, the 2x2 matrix algebra and a
six-dimensional noncommutative triangular algebra round out the set.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache

import numpy as np

from .algebra import Algebra, make_algebra
from .errors import AlgebraMismatch, DimensionMismatch, MissingField

__all__ = [
    "bundled_algebras",
    "complex_algebra",
    "cyclic_algebra",
    "declared_algebra",
    "direct_product",
    "dual_numbers",
    "get_algebra",
    "hyperbolic",
    "is_file_spec",
    "load_algebra",
    "mat2",
    "n_hyperbolic",
    "quaternions",
    "read_file_doc",
    "real_algebra",
    "save_algebra",
    "triangular6",
    "wave_algebra",
]


def cyclic_algebra(n: int, power_value, name: str, labels=None) -> Algebra:
    """R[g]/(g^n - v): basis 1, g, ..., g^(n-1) with g^n = v (coords of v given)."""
    power_value = np.asarray(power_value, dtype=float)
    if power_value.shape != (n,):
        raise DimensionMismatch(f"power value needs {n} coordinates")
    if not np.isfinite(power_value).all():
        raise ValueError("power value must be finite")
    # coords of g^m for m = 0 .. 2n-2, reducing g^n -> power_value
    reps = [np.eye(n)[m] for m in range(n)]
    for m in range(n, 2 * n - 1):
        coords = np.zeros(n)
        for k, c in enumerate(power_value):
            if c != 0.0:
                coords += c * reps[m - n + k]
        reps.append(coords)
    C = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            C[i, j] = reps[i + j]
    unity = np.eye(n)[0]
    if labels is None:
        labels = ["1"] + [f"g{m}" if m > 1 else "g" for m in range(1, n)]
    return make_algebra(n, C, unity, labels=labels, name=name)


def direct_product(a: Algebra, b: Algebra, name: str | None = None) -> Algebra:
    """Componentwise product algebra A x B."""
    n, m = a.dim, b.dim
    C = np.zeros((n + m, n + m, n + m))
    C[:n, :n, :n] = a.structure
    C[n:, n:, n:] = b.structure
    unity = np.concatenate([a.unity, b.unity])
    labels = tuple(f"{s}'" for s in a.basis_labels) + tuple(f"{s}''" for s in b.basis_labels)
    return make_algebra(n + m, C, unity, labels=labels, name=name or f"{a.name}x{b.name}")


def real_algebra() -> Algebra:
    return cyclic_algebra(1, [1.0], "R", labels=["1"])


def complex_algebra() -> Algebra:
    return cyclic_algebra(2, [-1.0, 0.0], "C", labels=["1", "i"])


def hyperbolic() -> Algebra:
    return cyclic_algebra(2, [1.0, 0.0], "H", labels=["1", "j"])


def dual_numbers(order: int = 2) -> Algebra:
    labels = ["1", "eps"] + [f"eps{m}" for m in range(2, order)]
    name = "dual" if order == 2 else f"dual{order}"
    return cyclic_algebra(order, np.zeros(order), name, labels=labels)


def n_hyperbolic(n: int) -> Algebra:
    value = np.zeros(n)
    value[0] = 1.0
    labels = ["1", "j"] + [f"j{m}" for m in range(2, n)]
    return cyclic_algebra(n, value, f"{n}-hyperbolic", labels=labels)


def wave_algebra(c: float = 1.0) -> Algebra:
    """Two-dimensional algebra x + k t with k^2 = c^2; its second-order
    equation is the speed-c wave equation."""
    if c <= 0:
        raise ValueError("wave speed must be positive")
    if c * c < np.finfo(float).tiny:  # k^2 = 0 would be the dual numbers
        raise ValueError(f"wave speed {c:g} squares below the normal float range")
    return cyclic_algebra(2, [c * c, 0.0], f"wave(c={c:g})", labels=["1", "k"])


def quaternions() -> Algebra:
    table = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
        (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
        (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
    }
    C = np.zeros((4, 4, 4))
    for (i, j), (k, sign) in table.items():
        C[i, j, k] = sign
    return make_algebra(4, C, [1, 0, 0, 0], labels=["1", "i", "j", "k"], name="quaternions")


def mat2() -> Algebra:
    """2x2 real matrices on the basis E11, E12, E21, E22 (unity not a basis vector)."""
    def idx(a, b):
        return 2 * a + b

    C = np.zeros((4, 4, 4))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    if b == c:
                        C[idx(a, b), idx(c, d), idx(a, d)] = 1.0
    unity = np.array([1.0, 0.0, 0.0, 1.0])
    return make_algebra(4, C, unity, labels=["E11", "E12", "E21", "E22"], name="mat2")


def triangular6() -> Algebra:
    """Six-dimensional noncommutative algebra isomorphic to upper-triangular
    3x3 matrices; product (a,b,c,d,e,f)*(x,y,z,u,v,w) =
    (ax, by, cz, au+dy, bv+ez, aw+dv+fz)."""
    def product(p, q):
        a, b, c, d, e, f = p
        x, y, z, u, v, w = q
        return np.array([a * x, b * y, c * z, a * u + d * y, b * v + e * z, a * w + d * v + f * z])

    C = np.zeros((6, 6, 6))
    eye = np.eye(6)
    for i in range(6):
        for j in range(6):
            C[i, j] = product(eye[i], eye[j])
    unity = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    return make_algebra(6, C, unity, labels=[f"e{i+1}" for i in range(6)], name="triangular6")


# canonical fixture name -> constructor
_FIXTURES = {
    "R": real_algebra,
    "C": complex_algebra,
    "H": hyperbolic,
    "dual": lambda: dual_numbers(2),
    "dual3": lambda: dual_numbers(3),
    "dual4": lambda: dual_numbers(4),
    "3-hyperbolic": lambda: n_hyperbolic(3),
    "4-hyperbolic": lambda: n_hyperbolic(4),
    "RxR": lambda: direct_product(real_algebra(), real_algebra(), name="RxR"),
    "RxRxR": lambda: direct_product(direct_product(real_algebra(), real_algebra()),
                                    real_algebra(), name="RxRxR"),
    "CxC": lambda: direct_product(complex_algebra(), complex_algebra(), name="CxC"),
    "quaternions": quaternions,
    "mat2": mat2,
    "triangular6": triangular6,
    "wave": lambda: wave_algebra(1.0),
    "wave2": lambda: wave_algebra(2.0),
}


@lru_cache(maxsize=None)  # at most one entry per name in _FIXTURES
def _fixture(key: str) -> Algebra:
    """The process's one algebra for a fixture name, so the facts it holds
    (``rep_basis``, ``cr_projector``, its kernels) are computed once."""
    return _FIXTURES[key]()


def bundled_algebras() -> dict[str, Algebra]:
    """All fixture algebras keyed by canonical name."""
    return {name: _fixture(name) for name in _FIXTURES}


_ALIASES = {
    "complex": "C",
    "hyperbolic": "H",
    "trihyperbolic": "3-hyperbolic",
    "quadhyperbolic": "4-hyperbolic",
    "quat": "quaternions",
    "wave1": "wave",
}


def is_file_spec(spec: str) -> bool:
    """Whether a command-line spec names a file: it ends in ``.json`` or is
    an existing file.  Anything else is a name or an inline expression."""
    return spec.endswith(".json") or os.path.isfile(spec)


def get_algebra(name: str) -> Algebra:
    """Resolve a fixture name (with aliases, e.g. ``wave:2.5``) or a file path.

    A fixture name gives the same object on every call; a file or a
    ``wave:<c>`` spec builds a new algebra."""
    if is_file_spec(name):
        return load_algebra(name)
    if name.startswith("wave:"):
        return wave_algebra(float(name.split(":", 1)[1]))
    key = _ALIASES.get(name, name)
    if key not in _FIXTURES:
        raise KeyError(f"unknown algebra {name!r}; known: {', '.join(sorted(_FIXTURES))}")
    return _fixture(key)


def declared_algebra(doc, algebra: Algebra | None = None) -> Algebra:
    """The algebra a function or curve file declares under ``"algebra"``.
    A given ``algebra`` is returned in its place, and must have its structure,
    else :class:`AlgebraMismatch`."""
    declared = get_algebra(doc["algebra"])
    if algebra is not None and not declared.same_structure(algebra):
        raise AlgebraMismatch(f"the file declares algebra {declared.name!r}, not {algebra.name!r}")
    return declared if algebra is None else algebra


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

class _FileDoc(dict):
    """An object of a JSON file, whose missing fields name the file."""

    def __init__(self, path: str, doc: dict):
        super().__init__(doc)
        self.path = path

    def __missing__(self, key):
        raise MissingField(self.path, key)


def read_file_doc(path: str):
    """The JSON document of a function, curve, map or algebra file.  Reading a
    missing field of any of its objects raises :class:`MissingField`, which
    names the file and the field."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_hook=lambda doc: _FileDoc(path, doc))


def load_algebra(path: str) -> Algebra:
    """Load one algebra from a JSON document.

    Fields: ``name``, ``dim``, ``labels``, ``unity`` and either a full
    ``table`` (table[i][j] = coordinates of v_i * v_j) or a cyclic
    ``relations`` shorthand {"generator_power": n, "value": [...]}.
    """
    return algebra_from_dict(read_file_doc(path))


def algebra_from_dict(doc: dict) -> Algebra:
    name = doc.get("name", "algebra")
    dim = int(doc["dim"])
    labels = doc.get("labels")
    if "relations" in doc:
        rel = doc["relations"]
        power = int(rel["generator_power"])
        if power != dim:
            raise DimensionMismatch("generator power must equal the dimension")
        return cyclic_algebra(dim, rel["value"], name, labels=labels)
    table = np.asarray(doc["table"], dtype=float)
    if table.shape != (dim, dim, dim):
        raise DimensionMismatch(f"table must be {dim}x{dim} vectors of length {dim}")
    unity = doc["unity"]
    return make_algebra(dim, table, unity, labels=labels, name=name)


def save_algebra(algebra: Algebra, path: str) -> None:
    doc = {
        "name": algebra.name,
        "dim": algebra.dim,
        "labels": list(algebra.basis_labels),
        "unity": algebra.unity.tolist(),
        "table": algebra.structure.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
