"""Real-linear maps between algebras and isomorphism verification.

A verified isomorphism preserves unity, products on all basis pairs, and is
invertible; functions and derivatives can then be transported between the
two algebras by conjugation with the map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import AElement, Algebra, _freeze
from .errors import AlgebraMismatch, DimensionMismatch, NotAnIsomorphism
from .expr import ExprFn, _combine, parse, substitute, var
from .fixtures import get_algebra, read_file_doc, wave_algebra

__all__ = [
    "IsoReport",
    "LinMap",
    "load_linmap",
    "pairs_to_hyperbolic",
    "save_linmap",
    "transfer_function",
    "verify_isomorphism",
    "wave_isomorphism",
]

MULT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class LinMap:
    """Immutable linear map given by its matrix; column j is the image of source v_j."""

    source: Algebra
    target: Algebra
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise DimensionMismatch(
                f"matrix must be {self.target.dim}x{self.source.dim}, got {self.matrix.shape}"
            )

    @cached_property
    def verified_isomorphism(self) -> bool:
        """Whether the map verifies as an isomorphism at the default tolerance."""
        return verify_isomorphism(self).ok

    @cached_property
    def inverse(self) -> "LinMap":
        """The inverse map, held; its own ``inverse`` is this map."""
        inv = LinMap(source=self.target, target=self.source, matrix=np.linalg.inv(self.matrix))
        inv.__dict__["inverse"] = self  # where cached_property keeps its value
        return inv

    def __call__(self, x: AElement) -> AElement:
        return self.target.element(self.matrix @ x.coords)


@dataclass(frozen=True)
class IsoReport:
    invertible: bool
    unity_preserved: bool
    max_mult_residual: float
    ok: bool

    def lines(self) -> list[str]:
        return [
            f"invertible:          {self.invertible}",
            f"unity preserved:     {self.unity_preserved}",
            f"max product residual:{self.max_mult_residual: .3e}",
            f"isomorphism:         {self.ok}",
        ]


def verify_isomorphism(m: LinMap, tol: float = MULT_TOL) -> IsoReport:
    """Check invertibility, unity preservation and multiplicativity on all
    basis pairs (bilinearity makes the basis check complete)."""
    if m.source.dim != m.target.dim:
        raise DimensionMismatch("an isomorphism needs equal dimensions")
    A = m.matrix
    s = np.linalg.svd(A, compute_uv=False)
    invertible = bool(s[-1] > 1e-12 * max(1.0, s[0]))
    unity_ok = bool(
        np.max(np.abs(A @ m.source.unity - m.target.unity)) <= tol
    )
    # [i, j] holds m(v_i v_j) and m(v_i) m(v_j)
    lhs = np.einsum("ijk,lk->ijl", m.source.structure, A)
    rhs = np.einsum("ai,bj,abl->ijl", A, A, m.target.structure)
    worst = float(np.max(np.abs(lhs - rhs)))
    ok = invertible and unity_ok and worst <= tol
    return IsoReport(
        invertible=invertible,
        unity_preserved=unity_ok,
        max_mult_residual=worst,
        ok=ok,
    )


def transfer_function(m: LinMap, f: ExprFn) -> ExprFn:
    """Conjugate a function on the source into one on the target.

    Returns ``g = m o f o m^{-1}`` as an ExprFn on the target: the rows of
    m^{-1} replace the variables of f, and m combines its components.
    Differentiability carries over, with g' = m o f' o m^{-1}.  Refuses maps
    that do not verify as isomorphisms, then functions of another algebra.
    """
    if not m.verified_isomorphism:
        raise NotAnIsomorphism("transfer needs a verified isomorphism")
    if not f.algebra.same_structure(m.source):
        raise AlgebraMismatch("function does not live on the source of the map")
    rows = _combine(m.inverse.matrix, [var(i) for i in range(m.source.dim)])
    return ExprFn(m.target, _combine(m.matrix, substitute(f.components, dict(enumerate(rows)))))


def _verified(source: Algebra, target: Algebra, matrix, what: str) -> LinMap:
    """The map, or NotAnIsomorphism naming ``what`` if it fails verification."""
    m = LinMap(source=source, target=target, matrix=np.array(matrix))
    if not m.verified_isomorphism:
        raise NotAnIsomorphism(f"{what} failed verification")
    return m


def wave_isomorphism(c: float = 1.0) -> LinMap:
    """Verified map from the speed-c wave algebra onto R x R (the held
    fixture) sending x + k t to (x + c t, x - c t)."""
    return _verified(wave_algebra(c), get_algebra("RxR"), [[1.0, c], [1.0, -c]], "wave map")


def pairs_to_hyperbolic() -> LinMap:
    """Verified map R x R -> H (both held fixtures) sending (a, b) to
    a(1+j)/2 + b(1-j)/2."""
    return _verified(get_algebra("RxR"), get_algebra("H"), [[0.5, 0.5], [0.5, -0.5]],
                     "hyperbolic splitting map")


def dalembert_solution(c: float, f1_src: str = "sin(s)", f2_src: str = "s^2"):
    """Pull a componentwise function (F1(a), F2(b)) on R x R back through the
    wave map: the result on the wave algebra has first component
    (F1(x + c t) + F2(x - c t)) / 2, the classical traveling-wave form.

    F1, F2 are one-variable expressions in ``s``.  Returns (function, map).
    """
    iso = wave_isomorphism(c)
    # profile i reads coordinate i of R x R, named s (or x1, its one coordinate)
    profiles = ExprFn(iso.target, tuple(
        parse(src, 1, names={"s": i, "x1": i}) for i, src in enumerate((f1_src, f2_src))
    ))
    return transfer_function(iso.inverse, profiles), iso


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def load_linmap(path: str) -> LinMap:
    """Load a map file: source/target algebra names plus the matrix entries."""
    doc = read_file_doc(path)
    return LinMap(
        source=get_algebra(doc["source"]),
        target=get_algebra(doc["target"]),
        matrix=np.asarray(doc["matrix"], dtype=float),
    )


def save_linmap(m: LinMap, path: str) -> None:
    doc = {
        "source": m.source.name,
        "target": m.target.name,
        "matrix": m.matrix.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
