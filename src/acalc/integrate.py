"""Curve integrals of algebra-valued functions: int_C f(z) * dz.

The integral is evaluated componentwise as int f(z(t)) * z'(t) dt by
adaptive Simpson quadrature (per-curve error bound returned with every
result).  A literal broken-line Riemann-sum mode is kept for convergence
demonstrations.

Every curve exposes ``pieces``: tuples (point, velocity, t0, t1) of callables
of the parameter and its range.  A parametric curve is one piece; a polyline
has one piece per segment, parametrized over [0, 1].  The integration
routines below see only pieces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import AElement, Algebra, _freeze, norm, submult_bound
from .errors import DimensionMismatch, QuadratureNonConvergence
from .expr import Expr, ExprFn, compile_expr, diff, lit, parse, substitute, sub, var

__all__ = [
    "Curve",
    "IntegralResult",
    "LoopResult",
    "MLReport",
    "ParametricCurve",
    "Polyline",
    "ProbeReport",
    "antiderivative_probe",
    "integrate_curve",
    "load_curve",
    "loop_integral",
    "ml_bound_check",
    "reverse_curve",
    "riemann_sum",
    "segment",
]

QUAD_TOL = 1e-10
MAX_DEPTH = 20
CLOSED_TOL = 1e-12


@dataclass(frozen=True)
class ParametricCurve:
    """Curve z(t) with one coordinate expression per component over [t0, t1]."""

    algebra: Algebra
    components: tuple[Expr, ...]
    t0: float
    t1: float

    def __post_init__(self):
        if len(self.components) != self.algebra.dim:
            raise DimensionMismatch(
                f"curve needs {self.algebra.dim} coordinate maps"
            )

    @cached_property
    def _point_fns(self) -> tuple:
        return tuple(compile_expr(c) for c in self.components)

    @cached_property
    def _velocity_fns(self) -> tuple:
        return tuple(compile_expr(diff(c, 0)) for c in self.components)

    def point(self, t: float) -> np.ndarray:
        return np.array([fn((t,)) for fn in self._point_fns])

    def velocity(self, t: float) -> np.ndarray:
        return np.array([fn((t,)) for fn in self._velocity_fns])

    @property
    def pieces(self) -> tuple:
        return ((self.point, self.velocity, self.t0, self.t1),)

    @property
    def start(self) -> AElement:
        return self.algebra.element(self.point(self.t0))

    @property
    def end(self) -> AElement:
        return self.algebra.element(self.point(self.t1))

    @property
    def closed(self) -> bool:
        return bool(np.max(np.abs(self.point(self.t0) - self.point(self.t1))) <= CLOSED_TOL)


@dataclass(frozen=True)
class Polyline:
    """Broken line through the given vertices (at least two)."""

    vertices: tuple[AElement, ...]

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise DimensionMismatch("a polyline needs at least 2 vertices")

    @property
    def algebra(self) -> Algebra:
        return self.vertices[0].algebra

    @property
    def start(self) -> AElement:
        return self.vertices[0]

    @property
    def end(self) -> AElement:
        return self.vertices[-1]

    @property
    def closed(self) -> bool:
        d = self.vertices[0].coords - self.vertices[-1].coords
        return bool(np.max(np.abs(d)) <= CLOSED_TOL)

    @cached_property
    def pieces(self) -> tuple:
        return tuple(_segment_piece(a.coords, b.coords)
                     for a, b in zip(self.vertices, self.vertices[1:]))


def _segment_piece(p: np.ndarray, q: np.ndarray) -> tuple:
    d = _freeze(q - p)
    return (lambda s: p + s * d), (lambda s: d), 0.0, 1.0


Curve = ParametricCurve | Polyline


def segment(p: AElement, q: AElement) -> Polyline:
    return Polyline(vertices=(p, q))


def reverse_curve(curve: Curve) -> Curve:
    if isinstance(curve, Polyline):
        return Polyline(vertices=tuple(reversed(curve.vertices)))
    flipped = tuple(
        substitute(c, {0: sub(lit(curve.t0 + curve.t1), var(0, "t"))})
        for c in curve.components
    )
    return ParametricCurve(algebra=curve.algebra, components=flipped,
                           t0=curve.t0, t1=curve.t1)


@dataclass(frozen=True)
class IntegralResult:
    value: AElement
    error_bound: float


@dataclass(frozen=True)
class MLReport:
    lhs: float      # || int f * dz ||
    M: float        # max ||f|| on the curve
    L: float        # arclength
    K: float        # submultiplicative constant of the algebra
    holds: bool


@dataclass(frozen=True)
class LoopResult:
    value: AElement
    error_bound: float
    vanishes: bool
    verdict: str


@dataclass(frozen=True)
class ProbeReport:
    max_discrepancy: float
    pairs: tuple[tuple[AElement, AElement], ...]


# ---------------------------------------------------------------------------
# quadrature core
# ---------------------------------------------------------------------------

def _adaptive_simpson(g, a: float, b: float, tol: float, max_depth: int):
    """Vector-valued adaptive Simpson; returns (integral, error_bound)."""
    fa, fm, fb = g(a), g((a + b) / 2), g(b)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = (a + b) / 2
        lm, rm = (a + m) / 2, (m + b) / 2
        flm, frm = g(lm), g(rm)
        left = (m - a) / 6 * (fa + 4 * flm + fm)
        right = (b - m) / 6 * (fm + 4 * frm + fb)
        delta = left + right - whole
        err = float(np.max(np.abs(delta))) / 15.0
        if err <= tol or (b - a) <= 1e-14 * max(1.0, abs(a) + abs(b)):
            return left + right + delta / 15.0, err
        if depth >= max_depth:
            raise QuadratureNonConvergence(estimate=left + right + delta / 15.0,
                                           error_bound=err)
        lv, le = recurse(a, m, fa, flm, fm, left, tol / 2, depth + 1)
        rv, re = recurse(m, b, fm, frm, fb, right, tol / 2, depth + 1)
        return lv + rv, le + re

    whole = (b - a) / 6 * (fa + 4 * fm + fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def integrate_curve(f: ExprFn, curve: Curve, tol: float = QUAD_TOL,
                    max_depth: int = MAX_DEPTH) -> IntegralResult:
    """int_C f(z) * dz with a quadrature error bound.

    Each piece integrates f(z(t)) * z'(t) over its parameter range; a
    polyline's segments have exact linear parametrizations.  Division by an
    exact zero inside f raises DomainError; persistent refinement failure
    (e.g. near a zero-divisor singularity) raises QuadratureNonConvergence.
    """
    algebra = f.algebra
    C = algebra.structure
    total = np.zeros(algebra.dim)
    err = 0.0
    for point, velocity, t0, t1 in curve.pieces:
        def g(t: float) -> np.ndarray:
            return np.einsum("i,j,ijk->k", f.eval_coords(point(t)), velocity(t), C)

        v, e = _adaptive_simpson(g, t0, t1, tol, max_depth)
        total = total + v
        err += e
    return IntegralResult(value=algebra.element(total), error_bound=err)


def riemann_sum(f: ExprFn, curve: Curve, m: int) -> AElement:
    """Literal broken-line sum over m steps per piece: sum f(z_i) * (z_i - z_{i-1})."""
    algebra = f.algebra
    start, _, t0, _ = curve.pieces[0]
    pts = [start(t0)]
    for point, _, t0, t1 in curve.pieces:
        pts.extend(point(t) for t in np.linspace(t0, t1, m + 1)[1:])
    total = np.zeros(algebra.dim)
    for prev, cur in zip(pts, pts[1:]):
        fv = f.eval_coords(cur)
        total += np.einsum("i,j,ijk->k", fv, cur - prev, algebra.structure)
    return algebra.element(total)


# ---------------------------------------------------------------------------
# bound, loops, path independence
# ---------------------------------------------------------------------------

def _arclength(curve: Curve) -> float:
    return float(sum(
        _adaptive_simpson(lambda t: float(np.linalg.norm(velocity(t))), t0, t1,
                          QUAD_TOL, MAX_DEPTH)[0]
        for _, velocity, t0, t1 in curve.pieces
    ))


def ml_bound_check(f: ExprFn, curve: Curve, samples: int = 1024) -> MLReport:
    """Check || int_C f * dz || <= K * M * L with M, L estimated numerically.

    M is the max of ||f|| over a dense uniform sample (split evenly between
    the pieces), refined once around the coarse argmax within its piece (in
    parameter space, so refined points stay on the curve); L is the
    arclength.
    """
    def size(point, t: float) -> float:
        return float(np.linalg.norm(f.eval_coords(point(t))))

    per = max(2, samples // len(curve.pieces))
    coarse = []
    for point, _, t0, t1 in curve.pieces:
        ts = np.linspace(t0, t1, per)
        norms = [size(point, t) for t in ts]
        best = int(np.argmax(norms))
        coarse.append((norms[best], point, ts[max(0, best - 1)], ts[min(per - 1, best + 1)]))
    M, point, lo, hi = max(coarse, key=lambda c: c[0])
    for t in np.linspace(lo, hi, 256):
        M = max(M, size(point, t))
    L = _arclength(curve)
    K = submult_bound(f.algebra)
    result = integrate_curve(f, curve)
    lhs = norm(result.value)
    holds = lhs <= K * M * L * (1 + 1e-9) + 1e-12
    return MLReport(lhs=lhs, M=M, L=L, K=K, holds=holds)


def loop_integral(f: ExprFn, curve: Curve, tol: float = QUAD_TOL) -> LoopResult:
    """Integral around a closed curve with a vanishing verdict."""
    if not curve.closed:
        raise ValueError("loop integral needs a closed curve")
    result = integrate_curve(f, curve, tol=tol)
    size = norm(result.value)
    vanishes = size <= result.error_bound + 1e-8
    verdict = "vanishes" if vanishes else "nonzero"
    return LoopResult(value=result.value, error_bound=result.error_bound,
                      vanishes=vanishes, verdict=verdict)


def antiderivative_probe(f: ExprFn, region_samples, n_pairs: int = 5,
                         seed: int = 0) -> ProbeReport:
    """Path-independence probe: integrate along three polyline routes between
    random endpoint pairs and report the largest discrepancy."""
    algebra = f.algebra
    pts = [p if isinstance(p, AElement) else algebra.element(p) for p in region_samples]
    if len(pts) < 2:
        raise DimensionMismatch("need at least two region samples")
    rng = np.random.default_rng(seed)
    worst = 0.0
    pairs = []
    for _ in range(n_pairs):
        i, j = rng.choice(len(pts), size=2, replace=False)
        p, q = pts[i], pts[j]
        pairs.append((p, q))
        mid = 0.5 * (p.coords + q.coords)
        scale = 0.5 * float(np.linalg.norm(q.coords - p.coords)) or 1.0
        detour1 = algebra.element(mid + scale * rng.uniform(-1, 1, algebra.dim))
        detour2 = algebra.element(mid + scale * rng.uniform(-1, 1, algebra.dim))
        routes = [
            Polyline((p, q)),
            Polyline((p, detour1, q)),
            Polyline((p, detour2, q)),
        ]
        values = [integrate_curve(f, r).value for r in routes]
        for a in values:
            for b in values:
                worst = max(worst, norm(a - b))
    return ProbeReport(max_discrepancy=worst, pairs=tuple(pairs))


# ---------------------------------------------------------------------------
# curve files
# ---------------------------------------------------------------------------

def load_curve(path: str, algebra: Algebra | None = None) -> Curve:
    """Load a curve file.

    Parametric: {"algebra": name, "kind": "parametric",
    "components": [exprs in t], "t0": a, "t1": b}.
    Polyline: {"algebra": name, "kind": "polyline", "vertices": [[...], ...]}.
    """
    from .fixtures import get_algebra

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if algebra is None:
        algebra = get_algebra(doc["algebra"])
    if doc.get("kind", "parametric") == "polyline":
        curve: Curve = Polyline(vertices=tuple(algebra.element(v) for v in doc["vertices"]))
    else:
        comps = tuple(parse(src, 1, names={"t": 0}) for src in doc["components"])
        curve = ParametricCurve(algebra=algebra, components=comps,
                                t0=float(doc["t0"]), t1=float(doc["t1"]))
    if "closed" in doc and bool(doc["closed"]) != curve.closed:
        raise ValueError(
            f"curve file declares closed={doc['closed']} but the endpoints "
            f"{'coincide' if curve.closed else 'differ'}"
        )
    return curve
