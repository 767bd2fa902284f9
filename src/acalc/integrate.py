"""Curve integrals of algebra-valued functions: int_C f(z) * dz.

The integral is evaluated componentwise as int f(z(t)) * z'(t) dt by
globally batched Gauss-Kronrod (G7, K15) quadrature, with an error estimate
returned with every result.  A literal broken-line Riemann-sum mode is kept
for convergence demonstrations.

Every curve is a sequence of pieces.  ``spans`` gives the parameter ranges
(t0, t1) of all pieces as two arrays; ``points(piece, t)`` and
``velocities(piece, t)`` give z and z' at parameters ``t`` of the tagged
pieces, row by row; and ``integrand(f)`` gives the rows f(z(t)) * z'(t).
A parametric curve is one piece, and its integrand is one compiled kernel of
z, z', f(z) and the product, held per function; f(z) is composed by
``expr.substitute``, which keeps every node of f as it is.  A polyline has
one piece per segment, parametrized over [0, 1], and its integrand evaluates
f at the segments' points and multiplies by their steps.  Every piece of a
curve is refined in the same batch, so one level of quadrature is one
evaluation of the integrand.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import AElement, Algebra, _check_same, _freeze, mul_batch, norm, submult_bound
from .errors import DimensionMismatch, QuadratureNonConvergence
from .expr import (Expr, ExprFn, _sym_product, compile_expr, diff, eval_compiled, lit, parse,
                   substitute, sub, var)

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
# Integrand rows allowed on one refinement level.  An integrand that never
# meets the tolerance would otherwise double its intervals on every level up
# to MAX_DEPTH (2^20 of them, 15 rows each); converging integrals here stay
# far below.
MAX_LEVEL_ROWS = 1 << 15
CLOSED_TOL = 1e-12
ML_SAMPLES = 1024  # coarse samples of ||f|| along a curve for the ML bound
PROBE_PAIRS = 5    # endpoint pairs of the path-independence probe


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
    def _point_kernel(self):
        return compile_expr(self.components)

    @cached_property
    def _velocity(self) -> tuple[Expr, ...]:
        """The trees of z'(t)."""
        return tuple(diff(c, 0) for c in self.components)

    @cached_property
    def _velocity_kernel(self):
        return compile_expr(self._velocity)

    @cached_property
    def _integrands(self) -> weakref.WeakKeyDictionary:
        # the integrand of each function, held as long as the function lives
        return weakref.WeakKeyDictionary()

    def point(self, t) -> np.ndarray:
        """z(t) for one parameter ``t`` -> ``(n,)``, or an array ``(k,)`` -> ``(k, n)``."""
        return eval_compiled(self._point_kernel, np.asarray(t, dtype=float)[..., None])

    def velocity(self, t) -> np.ndarray:
        """z'(t), shaped like :meth:`point`."""
        return eval_compiled(self._velocity_kernel, np.asarray(t, dtype=float)[..., None])

    @property
    def spans(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([self.t0]), np.array([self.t1])

    def points(self, piece: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Points at the parameters ``t`` (the one piece)."""
        return self.point(t)

    def velocities(self, piece: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Velocities at the parameters ``t`` (the one piece)."""
        return self.velocity(t)

    def integrand(self, f: ExprFn):
        """``g(piece, t)``: the rows f(z(t)) * z'(t) at the parameters ``t``.

        One kernel in t returns z, z', f(z) and the product, so a row costs
        one call and one finiteness check covers every group: a non-finite
        point, velocity, value of f or product raises DomainError.  The
        kernel is built from the trees on first use and held per function.
        """
        g = self._integrands.get(f)
        if g is None:
            z, dz = self.components, self._velocity
            fz = substitute(f.components, dict(enumerate(z)))
            kernel = compile_expr(z + dz + fz + _sym_product(f.algebra, fz, dz))
            product = 3 * len(z)  # the product's columns come after z, z' and f(z)

            def g(piece: np.ndarray, t: np.ndarray) -> np.ndarray:
                return eval_compiled(kernel, t[:, None])[:, product:]

            self._integrands[f] = g
        return g

    @property
    def start(self) -> AElement:
        return self.algebra.element(self.point(self.t0))

    @property
    def end(self) -> AElement:
        return self.algebra.element(self.point(self.t1))

    @property
    def closed(self) -> bool:
        return bool(np.max(np.abs(self.point(self.t0) - self.point(self.t1))) <= CLOSED_TOL)


class _Segments:
    """Pieces that are straight segments: segment k runs from ``starts[k]``
    as starts[k] + s * steps[k] for s in [0, 1], and a row's piece tag
    indexes both arrays."""

    starts: np.ndarray
    steps: np.ndarray

    def __init__(self, starts: np.ndarray, steps: np.ndarray):
        self.starts, self.steps = starts, steps

    @property
    def spans(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(len(self.steps)), np.ones(len(self.steps))

    def points(self, piece: np.ndarray, s: np.ndarray) -> np.ndarray:
        return self.starts[piece] + s[:, None] * self.steps[piece]

    def velocities(self, piece: np.ndarray, s: np.ndarray) -> np.ndarray:
        return self.steps[piece]

    def integrand(self, f: ExprFn):
        """``g(piece, s)``: the rows f(z) * z' at the points of the tagged segments."""
        def g(piece: np.ndarray, s: np.ndarray) -> np.ndarray:
            d = self.steps[piece]
            return mul_batch(f.algebra, f.eval_coords(self.starts[piece] + s[:, None] * d), d)

        return g


@dataclass(frozen=True)
class Polyline(_Segments):
    """Broken line through the given vertices (at least two)."""

    vertices: tuple[AElement, ...]

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise DimensionMismatch("a polyline needs at least 2 vertices")
        for v in self.vertices[1:]:
            _check_same(self.algebra, v.algebra)

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
    def starts(self) -> np.ndarray:
        return np.array([v.coords for v in self.vertices[:-1]])

    @cached_property
    def steps(self) -> np.ndarray:
        return np.diff([v.coords for v in self.vertices], axis=0)


Curve = ParametricCurve | Polyline


def segment(p: AElement, q: AElement) -> Polyline:
    return Polyline(vertices=(p, q))


def reverse_curve(curve: Curve) -> Curve:
    if isinstance(curve, Polyline):
        return Polyline(vertices=tuple(reversed(curve.vertices)))
    flipped = substitute(curve.components, {0: sub(lit(curve.t0 + curve.t1), var(0, "t"))})
    return ParametricCurve(algebra=curve.algebra, components=flipped,
                           t0=curve.t0, t1=curve.t1)


@dataclass(frozen=True)
class IntegralResult:
    value: AElement
    error_bound: float


@dataclass(frozen=True)
class MLReport:
    integral: IntegralResult
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

# Gauss-Kronrod (G7, K15) on [-1, 1] (Piessens et al., QUADPACK, 1983): the
# Kronrod nodes from the outermost to the centre, their weights, and the
# weights of the Gauss nodes, which are every second Kronrod node.
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245, 0.0)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
GK_NODES = _freeze(np.concatenate([np.negative(_XK), _XK[-2::-1]]))
_KRONROD = np.concatenate([_WK, _WK[-2::-1]])
_GAUSS = np.zeros(15)
_GAUSS[1::2] = np.concatenate([_WG, _WG[-2::-1]])
# Row 0 of a node batch's product gives K15, row 1 gives K15 - G7.
GK_WEIGHTS = _freeze([_KRONROD, _KRONROD - _GAUSS])


def _gauss_kronrod(g, t0: np.ndarray, t1: np.ndarray) -> tuple[np.ndarray, float]:
    """Integrals of ``g`` over the pieces [t0[k], t1[k]]; returns (values, error).

    ``g(piece, t)`` maps a piece tag and a parameter per row, both of shape
    (m,), to integrand rows of shape (m, d).  Every piece starts as one
    interval.  On each level the 15 nodes of every open interval go to ``g``
    in one call; an interval is accepted when the largest component of its
    |K15 - G7| is at most its length's share of QUAD_TOL, and the rejected
    intervals are halved.  ``values`` has one row per piece: the K15 sums of
    its accepted intervals, added level by level in one ``np.add.at`` at the
    end.  ``error`` sums the accepted |K15 - G7|, so it is at most QUAD_TOL.
    """
    piece = np.arange(len(t0))
    a, b = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
    total = float(np.abs(b - a).sum())
    err_total = 0.0
    tags, sums = [], []  # the pieces and K15 sums of the accepted intervals, level by level
    for depth in itertools.count():
        width = b - a
        centre, half = (a + b) / 2, width / 2
        t = centre[:, None] + half[:, None] * GK_NODES
        rows = g(np.repeat(piece, len(GK_NODES)), t.ravel())
        level = half[:, None, None] * (GK_WEIGHTS @ rows.reshape(t.shape + (-1,)))
        kronrod, err = level[:, 0], np.abs(level[:, 1]).max(axis=1)
        done = err * total <= QUAD_TOL * np.abs(width)
        tags.append(piece[done])
        sums.append(kronrod[done])
        err_total += float(err[done].sum())
        keep = ~done
        count = np.count_nonzero(keep)
        if not count:
            return _accumulate(len(t0), tags, sums), err_total
        if depth >= MAX_DEPTH or 2 * len(GK_NODES) * count > MAX_LEVEL_ROWS:
            tags.append(piece[keep])
            sums.append(kronrod[keep])
            err_total += float(err[keep].sum())
            raise QuadratureNonConvergence(estimate=_accumulate(len(t0), tags, sums), error_bound=err_total)
        # each open interval [a, b] becomes [a, centre] and [centre, b]
        edges = np.empty((count, 3))
        edges[:, 0], edges[:, 1], edges[:, 2] = a[keep], centre[keep], b[keep]
        a, b = edges[:, :2].ravel(), edges[:, 1:].ravel()
        piece = np.repeat(piece[keep], 2)


def _accumulate(pieces: int, tags: list, sums: list) -> np.ndarray:
    """One row per piece: its interval sums added in the order they were accepted."""
    values = np.zeros((pieces, sums[0].shape[1]))
    np.add.at(values, np.concatenate(tags), np.concatenate(sums))
    return values


def integrate_curve(f: ExprFn, curve: Curve) -> IntegralResult:
    """int_C f(z) * dz with a quadrature error estimate.

    Each piece integrates f(z(t)) * z'(t), the curve's integrand, over its
    parameter range; a polyline's segments have exact linear
    parametrizations.  Division by an exact zero inside f, and on a
    parametric curve a point, velocity or product that is not finite, raise
    DomainError; persistent refinement failure (e.g. near a zero-divisor
    singularity) raises QuadratureNonConvergence, and a curve in an algebra
    other than f's raises AlgebraMismatch.
    """
    _check_same(f.algebra, curve.algebra)
    values, err = _gauss_kronrod(curve.integrand(f), *curve.spans)
    return IntegralResult(value=f.algebra.element(values.sum(axis=0)), error_bound=err)


def _samples(curve: Curve, per: int) -> tuple[np.ndarray, np.ndarray]:
    """Piece tags and ``per`` evenly spaced parameters of every piece, shaped (pieces, per)."""
    t = np.linspace(*curve.spans, per, axis=1)
    return np.broadcast_to(np.arange(len(t))[:, None], t.shape), t


def riemann_sum(f: ExprFn, curve: Curve, m: int) -> AElement:
    """Literal broken-line sum over m steps per piece: sum f(z_i) * (z_i - z_{i-1})."""
    algebra = f.algebra
    _check_same(algebra, curve.algebra)
    piece, t = _samples(curve, m + 1)
    pts = curve.points(piece.ravel(), t.ravel()).reshape(t.shape + (-1,))
    # each piece starts where the one before it ends
    pts = np.concatenate([pts[0, :1], pts[:, 1:].reshape(-1, algebra.dim)])
    products = mul_batch(algebra, f.eval_coords(pts[1:]), np.diff(pts, axis=0))
    return algebra.element(products.sum(axis=0))


# ---------------------------------------------------------------------------
# bound, loops, path independence
# ---------------------------------------------------------------------------

def _arclength(curve: Curve) -> float:
    def speed(piece: np.ndarray, t: np.ndarray) -> np.ndarray:
        return np.linalg.norm(curve.velocities(piece, t), axis=1, keepdims=True)

    return float(_gauss_kronrod(speed, *curve.spans)[0].sum())


def ml_bound_check(f: ExprFn, curve: Curve) -> MLReport:
    """Check || int_C f * dz || <= K * M * L with M, L estimated numerically.

    M is the max of ||f|| over a dense uniform sample (split evenly between
    the pieces), refined once around the coarse argmax within its piece (in
    parameter space, so refined points stay on the curve); L is the
    arclength.  The report holds the integral it bounds.
    """
    def sizes(piece: np.ndarray, t: np.ndarray) -> np.ndarray:
        return np.linalg.norm(f.eval_coords(curve.points(piece, t)), axis=1)

    _check_same(f.algebra, curve.algebra)
    result = integrate_curve(f, curve)
    piece, t = _samples(curve, max(2, ML_SAMPLES // len(curve.spans[0])))
    norms = sizes(piece.ravel(), t.ravel())
    k, i = np.unravel_index(np.argmax(norms), t.shape)
    lo, hi = t[k, max(0, i - 1)], t[k, min(t.shape[1] - 1, i + 1)]
    M = max(float(norms.max()), float(sizes(np.full(256, k), np.linspace(lo, hi, 256)).max()))
    L = _arclength(curve)
    K = submult_bound(f.algebra)
    lhs = norm(result.value)
    holds = lhs <= K * M * L * (1 + 1e-9) + 1e-12
    return MLReport(integral=result, lhs=lhs, M=M, L=L, K=K, holds=holds)


def loop_integral(f: ExprFn, curve: Curve) -> LoopResult:
    """Integral around a closed curve with a vanishing verdict."""
    if not curve.closed:
        raise ValueError("loop integral needs a closed curve")
    result = integrate_curve(f, curve)
    size = norm(result.value)
    vanishes = size <= result.error_bound + 1e-8
    verdict = "vanishes" if vanishes else "nonzero"
    return LoopResult(value=result.value, error_bound=result.error_bound,
                      vanishes=vanishes, verdict=verdict)


def antiderivative_probe(f: ExprFn, region_samples, seed: int = 0) -> ProbeReport:
    """Path-independence probe: integrate along three polyline routes between
    random endpoint pairs and report the largest discrepancy.

    The segments of all routes are integrated in one quadrature batch.
    """
    algebra = f.algebra
    pts = [algebra.element(p) for p in region_samples]
    if len(pts) < 2:
        raise DimensionMismatch("need at least two region samples")
    rng = np.random.default_rng(seed)
    # per pair: its endpoints p, q and the two detours, drawn pair by pair
    corners = np.empty((PROBE_PAIRS, 4, algebra.dim))
    pairs = []
    for row in corners:
        i, j = rng.choice(len(pts), size=2, replace=False)
        p, q = pts[i], pts[j]
        pairs.append((p, q))
        mid = 0.5 * (p.coords + q.coords)
        scale = 0.5 * float(np.linalg.norm(q.coords - p.coords)) or 1.0
        row[0], row[1] = p.coords, q.coords
        row[2] = mid + scale * rng.uniform(-1, 1, algebra.dim)
        row[3] = mid + scale * rng.uniform(-1, 1, algebra.dim)
    # the routes p -> q, p -> detour1 -> q and p -> detour2 -> q: five segments a pair
    starts, ends = corners[:, [0, 0, 2, 0, 3]], corners[:, [1, 2, 1, 3, 1]]
    routes = _Segments(starts.reshape(-1, algebra.dim), (ends - starts).reshape(-1, algebra.dim))
    values, _ = _gauss_kronrod(routes.integrand(f), *routes.spans)
    segments = values.reshape(PROBE_PAIRS, 5, -1)
    per_route = segments[:, [0, 1, 3]]
    per_route[:, 1:] += segments[:, [2, 4]]
    spread = np.linalg.norm(per_route[:, :, None] - per_route[:, None], axis=-1)
    return ProbeReport(max_discrepancy=float(spread.max()), pairs=tuple(pairs))


# ---------------------------------------------------------------------------
# curve files
# ---------------------------------------------------------------------------

def load_curve(path: str, algebra: Algebra | None = None) -> Curve:
    """Load a curve file.

    Parametric: {"algebra": name, "kind": "parametric",
    "components": [exprs in t], "t0": a, "t1": b}.
    Polyline: {"algebra": name, "kind": "polyline", "vertices": [[...], ...]}.
    A given ``algebra`` must have the structure of the declared one.
    """
    from .fixtures import declared_algebra, read_file_doc

    doc = read_file_doc(path)
    algebra = declared_algebra(doc, algebra)
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
