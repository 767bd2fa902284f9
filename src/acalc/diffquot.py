"""Deleted difference quotients: derivatives as limits over unit offsets.

The quotient (f(p+h) - f(p)) * h^{-1} is only defined when the offset h is a
unit of the algebra; the probe samples it over unit directions and shrinking
radii and reports numerical evidence at the configured scales, not a proof:
converges, diverges or inconclusive.  On semisimple commutative algebras the
limit matches the Jacobian-based derivative wherever it converges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .algebra import AElement, Algebra, Kind, _freeze, classify, mul, mul_batch
from .errors import NotAUnit
from .expr import ExprFn

__all__ = ["D2Options", "D2Probe", "d2_probe", "deleted_quotient", "unit_directions"]

GROWTH_FACTOR = 2.0  # per-step magnitude growth that flags divergence
GROWTH_WINDOW = 4    # number of trailing radii inspected for growth


@dataclass(frozen=True)
class D2Options:
    n_directions: int = 16
    radii: tuple[float, ...] = tuple(2.0 ** -m for m in range(2, 17))
    tol: float = 1e-4             # spread tolerance, scaled by quotient size
    seed: int = 0


@dataclass(frozen=True)
class D2Probe:
    point: AElement
    directions: tuple[AElement, ...]
    radii: tuple[float, ...]
    quotients: np.ndarray                        # read-only, [direction, radius, coordinate]
    verdict: str                                 # converges | diverges | inconclusive
    limit: AElement | None = None                # present iff verdict == converges


def deleted_quotient(f: ExprFn, p: AElement, h: AElement) -> AElement:
    """(f(p+h) - f(p)) * h^{-1}; raises :class:`NotAUnit` for non-unit h.

    The inverse is applied on the right; on the commutative algebras this
    probe targets, left and right quotients agree.
    """
    c = classify(h)
    if c.kind is not Kind.UNIT:
        raise NotAUnit(f"offset is {c.kind.value}; quotient needs a unit", classification=c)
    return mul(f(p + h) - f(p), c.inverse)


def unit_directions(algebra: Algebra, count: int, seed: int = 0) -> list[AElement]:
    """Deterministic unit-norm directions that are units of the algebra.

    Axis directions and normalized two-axis diagonals come first (in +/-
    pairs, so means over the set cancel first-order terms); seeded random
    +/- pairs fill up to ``count``.  Zero-divisor directions are dropped.
    """
    return [d for d, _ in _unit_pairs(algebra, count, seed)]


@lru_cache(maxsize=64)
def _unit_pairs(algebra: Algebra, count: int, seed: int) -> tuple[tuple[AElement, AElement], ...]:
    """(direction, inverse) pairs of :func:`unit_directions`, held per
    (algebra, count, seed); each inverse comes from the classification that
    admitted its direction."""
    n = algebra.dim
    candidates: list[np.ndarray] = []
    eye = np.eye(n)
    for i in range(n):
        candidates.append(eye[i])
        candidates.append(-eye[i])
    for i, j in combinations(range(n), 2):
        d = (eye[i] + eye[j]) / np.sqrt(2.0)
        candidates.append(d)
        candidates.append(-d)
    rng = np.random.default_rng(seed)
    while len(candidates) < 4 * count:
        d = rng.normal(size=n)
        d /= np.linalg.norm(d)
        candidates.append(d)
        candidates.append(-d)
    out = []
    for c in candidates:
        el = algebra.element(c)
        cls = classify(el)
        if cls.kind is Kind.UNIT:
            out.append((el, cls.inverse))
        if len(out) == count:
            break
    return tuple(out)


def d2_probe(f: ExprFn, p, opts: D2Options | None = None) -> D2Probe:
    """Sample deleted quotients over unit directions and shrinking radii.

    Diverges when quotient magnitudes grow by GROWTH_FACTOR at every
    step across the trailing radii in some direction, or when the
    direction-dependent values at the smallest radius disagree wildly.
    Converges when the final-ring values agree to tolerance and the last
    radius step moved them by no more than the tolerance.  Anything else is
    inconclusive.
    """
    opts = opts or D2Options()
    algebra = f.algebra
    point = algebra.element(p)
    n = algebra.dim
    pairs = _unit_pairs(algebra, opts.n_directions, opts.seed)
    D, D_inv = (np.array([pair[k].coords for pair in pairs]).reshape(-1, 1, n) for k in (0, 1))
    radii = np.asarray(opts.radii, dtype=float)[:, None]

    # Q[i, j] = (f(p + r_j d_i) - f(p)) * (r_j^{-1} d_i^{-1}), one batch for the table
    rise = f.eval_coords((point.coords + radii * D).reshape(-1, n)) - f.eval_coords(point)
    Q = mul_batch(algebra, rise, ((1.0 / radii) * D_inv).reshape(-1, n)).reshape(len(pairs), len(radii), n)

    final = Q[:, -1]
    spread = float(np.linalg.norm(final[:, None] - final[None, :], axis=-1).max(initial=0.0))
    mean = algebra.element(np.mean(final, axis=0))
    scale = 1.0 + mean.norm

    mags = np.linalg.norm(Q[:, -GROWTH_WINDOW:], axis=-1)
    before, after = mags[:, :-1], mags[:, 1:]
    grows = mags.shape[1] >= 2 and bool(
        ((after >= GROWTH_FACTOR * before) & (before > 0)).all(axis=1).any()
    )

    if grows or spread > 100.0 * opts.tol * scale:
        verdict, limit = "diverges", None
    else:
        last_step = float(np.linalg.norm(Q[:, -1] - Q[:, -2], axis=-1).max())
        if spread <= opts.tol * scale and last_step <= opts.tol * scale:
            verdict, limit = "converges", mean
        else:
            verdict, limit = "inconclusive", None
    return D2Probe(
        point=point,
        directions=tuple(d for d, _ in pairs),
        radii=opts.radii,
        quotients=_freeze(Q),
        verdict=verdict,
        limit=limit,
    )
