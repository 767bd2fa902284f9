"""The benchmark workloads.

Every workload builds its inputs from ``--seed`` and gives each op an oracle
that is fixed before the op is timed and is independent of the route being
timed (derivatives from ``mul`` and ``AElement.__pow__``, verdicts from
commutativity and the function class, known loop values, Riemann sums in
numpy's complex and split-complex arithmetic, parsed CLI output).

Ops come in a fixed cycle of slots; the seed varies the inputs of each slot,
never the mix.  The cycle lengths (25 or 15 slots) put the median and the 90th
percentile in the middle of a slot's share of ops rather than on the border
between two slots, so both stay steady from seed to seed.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import acalc
from acalc.integrate import ParametricCurve, Polyline, riemann_sum


@dataclass
class Op:
    slot: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def _close(got, want, rtol, atol=0.0) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return bool(np.linalg.norm(got - want) <= rtol * max(1.0, float(np.linalg.norm(want))) + atol)


def _elementwise(name: str, xy: np.ndarray) -> np.ndarray:
    """Coordinates (last axis x, y) in a form whose product is elementwise:
    x + iy on C, the idempotent components (x + y, x - y) on H."""
    x, y = xy[..., 0], xy[..., 1]
    return x + 1j * y if name == "C" else np.stack([x + y, x - y], axis=-1)


def _from_elementwise(name: str, w) -> np.ndarray:
    if name == "C":
        return np.array([w.real, w.imag])
    return np.array([w[0] + w[1], w[0] - w[1]]) / 2


def _poly_derivative(coeffs, z):
    """sum_m m c_m z^(m-1), the derivative on a commutative algebra."""
    total = z.algebra.zero()
    for m, c in enumerate(coeffs[1:], start=1):
        total = total + m * acalc.mul(c, z ** (m - 1))
    return total


def _num(v: float) -> str:
    v = float(v)
    return repr(v) if v >= 0 else f"({v!r})"


# ---------------------------------------------------------------------------
# adiff_grid
# ---------------------------------------------------------------------------

_S3 = math.sqrt(3.0) / 2.0
_EXP_COMPONENTS = {
    "C": ("exp(x1)*cos(x2)", "exp(x1)*sin(x2)"),
    "H": ("(exp(x1+x2)+exp(x1-x2))/2", "(exp(x1+x2)-exp(x1-x2))/2"),
    "dual3": ("exp(x1)", "exp(x1)*x2", "exp(x1)*(x3+x2^2/2)"),
    # j^3 = 1: split into the real character and the complex pair
    "3-hyperbolic": tuple(
        f"(exp(x1+x2+x3)+2*exp(x1-(x2+x3)/2)*cos({_S3!r}*(x2-x3)-{2 * math.pi * k / 3!r}))/3"
        for k in range(3)
    ),
}


def _exp_oracle(name: str, x: np.ndarray) -> np.ndarray:
    if name == "C":
        return math.exp(x[0]) * np.array([math.cos(x[1]), math.sin(x[1])])
    if name == "H":
        return math.exp(x[0]) * np.array([math.cosh(x[1]), math.sinh(x[1])])
    if name == "dual3":
        return math.exp(x[0]) * np.array([1.0, x[1], x[2] + x[1] ** 2 / 2])
    lam0 = complex(x[0] + x[1] + x[2])
    omega = complex(-0.5, _S3)
    lam1 = x[0] + x[1] * omega + x[2] * omega ** 2
    chi0, chi1 = np.exp(lam0).real, np.exp(lam1)
    return np.array([(chi0 + 2 * (chi1 * omega ** (-k)).real) / 3 for k in range(3)])


ADIFF_ALGEBRAS = ("C", "H", "dual3", "3-hyperbolic", "triangular6")
ADIFF_POINTS = 200
RESIDUAL_POINTS = 200
PROFILES = ("sin(s)", "cos(s)", "s^2", "s^3", "exp(s)", "sin(2*s)")
FD_RTOL = 1e-6
SYM_RTOL = 1e-9


def _grid_points(rng, dim, count):
    """Points whose norms are log-uniform over 1e-2 .. 1e2."""
    dirs = rng.normal(size=(count, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * (10.0 ** rng.uniform(-2.0, 2.0, size=(count, 1)))


class AdiffGrid:
    """Grid sweeps of adiff_test (FD and symbolic) plus d'Alembert residual checks."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        slots = []
        for name in ADIFF_ALGEBRAS:
            algebra = acalc.get_algebra(name)
            fns = [("z2", 2), ("z3", 3)]
            if name in _EXP_COMPONENTS:
                fns.append(("exp", None))
            fns.append(("zbar2", None))
            for label, k in fns:
                slots.append(self._adiff_op(rng, name, algebra, label, k))
        for _ in range(6):
            slots.append(self._residual_op(rng))
        self.pool = slots

    def _adiff_op(self, rng, name, algebra, label, k) -> Op:
        if label == "exp":
            f = acalc.ExprFn(algebra, tuple(acalc.parse(s, algebra.dim) for s in _EXP_COMPONENTS[name]))
        elif label == "zbar2":
            f = acalc.conjugate_fn(algebra, 2)
        else:
            f = acalc.poly_fn(algebra, [0.0] * k + [1.0])
        points = [algebra.element(p) for p in _grid_points(rng, algebra.dim, ADIFF_POINTS)]
        expect = algebra.commutative and label != "zbar2"
        if not expect:
            derivs = [None] * len(points)
        elif label == "exp":
            derivs = [_exp_oracle(name, p.coords) for p in points]
        else:
            derivs = [(k * p ** (k - 1)).coords for p in points]
        # warm the compile and diff caches for this tree
        acalc.adiff_test(f, points[0])
        acalc.adiff_test(f, points[0], method="symbolic")

        def run():
            return [(acalc.adiff_test(f, p), acalc.adiff_test(f, p, method="symbolic"))
                    for p in points]

        def check(result):
            for (fd, sym), want in zip(result, derivs):
                if fd.is_adiff != expect or sym.is_adiff != expect:
                    return False
                if expect and not (_close(fd.derivative.coords, want, FD_RTOL)
                                   and _close(sym.derivative.coords, want, SYM_RTOL)):
                    return False
            return True

        return Op(f"{name}:{label}", run, check)

    def _residual_op(self, rng) -> Op:
        c = float(rng.uniform(0.5, 2.5))
        f1, f2 = (PROFILES[i] for i in rng.choice(len(PROFILES), size=2))
        f, iso = acalc.dalembert_solution(c, f1, f2)
        grid = [iso.source.element(p) for p in rng.uniform(-1.5, 1.5, size=(RESIDUAL_POINTS, 2))]
        acalc.check_residual(acalc.gen_laplace(iso.source), f, grid[:1])

        def run():
            return acalc.check_residual(acalc.gen_laplace(iso.source), f, grid)

        return Op("dalembert:residual", run, lambda r: r <= 1e-8)

    def ops(self):
        while True:
            yield from self.pool


# ---------------------------------------------------------------------------
# contour
# ---------------------------------------------------------------------------

_INV_COMPONENTS = {
    "C": ("x1/(x1^2+x2^2)", "-x2/(x1^2+x2^2)"),
    "H": ("x1/(x1^2-x2^2)", "-x2/(x1^2-x2^2)"),
    "dual": ("1/x1", "-x2/x1^2"),
}
RIEMANN_PIECES = 200
# How long a loop integral takes depends on its polynomial, so a run cycles
# through several seeded inputs per slot: with one, a run's throughput
# followed that one draw and spread 11% from seed to seed.
CONTOUR_VARIANTS = 4
TWO_PI = 2.0 * math.pi


class Contour:
    """Curve integrals, loop verdicts, ML bounds, path independence, Riemann
    sums and d2 probes on C, H and dual."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        A = {name: acalc.get_algebra(name) for name in ("C", "H", "dual")}
        self.A = A
        self.inv = {n: acalc.ExprFn(A[n], tuple(acalc.parse(s, 2) for s in comps))
                    for n, comps in _INV_COMPONENTS.items()}
        # Adaptive quadrature refines by the integrand's size, so curve sizes
        # and coefficient norms are fixed and the seed moves centres and
        # directions only; that keeps the work per slot alike across seeds.
        self.pool = []
        for _ in range(CONTOUR_VARIANTS):
            ops = []
            for name in ("C", "H", "dual"):
                ops.append(self._poly_loop(name, self._ellipse(name, 1.5, 1.5)))
            ops.append(self._poly_loop("C", self._ellipse("C", 1.8, 0.9)))
            ops.append(self._poly_loop("C", self._closed_polyline("C")))
            ops.append(self._inv_loop(self._ellipse("C", 1.5, 1.5), (0.0, TWO_PI)))
            ops.append(self._inv_loop(self._ellipse("C", 1.8, 0.9), (0.0, TWO_PI)))
            # off the zero divisors: |x| > |y| in H, x != 0 in dual
            for name in ("H", "dual"):
                ops.append(self._inv_loop(self._ellipse(name, 0.8, 0.8, centre=(3.2, 0.0)), (0.0, 0.0), name))
            for name in ("C", "H", "dual"):
                ops.append(self._poly_segment(name))
            for name in ("C", "H"):
                ops.append(self._ml_polyline(name))
            ops.append(self._ml_inv_circle(self._ellipse("C", 1.5, 1.5)))
            for name in ("C", "H", "dual"):
                ops.append(self._antiderivative(name))
            for name in ("C", "H"):
                ops.append(self._riemann(name))
            for name in ("C", "H", "dual"):
                ops.append(self._d2_poly(name))
            ops.append(self._d2_conjugate())
            ops.append(self._d2_inverse())
            self.pool += ops

    # -- inputs ---------------------------------------------------------------

    def _ellipse(self, name, a, b, centre=(0.0, 0.0)) -> ParametricCurve:
        cx, cy = np.asarray(centre) + self.rng.uniform(-0.3, 0.3, size=2)
        t = {"t": 0}
        comps = (acalc.parse(f"{_num(cx)}+{_num(a)}*cos(t)", 1, names=t),
                 acalc.parse(f"{_num(cy)}+{_num(b)}*sin(t)", 1, names=t))
        return ParametricCurve(self.A[name], comps, 0.0, TWO_PI)

    def _poly(self, name, degree=3):
        algebra = self.A[name]
        coeffs = []
        for _ in range(degree + 1):
            v = self.rng.normal(size=algebra.dim)
            coeffs.append(algebra.element(0.5 * v / np.linalg.norm(v)))
        f = acalc.poly_fn(algebra, coeffs)
        f.eval_coords(np.zeros(algebra.dim))
        return f, coeffs

    def _vertices(self, name, count, radius=1.5):
        return [self.A[name].element(self.rng.uniform(-radius, radius, size=2)) for _ in range(count)]

    def _closed_polyline(self, name) -> Polyline:
        verts = self._vertices(name, 5)
        return Polyline(tuple(verts + [verts[0]]))

    # -- ops ------------------------------------------------------------------

    def _poly_loop(self, name, curve) -> Op:
        f, _ = self._poly(name)
        _warm_curve(curve)

        def check(res):
            return res.vanishes and _close(res.value.coords, np.zeros(2), 0.0, 1e-8)

        return Op(f"loop:{name}:poly", lambda: acalc.loop_integral(f, curve), check)

    def _inv_loop(self, curve, want, name="C") -> Op:
        f = self.inv[name]
        f.eval_coords(curve.point(0.0))
        _warm_curve(curve)
        vanishes = want == (0.0, 0.0)

        def check(res):
            return res.vanishes == vanishes and _close(res.value.coords, want, 1e-8)

        return Op(f"loop:{name}:inv", lambda: acalc.loop_integral(f, curve), check)

    def _poly_segment(self, name) -> Op:
        f, coeffs = self._poly(name)
        curve = Polyline(tuple(self._vertices(name, 4)))
        a, b = curve.vertices[0], curve.vertices[-1]
        want = _antiderivative_value(coeffs, b) - _antiderivative_value(coeffs, a)

        def check(res):
            return _close(res.value.coords, want.coords, 1e-8)

        return Op(f"integrate:{name}:polyline", lambda: acalc.integrate_curve(f, curve), check)

    def _ml_polyline(self, name) -> Op:
        f, coeffs = self._poly(name)
        curve = Polyline(tuple(self._vertices(name, 3)))
        a, b = curve.vertices[0], curve.vertices[-1]
        want = (_antiderivative_value(coeffs, b) - _antiderivative_value(coeffs, a)).norm

        def check(rep):
            return rep.holds and abs(rep.lhs - want) <= 1e-8 * max(1.0, want)

        return Op(f"ml_bound:{name}:polyline", lambda: acalc.ml_bound_check(f, curve), check)

    def _ml_inv_circle(self, curve) -> Op:
        f = self.inv["C"]
        _warm_curve(curve)

        def check(rep):
            return rep.holds and abs(rep.lhs - TWO_PI) <= 1e-8 * TWO_PI

        return Op("ml_bound:C:inv", lambda: acalc.ml_bound_check(f, curve), check)

    def _antiderivative(self, name) -> Op:
        f, _ = self._poly(name)
        samples = self._vertices(name, 8)
        seed = int(self.rng.integers(1 << 30))

        def check(rep):
            return rep.max_discrepancy <= 1e-8

        return Op(f"antiderivative:{name}",
                  lambda: acalc.antiderivative_probe(f, samples, seed=seed), check)

    def _riemann(self, name) -> Op:
        f, coeffs = self._poly(name)
        curve = Polyline(tuple(self._vertices(name, 3)))
        s = np.linspace(0.0, 1.0, RIEMANN_PIECES + 1)[1:, None]
        pts = [curve.vertices[0].coords[None, :]]
        for a, b in zip(curve.vertices, curve.vertices[1:]):
            pts.append(a.coords + s * (b.coords - a.coords))
        # sum of f(z_k) (z_k - z_{k-1}) in numpy's complex or real arithmetic
        z = _elementwise(name, np.concatenate(pts))
        c = _elementwise(name, np.array([cm.coords for cm in coeffs]))
        values = sum(cm * z[1:] ** m for m, cm in enumerate(c))
        want = _from_elementwise(name, np.sum(values * np.diff(z, axis=0), axis=0))

        def check(value):
            return _close(value.coords, want, 1e-9)

        return Op(f"riemann:{name}", lambda: riemann_sum(f, curve, RIEMANN_PIECES), check)

    def _d2_poly(self, name) -> Op:
        f, coeffs = self._poly(name)
        p = self.A[name].element(self.rng.uniform(-1, 1, size=2))
        want = _poly_derivative(coeffs, p).coords

        def check(probe):
            return probe.verdict == "converges" and _close(probe.limit.coords, want, 1e-5)

        return Op(f"d2:{name}:poly", lambda: acalc.d2_probe(f, p), check)

    def _d2_conjugate(self) -> Op:
        f = acalc.conjugate_fn(self.A["C"], 2)
        p = self.A["C"].element(self.rng.uniform(-1, 1, size=2))
        f.eval_coords(p)
        return Op("d2:C:conj", lambda: acalc.d2_probe(f, p), lambda probe: probe.verdict == "diverges")

    def _d2_inverse(self) -> Op:
        f = self.inv["H"]
        p = self.A["H"].element([self.rng.uniform(2, 3), self.rng.uniform(-0.5, 0.5)])
        f.eval_coords(p)
        want = (-(p ** -2)).coords

        def check(probe):
            return probe.verdict == "converges" and _close(probe.limit.coords, want, 1e-5)

        return Op("d2:H:inv", lambda: acalc.d2_probe(f, p), check)

    def ops(self):
        while True:
            yield from self.pool


def _warm_curve(curve):
    if isinstance(curve, ParametricCurve):
        curve.point(curve.t0)
        curve.velocity(curve.t0)


def _antiderivative_value(coeffs, z):
    """sum_m c_m z^(m+1) / (m+1) by mul and __pow__."""
    total = z.algebra.zero()
    for m, c in enumerate(coeffs):
        total = total + (1.0 / (m + 1)) * acalc.mul(c, z ** (m + 1))
    return total


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

CLI_GRID = 12
CLI_SLOTS = (
    "classify:C", "classify:H", "check-adiff:point", "check-adiff:conj",
    "check-adiff:grid1", "check-adiff:grid2", "gen-laplace", "taylor",
    "integrate:polyline", "integrate:circle", "d2-probe", "verify-iso:ok",
    "verify-iso:bad", "transfer", "demo-dalembert",
)


def _floats_after(label: str, text: str) -> list[float]:
    m = re.search(re.escape(label) + r"\s*\(?([-+0-9.eE, ]+)\)?", text)
    if m is None:
        raise ValueError(f"no {label!r} in output")
    return [float(s) for s in m.group(1).split(",") if s.strip()]


class CliSession:
    """One README CLI command per op, run as a subprocess."""

    def __init__(self, seed: int, root: str):
        self.rng = np.random.default_rng(seed)
        self.root = root
        self.jobs = min(2, len(os.sched_getaffinity(0)))
        work = os.path.join(root, "bench", ".work")
        os.makedirs(work, exist_ok=True)
        self.tmp = tempfile.mkdtemp(dir=work)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.prefix = [sys.executable, "-m", "acalc.cli"]
        self.trace_file = None
        self.stdout_bytes = 0
        self.children = 0
        self.serial = 0
        self.C = acalc.get_algebra("C")
        # one untimed invocation so that the bytecode caches exist
        self._invoke(["classify", "--algebra", "C", "--point", "1,1"])

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def set_traced(self, trace_file: str | None):
        """Run later commands through the tracing shim, which appends its
        span totals to ``trace_file``."""
        self.trace_file = trace_file
        if trace_file is None:
            self.prefix = [sys.executable, "-m", "acalc.cli"]
            self.env.pop("ACALC_BENCH_TRACE", None)
        else:
            self.prefix = [sys.executable, os.path.join(self.root, "bench", "cli_child.py")]
            self.env["ACALC_BENCH_TRACE"] = trace_file

    def _invoke(self, args):
        proc = subprocess.run(self.prefix + args, cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        self.stdout_bytes += len(proc.stdout.encode())
        self.children += 1
        return proc.returncode, proc.stdout

    def _file(self, doc) -> str:
        self.serial += 1
        path = os.path.join(self.tmp, f"in{self.serial}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def _point(self, lo=-1.5, hi=1.5, dim=2):
        return [float(v) for v in self.rng.uniform(lo, hi, size=dim)]

    @staticmethod
    def _pt(p) -> str:
        return ",".join(repr(v) for v in p)

    def _make_op(self, slot) -> Op:
        rng = self.rng
        C = self.C
        if slot == "classify:C":
            p = self._point()
            want = np.array([p[0], -p[1]]) / (p[0] ** 2 + p[1] ** 2)
            args = ["classify", "--algebra", "C", f"--point={self._pt(p)}"]

            def check(out):
                return out[0] == 0 and "kind:     unit" in out[1] and \
                    _close(_floats_after("inverse:", out[1]), want, 1e-9)
        elif slot == "classify:H":
            t = float(rng.uniform(0.5, 2.0))
            args = ["classify", "--algebra", "H", f"--point={self._pt([t, -t])}"]

            def check(out):
                return out[0] == 0 and "kind:     zero-divisor" in out[1]
        elif slot == "check-adiff:point":
            p = self._point()
            want = (3 * C.element(p) ** 2).coords
            args = ["check-adiff", "--algebra", "C", "--fn", "zeta3", f"--point={self._pt(p)}"]

            def check(out):
                return out[0] == 0 and "adiff=True" in out[1] and \
                    _close(_floats_after("derivative=", out[1]), want, FD_RTOL)
        elif slot == "check-adiff:conj":
            args = ["check-adiff", "--algebra", "H", "--fn", "zbar2", f"--point={self._pt(self._point())}"]

            def check(out):
                return out[0] == 1 and "adiff=False" in out[1]
        elif slot.startswith("check-adiff:grid"):
            lo, hi = sorted(self._point())
            spec = f"{lo!r}:{hi!r}:{CLI_GRID}"
            jobs = 1 if slot.endswith("1") else self.jobs
            args = ["check-adiff", "--algebra", "C", "--fn", "zeta2", f"--grid={spec},{spec}",
                    "--jobs", str(jobs)]

            def check(out):
                lines = out[1].splitlines()
                return out[0] == 0 and len(lines) == CLI_GRID ** 2 and \
                    all("adiff=True" in line for line in lines)
        elif slot == "gen-laplace":
            name, dim = ("3-hyperbolic", 3) if rng.random() < 0.5 else ("dual3", 3)
            args = ["gen-laplace", "--algebra", name]

            def check(out):
                # the symmetric products of a unital algebra span it, so the
                # nullspace has n(n+1)/2 - n directions
                return out[0] == 0 and len(out[1].splitlines()) == dim * (dim - 1) // 2
        elif slot == "taylor":
            p, h = self._point(), self._point(-0.3, 0.3)
            want = ((C.element(p) + C.element(h)) ** 3).coords
            args = ["taylor", "--algebra", "C", "--fn", "zeta3", f"--point={self._pt(p)}",
                    f"--offset={self._pt(h)}", "--degree", "3"]

            def check(out):
                return out[0] == 0 and _close(_floats_after("taylor (degree 3):", out[1]), want, 1e-9)
        elif slot == "integrate:polyline":
            verts = [self._point() for _ in range(3)]
            a, b = C.element(verts[0]), C.element(verts[-1])
            want = ((1.0 / 3.0) * (b ** 3 - a ** 3)).coords
            path = self._file({"algebra": "C", "kind": "polyline", "vertices": verts})
            args = ["integrate", "--algebra", "C", "--fn", "zeta2", "--curve", path]

            def check(out):
                return out[0] == 0 and "holds=True" in out[1] and \
                    _close(_floats_after("integral:", out[1]), want, 1e-8)
        elif slot == "integrate:circle":
            cx, cy = self._point(-0.5, 0.5)
            r = float(rng.uniform(0.5, 1.5))
            path = self._file({"algebra": "H", "kind": "parametric",
                               "components": [f"{_num(cx)}+{_num(r)}*cos(t)",
                                              f"{_num(cy)}+{_num(r)}*sin(t)"],
                               "t0": 0.0, "t1": TWO_PI})
            args = ["integrate", "--algebra", "H", "--fn", "zeta2", "--curve", path]

            def check(out):
                return out[0] == 0 and "holds=True" in out[1] and \
                    _close(_floats_after("integral:", out[1]), [0.0, 0.0], 0.0, 1e-8)
        elif slot == "d2-probe":
            p = self._point(-1, 1)
            want = 2 * np.array(p)
            args = ["d2-probe", "--algebra", "C", "--fn", "zeta2", f"--point={self._pt(p)}"]

            def check(out):
                return out[0] == 0 and "verdict: converges" in out[1] and \
                    _close(_floats_after("limit:", out[1]), want, 1e-5)
        elif slot.startswith("verify-iso"):
            c = float(rng.uniform(0.5, 3.0))
            matrix = [[1.0, c], [1.0, -c]]
            good = slot.endswith("ok")
            if not good:
                matrix[1][1] = -c * float(rng.uniform(1.2, 2.0))
            path = self._file({"source": f"wave:{c!r}", "target": "RxR", "matrix": matrix})
            args = ["verify-iso", path]

            def check(out):
                return out[0] == (0 if good else 1) and f"isomorphism:         {good}" in out[1]
        elif slot == "transfer":
            c = float(rng.uniform(0.5, 3.0))
            path = self._file({"source": f"wave:{c!r}", "target": "RxR",
                               "matrix": [[1.0, c], [1.0, -c]]})
            q = self._point()
            want = np.array(q) ** 2  # z^2 on the wave algebra is squaring on R x R

            def check(out):
                got = [float(s) for s in out[1].split("=", 1)[1].split(",")]
                return out[0] == 0 and _close(got, want, 1e-9)
            args = ["transfer", "--iso", path, "--fn", "zeta2", f"--point={self._pt(q)}"]
        elif slot == "demo-dalembert":
            c = float(rng.uniform(0.5, 2.5))
            f1, f2 = (PROFILES[i] for i in rng.choice(len(PROFILES), size=2))
            args = ["demo-dalembert", f"--c={c!r}", "--f1", f1, "--f2", f2,
                    "--grid=-1:1:10,-1:1:10"]

            def check(out):
                return out[0] == 0 and out[1].rstrip().endswith("PASS")
        else:
            raise ValueError(slot)
        return Op(slot, lambda: self._invoke(args), check)

    def ops(self):
        while True:
            for slot in CLI_SLOTS:
                yield self._make_op(slot)


WORKLOADS = {
    "adiff_grid": AdiffGrid,
    "contour": Contour,
    "cli_session": CliSession,
}
