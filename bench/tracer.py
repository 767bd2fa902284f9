"""Span recorder for the traced benchmark run.

Spans are recorded from outside the library: ``install`` rebinds every name in
every loaded ``acalc`` namespace that refers to a traced public function (so
``calculus.mul`` is traced as well as ``algebra.mul``), and ``uninstall``
restores the originals.  A span's self time is its duration minus the time
covered by its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, span name); methods are given as "Class.method".
TARGETS = [
    ("acalc.expr", "parse", "expr.parse"),
    ("acalc.expr", "poly_fn", "expr.poly_fn"),
    ("acalc.expr", "compile_expr", "expr.compile"),
    ("acalc.expr", "ExprFn.eval_coords", "expr.eval"),
    ("acalc.expr", "ExprFn.partial", "expr.partial"),
    ("acalc.expr", "ExprFn.directional", "expr.partial"),
    ("acalc.algebra", "mul", "algebra.mul"),
    ("acalc.algebra", "classify", "algebra.classify"),
    ("acalc.algebra", "invert", "algebra.invert"),
    ("acalc.calculus", "jacobian_fd", "calculus.jacobian"),
    ("acalc.calculus", "jacobian_sym", "calculus.jacobian"),
    ("acalc.calculus", "adiff_test", "calculus.adiff"),
    ("acalc.calculus", "taylor_eval", "calculus.taylor"),
    ("acalc.calculus", "higher_derivative", "calculus.taylor"),
    ("acalc.eqgen", "gen_cr", "eqgen.gen"),
    ("acalc.eqgen", "gen_laplace", "eqgen.gen"),
    ("acalc.eqgen", "gen_laplace_k", "eqgen.gen"),
    ("acalc.eqgen", "check_residual", "eqgen.check_residual"),
    ("acalc.integrate", "integrate_curve", "integrate"),
    ("acalc.integrate", "ml_bound_check", "integrate.ml_bound"),
    ("acalc.diffquot", "d2_probe", "diffquot.d2_probe"),
    ("acalc.fixtures", "get_algebra", "fixtures.get_algebra"),
    ("acalc.isomorph", "verify_isomorphism", "isomorph.verify"),
    ("acalc.cli", "main", "cli.main"),
]

# lru caches whose hit and miss deltas are reported
CACHES = [("acalc.expr", "compile_expr", "expr.compile"), ("acalc.expr", "diff", "expr.diff")]

SPANS_KEPT = 20_000


def _count_residual_points(rec, args, result):
    rec.counts["eqgen.residual_points"] += len(args[2])


def _count_quotients(rec, args, result):
    rec.counts["diffquot.quotients"] += sum(len(row) for row in result.quotients)


ON_RESULT = {
    "eqgen.check_residual": _count_residual_points,
    "diffquot.d2_probe": _count_quotients,
}


class Recorder:
    """Collects spans (id, name, start, end, parent, op) and per-name totals."""

    def __init__(self):
        self.active = False
        self.op = None
        self.spans = []
        self.dropped = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._next_id = 0
        self._open_integrals = 0
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def push(self, name):
        if name == "integrate":
            self._open_integrals += 1
        elif name == "expr.eval" and self._open_integrals:
            self.counts["integrate.integrand_evals"] += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def pop(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        sid, name, start, child_s = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if name == "integrate":
            self._open_integrals -= 1
        if len(self.spans) < SPANS_KEPT:
            self.spans.append((sid, name, start, end, parent, self.op))
        else:
            self.dropped += 1

    def wrap(self, name, fn):
        on_result = ON_RESULT.get(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            frame = rec.push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.pop(frame)
            if on_result is not None:
                on_result(rec, args, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self):
        """Rebind traced functions in every loaded acalc namespace."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "acalc" or n.startswith("acalc."))]
        for module_name, attr, span in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(span, orig))
                self._patched.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self.wrap(span, orig)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, wrapper)
                        self._patched.append((ns, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict:
        """Per-name call counts, self times (ms) and extra counters."""
        return {
            "calls": dict(self.calls),
            "self_ms": {k: v * 1e3 for k, v in self.self_s.items()},
            "counts": dict(self.counts),
        }


def cache_snapshot() -> dict:
    """Current (hits, misses) of the expression-layer lru caches."""
    out = {}
    for module_name, attr, name in CACHES:
        fn = getattr(sys.modules[module_name], attr)
        while not hasattr(fn, "cache_info"):  # look through a tracing wrapper
            fn = fn.__wrapped__
        info = fn.cache_info()
        out[name] = (info.hits, info.misses)
    return out


def cache_delta(before: dict, after: dict) -> dict:
    return {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after}
