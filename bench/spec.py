"""What the acalc benchmark measures: workloads, metrics, bounds, layer map.

This module is the single source of ``BENCHMARK.json``; run
``python3 bench/spec.py`` from the repository root to rewrite it.  The
manifest format has a fixed key set, so the map from each layer metric to the
end-to-end metric and workload it should move lives here (``PER_LAYER``) and
is copied into every traced result file.
"""

from __future__ import annotations

import json
import os

RUN_SECONDS = 35

WORKLOADS = [
    ("adiff_grid",
     "many seeded points over few small trees with warm compile caches: loads per-point "
     "evaluation, the Jacobian and the projection, skips tree building and quadrature"),
    ("contour",
     "curve integrals, ML bounds, path-independence, Riemann sums and d2 probes: loads "
     "sequential adaptive quadrature, the drivers and classify, skips the projection"),
    ("cli_session",
     "one acalc CLI command per op as a subprocess: pays interpreter start, import, fixture "
     "rebuilds, cold expression caches and output, and is the only user of the process pool"),
]

# bound: share of the parent's median by which a metric may worsen.  The speed
# of a shared 2-CPU machine drifts by up to 2x from minute to minute (a fixed
# CPU-bound loop shows the same drift in wall and CPU time), so the timings
# are scaled by the speed of reference work timed in the same run
# (bench/speed.py); scaled, their quartile spread over 10 seeds stays under 9%.
# The timing bounds stay at the largest bound allowed, which set-up time
# shares.  A fourth workload, fresh degree 4-7 polynomials per op, spread
# 21-28% (quartile distance over median, 6 and 10 seeds, before the scaling)
# and was left out.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "latency_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# (name, unit, better, what it should move: "<end-to-end metric>@<workload>")
# Per-op values average over the traced ops; per-process values cover one
# process of acalc use (the benchmark process, or one CLI invocation).
PER_LAYER = [
    ("expr.parse.calls", "calls/op", "lower", ["latency_p50_ms@cli_session"]),
    ("expr.parse.self_ms", "ms/op", "lower", ["latency_p50_ms@cli_session"]),
    ("expr.poly_fn.calls", "calls/op", "lower", ["latency_p50_ms@cli_session"]),
    ("expr.poly_fn.self_ms", "ms/op", "lower", ["latency_p50_ms@cli_session"]),
    ("expr.partial.self_ms", "ms/op", "lower", ["ops_per_s@adiff_grid"]),
    ("expr.compile.self_ms", "ms/op", "lower", ["ops_per_s@adiff_grid", "ops_per_s@contour"]),
    ("expr.compile.misses", "misses/op", "lower",
     ["latency_p50_ms@cli_session", "none@adiff_grid"]),
    ("expr.compile.hit_ratio", "ratio", "higher",
     ["latency_p50_ms@cli_session", "none@adiff_grid"]),
    ("expr.diff.misses", "misses/op", "lower",
     ["latency_p50_ms@cli_session", "none@adiff_grid"]),
    ("expr.diff.hit_ratio", "ratio", "higher",
     ["latency_p50_ms@cli_session", "none@adiff_grid"]),
    ("expr.eval.calls", "calls/op", "lower", ["ops_per_s@adiff_grid", "ops_per_s@contour"]),
    ("expr.eval.self_ms", "ms/op", "lower", ["ops_per_s@adiff_grid", "ops_per_s@contour"]),
    ("algebra.mul.calls", "calls/op", "lower", ["ops_per_s@contour"]),
    ("algebra.mul.self_ms", "ms/op", "lower", ["ops_per_s@contour"]),
    ("algebra.classify.calls", "calls/op", "lower", ["ops_per_s@contour"]),
    ("algebra.classify.self_ms", "ms/op", "lower", ["ops_per_s@contour"]),
    ("algebra.invert.calls", "calls/op", "lower", ["ops_per_s@contour"]),
    ("calculus.jacobian.calls", "calls/op", "lower", ["ops_per_s@adiff_grid"]),
    ("calculus.jacobian.self_ms", "ms/op", "lower", ["ops_per_s@adiff_grid"]),
    ("calculus.adiff.calls", "calls/op", "lower", ["ops_per_s@adiff_grid"]),
    ("calculus.adiff.self_ms", "ms/op", "lower", ["ops_per_s@adiff_grid"]),
    ("calculus.taylor.self_ms", "ms/op", "lower", ["ops_per_s@cli_session"]),
    ("eqgen.gen.self_ms", "ms/op", "lower", ["ops_per_s@adiff_grid"]),
    ("eqgen.check_residual.self_ms", "ms/op", "lower", ["ops_per_s@adiff_grid"]),
    ("eqgen.residual_points", "points/op", "lower", ["ops_per_s@adiff_grid"]),
    ("integrate.calls", "calls/op", "lower", ["ops_per_s@contour", "none@adiff_grid"]),
    ("integrate.self_ms", "ms/op", "lower", ["ops_per_s@contour", "none@adiff_grid"]),
    ("integrate.integrand_evals", "evals/op", "lower", ["ops_per_s@contour", "none@adiff_grid"]),
    ("integrate.evals_per_integral", "evals/call", "lower",
     ["ops_per_s@contour", "none@adiff_grid"]),
    ("integrate.ml_bound.self_ms", "ms/op", "lower", ["ops_per_s@contour", "none@adiff_grid"]),
    ("diffquot.d2_probe.self_ms", "ms/op", "lower", ["latency_p90_ms@contour"]),
    ("diffquot.quotients", "count/op", "lower", ["latency_p90_ms@contour"]),
    ("fixtures.get_algebra.calls", "calls/proc", "lower",
     ["setup_s@*", "latency_p50_ms@cli_session"]),
    ("fixtures.get_algebra.self_ms", "ms/proc", "lower",
     ["setup_s@*", "latency_p50_ms@cli_session"]),
    ("isomorph.verify.self_ms", "ms/op", "lower", ["latency_p50_ms@cli_session"]),
    ("cli.import_ms", "ms/proc", "lower", ["latency_p50_ms@cli_session"]),
    ("cli.main.self_ms", "ms/proc", "lower", ["latency_p50_ms@cli_session"]),
    ("cli.stdout_bytes", "bytes/op", "lower", ["latency_p50_ms@cli_session"]),
    ("cli.pool_slowdown", "ratio", "lower", ["latency_p50_ms@cli_session"]),
    ("trace.untraced_ops_per_s", "1/s", "higher", []),
    ("trace.traced_ops_per_s", "1/s", "higher", []),
    ("trace.overhead", "ratio", "lower", []),
]

E2E_NAMES = [m["name"] for m in END_TO_END]
LAYER_NAMES = [m[0] for m in PER_LAYER]
UNITS = {m["name"]: m["unit"] for m in END_TO_END} | {m[0]: m[1] for m in PER_LAYER}
MOVES = {m[0]: m[3] for m in PER_LAYER}


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def manifest_text() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        fh.write(manifest_text())
