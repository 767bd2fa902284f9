#!/usr/bin/env python3
"""acalc benchmark: one workload per run, a single client in a closed loop.

    python3 bench/run.py --workload adiff_grid --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src/``.  Each
op's result is checked against an oracle fixed before the op ran.  With
``--trace 0`` the run reports the end-to-end metrics of ``bench/spec.py``.
Their timings are scaled to a reference machine speed measured during the run
by ``bench/speed.py``; the raw timings go to the result file.  With
``--trace 1`` the run reports the per-layer metrics instead: half the time
runs untraced and half with span recording on, and the ratio of traced to
untraced time per pass through the op cycle is the tracing overhead.  Every
metric is printed by name with its unit and sample count, the full result
(with context) is written to ``bench/results/``, and the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import spec  # noqa: E402
import speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_SAMPLES = 5
MAX_FAILURE_REPORTS = 5


def import_library():
    """Import acalc from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "acalc", "__init__.py")):
        raise SystemExit(f"bench: no acalc sources under {SRC}")
    sys.path.insert(0, SRC)
    import acalc

    if not os.path.abspath(acalc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: acalc was imported from {acalc.__file__}, not from {SRC}")
    import workloads

    return workloads


def make_workload(workloads, name, seed):
    cls = workloads.WORKLOADS[name]
    return cls(seed, ROOT) if name == "cli_session" else cls(seed)


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

class Loop:
    """Latencies, slots and failures of one closed-loop phase."""

    def __init__(self):
        self.latencies = []
        self.marks = []  # index of the speed sample taken just before each op
        self.slots = []
        self.failed = 0
        self.failures = []

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def run_loop(ops, seconds, rec=None, probe=None) -> Loop:
    loop = Loop()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        mark = probe.before_op() if probe is not None else None
        op = next(ops)  # inputs and oracle are built here, outside the timing
        if rec is not None:
            rec.op = len(loop.latencies)
            rec.active = True
            frame = rec.push("op")
        t0 = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception:
            error = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        if rec is not None:
            rec.pop(frame)
            rec.active = False
        if error is None:
            try:
                if not op.check(result):
                    error = "result does not match its oracle"
            except Exception:
                error = traceback.format_exc(limit=3)
        loop.latencies.append(dt)
        loop.marks.append(mark)
        loop.slots.append(op.slot)
        if error is not None:
            loop.failed += 1
            if len(loop.failures) < MAX_FAILURE_REPORTS:
                loop.failures.append({"slot": op.slot, "error": error})
    return loop


def measure_setup(args) -> float:
    """Seconds from spawning a fresh process to the point where it could
    start the first timed op (import, fixtures, inputs, oracles, warm-up)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up process failed:\n{proc.stderr}")
    ready = float(proc.stdout.split()[-1])
    return ready - t0


def measure_setups(args) -> tuple[list, list]:
    """Set-up times, raw and scaled by the start-up probe samples taken just
    before and just after each of them.  Set-up starts a process and imports,
    so it follows the start-up probe on every workload."""
    probe = speed.startup_probe()
    probe.sample()
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        raw.append(measure_setup(args))
        probe.sample()
        scaled.append(raw[-1] * probe.nominal_ms / statistics.mean(probe.ms[-2:]))
    return raw, scaled


def timing_metrics(setups: list, latencies: list) -> dict:
    ms = [dt * 1e3 for dt in latencies]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def slot_summary(loop: Loop) -> dict:
    by_slot = {}
    for slot, dt in zip(loop.slots, loop.latencies):
        by_slot.setdefault(slot, []).append(dt * 1e3)
    return {s: {"n": len(v), "median_ms": statistics.median(v)} for s, v in by_slot.items()}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced phase
# ---------------------------------------------------------------------------

# span name -> layer metric prefix, for the metrics reported per op
SPAN_METRICS = {
    "expr.parse": ("calls", "self_ms"),
    "expr.poly_fn": ("calls", "self_ms"),
    "expr.partial": ("self_ms",),
    "expr.compile": ("self_ms",),
    "expr.eval": ("calls", "self_ms"),
    "algebra.mul": ("calls", "self_ms"),
    "algebra.classify": ("calls", "self_ms"),
    "algebra.invert": ("calls",),
    "calculus.jacobian": ("calls", "self_ms"),
    "calculus.adiff": ("calls", "self_ms"),
    "calculus.taylor": ("self_ms",),
    "eqgen.gen": ("self_ms",),
    "eqgen.check_residual": ("self_ms",),
    "integrate": ("calls", "self_ms"),
    "integrate.ml_bound": ("self_ms",),
    "diffquot.d2_probe": ("self_ms",),
    "isomorph.verify": ("self_ms",),
}
COUNTERS = ("eqgen.residual_points", "integrate.integrand_evals", "diffquot.quotients")


def merge_totals(into: dict, totals: dict):
    for kind in ("calls", "self_ms", "counts"):
        for k, v in totals[kind].items():
            into[kind][k] = into[kind].get(k, 0) + v


def layer_metrics(totals: dict, ops: int, per_process: dict, cli: dict,
                  untraced: Loop, traced: Loop) -> dict:
    calls, self_ms, counts = totals["calls"], totals["self_ms"], totals["counts"]
    out = {}
    for span, kinds in SPAN_METRICS.items():
        for kind in kinds:
            source = calls if kind == "calls" else self_ms
            out[f"{span}.{kind}"] = source.get(span, 0) / ops
    for name in COUNTERS:
        out[name] = counts.get(name, 0) / ops
    out["integrate.evals_per_integral"] = (
        counts.get("integrate.integrand_evals", 0) / calls["integrate"] if calls.get("integrate") else 0.0
    )
    for cache in ("expr.compile", "expr.diff"):
        hits, misses = counts.get(f"{cache}.hits", 0), counts.get(f"{cache}.misses", 0)
        out[f"{cache}.misses"] = misses / ops
        out[f"{cache}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["fixtures.get_algebra.calls"] = per_process["calls"]
    out["fixtures.get_algebra.self_ms"] = per_process["self_ms"]
    out.update(cli)
    out["trace.untraced_ops_per_s"] = untraced.ops_per_s
    out["trace.traced_ops_per_s"] = traced.ops_per_s
    out["trace.overhead"] = tracing_overhead(untraced, traced)
    return out


def tracing_overhead(untraced: Loop, traced: Loop) -> float:
    """Traced over untraced time for one pass through the slot cycle.

    The two phases stop at different points of the cycle, so their raw
    throughputs compare different mixes; per-slot medians do not.
    """
    plain, slow = slot_summary(untraced), slot_summary(traced)
    common = plain.keys() & slow.keys()
    if not common:
        return untraced.ops_per_s / traced.ops_per_s
    return sum(slow[s]["median_ms"] for s in common) / sum(plain[s]["median_ms"] for s in common)


def pool_slowdown(loop: Loop) -> float:
    grids = {}
    for slot, dt in zip(loop.slots, loop.latencies):
        if slot.startswith("check-adiff:grid"):
            grids.setdefault(slot, []).append(dt)
    if len(grids) < 2:
        return 0.0
    return statistics.median(grids["check-adiff:grid2"]) / statistics.median(grids["check-adiff:grid1"])


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def context(args, ops: int) -> dict:
    import numpy

    lines = 0
    for path in glob.glob(os.path.join(SRC, "acalc", "*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    cpu = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": lines,
    }


def write_result(args, doc: dict, spans=None) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    if spans is not None:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"], "spans": spans}, fh)
    return os.path.relpath(stem + ".json", ROOT)


def emit(args, metrics: dict, counts: dict, loops: list, extra: dict, spans=None):
    attempted = sum(len(lp.latencies) for lp in loops)
    failed = sum(lp.failed for lp in loops)
    ctx = context(args, attempted)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  failed {failed}")
    print(f"  nproc {ctx['nproc']}  python {ctx['python']}  numpy {ctx['numpy']}  "
          f"src lines {ctx['src_lines']}")
    if "probe" in extra:
        print(f"  speed probe {extra['probe']}: median {extra['probe_median_ms']:.4f} ms over "
              f"{extra['probe_samples']} samples, nominal {extra['probe_nominal_ms']} ms")
        print("  raw: " + "  ".join(f"{k} {v:.6g}" for k, v in extra["raw_metrics"].items()))
    for name, value in metrics.items():
        moves = ", ".join(spec.MOVES.get(name, []))
        print(f"  {name:32s} {value:14.6g} {spec.UNITS[name]:10s} n={counts[name]}"
              + (f"  moves {moves}" if moves else ""))
    error_rate = failed / attempted
    print(f"  {'error_rate':32s} {error_rate:14.6g} {'ratio':10s} n={attempted}")
    for lp in loops:
        for failure in lp.failures:
            print(f"  FAILED {failure['slot']}: {failure['error'].strip()}", file=sys.stderr)
    doc = {
        "context": ctx,
        "metrics": {k: {"value": v, "unit": spec.UNITS[k], "n": counts[k],
                        "moves": spec.MOVES.get(k, [])} for k, v in metrics.items()},
        "error_rate": error_rate,
        "failures": [f for lp in loops for f in lp.failures],
        "slots": slot_summary(loops[-1]),
        **extra,
    }
    print(f"  results: {write_result(args, doc, spans)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": spec.UNITS[k]} for k, v in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def setup_only(args):
    workloads = import_library()
    wl = make_workload(workloads, args.workload, args.seed)
    ready = time.perf_counter()
    if hasattr(wl, "close"):
        wl.close()
    print(repr(ready))


def timed_run(args):
    workloads = import_library()
    wl = make_workload(workloads, args.workload, args.seed)
    own_setup = time.perf_counter() - T_START
    probe = speed.probe_for(args.workload)
    try:
        loop = run_loop(wl.ops(), args.seconds, probe=probe)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    rss = peak_rss_mb(args.workload)  # read before the set-up processes run
    raw_setups, setups = measure_setups(args)
    scaled = [dt * probe.scale_near(i) for dt, i in zip(loop.latencies, loop.marks)]
    n = len(loop.latencies)
    metrics = {**timing_metrics(setups, scaled), "peak_rss_mb": rss}
    counts = {"setup_s": len(setups), "ops_per_s": n, "latency_p50_ms": n,
              "latency_p90_ms": n, "peak_rss_mb": 1}
    emit(args, metrics, counts, [loop],
         {"raw_metrics": timing_metrics(raw_setups, loop.latencies),
          "probe": probe.reference.__name__, "probe_nominal_ms": probe.nominal_ms,
          "probe_median_ms": statistics.median(probe.ms), "probe_samples": len(probe.ms),
          "setup_samples_s": setups,
          "raw_setup_samples_s": raw_setups, "own_setup_s": own_setup})


def traced_run(args):
    workloads = import_library()
    import tracer

    setup_rec = tracer.Recorder()
    setup_rec.install()
    setup_rec.active = True
    wl = make_workload(workloads, args.workload, args.seed)
    setup_rec.active = False
    setup_rec.uninstall()
    cli = args.workload == "cli_session"
    half = args.seconds / 2.0
    ops = wl.ops()
    rec = tracer.Recorder()
    try:
        untraced = run_loop(ops, half)
        if cli:
            trace_file = os.path.join(wl.tmp, "trace.jsonl")
            wl.set_traced(trace_file)
            stdout_before, children_before = wl.stdout_bytes, wl.children
            traced = run_loop(ops, half)
            totals = {"calls": {}, "self_ms": {}, "counts": {}}
            import_ms = []
            with open(trace_file, encoding="utf-8") as fh:
                for line in fh:
                    child = json.loads(line)
                    merge_totals(totals, child["totals"])
                    import_ms.append(child["import_ms"])
            procs = len(import_ms)
            get_alg = {"calls": totals["calls"].get("fixtures.get_algebra", 0) / procs,
                       "self_ms": totals["self_ms"].get("fixtures.get_algebra", 0) / procs}
            cli_metrics = {
                "cli.import_ms": statistics.mean(import_ms),
                "cli.main.self_ms": totals["self_ms"].get("cli.main", 0) / procs,
                "cli.stdout_bytes": (wl.stdout_bytes - stdout_before) / (wl.children - children_before),
                "cli.pool_slowdown": pool_slowdown(untraced),
            }
            spans = None
        else:
            before = tracer.cache_snapshot()
            rec.install()
            try:
                traced = run_loop(ops, half, rec)
            finally:
                rec.uninstall()
            for cache, (hits, misses) in tracer.cache_delta(before, tracer.cache_snapshot()).items():
                rec.counts[f"{cache}.hits"] += hits
                rec.counts[f"{cache}.misses"] += misses
            totals = rec.totals()
            get_alg = {"calls": setup_rec.calls.get("fixtures.get_algebra", 0),
                       "self_ms": setup_rec.self_s.get("fixtures.get_algebra", 0.0) * 1e3}
            cli_metrics = {k: 0.0 for k in ("cli.import_ms", "cli.main.self_ms",
                                            "cli.stdout_bytes", "cli.pool_slowdown")}
            spans = rec.spans
    finally:
        if hasattr(wl, "close"):
            wl.close()
    n = len(traced.latencies)
    metrics = layer_metrics(totals, n, get_alg, cli_metrics, untraced, traced)
    metrics = {name: metrics[name] for name in spec.LAYER_NAMES}
    counts = {name: n for name in metrics}
    counts["trace.untraced_ops_per_s"] = len(untraced.latencies)
    emit(args, metrics, counts, [untraced, traced],
         {"spans_dropped": rec.dropped, "totals": totals}, spans)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w for w, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_only:
        setup_only(args)
    elif args.trace:
        traced_run(args)
    else:
        timed_run(args)


if __name__ == "__main__":
    main()
