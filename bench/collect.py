"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py [--seeds 1-10] [--workloads adiff_grid,contour]
                             [--trace 0,1] [--seconds 25] [--out bench/baseline.json]
                             [--suffix _second_pass]

For every workload, trace mode and metric it prints the median, the quartiles
(as ``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, next to the metric's bound; the traced runs give the
per-layer metrics and the tracing overhead.  With ``--out`` the summary and
every run's values are merged into that JSON file under ``trace<mode>``,
replacing only the workloads run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BOUNDS = {m["name"]: m["bound"] for m in spec.END_TO_END}


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w for w, _ in spec.WORKLOADS))
    parser.add_argument("--trace", default="0,1", help="trace modes to run, comma-separated")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--out", default=None)
    parser.add_argument("--suffix", default="",
                        help="stored under trace<mode><suffix>, e.g. _second_pass")
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    doc = {}
    if args.out and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    for trace in (int(t) for t in args.trace.split(",")):
        entry = doc.setdefault(f"trace{trace}{args.suffix}", {"workloads": {}})
        entry.update(seeds=seeds, seconds=args.seconds)
        for workload in args.workloads.split(","):
            entry["workloads"][workload] = collect(workload, seeds, args.seconds, trace)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def collect(workload, seeds, seconds, trace) -> dict:
    runs = []
    for seed in seeds:
        res = run_once(workload, seed, seconds, trace)
        runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                     "failed": res["failed"],
                     "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
        print(f"{workload} trace {trace} seed {seed}: ops {res['attempted']} "
              f"failed {res['failed']}", flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        s = summary[name] = summarise(values) if len(values) > 1 else {"median": values[0]}
        bound = BOUNDS.get(name)
        print(f"  {name:32s} median {s['median']:12.6g}  q1 {s.get('q1', 0):12.6g}  "
              f"q3 {s.get('q3', 0):12.6g}  spread {s.get('spread', 0):7.2%}"
              + (f"  bound {bound:.0%}" if bound is not None else ""), flush=True)
    return {"summary": summary, "runs": runs}

if __name__ == "__main__":
    main()
