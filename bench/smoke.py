"""Smoke check of the benchmark itself.

    python3 bench/smoke.py

Runs every workload for one second with and without tracing and checks that
the last output line has exactly the result keys, that it reports exactly the
metrics ``BENCHMARK.json`` declares for that mode, and that every op matched
its oracle.  Also checks that ``BENCHMARK.json`` is what ``bench/spec.py``
writes, and that the benchmark fails without printing a result when the
library sources are missing.  Finally it shows how the oracles judge two
inputs the library is known to get wrong (ROADMAP aim 3: verdicts that depend
on the scale of the input), which the timed workloads do not reach.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert fh.read() == spec.manifest_text(), "BENCHMARK.json differs from bench/spec.py"


def check_workloads():
    for workload, _ in spec.WORKLOADS:
        for trace, declared in ((0, spec.E2E_NAMES), (1, spec.LAYER_NAMES)):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, f"{workload} trace {trace}:\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == RESULT_KEYS, result.keys()
            assert list(result["metrics"]) == declared, f"{workload}: undeclared or missing metrics"
            for name, metric in result["metrics"].items():
                assert set(metric) == {"value", "unit"} and metric["unit"] == spec.UNITS[name]
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
                f"{workload} trace {trace}: oracle failures\n{proc.stderr}"
            print(f"ok  {workload} trace {trace}: {result['attempted']} ops")


def check_missing_library():
    work = os.path.join(HERE, ".work")
    os.makedirs(work, exist_ok=True)
    bare = tempfile.mkdtemp(dir=work)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        proc = run(bare, spec.WORKLOADS[0][0], 0)
        assert proc.returncode != 0, "benchmark succeeded without the library"
        assert "{" not in proc.stdout, "benchmark printed a result without the library"
        print("ok  fails without src/:", proc.stderr.strip().splitlines()[-1])
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def show_known_defects():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import acalc
    import workloads

    C = acalc.get_algebra("C")
    exp = acalc.ExprFn(C, tuple(acalc.parse(s, 2) for s in workloads._EXP_COMPONENTS["C"]))
    report = acalc.adiff_test(exp, [0.0, 1e4])
    print(f"known: exp at 0+1e4i: adiff={report.is_adiff} (oracle: True, entire function)")
    T6 = acalc.get_algebra("triangular6")
    z3 = acalc.poly_fn(T6, [0.0, 0.0, 0.0, 1.0])
    p = 1e-3 * T6.element([0.3, -0.5, 0.2, 0.7, -0.4, 0.1]).coords
    report = acalc.adiff_test(z3, p)
    print(f"known: z^3 on triangular6 at norm 1e-3: adiff={report.is_adiff} "
          "(oracle: False, noncommutative)")


if __name__ == "__main__":
    check_manifest()
    check_missing_library()
    check_workloads()
    show_known_defects()
    print("smoke check passed")
