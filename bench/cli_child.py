"""Run one acalc CLI command with span recording, for traced cli_session ops.

    ACALC_BENCH_TRACE=out.jsonl python3 bench/cli_child.py <acalc arguments>

Behaves like the ``acalc`` command (same output and exit code) and appends
one JSON line with the import time and the span totals to the named file.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import acalc.cli  # noqa: E402

IMPORT_MS = (time.perf_counter() - T_START) * 1e3

import tracer  # noqa: E402


def main() -> int:
    rec = tracer.Recorder()
    before = tracer.cache_snapshot()
    rec.install()
    rec.active = True
    code = 2
    try:
        code = acalc.cli.main(sys.argv[1:])
    finally:
        rec.active = False
        rec.uninstall()
        sys.stdout.flush()
        for cache, (hits, misses) in tracer.cache_delta(before, tracer.cache_snapshot()).items():
            rec.counts[f"{cache}.hits"] += hits
            rec.counts[f"{cache}.misses"] += misses
        with open(os.environ["ACALC_BENCH_TRACE"], "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"import_ms": IMPORT_MS, "totals": rec.totals()}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
