"""Machine-speed probes: fixed reference work timed between the ops.

The benchmark runs on shared machines whose speed swings by up to a factor of
two within seconds and drifts from minute to minute; a fixed CPU-bound loop
shows the same swings in wall time and in CPU time, so they come from the
host, not from the program.  A probe times a fixed piece of reference work
that uses nothing from acalc, just before ops, and every timing a run reports
is multiplied by the probe's nominal time over its median time in the samples
around that op.  That gives each timing in milliseconds (or seconds) of a
machine on which the reference work takes its nominal time.  A change to
acalc cannot move the reference work, so it moves the scaled timings in the
same proportion as the raw ones; the raw timings are kept in the result file.

Two probes follow two kinds of work:

* ``kernel``, for in-process workloads: interpreter work and small numpy
  calls, like the work acalc does per point;
* ``startup``, for the CLI workload, whose ops are mostly interpreter start and
  imports, and for set-up time on every workload: a fresh interpreter that imports numpy and the standard-library
  modules the CLI imports.  The in-process kernel does not follow these ops:
  process start-up times on such a machine move in steps of about 45 ms that
  hold for tens of seconds, and scaling by the kernel left their spread as it
  was, while this probe moves in the same steps.

Over five 35-second runs per workload on a 2-vCPU machine whose kernel time
swung between 1.7 and 3.0 ms, scaling cut the quartile spread of the op
timings from 35-43% of the median to 4-7% on adiff_grid, from 15-23% to 4-7%
on contour and from 8-12% to 5-8% on cli_session.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

_V = np.linspace(0.1, 1.0, 6)
_M = np.outer(_V, _V) + np.eye(6)


def kernel() -> float:
    s = 0.0
    v = _V
    for i in range(200):
        w = _M @ v
        s += float(np.dot(w, v)) / (1.0 + i)
        terms = {}
        for k in range(30):
            terms[(k, i % 3)] = (k * 1.5 + s) % 7.0
        s += sum(terms.values()) * 1e-3
    return s


# what ``python -m acalc.cli`` imports besides acalc itself
STARTUP_IMPORTS = ("numpy, argparse, concurrent.futures, dataclasses, enum, fractions, "
                   "functools, itertools, json, re")


def startup() -> None:
    subprocess.run([sys.executable, "-c", f"import {STARTUP_IMPORTS}"], check=True,
                   stdout=subprocess.DEVNULL, timeout=60)


class SpeedProbe:
    """Reference times in ms, sampled before every ``every``-th op; an op's
    time is scaled by the median of the ``nearest`` samples around it."""

    def __init__(self, reference, nominal_ms: float, nearest: int, every: int = 1):
        self.reference = reference
        self.nominal_ms = nominal_ms
        self.nearest = nearest
        self.every = every
        self.ms = []
        self._ops = 0

    def sample(self) -> int:
        """Time the reference once; returns the sample's index."""
        t0 = time.perf_counter()
        self.reference()
        self.ms.append((time.perf_counter() - t0) * 1e3)
        return len(self.ms) - 1

    def before_op(self) -> int:
        """Index of the latest sample, taking a new one if one is due."""
        if self._ops % self.every == 0:
            self.sample()
        self._ops += 1
        return len(self.ms) - 1

    def median_ms_near(self, index: int) -> float:
        lo = max(0, min(index - self.nearest // 2, len(self.ms) - self.nearest))
        return statistics.median(self.ms[lo:lo + self.nearest])

    def scale_near(self, index: int) -> float:
        """Factor that turns a time measured next to sample ``index`` into
        reference time."""
        return self.nominal_ms / self.median_ms_near(index)


# nominal times: a constant each, so they cancel between commits; close to the
# reference times on an unloaded 2-vCPU machine with Python 3.11.7 and numpy
# 2.4.6.  The windows span a few seconds at most: long enough to ride out a
# sample hit by an interrupt, short enough to follow the swings.

def startup_probe() -> SpeedProbe:
    """For work that starts a process: CLI ops and set-up time."""
    return SpeedProbe(startup, nominal_ms=170.0, nearest=3, every=4)


def probe_for(workload: str) -> SpeedProbe:
    """For the ops of a workload."""
    if workload == "cli_session":
        return startup_probe()
    return SpeedProbe(kernel, nominal_ms=2.0, nearest=9)
