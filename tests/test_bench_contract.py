"""The library names, options and call shapes that the benchmark in
``bench/`` relies on.

The traced benchmark run rebinds the functions listed in ``bench/tracer.py``
by name and reads the expression caches' ``cache_info``; the ``cli_session``
workload passes ``check-adiff --jobs``; the workloads in ``bench/workloads.py``
call the library with their own arguments, such as
``adiff_test(..., method="symbolic")``.  A rename in the library would show
only as failed ops of the benchmark, so these checks read the tracer's own
tables and run the workloads' own ops through their oracles.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from acalc.calculus import adiff_test
from acalc.cli import build_parser, main
from acalc.expr import poly_fn

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("bench_tracer", BENCH / "tracer.py")


@pytest.fixture(scope="module")
def workloads():
    return _load("bench_workloads", BENCH / "workloads.py")


def test_every_traced_target_resolves(tracer):
    for module_name, attr, _ in tracer.TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer patches the method found in the class's own namespace
            assert meth in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr)), attr


def test_traced_caches_expose_cache_info(tracer):
    for module_name, attr, _ in tracer.CACHES:
        fn = getattr(importlib.import_module(module_name), attr)
        assert callable(fn.cache_info), attr


def test_check_adiff_accepts_jobs(capsys):
    argv = ["check-adiff", "--algebra", "C", "--fn", "zeta2", "--grid=-1:1:2,-1:1:2", "--jobs", "2"]
    assert build_parser().parse_args(argv).jobs == 2
    assert main(argv) == 0
    assert capsys.readouterr().out.count("adiff=True") == 4


def test_adiff_test_method_values_name_one_route(fixtures):
    # the adiff_grid workload runs adiff_test with method="fd" (the default
    # until the exact route replaced it) next to method="symbolic"
    rng = np.random.default_rng(41)
    for a in fixtures.values():
        f = poly_fn(a, [0.0, 0.0, 0.0, 1.0])
        p = a.element(rng.uniform(-2.0, 2.0, a.dim))
        fd, sym = adiff_test(f, p, method="fd"), adiff_test(f, p, method="symbolic")
        assert fd.jacobian.tobytes() == sym.jacobian.tobytes(), a.name
        assert (fd.residual, fd.is_adiff, fd.tol) == (sym.residual, sym.is_adiff, sym.tol), a.name
        assert fd.point.coords.tobytes() == sym.point.coords.tobytes()
        assert (fd.derivative is None) == (sym.derivative is None)
        if fd.derivative is not None:
            assert fd.derivative.coords.tobytes() == sym.derivative.coords.tobytes()


def test_every_adiff_grid_slot_meets_its_oracle(workloads):
    for op in workloads.AdiffGrid(1).pool:
        assert op.check(op.run()), op.slot


def test_one_contour_variant_meets_its_oracles(workloads):
    contour = workloads.Contour(1)
    for op in contour.pool[:len(contour.pool) // workloads.CONTOUR_VARIANTS]:
        assert op.check(op.run()), op.slot
