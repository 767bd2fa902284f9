"""The library names and options that the benchmark in ``bench/`` relies on.

The traced benchmark run rebinds the functions listed in ``bench/tracer.py``
by name and reads the expression caches' ``cache_info``; the ``cli_session``
workload passes ``check-adiff --jobs``.  A rename in the library would break
the benchmark silently, so these checks read the tracer's own tables.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from acalc.cli import build_parser, main

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
