"""The package's public surface, and the modules each entry point loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import acalc

# every name ``import acalc`` offers: each it has offered since its first
# release but ``minimal_polynomial_witness``, now in the tests' oracles
PUBLIC = {
    "AElement", "AcalcError", "Algebra", "Classification", "ConjugateFrame", "D2Options",
    "D2Probe", "DiffReport", "EquationSystem", "ExprFn", "Kind", "LinMap", "ParametricCurve",
    "Polyline", "adiff_test", "antiderivative_probe", "bundled_algebras", "check_residual",
    "classify", "conjugate_coords", "conjugate_fn", "conjugate_frame", "cyclic_algebra",
    "d2_probe", "dalembert_solution", "deleted_quotient", "derivative", "direct_product",
    "exprfn_mul", "find_invertible_basis", "gen_cr", "gen_laplace", "gen_laplace_k",
    "get_algebra", "higher_derivative", "identity_fn", "integrate_curve", "invert",
    "jacobian_fd", "jacobian_sym", "load_algebra", "load_curve", "loop_integral",
    "make_algebra", "ml_bound_check", "mul", "norm",
    "number_map", "pairs_to_hyperbolic", "parse", "poly_fn", "regrep", "render_system",
    "submult_bound", "taylor_eval", "transfer_function", "verify_isomorphism", "wave_algebra",
    "wave_isomorphism", "wirtinger_apply",
}
SUBMODULES = {"algebra", "calculus", "diffquot", "eqgen", "errors", "expr", "fixtures",
              "integrate", "isomorph"}
SRC = str(Path(acalc.__file__).resolve().parents[1])


def test_all_is_the_public_surface():
    assert set(acalc.__all__) == PUBLIC


def test_star_import_binds_the_submodules_objects():
    namespace = {}
    exec("from acalc import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    for name in PUBLIC:
        obj = namespace[name]
        assert obj.__module__.startswith("acalc."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_dir_lists_every_public_name_and_submodule():
    assert PUBLIC | SUBMODULES | {"__version__"} <= set(dir(acalc))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        acalc.nope


def _fresh(code: str):
    """Run ``code`` in a new interpreter; returns the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


_LOADED = ("import json, sys; print(json.dumps(sorted(m for m in sys.modules "
           "if m.startswith('acalc.') or m == 'fractions')))")


def test_submodule_resolves_without_an_import_of_its_own():
    assert _fresh("import acalc, json; print(json.dumps(acalc.integrate.QUAD_TOL))") == 1e-10


def test_import_acalc_loads_no_submodule():
    assert _fresh("import acalc\n" + _LOADED) == []


def test_import_cli_loads_expr():
    # bench/cli_child.py reads the expression caches right after this import
    loaded = _fresh("import acalc.cli\n" + _LOADED)
    assert loaded == ["acalc.algebra", "acalc.cli", "acalc.errors", "acalc.expr", "acalc.fixtures"]


@pytest.mark.parametrize("argv, absent", [
    (["classify", "--algebra", "C", "--point", "1,1"],
     {"acalc.calculus", "acalc.diffquot", "acalc.eqgen", "acalc.integrate", "acalc.isomorph",
      "fractions"}),
    (["check-adiff", "--algebra", "C", "--fn", "zeta3", "--point", "1,2"],
     {"acalc.diffquot", "acalc.eqgen", "acalc.integrate", "acalc.isomorph"}),
])
def test_a_command_loads_only_the_modules_it_runs(argv, absent):
    loaded = _fresh(f"import acalc.cli\nassert acalc.cli.main({argv!r}) == 0\n" + _LOADED)
    assert not absent & set(loaded)
