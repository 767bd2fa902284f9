import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from acalc.cli import build_parser, main
from acalc.fixtures import bundled_algebras, get_algebra

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_without_method(capsys, method, *argv):
    """``run`` of argv, once argv with the removed ``--method`` flag is shown
    to exit 2: its values ``fd`` and ``symbolic`` named the one exact route."""
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--method", method])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: --method {method}" in capsys.readouterr().err
    return run(capsys, *argv)


# ---------------------------------------------------------------------------
# validation and classification
# ---------------------------------------------------------------------------

def test_validate_fixture(capsys):
    code, out, _ = run(capsys, "validate-algebra", "H")
    assert code == 0
    assert "commutative:   True" in out
    assert "dim:           2" in out


def test_validate_algebra_file(capsys, tmp_path):
    doc = {
        "name": "my-complex",
        "dim": 2,
        "labels": ["1", "i"],
        "unity": [1, 0],
        "table": [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]],
    }
    path = tmp_path / "cplx.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate-algebra", str(path))
    assert code == 0
    assert "my-complex" in out


def test_validate_rejects_broken_table(capsys, tmp_path):
    # 3-hyperbolic with v2*v3 corrupted: associativity must fail
    table = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, 1], [0, 1, 0], [0, 1, 0]],
    ]
    doc = {"name": "broken", "dim": 3, "unity": [1, 0, 0], "table": table}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate-algebra", str(path))
    assert code == 2
    assert "associativity" in err


def test_validate_relations_shorthand(capsys, tmp_path):
    doc = {"name": "tri", "dim": 3, "relations": {"generator_power": 3, "value": [1, 0, 0]}}
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate-algebra", str(path))
    assert code == 0
    assert "dim:           3" in out


def test_classify_unit(capsys):
    code, out, _ = run(capsys, "classify", "--algebra", "H", "--point", "2,1")
    assert code == 0
    assert "kind:     unit" in out
    assert "inverse:" in out


@pytest.mark.filterwarnings("error")
def test_classify_zero_is_exact(capsys):
    code, out, _ = run(capsys, "classify", "--algebra", "C", "--point", "1e-15,0")
    assert code == 0
    assert "kind:     unit" in out and "inverse:  1e+15, 0" in out
    code, out, err = run(capsys, "classify", "--algebra", "C", "--point", "1e-310,0")
    assert (code, out) == (2, "")
    assert err == "error: the inverse of this unit leaves the float range\n"


def test_classify_zero_divisor(capsys):
    code, out, _ = run(capsys, "classify", "--algebra", "hyperbolic", "--point", "1,1")
    assert code == 0
    assert "zero-divisor" in out
    assert "witness:" in out


def test_invertible_basis(capsys):
    code, out, _ = run(capsys, "invertible-basis", "--algebra", "dual")
    assert code == 0
    assert out.count("(unit)") == 2


UNIT_BASIS_GOLDEN = Path(__file__).resolve().parent / "data" / "unit_basis.txt"
# the fixtures whose basis starts with the unity and holds only units, then
# the refusals: a nilpotent v_2 (dual), and a unity that is not v_1 (RxR, mat2)
WIRTINGER_FIXTURES = ("C", "H", "3-hyperbolic", "4-hyperbolic", "quaternions", "wave", "wave2",
                      "dual", "RxR", "mat2")


def _captured(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"### {' '.join(argv)}: exit {code}\n{out.getvalue()}{err.getvalue()}"


def _unit_basis_outputs() -> str:
    """``invertible-basis`` on every fixture, then every Wirtinger operator
    on zeta2 and zbar2 on WIRTINGER_FIXTURES: exit code, stdout and stderr."""
    blocks = [_captured(["invertible-basis", "--algebra", name]) for name in bundled_algebras()]
    for name in WIRTINGER_FIXTURES:
        n = get_algebra(name).dim
        point = ",".join(f"{0.3 + 0.4 * i * (-1) ** i:g}" for i in range(n))
        for fn in ("zeta2", "zbar2"):
            for which in ["zeta"] + [f"zbar{j}" for j in range(2, n + 1)]:
                blocks.append(_captured(["wirtinger", "--algebra", name, "--fn", fn,
                                         "--point", point, "--which", which]))
    return "".join(blocks)


def test_unit_basis_outputs_are_pinned():
    assert _unit_basis_outputs().encode("utf-8") == UNIT_BASIS_GOLDEN.read_bytes()


# ---------------------------------------------------------------------------
# calculus commands
# ---------------------------------------------------------------------------

def test_check_adiff_pass(capsys):
    code, out, _ = run(capsys, "check-adiff", "--algebra", "hyperbolic",
                       "--fn", "zeta3", "--point", "1,2")
    assert code == 0
    assert "adiff=True" in out
    # 3(1+2j)^2 = 15 + 12j, up to finite-difference error
    nums = out.split("derivative=(")[1].rstrip(")\n").split(", ")
    assert np.allclose([float(v) for v in nums], [15.0, 12.0], atol=1e-6)


def test_check_adiff_fail_exit_code(capsys):
    code, out, _ = run(capsys, "check-adiff", "--algebra", "C",
                       "--fn", "zbar2", "--point", "0.5,0.5")
    assert code == 1
    assert "adiff=False" in out


def test_check_adiff_grid_and_jobs(capsys):
    code, out, _ = run(capsys, "check-adiff", "--algebra", "C", "--fn", "zeta2",
                       "--grid=-1:1:3,-1:1:3")
    assert code == 0
    assert out.count("adiff=True") == 9
    # parallel sweep merges in deterministic point order
    code2, out2, _ = run(capsys, "check-adiff", "--algebra", "C", "--fn", "zeta2",
                         "--grid=-1:1:3,-1:1:3", "--jobs", "2")
    assert code2 == 0
    assert out2 == out


def test_inline_function_spec_with_division(capsys):
    # '/' in an inline spec is division, not a path separator
    code, out, _ = run(capsys, "check-adiff", "--algebra", "C",
                       "--fn", "1/x1;x2", "--point", "1,1")
    assert code == 1
    assert "adiff=False" in out


def test_derivative_command(capsys):
    code, out, _ = run(capsys, "derivative", "--algebra", "C",
                       "--fn", "x1^2 - x2^2;2*x1*x2", "--point", "1,1")
    assert code == 0
    assert "derivative: 2, 2" in out


def test_derivative_verdict_false(capsys):
    code, out, err = run(capsys, "derivative", "--algebra", "C",
                         "--fn", "zbar2", "--point", "1,1")
    assert code == 1


def test_wirtinger_command(capsys):
    code, out, _ = run(capsys, "wirtinger", "--algebra", "C", "--fn", "zeta1",
                       "--which", "zeta", "--point", "0.2,0.4")
    assert code == 0
    assert "1, 0" in out


def test_taylor_command(capsys):
    code, out, _ = run(capsys, "taylor", "--algebra", "H", "--fn", "zeta2",
                       "--point", "1,0", "--offset", "0.1,0.2", "--degree", "2")
    assert code == 0
    assert "taylor (degree 2): 1.25, 0.44" in out
    diff_line = [l for l in out.splitlines() if l.startswith("|difference|")][0]
    assert float(diff_line.split(":")[1]) <= 1e-10


# ---------------------------------------------------------------------------
# equation generation
# ---------------------------------------------------------------------------

def test_gen_cr_dual(capsys):
    code, out, _ = run(capsys, "gen-cr", "--algebra", "dual")
    assert code == 0
    assert "u_y = 0" in out
    assert "v_y - u_x = 0" in out


@pytest.mark.parametrize("name, count", [("mat2", 12), ("triangular6", 30)])
def test_gen_cr_where_the_unity_is_not_v1(capsys, name, count):
    code, out, err = run(capsys, "gen-cr", "--algebra", name)
    assert (code, len(out.splitlines()), err) == (0, count, "")


@pytest.mark.parametrize("command", ["gen-cr", "gen-laplace"])
@pytest.mark.parametrize("flag, names, kind", [
    ("--coords", "x", "coordinate names, got 1"),
    ("--coords", "x,y,z", "coordinate names, got 3"),
    ("--components", "u", "component names, got 1"),
    ("--components", "u,v,w", "component names, got 3"),
])
def test_name_counts_must_match_the_dimension(capsys, command, flag, names, kind):
    code, out, err = run(capsys, command, "--algebra", "C", flag, names)
    assert (code, out, err) == (2, "", f"error: expected 2 {kind}\n")


GEN_CR_GOLDEN = Path(__file__).resolve().parent / "data" / "gen_cr_unity_first.txt"
# every fixture whose unity is v_1, and one wave algebra built from a spec
UNITY_FIRST = ("R", "C", "H", "dual", "dual3", "dual4", "3-hyperbolic", "4-hyperbolic",
               "quaternions", "wave", "wave2", "wave:3.5")


def _gen_cr_outputs() -> str:
    """The stdout and exit code of ``gen-cr`` in each format on each UNITY_FIRST algebra."""
    blocks = []
    for name in UNITY_FIRST:
        for fmt in ("text", "json", "latex"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["gen-cr", "--algebra", name, "--format", fmt])
            blocks.append(f"### gen-cr --algebra {name} --format {fmt}: exit {code}\n"
                          f"{out.getvalue()}")
    return "".join(blocks)


def test_gen_cr_output_is_pinned_on_unity_first_algebras():
    assert _gen_cr_outputs().encode("utf-8") == GEN_CR_GOLDEN.read_bytes()


def test_gen_laplace_trihyperbolic(capsys):
    code, out, _ = run(capsys, "gen-laplace", "--algebra", "trihyperbolic")
    assert code == 0
    assert len([l for l in out.splitlines() if "= 0" in l]) == 3


def test_gen_laplace_latex(capsys):
    code, out, _ = run(capsys, "gen-laplace", "--algebra", "C", "--format", "latex")
    assert code == 0
    assert r"\Phi_{xx} + \Phi_{yy} = 0" in out


def test_gen_laplace_json(capsys):
    code, out, _ = run(capsys, "gen-laplace", "--algebra", "C", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "Laplace2"
    assert len(doc["equations"]) == 1


def test_gen_laplace_custom_coords(capsys):
    code, out, _ = run(capsys, "gen-laplace", "--algebra", "wave:2", "--coords", "x,t")
    assert code == 0
    assert "Phi_xx - 0.25*Phi_tt = 0" in out


def test_gen_laplace_noncommutative_is_input_error(capsys):
    code, out, err = run(capsys, "gen-laplace", "--algebra", "quaternions")
    assert code == 2
    assert "commutative" in err


# ---------------------------------------------------------------------------
# integration, probes, isomorphisms
# ---------------------------------------------------------------------------

def test_integrate_command(capsys, tmp_path):
    curve = {
        "algebra": "H",
        "kind": "parametric",
        "components": ["cos(t)", "sin(t)"],
        "t0": 0.0,
        "t1": 6.283185307179586,
    }
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(curve))
    code, out, _ = run(capsys, "integrate", "--algebra", "H", "--fn", "zeta2",
                       "--curve", str(path))
    assert code == 0
    assert "integral:" in out
    assert "holds=True" in out


def test_d2_probe_converges(capsys):
    code, out, _ = run(capsys, "d2-probe", "--algebra", "C", "--fn", "zeta2",
                       "--point", "0.5,0.5")
    assert code == 0
    assert "verdict: converges" in out
    assert "limit:   1, 1" in out


def test_d2_probe_diverges_exit_code(capsys):
    code, out, _ = run(capsys, "d2-probe", "--algebra", "C", "--fn", "zbar2",
                       "--point", "0.5,0.5")
    assert code == 1
    assert "verdict: diverges" in out


def test_verify_iso_command(capsys, tmp_path):
    doc = {"source": "RxR", "target": "H", "matrix": [[0.5, 0.5], [0.5, -0.5]]}
    path = tmp_path / "iso.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify-iso", str(path))
    assert code == 0
    assert "isomorphism:         True" in out


def test_verify_iso_false(capsys, tmp_path):
    doc = {"source": "C", "target": "C", "matrix": [[1.0, 1.0], [0.0, 0.0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify-iso", str(path))
    assert code == 1


def test_integrate_command_integrates_once(capsys, tmp_path, monkeypatch):
    from acalc import integrate

    calls = []
    original = integrate.integrate_curve
    monkeypatch.setattr(integrate, "integrate_curve", lambda *a: calls.append(a) or original(*a))
    doc = {"algebra": "C", "kind": "polyline", "vertices": [[0, 0], [1, 0], [1, 1]]}
    path = tmp_path / "path.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "integrate", "--algebra", "C", "--fn", "zeta2", "--curve", str(path))
    assert code == 0
    assert len(calls) == 1
    # z^3/3 at 1+i: (-2 + 2i)/3
    assert out.startswith("integral:    -0.666666666667, 0.666666666667\nerror bound: ")


def test_transfer_command(capsys, tmp_path):
    doc = {"source": "RxR", "target": "H", "matrix": [[0.5, 0.5], [0.5, -0.5]]}
    path = tmp_path / "iso.json"
    path.write_text(json.dumps(doc))
    # squaring on R x R evaluated through the map at a hyperbolic point
    code, out, _ = run(capsys, "transfer", "--iso", str(path), "--fn", "zeta2",
                       "--point", "1,0")
    assert code == 0
    assert "g(1, 0) = 1, 0" in out


def test_demo_dalembert(capsys):
    code, out, _ = run(capsys, "demo-dalembert", "--c", "2", "--grid=-1:1:5,-1:1:5")
    assert code == 0
    assert "wave map verified: True" in out
    assert "PASS" in out


def test_demo_dalembert_with_a_profile_evaluation_refuses_prints_nothing(capsys):
    # 1/0 stays a node: the verdict refuses it, before any line is printed
    assert run(capsys, "demo-dalembert", "--f1", "1/0") == (2, "", "error: division by zero\n")


def test_determinism(capsys):
    argv = ["d2-probe", "--algebra", "C", "--fn", "zeta2", "--point", "0.25,0.75",
            "--seed", "3"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_help_available(capsys):
    for cmd in ("validate-algebra", "classify", "invertible-basis", "check-adiff",
                "derivative", "wirtinger", "gen-cr", "gen-laplace", "taylor",
                "integrate", "d2-probe", "verify-iso", "transfer", "demo-dalembert"):
        with pytest.raises(SystemExit) as excinfo:
            main([cmd, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "usage" in out


def test_unknown_algebra_is_input_error(capsys):
    code, out, err = run(capsys, "classify", "--algebra", "nope", "--point", "1")
    assert (code, out) == (2, "")
    # printed unquoted, though the library's error is still a KeyError
    assert err.startswith("error: unknown algebra 'nope'; known: 3-hyperbolic, 4-hyperbolic, C, ")
    with pytest.raises(KeyError):
        get_algebra("nope")


def test_parse_error_reports_position(capsys):
    code, _, err = run(capsys, "check-adiff", "--algebra", "C",
                       "--fn", "x1*(x2", "--point", "1,1")
    assert code == 2
    assert "position 6" in err


def test_check_adiff_json_format(capsys):
    code, out, _ = run(capsys, "check-adiff", "--algebra", "C", "--fn", "zeta2",
                       "--point", "0.5,0.5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["is_adiff"] is True
    assert np.allclose(doc[0]["derivative"], [1.0, 1.0], atol=1e-6)


def test_gen_laplace_output_file(capsys, tmp_path):
    out_path = tmp_path / "eqs.txt"
    code, out, _ = run(capsys, "gen-laplace", "--algebra", "C",
                       "--output", str(out_path))
    assert code == 0
    assert out == ""
    assert "Phi_xx + Phi_yy = 0" in out_path.read_text()


def test_function_file_poly_shorthand(capsys, tmp_path):
    doc = {"algebra": "H", "poly": [[0.0, 0.0], [0.0, 0.0], [3.0, 0.0]]}
    path = tmp_path / "threezsq.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "derivative", "--algebra", "H", "--fn", str(path), "--point", "1,2")
    assert code == 0
    assert "derivative: 6, 12" in out  # 6*(1+2j)


def test_curve_file_closed_flag_mismatch(capsys, tmp_path):
    curve = {"algebra": "H", "kind": "polyline", "closed": True,
             "vertices": [[0, 0], [1, 0]]}
    path = tmp_path / "open.json"
    path.write_text(json.dumps(curve))
    code, _, err = run(capsys, "integrate", "--algebra", "H", "--fn", "zeta1",
                       "--curve", str(path))
    assert code == 2
    assert "closed" in err


def test_check_adiff_requires_point_or_grid(capsys):
    code, _, err = run(capsys, "check-adiff", "--algebra", "C", "--fn", "zeta2")
    assert code == 2
    assert "--point or --grid" in err


def test_bad_grid_spec(capsys):
    code, _, err = run(capsys, "check-adiff", "--algebra", "C", "--fn", "zeta2",
                       "--grid", "0:1:0,0:1:3")
    assert code == 2
    code, _, err = run(capsys, "check-adiff", "--algebra", "C", "--fn", "zeta2",
                       "--grid", "0:1:3")
    assert code == 2


def test_transfer_refuses_bad_map(capsys, tmp_path):
    doc = {"source": "C", "target": "C", "matrix": [[1.0, 1.0], [0.0, 0.0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "transfer", "--iso", str(path), "--fn", "zeta2",
                       "--point", "1,0")
    assert code == 1
    assert "refusing" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn, point", [("exp(x1);0", "1000,0"), ("x1^1000000;0", "2,0"),
                                       # finite stencil values whose difference overflows
                                       ("1e308*x1/sqrt(x1^2+1e-30);x2", "0,0")])
def test_overflow_is_input_error(capsys, fn, point):
    code, _, err = run(capsys, "check-adiff", "--algebra", "C", "--fn", fn, "--point", point)
    assert code == 2
    assert err == "error: evaluation overflowed or gave a non-finite value\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ("classify", "--algebra", "C", "--point", "nan,0"),
    ("classify", "--algebra", "C", "--point", "inf,0"),
    ("check-adiff", "--algebra", "C", "--fn", "x1*x1;0", "--point", "inf,0"),
    ("check-adiff", "--algebra", "C", "--fn", "zeta2", "--grid=-1:inf:3,0:1:2"),
    ("taylor", "--algebra", "C", "--fn", "zeta2", "--point", "1,0", "--offset", "nan,0"),
])
def test_non_finite_coordinates_are_input_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: coordinates must be finite\n"


@pytest.mark.parametrize("argv", [
    ("check-adiff", "--algebra", "C", "--fn", "{fn}", "--point", "0.3,0.4"),
    ("integrate", "--algebra", "C", "--fn", "zeta2", "--curve", "{curve}"),
    ("transfer", "--iso", "{iso}", "--fn", "{fn}", "--point", "0.3,0.4"),
], ids=["check-adiff", "integrate", "transfer"])
def test_file_declaring_another_algebra_is_input_error(capsys, tmp_path, argv):
    # the H function was judged on C (exit 1), the H curve integrated on C
    # (exit 0), and the H function transferred from RxR (exit 0)
    docs = {
        "fn": {"algebra": "H", "components": ["x1^2+x2^2", "2*x1*x2"]},
        "curve": {"algebra": "H", "kind": "polyline", "vertices": [[0, 0], [1, 0], [1, 1]]},
        "iso": {"source": "RxR", "target": "H", "matrix": [[0.5, 0.5], [0.5, -0.5]]},
    }
    paths = {}
    for kind, doc in docs.items():
        paths[kind] = tmp_path / f"{kind}.json"
        paths[kind].write_text(json.dumps(doc))
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    target = "RxR" if argv[0] == "transfer" else "C"
    assert (code, out, err) == (2, "", f"error: the file declares algebra 'H', not {target!r}\n")


@pytest.mark.parametrize("doc, argv, field", [
    ({"algebra": "C"}, ("check-adiff", "--algebra", "C", "--fn", "{path}", "--point", "1,1"), "components"),
    ({"components": ["x1", "x2"]}, ("check-adiff", "--algebra", "C", "--fn", "{path}", "--point", "1,1"),
     "algebra"),
    ({"algebra": "C", "kind": "parametric", "components": ["cos(t)", "sin(t)"], "t0": 0},
     ("integrate", "--algebra", "C", "--fn", "zeta2", "--curve", "{path}"), "t1"),
    ({"algebra": "C", "kind": "polyline"}, ("integrate", "--algebra", "C", "--fn", "zeta2", "--curve", "{path}"),
     "vertices"),
    ({"source": "RxR", "target": "H"}, ("transfer", "--iso", "{path}", "--fn", "zeta2", "--point", "1,1"),
     "matrix"),
], ids=["function", "function-algebra", "parametric-curve", "polyline", "map"])
def test_missing_field_names_the_file_and_the_field(capsys, tmp_path, doc, argv, field):
    # it printed the bare key, such as "error: 'components'"
    path = tmp_path / "file.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert (code, out, err) == (2, "", f"error: {path}: missing field {field!r}\n")


def test_file_declaring_an_algebra_of_the_same_structure_is_accepted(capsys, tmp_path):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"algebra": "complex", "poly": [0, 0, 1]}))
    code, out, _ = run(capsys, "derivative", "--algebra", "C", "--fn", str(path), "--point", "1,2")
    assert (code, out) == (0, "derivative: 2, 4\n")


def test_wirtinger_operator_name_is_checked(capsys):
    code, out, err = run(capsys, "wirtinger", "--algebra", "C", "--fn", "zeta2", "--point", "1,1",
                         "--which", "zbarx")
    assert (code, out, err) == (2, "", "error: operator must be 'zeta' or 'zbar<j>', got 'zbarx'\n")


@pytest.mark.filterwarnings("error")
def test_huge_point_overflows_without_warnings(capsys):
    code, _, err = run(capsys, "check-adiff", "--algebra", "C", "--fn", "x1*x1;0",
                       "--point", "1e200,0")
    assert code == 2
    assert err == "error: evaluation overflowed or gave a non-finite value\n"


_EXP = "exp(x1)*cos(x2);exp(x1)*sin(x2)"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["fd", "symbolic"])
def test_residual_of_a_jacobian_past_1e154_does_not_overflow(capsys, method):
    # the FD step grew with ||p||, so --method fd read residual=4.235e-06 adiff=False here
    got = run_without_method(capsys, method, "check-adiff", "--algebra", "C", "--fn", _EXP,
                             "--point", "700,0.5")
    verdict = "residual=0  adiff=True  derivative=(8.90072364946e+303, 4.86248749111e+303)"
    assert got == (0, f"point=(700, 0.5)  {verdict}\n", "")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("point, derivative", [
    ("0,1e4", "(-0.952155368259, -0.305614388888)"),
    ("0,1e6", "(0.936752127533, -0.349993502171)"),
])
def test_exp_verdict_does_not_depend_on_scale(capsys, point, derivative):
    code, out, err = run(capsys, "check-adiff", "--algebra", "C", "--fn", _EXP, "--point", point)
    assert (code, err) == (0, "")
    assert out.endswith(f"  residual=0  adiff=True  derivative={derivative}\n")


@pytest.mark.filterwarnings("error")
def test_derivative_that_overflows_is_not_read_by_a_false_verdict(capsys):
    # J = [[1e308, 1e308], [0, 1]] is finite; J 1 = (2e308, 1) is not
    got = run(capsys, "check-adiff", "--algebra", "RxR", "--fn", "1e308*x1+1e308*x2;x2",
              "--point", "0.1,0.1")
    assert got == (1, "point=(0.1, 0.1)  residual=1  adiff=False\n", "")


@pytest.mark.filterwarnings("error")
def test_cauchy_riemann_sum_past_the_float_range_does_not_overflow(capsys):
    # J = [[0, 1e308], [1e308, 0]]: the equation J_12 + J_21 = 0 sums to 2e308
    got = run(capsys, "check-adiff", "--algebra", "C", "--fn", "1e308*x2;1e308*x1",
              "--point", "0.5,0.5")
    assert got == (1, "point=(0.5, 0.5)  residual=1.41421356237  adiff=False\n", "")


@pytest.mark.filterwarnings("error")
def test_cauchy_riemann_row_that_overflows_at_a_point_is_rerun_scaled(capsys):
    # J = [[1, 1e308], [1e308, 1]] is finite; its Cauchy-Riemann row
    # J_12 + J_21 = 2e308 is not, so the verdict reruns on 2^-1024 J
    got = run(capsys, "check-adiff", "--algebra", "C", "--fn", "x1+1e308*x2;1e308*x1+x2",
              "--point", "0.5,0.5")
    assert got == (1, "point=(0.5, 0.5)  residual=1.41421356237  adiff=False\n", "")
    # the largest float: vec(J) is scaled by 2^-1024, and a Jacobian in M(C) still passes
    top = repr(sys.float_info.max)
    got = run(capsys, "check-adiff", "--algebra", "C", "--fn", f"{top}*x2;{top}*x1",
              "--point", "0.5,0.5")
    assert got == (1, "point=(0.5, 0.5)  residual=1.41421356237  adiff=False\n", "")
    got = run(capsys, "check-adiff", "--algebra", "C", "--fn", f"{top}*x1;{top}*x2",
              "--point", "0.5,0.5")
    assert got == (0, "point=(0.5, 0.5)  residual=0  adiff=True  derivative=(1.79769313486e+308, 0)\n", "")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn, verdict", [
    ("5e-324*x1;5e-324*x2", "residual=0  adiff=True  derivative=(4.94065645841e-324, 0)"),
    # J - M(J 1) = [[0, 2^-1073], [0, 0]], and ||J||_F < 1
    ("5e-324*x2;5e-324*x1", "residual=9.88131291682e-324  adiff=True  derivative=(0, 4.94065645841e-324)"),
])
def test_subnormal_jacobian_is_scaled_without_overflow(capsys, fn, verdict):
    # scaling vec(J) to a largest entry in [1/2, 1) would need the factor 2^1073
    got = run(capsys, "check-adiff", "--algebra", "C", "--fn", fn, "--point", "1,1")
    assert got == (0, f"point=(1, 1)  {verdict}\n", "")


@pytest.mark.filterwarnings("error")
def test_taylor_residual_past_1e154_is_finite(capsys):
    # (exp(x1), x2) is not C-differentiable, at any scale; the verdict is the
    # only line on stderr, with no overflow warning before it
    got = run(capsys, "taylor", "--algebra", "C", "--fn", "exp(x1);x2", "--point", "700,0",
              "--offset", "0.1,0", "--degree", "3")
    assert got == (1, "", "verdict: function is not algebra-differentiable here (residual 1)\n")


@pytest.mark.filterwarnings("error")
def test_taylor_difference_past_1e154_is_finite(capsys):
    # the norm of the difference overflowed to inf, with a numpy warning
    code, out, err = run(capsys, "taylor", "--algebra", "C", "--fn", _EXP, "--point", "700,0",
                         "--offset", "1,0", "--degree", "3")
    assert (code, err) == (0, "")
    assert out.endswith("|difference|:          5.23497516002e+302\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn, message", [
    # 2^65536 stays a node, which evaluation refuses; 1e400 is refused where it is read
    ("2^2^2^2^2;0", "evaluation overflowed or gave a non-finite value"),
    ("x1+0^(-1);0", "zero raised to a negative power"),
    ("x1^1e400;0", "expected a finite number"),
])
def test_constant_power_errors_are_input_errors(capsys, fn, message):
    code, out, err = run(capsys, "check-adiff", "--algebra", "C", "--fn", fn, "--point", "1,1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["fd", "symbolic"])
@pytest.mark.parametrize("fn, position", [("x1+1e400;0", 3), ("x1*1e400;0", 3), ("x1;-1e999", 1),
                                          ("1e400*0;x1", 0), ("x1;2+1e400", 2)])
def test_overflowing_numeral_is_syntax_error(capsys, fn, position, method):
    code, out, err = run_without_method(capsys, method, "check-adiff", "--algebra", "C", "--fn", fn,
                                        "--point", "1,1")
    assert (code, out) == (2, "")
    assert err == f"error: syntax error at position {position}: expected a finite number\n"


@pytest.mark.filterwarnings("error")
def test_grid_axis_with_overflowing_span_is_input_error(capsys):
    code, out, err = run(capsys, "check-adiff", "--algebra", "C", "--fn", "zeta2",
                         "--grid=-1e308:1e308:3,0:1:2")
    assert code == 2
    assert out == ""
    assert err == "error: grid axis span must be finite\n"


def _sum(terms):
    return "+".join(["x1"] + ["1"] * (terms - 1)) + ";0"


@pytest.mark.parametrize("fn, message", [
    ("(" * 5000 + "x1" + ")" * 5000 + ";0", "levels of nesting"),
    ("-" * 5000 + "x1;0", "levels of nesting"),
])
def test_deep_expressions_are_input_errors(capsys, fn, message):
    code, _, err = run(capsys, "check-adiff", "--algebra", "C", "--fn=" + fn, "--point", "1,1")
    assert code == 2
    assert err.startswith("error:") and message in err


def test_sums_of_any_length_are_checked(capsys):
    # a sum's length sets no nesting depth, and every pass over a tree walks it
    # with its own stack. After 250 terms, the longer sum is built on the same
    # 250-term prefix node, which holds its partials already
    for terms in (250, 10_000):
        code, out, _ = run(capsys, "check-adiff", "--algebra", "C", "--fn", _sum(terms), "--point", "1,1")
        assert code == 1
        assert "adiff=False" in out
    # and alone, in a new process, as one command runs
    proc = subprocess.run([sys.executable, "-m", "acalc.cli", "check-adiff", "--algebra", "C",
                           "--fn", _sum(10_000), "--point", "1,1"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert (proc.returncode, "adiff=False" in proc.stdout, proc.stderr) == (1, True, "")


# ---------------------------------------------------------------------------
# declared flags and the input boundary
# ---------------------------------------------------------------------------

# the args fields each handler reads, with --algebra, --fn and --point, which
# main() resolves for it; check-adiff also keeps --jobs, which has no effect
HANDLER_FIELDS = {
    "validate-algebra": {"path"},
    "classify": {"algebra", "point"},
    "invertible-basis": {"algebra"},
    "check-adiff": {"algebra", "fn", "point", "grid", "tol", "format", "jobs"},
    "derivative": {"algebra", "fn", "point", "tol"},
    "wirtinger": {"algebra", "fn", "point", "which"},
    "gen-cr": {"algebra", "coords", "components", "format", "output"},
    "gen-laplace": {"algebra", "order", "coords", "components", "format", "output"},
    "taylor": {"algebra", "fn", "point", "offset", "degree"},
    "integrate": {"algebra", "fn", "curve"},
    "d2-probe": {"algebra", "fn", "point", "tol", "seed"},
    "verify-iso": {"path"},
    "transfer": {"iso", "fn", "point"},
    "demo-dalembert": {"c", "f1", "f2", "grid", "tol"},
}


def test_each_subcommand_declares_only_what_its_handler_reads():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(HANDLER_FIELDS)
    for name, p in sub.choices.items():
        dests = {a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)}
        assert dests == HANDLER_FIELDS[name], name
    assert sum(map(len, HANDLER_FIELDS.values())) == 52


_FN_POINT = ("--algebra", "C", "--fn", "zeta2", "--point", "1,1")


def test_parser_tolerances_are_the_librarys_defaults():
    from acalc.calculus import DEFAULT_ADIFF_TOL
    from acalc.diffquot import D2Options

    parse = build_parser().parse_args
    assert parse(["check-adiff", *_FN_POINT]).tol == DEFAULT_ADIFF_TOL
    assert parse(["derivative", *_FN_POINT]).tol == DEFAULT_ADIFF_TOL
    assert parse(["d2-probe", *_FN_POINT]).tol == D2Options().tol


@pytest.mark.parametrize("argv", [
    ("classify", "--algebra", "C", "--point", "1,1", "--tol", "1"),
    ("classify", "--algebra", "C", "--point", "1,1", "--seed", "1"),
    ("check-adiff", *_FN_POINT, "--seed", "1"),
    ("check-adiff", *_FN_POINT, "--method", "fd"),
    ("derivative", *_FN_POINT, "--seed", "1"),
    ("derivative", *_FN_POINT, "--method", "symbolic"),
    ("wirtinger", *_FN_POINT, "--which", "zeta", "--tol", "1"),
    ("wirtinger", *_FN_POINT, "--which", "zeta", "--seed", "1"),
    ("taylor", *_FN_POINT, "--offset", "0.1,0", "--tol", "1"),
    ("taylor", *_FN_POINT, "--offset", "0.1,0", "--seed", "1"),
    ("integrate", "--algebra", "C", "--fn", "zeta2", "--curve", "c.json", "--tol", "1"),
    ("integrate", "--algebra", "C", "--fn", "zeta2", "--curve", "c.json", "--seed", "1"),
])
def test_removed_flags_are_unrecognized(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code_at_zero", [
    (("check-adiff", *_FN_POINT), 0),
    (("derivative", *_FN_POINT), 0),
    (("d2-probe", *_FN_POINT), 1),  # the quotients' spread is not 0
    (("demo-dalembert", "--grid=-1:1:3,-1:1:3"), 0),
])
def test_tolerance_is_finite_and_not_negative(capsys, argv, code_at_zero):
    # a nan or negative tolerance made every verdict false (exit 1), and an
    # infinite one every verdict true; all three are input errors, and 0 is a
    # tolerance
    for tol in ("nan", "inf", "-1"):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, f"--tol={tol}"])
        assert excinfo.value.code == 2
        assert f"--tol: tolerance must be finite and >= 0, got '{tol}'" in capsys.readouterr().err
    assert build_parser().parse_args([*argv, "--tol=0"]).tol == 0.0
    assert run(capsys, *argv, "--tol=0")[0] == code_at_zero


def test_first_input_error_follows_algebra_fn_point_order(capsys):
    code, _, err = run(capsys, "taylor", "--algebra", "nope", "--fn", "x1*(", "--point", "x",
                       "--offset", "y")
    assert (code, "unknown algebra" in err) == (2, True)
    code, _, err = run(capsys, "taylor", "--algebra", "C", "--fn", "x1*(", "--point", "x",
                       "--offset", "y")
    assert (code, "syntax error" in err) == (2, True)
    code, _, err = run(capsys, "taylor", "--algebra", "C", "--fn", "zeta2", "--point", "x",
                       "--offset", "y")
    assert (code, err) == (2, "error: could not convert string to float: 'x'\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["fd", "symbolic"])
def test_huge_constant_divisor_is_differentiable(capsys, method):
    code, out, _ = run_without_method(capsys, method, "check-adiff", "--algebra", "C",
                                      "--fn", "x1/1e200;x2/1e200", "--point", "1,1")
    assert code == 0
    assert out.endswith("adiff=True  derivative=(1e-200, 0)\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn, point, method, code, text", [
    ("x1*1e200*1e200;0", "1,1", "symbolic", 2, "error: evaluation overflowed or gave a non-finite value\n"),
    ("0*(1/x1);x2", "0,1", "fd", 2, "error: division by zero\n"),
    ("x1^(2*2);0", "1,1", "symbolic", 1, ""),
])
def test_constant_folding_through_main(capsys, fn, point, method, code, text):
    # 0*(1/x1) has finite partials at x1 = 0; the verdict's kernel computes f(p) too
    got, out, err = run_without_method(capsys, method, "check-adiff", "--algebra", "C", "--fn", fn,
                                       "--point", point)
    assert (got, err) == (code, text)
    assert ("adiff=False" in out) == (code == 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn, message", [
    ("1/0;x2", "division by zero"),
    # 1/0 is no constant, so it is no integer exponent
    ("x1^(1/0);0", "syntax error at position 2: expected an integer exponent"),
    ("1e308*x1+1e308*x1;x2", "evaluation overflowed or gave a non-finite value"),
    # an operation that would absorb the refused fold (1/inf is 0, exp(-inf)
    # is 0, inf^0 is 1) is refused in its place
    ("1/(1e308+1e308);x2", "evaluation overflowed or gave a non-finite value"),
    ("exp(-(2^65536));0", "evaluation overflowed or gave a non-finite value"),
    ("(1e308*10)^(-1);0", "evaluation overflowed or gave a non-finite value"),
    ("x1*(1e308+1e308)^0;x2", "evaluation overflowed or gave a non-finite value"),
    ("x1*(1/0)^0;x2", "division by zero"),
])
@pytest.mark.parametrize("argv", [
    ("check-adiff", "--algebra", "C", "--point", "1,1"),
    ("derivative", "--algebra", "C", "--point", "1,1"),
    ("wirtinger", "--algebra", "C", "--point", "1,1", "--which", "zeta"),
    ("taylor", "--algebra", "C", "--point", "1,1", "--offset", "0.1,0"),
    ("d2-probe", "--algebra", "C", "--point", "1,1"),
    ("transfer", "--iso", "{iso}", "--point", "1,1"),
], ids=lambda argv: argv[0])
def test_fold_that_evaluation_refuses_is_input_error_in_every_command(capsys, tmp_path, argv, fn, message):
    # a fold that raises or is not finite stays a node, and each command
    # refuses it where it evaluates it, before printing anything
    iso = tmp_path / "iso.json"
    iso.write_text(json.dumps({"source": "RxR", "target": "H", "matrix": [[0.5, 0.5], [0.5, -0.5]]}))
    argv = [a.format(iso=iso) for a in argv] + ["--fn", fn]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.filterwarnings("error")
def test_function_file_with_a_coefficient_that_is_not_finite_is_input_error(capsys, tmp_path):
    # inf times the unity warned of an invalid multiply, and the error named a
    # nan the file never wrote
    path = tmp_path / "fn.json"
    path.write_text('{"algebra": "C", "poly": [0, Infinity]}')
    assert run(capsys, "check-adiff", "--algebra", "C", "--fn", str(path), "--point", "1,1") == (
        2, "", "error: constant inf is not finite\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, doc", [
    ("fn", {"algebra": "C", "components": 5}),
    ("fn", {"algebra": "C", "components": [1, 2]}),
    ("fn", {"algebra": "C", "poly": 5}),
    ("fn", [1, 2]),
    ("curve", {"algebra": "C", "components": [1, 2], "t0": 0, "t1": 1}),
    ("curve", {"algebra": "C", "kind": "polyline", "vertices": 5}),
    ("curve", [1, 2]),
    ("algebra", {"name": "x", "dim": 2, "relations": 5}),
])
def test_malformed_files_are_input_errors(capsys, tmp_path, kind, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    argv = {
        "fn": ("check-adiff", "--algebra", "C", "--fn", str(path), "--point", "1,1"),
        "curve": ("integrate", "--algebra", "C", "--fn", "zeta2", "--curve", str(path)),
        "algebra": ("validate-algebra", str(path)),
    }[kind]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_negative_taylor_degree_is_input_error(capsys):
    code, out, err = run(capsys, "taylor", "--algebra", "C", "--fn", "zeta2", "--point", "1,1",
                         "--offset", "0.1,0.1", "--degree", "-1")
    assert (code, out) == (2, "")
    assert err == "error: Taylor degree must be >= 0, got -1\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec", ["wave:nan", "wave:inf", "file"])
def test_non_finite_algebra_is_input_error(capsys, tmp_path, spec):
    if spec == "file":
        doc = {"name": "nan", "dim": 2, "unity": [1, 0],
               "table": [[[1, 0], [0, 1]], [[0, 1], [float("nan"), 0]]]}
        spec = str(tmp_path / "nan.json")
        with open(spec, "w") as fh:
            json.dump(doc, fh)   # writes the bare NaN token Python's json reads back
    code, out, err = run(capsys, "validate-algebra", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


UNDERFLOW = "squares below the normal float range"
TOO_LARGE = "is too large: its products leave the float range"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    # k^2 underflows to 0 (or to a subnormal): the dual numbers under a wave name
    (["validate-algebra", "wave:1e-200"], f"wave speed 1e-200 {UNDERFLOW}"),
    (["validate-algebra", "wave:1e-170"], f"wave speed 1e-170 {UNDERFLOW}"),
    (["gen-laplace", "--algebra", "wave:1e-200"], f"wave speed 1e-200 {UNDERFLOW}"),
    # k^2 = 1e200 is finite, but make_algebra multiplies entries
    (["validate-algebra", "wave:1e100"], f"structure tensor entry 1e+200 {TOO_LARGE}"),
    (["validate-algebra", "big.json"], f"structure tensor entry 1e+200 {TOO_LARGE}"),
    # not associative; its check would compute inf - inf and miss that
    (["validate-algebra", "edge.json"], f"structure tensor entry 1.3e+154 {TOO_LARGE}"),
])
def test_algebra_leaving_the_float_range_is_input_error(capsys, tmp_path, monkeypatch, argv, message):
    big = [[[1, 0], [0, 1]], [[0, 1], [1e200, 0]]]
    c = 1.3e154
    edge = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, -c, c], [0, c, c]], [[0, 0, 1], [0, c, c], [0, c, c]]]
    for name, dim, table in (("big", 2, big), ("edge", 3, edge)):
        doc = {"name": name, "dim": dim, "unity": [1] + [0] * (dim - 1), "table": table}
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.filterwarnings("error")
def test_infinite_wave_speed_refused_before_arithmetic(capsys):
    code, _, err = run(capsys, "check-adiff", "--algebra", "wave:inf", "--fn", "zeta2", "--point", "1,0")
    assert code == 2
    assert err == "error: power value must be finite\n"
