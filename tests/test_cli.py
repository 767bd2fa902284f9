import json

import numpy as np
import pytest

from acalc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_classify_zero_divisor(capsys):
    code, out, _ = run(capsys, "classify", "--algebra", "hyperbolic", "--point", "1,1")
    assert code == 0
    assert "zero-divisor" in out
    assert "witness:" in out


def test_invertible_basis(capsys):
    code, out, _ = run(capsys, "invertible-basis", "--algebra", "dual")
    assert code == 0
    assert out.count("(unit)") == 2


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
                       "--fn", "x1^2 - x2^2;2*x1*x2", "--point", "1,1",
                       "--method", "symbolic")
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
    code, _, err = run(capsys, "classify", "--algebra", "nope", "--point", "1")
    assert code == 2
    assert "unknown algebra" in err


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
    code, out, _ = run(capsys, "derivative", "--algebra", "H", "--fn", str(path),
                       "--point", "1,2", "--method", "symbolic")
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
