"""Command-line interface.

Exit codes: 0 for success or a true verdict, 1 for a false verdict (e.g. a
function that is not differentiable over the algebra, a non-isomorphism,
a diverging quotient probe), 2 for input errors.  All randomized probes
take an explicit --seed so reports are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

# Each handler imports the modules that only it uses, so that a command loads
# only the code it runs; expr is here because every --fn command needs it.
from . import algebra as alg
from .errors import AcalcError, NotADifferentiable
from .expr import ExprFn, conjugate_fn, load_function, parse, poly_fn
from .fixtures import get_algebra, is_file_spec

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2

# the library's defaults, calculus.DEFAULT_ADIFF_TOL and D2Options().tol, written
# out so that building the parser imports neither module
ADIFF_TOL = 1e-6
D2_TOL = 1e-4


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_vec(coords) -> str:
    return ", ".join(_fmt(float(v)) for v in coords)


def _coords(parts) -> list[float]:
    values = [float(s) for s in parts]
    if not np.isfinite(values).all():
        raise ValueError("coordinates must be finite")
    return values


def tolerance(s: str) -> float:
    """The type of every --tol: a finite number >= 0, so that argparse refuses
    anything else with exit 2, before a verdict could read it."""
    value = float(s)
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {s!r}")
    return value


def _parse_point(spec: str, algebra) -> alg.AElement:
    return algebra.element(_coords(spec.split(",")))


def _parse_grid(spec: str, algebra) -> list[np.ndarray]:
    axes = []
    for part in spec.split(","):
        lo, hi, count = part.split(":")
        count = int(count)
        if count < 1:
            raise ValueError("grid resolution must be >= 1")
        lo, hi = _coords((lo, hi))
        if not np.isfinite(hi - lo):
            raise ValueError("grid axis span must be finite")
        axes.append(np.linspace(lo, hi, count))
    if len(axes) != algebra.dim:
        raise ValueError(f"grid needs {algebra.dim} axes")
    mesh = np.meshgrid(*axes, indexing="ij")
    return [np.array(p) for p in zip(*(m.ravel() for m in mesh))]


def _resolve_fn(spec: str, algebra) -> ExprFn:
    """Function spec: zeta<N>, zbar<j>, a file path, or ';'-joined components."""
    if is_file_spec(spec):
        return load_function(spec, algebra)
    m = re.fullmatch(r"zeta(\d+)", spec)
    if m:
        k = int(m.group(1))
        return poly_fn(algebra, [0.0] * k + [1.0])
    m = re.fullmatch(r"zbar(\d+)", spec)
    if m:
        return conjugate_fn(algebra, int(m.group(1)))
    comps = [parse(s, algebra.dim) for s in spec.split(";")]
    return ExprFn(algebra, tuple(comps))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_validate_algebra(args) -> int:
    a = get_algebra(args.path)
    print(f"name:          {a.name}")
    print(f"dim:           {a.dim}")
    print(f"labels:        {', '.join(a.basis_labels)}")
    print(f"commutative:   {a.commutative}")
    print(f"unity:         {_fmt_vec(a.unity)}")
    print(f"norm bound K:  {_fmt(alg.submult_bound(a))}")
    return EXIT_OK


def cmd_classify(args) -> int:
    x = args.point
    c = alg.classify(x)
    print(f"element:  {_fmt_vec(x.coords)}")
    print(f"kind:     {c.kind.value}")
    if c.inverse is not None:
        print(f"inverse:  {_fmt_vec(c.inverse.coords)}")
    if c.witness is not None:
        print(f"witness:  {_fmt_vec(c.witness.coords)}")
        print(f"|x*b|:    {_fmt(alg.norm(alg.mul(x, c.witness)))}")
    return EXIT_OK


def cmd_invertible_basis(args) -> int:
    basis = alg.find_invertible_basis(args.algebra)
    for i, w in enumerate(basis):
        print(f"w{i + 1}: {_fmt_vec(w.coords)}   (unit)")
    return EXIT_OK


def cmd_check_adiff(args) -> int:
    from . import calculus

    if args.grid:
        points = _parse_grid(args.grid, args.algebra)
    elif args.point:
        points = [args.point]
    else:
        raise ValueError("check-adiff needs --point or --grid")
    reports = [calculus.adiff_test(args.fn, p, tol=args.tol) for p in points]
    all_ok = all(r.is_adiff for r in reports)
    if args.format == "json":
        doc = [
            {
                "point": [float(v) for v in r.point.coords],
                "residual": r.residual,
                "is_adiff": r.is_adiff,
                "derivative": None if r.derivative is None
                else [float(v) for v in r.derivative.coords],
            }
            for r in reports
        ]
        print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK if all_ok else EXIT_FALSE
    for r in reports:
        line = (f"point=({_fmt_vec(r.point.coords)})  residual={_fmt(r.residual)}"
                f"  adiff={r.is_adiff}")
        if r.derivative is not None:
            line += f"  derivative=({_fmt_vec(r.derivative.coords)})"
        print(line)
    return EXIT_OK if all_ok else EXIT_FALSE


def cmd_derivative(args) -> int:
    from . import calculus

    try:
        d = calculus.derivative(args.fn, args.point, tol=args.tol)
    except NotADifferentiable as exc:
        print(f"not differentiable over {args.algebra.name}: residual {_fmt(exc.residual)}")
        return EXIT_FALSE
    print(f"derivative: {_fmt_vec(d.coords)}")
    return EXIT_OK


def cmd_wirtinger(args) -> int:
    from . import calculus

    value = calculus.wirtinger_apply(args.fn, args.which, args.point)
    print(f"d f / d {args.which} at ({_fmt_vec(args.point.coords)}): {_fmt_vec(value.coords)}")
    return EXIT_OK


def _print_system(system, args) -> None:
    from . import eqgen

    coords = args.coords.split(",") if args.coords else None
    comps = args.components.split(",") if args.components else None
    lines = eqgen.render_system(system, coords=coords, components=comps,
                                latex=(args.format == "latex"))
    if args.format == "json":
        doc = {
            "kind": system.kind,
            "order": system.order,
            "algebra": system.algebra.name,
            "equations": [
                [
                    {"coeff": t.coeff, "orders": list(t.orders), "component": t.component}
                    for t in eq.terms
                ]
                for eq in system.equations
            ],
            "rendered": lines,
        }
        text = json.dumps(doc, indent=2, sort_keys=True)
    else:
        text = "\n".join(lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_gen_cr(args) -> int:
    from . import eqgen

    _print_system(eqgen.gen_cr(args.algebra), args)
    return EXIT_OK


def cmd_gen_laplace(args) -> int:
    from . import eqgen

    _print_system(eqgen.gen_laplace_k(args.algebra, args.order), args)
    return EXIT_OK


def cmd_taylor(args) -> int:
    from . import calculus

    f, p = args.fn, args.point
    h = _parse_point(args.offset, args.algebra)
    t = calculus.taylor_eval(f, p, h, args.degree)
    actual = f(p + h)
    print(f"taylor (degree {args.degree}): {_fmt_vec(t.coords)}")
    print(f"f(p+h):                {_fmt_vec(actual.coords)}")
    print(f"|difference|:          {_fmt(alg.norm(actual - t))}")
    return EXIT_OK


def cmd_integrate(args) -> int:
    from . import integrate

    curve = integrate.load_curve(args.curve, args.algebra)
    report = integrate.ml_bound_check(args.fn, curve)
    print(f"integral:    {_fmt_vec(report.integral.value.coords)}")
    print(f"error bound: {_fmt(report.integral.error_bound)}")
    print(f"ML bound:    |I|={_fmt(report.lhs)}  K={_fmt(report.K)}  "
          f"M={_fmt(report.M)}  L={_fmt(report.L)}  holds={report.holds}")
    return EXIT_OK


def cmd_d2_probe(args) -> int:
    from . import diffquot

    probe = diffquot.d2_probe(args.fn, args.point, diffquot.D2Options(seed=args.seed, tol=args.tol))
    print(f"point:   {_fmt_vec(probe.point.coords)}")
    print(f"verdict: {probe.verdict}")
    if probe.limit is not None:
        print(f"limit:   {_fmt_vec(probe.limit.coords)}")
    print("direction | radius | quotient")
    for d, row in zip(probe.directions, probe.quotients):
        for r, q in zip(probe.radii, row):
            print(f"({_fmt_vec(d.coords)}) | {_fmt(r)} | ({_fmt_vec(q)})")
    return EXIT_OK if probe.verdict == "converges" else EXIT_FALSE


def cmd_verify_iso(args) -> int:
    from .isomorph import load_linmap, verify_isomorphism

    m = load_linmap(args.path)
    report = verify_isomorphism(m)
    print(f"source: {m.source.name}   target: {m.target.name}")
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_FALSE


def cmd_transfer(args) -> int:
    from .isomorph import load_linmap, transfer_function

    m = load_linmap(args.iso)
    if not m.verified_isomorphism:
        print("map is not an isomorphism; refusing to transfer", file=sys.stderr)
        return EXIT_FALSE
    f = _resolve_fn(args.fn, m.source)
    g = transfer_function(m, f)
    q = _parse_point(args.point, m.target)
    print(f"g({_fmt_vec(q.coords)}) = {_fmt_vec(g(q).coords)}")
    return EXIT_OK


def cmd_demo_dalembert(args) -> int:
    from . import calculus, eqgen
    from .isomorph import dalembert_solution, transfer_function

    # every value is computed before the first line is printed, so that a
    # profile that evaluation refuses exits 2 with nothing on stdout
    f, iso = dalembert_solution(args.c, args.f1, args.f2)
    wave = iso.source
    diff_report = calculus.adiff_test(f, wave.element([0.3, 0.2]))
    system = eqgen.gen_laplace(wave)
    grid = _parse_grid(args.grid, wave)
    residual = eqgen.check_residual(system, f, grid)
    # numeric transfer cross-check at a few grid points
    g = transfer_function(iso, f)
    X = np.array(grid[:: max(1, len(grid) // 10)])
    back = g.eval_coords(X @ iso.matrix.T) @ iso.inverse.matrix.T
    worst = float(np.max(np.linalg.norm(back - f.eval_coords(X), axis=1)))
    print(f"algebra: {wave.name}")
    print(f"wave map verified: {iso.verified_isomorphism}")
    print(f"transferred function adiff at (0.3, 0.2): {diff_report.is_adiff}")
    for line in eqgen.render_system(system, coords=("x", "t")):
        print(f"equation: {line}")
    print(f"max residual on grid: {_fmt(residual)}")
    print(f"transfer round-trip residual: {_fmt(worst)}")
    ok = residual <= args.tol and iso.verified_isomorphism and diff_report.is_adiff
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_FALSE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

FILE_FORMATS = """\
file formats (JSON):
  algebra:  {"name", "dim", "labels", "unity", "table"[i][j] = coords of vi*vj}
            or {"relations": {"generator_power": n, "value": [...]}}
  function: {"algebra", "components": [expr, ...]} or {"algebra", "poly": [c0, c1, ...]}
  curve:    {"algebra", "kind": "parametric", "components": [exprs in t], "t0", "t1"}
            or {"algebra", "kind": "polyline", "vertices": [[...], ...]}
  map:      {"source", "target", "matrix"}
"""


def _add_common(p, fn=True, point=True, tol=None):
    """--algebra, --fn and --point, which main() resolves; --tol only with a default."""
    p.add_argument("--algebra", required=True,
                   help="fixture name (e.g. hyperbolic, C, dual, wave:2) or algebra file")
    if fn:
        p.add_argument("--fn", required=True,
                       help="zeta<N>, zbar<j>, ';'-joined component expressions, or a file")
    if point:
        p.add_argument("--point", required=True, help="comma-separated coordinates")
    if tol is not None:
        p.add_argument("--tol", type=tolerance, default=tol,
                       help="verdict tolerance (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acalc",
        description="calculus over finite-dimensional real associative unital algebras",
        epilog=FILE_FORMATS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-algebra", help="validate an algebra definition",
                       epilog=FILE_FORMATS, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("path", help="algebra file or fixture name")
    p.set_defaults(func=cmd_validate_algebra)

    p = sub.add_parser("classify", help="zero / unit / zero-divisor classification")
    _add_common(p, fn=False)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("invertible-basis", help="basis of units starting with the unity")
    _add_common(p, fn=False, point=False)
    p.set_defaults(func=cmd_invertible_basis)

    p = sub.add_parser("check-adiff", help="test differentiability over the algebra")
    _add_common(p, point=False, tol=ADIFF_TOL)
    p.add_argument("--point", default=None, help="comma-separated coordinates")
    p.add_argument("--grid", default=None, help="lo:hi:count per coordinate, comma-separated")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; has no effect (sweeps run in-process)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_check_adiff)

    p = sub.add_parser("derivative", help="derivative element at a point")
    _add_common(p, tol=ADIFF_TOL)
    p.set_defaults(func=cmd_derivative)

    p = sub.add_parser("wirtinger", help="apply d/dzeta or d/dzbar<j>")
    _add_common(p)
    p.add_argument("--which", required=True, help="zeta or zbar<j>")
    p.set_defaults(func=cmd_wirtinger)

    for name, handler, extra in (
        ("gen-cr", cmd_gen_cr, False),
        ("gen-laplace", cmd_gen_laplace, True),
    ):
        p = sub.add_parser(name, help=f"generate the {'second-order' if extra else 'first-order'} system")
        _add_common(p, fn=False, point=False)
        if extra:
            p.add_argument("--order", type=int, default=2, help="derivative order k (default 2)")
        p.add_argument("--coords", default=None, help="coordinate names, comma-separated")
        p.add_argument("--components", default=None, help="component names, comma-separated")
        p.add_argument("--format", choices=("text", "json", "latex"), default="text")
        p.add_argument("--output", default=None, help="write to this file instead of stdout")
        p.set_defaults(func=handler)

    p = sub.add_parser("taylor", help="evaluate a Taylor expansion")
    _add_common(p)
    p.add_argument("--offset", required=True, help="step h, comma-separated coordinates")
    p.add_argument("--degree", type=int, default=2)
    p.set_defaults(func=cmd_taylor)

    p = sub.add_parser("integrate", help="curve integral of f * dz")
    _add_common(p, point=False)
    p.add_argument("--curve", required=True, help="curve file")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("d2-probe", help="deleted difference quotient probe")
    _add_common(p, tol=D2_TOL)
    p.add_argument("--seed", type=int, default=0, help="seed for the random directions")
    p.set_defaults(func=cmd_d2_probe)

    p = sub.add_parser("verify-iso", help="verify an isomorphism file")
    p.add_argument("path")
    p.set_defaults(func=cmd_verify_iso)

    p = sub.add_parser("transfer", help="evaluate a transferred function")
    p.add_argument("--iso", required=True, help="map file")
    p.add_argument("--fn", required=True, help="function on the source algebra")
    p.add_argument("--point", required=True, help="target-algebra point")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("demo-dalembert",
                       help="wave algebra pipeline: isomorphism, transfer, wave equation check")
    p.add_argument("--c", type=float, default=1.0, help="wave speed")
    p.add_argument("--f1", default="sin(s)", help="first profile, expression in s")
    p.add_argument("--f2", default="s^2", help="second profile, expression in s")
    p.add_argument("--grid", default="-1:1:20,-1:1:20")
    p.add_argument("--tol", type=tolerance, default=1e-6)
    p.set_defaults(func=cmd_demo_dalembert)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # one boundary, in this order, which fixes the error reported first;
        # --offset, --grid and the subcommands without --algebra resolve their own
        if "algebra" in args:
            args.algebra = get_algebra(args.algebra)
            if "fn" in args:
                args.fn = _resolve_fn(args.fn, args.algebra)
            if getattr(args, "point", None) is not None:
                args.point = _parse_point(args.point, args.algebra)
        return args.func(args)
    except NotADifferentiable as exc:
        print(f"verdict: {exc}", file=sys.stderr)
        return EXIT_FALSE
    except (AcalcError, OSError, KeyError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a malformed input no check above names
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
