"""Calculus over finite-dimensional real associative unital algebras.

Construct an algebra from structure constants, classify its elements, test
functions for differentiability over the algebra, generate the attached
first- and second-order PDE systems, expand in Taylor series, integrate
along curves and probe deleted difference quotients.

The public names below, and the submodules, are imported on first use
(PEP 562), so ``import acalc`` loads no submodule and a caller pays only
for the modules it reaches.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": ("AElement", "Algebra", "Classification", "Kind", "classify",
                "find_invertible_basis", "invert", "make_algebra", "mul", "norm", "number_map",
                "regrep", "submult_bound"),
    "calculus": ("ConjugateFrame", "DiffReport", "adiff_test", "conjugate_coords",
                 "conjugate_frame", "derivative", "higher_derivative", "jacobian_fd",
                 "jacobian_sym", "taylor_eval", "wirtinger_apply"),
    "diffquot": ("D2Options", "D2Probe", "d2_probe", "deleted_quotient"),
    "eqgen": ("EquationSystem", "check_residual", "gen_cr", "gen_laplace", "gen_laplace_k",
              "render_system"),
    "errors": ("AcalcError",),
    "expr": ("ExprFn", "conjugate_fn", "exprfn_mul", "identity_fn", "parse", "poly_fn"),
    "fixtures": ("bundled_algebras", "cyclic_algebra", "direct_product", "get_algebra",
                 "load_algebra", "wave_algebra"),
    "integrate": ("ParametricCurve", "Polyline", "antiderivative_probe", "integrate_curve",
                  "load_curve", "loop_integral", "ml_bound_check"),
    "isomorph": ("LinMap", "dalembert_solution", "pairs_to_hyperbolic", "transfer_function",
                 "verify_isomorphism", "wave_isomorphism"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def _submodule(name: str):
    # the import statement's own path, not importlib.import_module, so that
    # -X importtime reports the modules loaded here; importing a submodule
    # binds it in this namespace, so this runs once per submodule
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _submodule(name)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_submodule(_MODULE_OF[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF) | set(_EXPORTS))
