"""Exception hierarchy shared by all acalc modules."""

from __future__ import annotations


class AcalcError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------------------
# algebra construction / arithmetic
# ---------------------------------------------------------------------------

class DimensionMismatch(AcalcError):
    """Input shapes are inconsistent with the algebra dimension."""


class AssociativityViolation(AcalcError):
    """The structure tensor fails (v_i v_j) v_l = v_i (v_j v_l)."""

    def __init__(self, i: int, j: int, l: int, m: int, residual: float):
        self.i, self.j, self.l, self.m = i, j, l, m
        self.residual = residual
        super().__init__(
            f"associativity fails on basis triple ({i}, {j}, {l}), "
            f"component {m}: residual {residual:g}"
        )


class UnityViolation(AcalcError):
    """The declared unity does not act as a two-sided identity."""

    def __init__(self, j: int):
        self.j = j
        super().__init__(f"unity axiom fails on basis vector {j}")


class AlgebraMismatch(AcalcError):
    """Elements of different algebras were mixed in one operation."""


class NotAUnit(AcalcError):
    """Inversion was requested for a zero or zero-divisor element."""

    def __init__(self, message: str, classification=None):
        self.classification = classification
        super().__init__(message)


class MissingField(AcalcError, KeyError):
    """A function, curve, map or algebra file lacks a field its format needs."""

    def __init__(self, path: str, field: str):
        self.path, self.field = path, field
        super().__init__(f"{path}: missing field {field!r}")

    __str__ = Exception.__str__  # KeyError's would print the message quoted


class UnknownAlgebra(AcalcError, KeyError):
    """An algebra name that is neither a bundled fixture nor one of its aliases."""

    __str__ = Exception.__str__  # KeyError's would print the message quoted


class SearchFailed(AcalcError):
    """A bounded search (e.g. for an invertible basis) exhausted its attempts."""


# ---------------------------------------------------------------------------
# expression language
# ---------------------------------------------------------------------------

class ExprError(AcalcError):
    """Base class for expression parsing/evaluation errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"syntax error at position {position}: expected {expected}")


class UnknownVariable(ExprError):
    def __init__(self, name: str, position: int):
        self.name = name
        self.position = position
        super().__init__(f"unknown variable or function '{name}' at position {position}")


class ArityError(ExprError):
    def __init__(self, name: str, position: int, got: int):
        self.name = name
        self.position = position
        super().__init__(f"function '{name}' takes one argument, got {got} (position {position})")


class DomainError(ExprError):
    """Evaluation left the real domain (log/sqrt of a negative, division by zero)."""


# ---------------------------------------------------------------------------
# calculus / equation generation
# ---------------------------------------------------------------------------

class NotADifferentiable(AcalcError):
    """The function failed the differentiability test at the given point."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"function is not algebra-differentiable here (residual {residual:g})")


class NonInvertibleBasis(AcalcError):
    """Conjugate variables need a basis of units starting with the unity."""


class NonCommutativeUnsupported(AcalcError):
    """The operation is only defined for commutative algebras."""


class CombinatorialLimit(AcalcError):
    """The requested order/dimension combination is too large."""


# ---------------------------------------------------------------------------
# isomorphisms / integration
# ---------------------------------------------------------------------------

class NotAnIsomorphism(AcalcError):
    """The linear map is not a verified algebra isomorphism."""


class QuadratureNonConvergence(AcalcError):
    """Adaptive quadrature hit its depth or row cap before reaching tolerance.

    ``estimate`` holds the current value of every piece, one row each, and
    ``error_bound`` the sum of the |K15 - G7| of all intervals.
    """

    def __init__(self, estimate, error_bound: float):
        self.estimate = estimate
        self.error_bound = error_bound
        super().__init__(f"quadrature did not converge (error bound {error_bound:g})")
