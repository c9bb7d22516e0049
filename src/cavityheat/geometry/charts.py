"""Parametric surface charts given by expressions in u and v.

A chart embeds a parameter rectangle into R^3 through three expressions
in the grammar of :mod:`cavityheat.surfacefile`.  They are compiled once
into evaluators of truncated Taylor series (:mod:`.jets`), so every
derivative of the embedding is exact up to rounding, at any order and
on any array of points.

Orientation convention: the unit normal reported by a chart is the
*inward* normal of the enclosed solid.  ``normal_sign`` orients the raw
cross product r_u x r_v accordingly, so that a sphere of radius R
parametrised the usual way carries tr L = +2/R and det L = +1/R^2.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass

import numpy as np

from ..errors import ChartError, ExpressionError, SingularChartError
from . import jets

__all__ = [
    "ChartError",
    "SingularChartError",
    "SurfaceChart",
    "compile_expression",
]

# the functions of the grammar: (float version, jet version)
_FUNCTIONS = {
    "sin": (math.sin, jets.sin),
    "cos": (math.cos, jets.cos),
    "sinh": (math.sinh, jets.sinh),
    "cosh": (math.cosh, jets.cosh),
    "exp": (math.exp, jets.exp),
    "sqrt": (math.sqrt, jets.sqrt),
}
_BINOPS = {ast.Add: (operator.add,) * 2, ast.Sub: (operator.sub,) * 2,
           ast.Mult: (operator.mul,) * 2, ast.Div: (operator.truediv,) * 2,
           # math.pow raises where float ** float would turn complex
           ast.Pow: (math.pow, operator.pow)}
_UNARY = {ast.UAdd: (operator.pos,) * 2, ast.USub: (operator.neg,) * 2}
_MAX_DEPTH = 300
_TOO_DEEP = f"expression nested more than {_MAX_DEPTH} levels deep"


def compile_expression(text, names, variables=()):
    """Compile one expression of the grammar.

    ``names`` binds names to floats; ``variables`` (a subset of
    ("u", "v")) are left free.  Every sub-expression free of them is
    evaluated here, so an arithmetic error in it raises
    :class:`ExpressionError` with its 0-based offset.  Returns a float,
    or a function of the u and v jets returning the expression's jet.
    """
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError as err:
        raise ExpressionError(f"syntax error in expression: {err.msg}",
                              (err.offset or 1) - 1) from None
    except RecursionError:
        raise ExpressionError(_TOO_DEEP, 0) from None
    return _compile(tree.body, names, variables)


def _compile(node, names, variables):
    def fail(msg, n):
        raise ExpressionError(msg, n.col_offset)

    def apply(n, ops, *args):
        """ops = (float op, jet op) on the compiled args: a float now, or
        a function of the u and v jets."""
        if any(callable(a) for a in args):
            op = ops[1]
            return lambda u, v: op(*(a(u, v) if callable(a) else a
                                     for a in args))
        try:
            value = ops[0](*args)
        except OverflowError:
            fail("value overflows a float", n)
        except ValueError:
            fail("math domain error", n)
        if not math.isfinite(value):
            fail("non-finite value", n)
        return value

    def conv(n, depth=0):
        # the compiled closures nest as deep as the expression; the
        # bound keeps compiling and evaluating inside the interpreter's
        # recursion limit
        if depth > _MAX_DEPTH:
            fail(_TOO_DEEP, n)
        depth += 1
        if isinstance(n, ast.Constant):
            if type(n.value) in (int, float):
                return apply(n, (float, None), n.value)
            fail(f"unsupported literal {n.value!r}", n)
        if isinstance(n, ast.Name):
            if n.id in variables:
                return (lambda u, v: u) if n.id == "u" else (lambda u, v: v)
            if n.id in names:
                return names[n.id]
            fail(f"unknown name {n.id!r} (declare it with 'param')", n)
        if isinstance(n, ast.UnaryOp) and type(n.op) in _UNARY:
            return apply(n, _UNARY[type(n.op)], conv(n.operand, depth))
        if isinstance(n, ast.BinOp) and type(n.op) in _BINOPS:
            left, right = conv(n.left, depth), conv(n.right, depth)
            if isinstance(n.op, ast.Div) and right == 0:
                fail("division by zero", n)
            return apply(n, _BINOPS[type(n.op)], left, right)
        if isinstance(n, ast.Call):
            if not isinstance(n.func, ast.Name):
                fail("only plain function calls are allowed", n)
            fname = n.func.id
            if fname not in _FUNCTIONS:
                fail(f"unknown function {fname!r} (allowed: "
                     f"{', '.join(sorted(_FUNCTIONS))})", n)
            if len(n.args) != 1 or n.keywords:
                fail(f"{fname} takes exactly one argument", n)
            return apply(n, _FUNCTIONS[fname], conv(n.args[0], depth))
        fail(f"unsupported syntax ({type(n).__name__})", n)

    return conv(node)


@dataclass(frozen=True, eq=False)
class SurfaceChart:
    """One parametric patch of a surface.

    Parameters are restricted to the open rectangle
    (u_range[0], u_range[1]) x (v_range[0], v_range[1]); periodic
    directions identify the two edges.  Coordinate singularities (e.g.
    sphere poles) must sit on the closed boundary of the rectangle, where
    quadrature nodes never land.  ``xyz`` holds the compiled embedding
    components (see :func:`compile_expression`).
    """

    name: str
    u_range: tuple
    v_range: tuple
    periodic_u: bool
    periodic_v: bool
    normal_sign: int
    xyz: tuple

    @classmethod
    def from_expressions(cls, x, y, z, *, u_range, v_range,
                         periodic_u=False, periodic_v=False,
                         normal_sign=1, params=None, name="chart"):
        """Build a chart from expression strings in u, v.

        ``params`` maps further names to numbers.
        """
        names = {"pi": math.pi}
        names.update({k: float(val) for k, val in (params or {}).items()})
        xyz = tuple(compile_expression(str(c), names, ("u", "v"))
                    for c in (x, y, z))
        if normal_sign not in (-1, 1):
            raise ChartError("normal_sign must be +1 or -1")
        return cls(
            name=name,
            u_range=(float(u_range[0]), float(u_range[1])),
            v_range=(float(v_range[0]), float(v_range[1])),
            periodic_u=bool(periodic_u),
            periodic_v=bool(periodic_v),
            normal_sign=int(normal_sign),
            xyz=xyz,
        )

    def jet(self, u, v, order):
        """The embedding's jet of the given order at the points (u, v).

        Its values have shape (3, *broadcast shape of u and v).
        """
        ju, jv = jets.Jet.variable(u, 0, order), jets.Jet.variable(v, 1, order)
        shape = np.broadcast_shapes(np.shape(u), np.shape(v))
        return jets.stack([f(ju, jv) if callable(f)
                           else jets.Jet.constant(np.full(shape, f), order)
                           for f in self.xyz])

    def deriv(self, du, dv):
        """Return the vectorised evaluator of d^(du+dv) r / du^du dv^dv."""
        if du < 0 or dv < 0:
            raise ChartError("derivative orders must be non-negative")
        return lambda u, v: self.jet(u, v, du + dv).derivative(du, dv)
