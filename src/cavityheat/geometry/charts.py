"""Parametric surface charts with exact derivative oracles.

A chart embeds a parameter rectangle into R^3.  Charts built from
symbolic expressions differentiate the embedding exactly (to any order);
charts wrapping a bare callable fall back to Richardson-extrapolated
central differences and emit a warning about the reduced accuracy.

Orientation convention: the unit normal reported by a chart is the
*inward* normal of the enclosed solid.  ``normal_sign`` orients the raw
cross product r_u x r_v accordingly, so that a sphere of radius R
parametrised the usual way carries tr L = +2/R and det L = +1/R^2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import sympy as sp

from ..errors import ChartError, SingularChartError

__all__ = [
    "ChartError",
    "SingularChartError",
    "SurfaceChart",
]

# Functions admitted in user-supplied embedding expressions.
ALLOWED_FUNCTIONS = {
    "sin": sp.sin,
    "cos": sp.cos,
    "sinh": sp.sinh,
    "cosh": sp.cosh,
    "exp": sp.exp,
    "sqrt": sp.sqrt,
}


def _broadcast_components(values, u, v):
    """Stack lambdified component results into a (3, ...) float array."""
    shape = np.broadcast(u, v).shape
    out = np.empty((3,) + shape, dtype=float)
    for i, val in enumerate(values):
        out[i] = val
    return out


class _SymbolicDerivs:
    """Derivative oracle backed by symbolic differentiation."""

    def __init__(self, u, v, components):
        self.u = u
        self.v = v
        self.components = tuple(sp.sympify(c) for c in components)
        self._fns = {}

    def __call__(self, du, dv):
        key = (du, dv)
        fn = self._fns.get(key)
        if fn is None:
            exprs = [sp.diff(c, self.u, du, self.v, dv) for c in self.components]
            raw = sp.lambdify((self.u, self.v), exprs, modules="numpy", cse=True)

            def fn(uu, vv, _raw=raw):
                uu = np.asarray(uu, dtype=float)
                vv = np.asarray(vv, dtype=float)
                return _broadcast_components(_raw(uu, vv), uu, vv)

            self._fns[key] = fn
        return fn


class _FiniteDifferenceDerivs:
    """Derivative oracle via nested Richardson central differences.

    Fallback for charts defined by a bare callable.  Accuracy decays with
    the derivative order (roughly 1e-10 for first, 1e-6 for third order);
    symbolic charts should be preferred whenever expressions exist.
    """

    def __init__(self, fn, u_span, v_span, rel_step=1e-3):
        self.fn = fn
        self.hu = rel_step * u_span
        self.hv = rel_step * v_span
        self._fns = {}

    def _derive(self, base, which):
        h = self.hu if which == "u" else self.hv

        def d(u, v, _f=base, _h=h, _which=which):
            def shift(s):
                if _which == "u":
                    return _f(u + s, v)
                return _f(u, v + s)

            d1 = (shift(_h) - shift(-_h)) / (2.0 * _h)
            d2 = (shift(_h / 2) - shift(-_h / 2)) / (_h)
            return (4.0 * d2 - d1) / 3.0

        return d

    def __call__(self, du, dv):
        key = (du, dv)
        fn = self._fns.get(key)
        if fn is None:
            if du + dv == 0:
                def fn(u, v):
                    u = np.asarray(u, dtype=float)
                    v = np.asarray(v, dtype=float)
                    return _broadcast_components(self.fn(u, v), u, v)
            elif dv > 0:
                fn = self._derive(self(du, dv - 1), "v")
            else:
                fn = self._derive(self(du - 1, 0), "u")
            self._fns[key] = fn
        return fn


@dataclass(frozen=True, eq=False)
class SurfaceChart:
    """One parametric patch of a surface, with its derivative oracle.

    Parameters are restricted to the open rectangle
    (u_range[0], u_range[1]) x (v_range[0], v_range[1]); periodic
    directions identify the two edges.  Coordinate singularities (e.g.
    sphere poles) must sit on the closed boundary of the rectangle, where
    quadrature nodes never land.
    """

    name: str
    u_range: tuple
    v_range: tuple
    periodic_u: bool
    periodic_v: bool
    normal_sign: int
    _derivs: object

    # -- construction --------------------------------------------------

    @classmethod
    def from_expressions(cls, x, y, z, *, u_range, v_range,
                         periodic_u=False, periodic_v=False,
                         normal_sign=1, params=None, name="chart"):
        """Build a chart from sympy expressions (or strings) in u, v.

        ``params`` maps symbol names to numeric values; they are
        substituted before compilation so the chart is self-contained.
        """
        u, v = sp.symbols("u v", real=True)
        local = {"u": u, "v": v, "pi": sp.pi}
        local.update(ALLOWED_FUNCTIONS)
        comps = []
        for c in (x, y, z):
            e = sp.sympify(c, locals=dict(local)) if isinstance(c, str) else sp.sympify(c)
            if params:
                e = e.subs({sp.Symbol(k, real=True): val for k, val in params.items()})
                e = e.subs({sp.Symbol(k): val for k, val in params.items()})
            free = e.free_symbols - {u, v}
            if free:
                raise ChartError(f"unbound symbols in embedding: {sorted(map(str, free))}")
            comps.append(e)
        if normal_sign not in (-1, 1):
            raise ChartError("normal_sign must be +1 or -1")
        return cls(
            name=name,
            u_range=(float(u_range[0]), float(u_range[1])),
            v_range=(float(v_range[0]), float(v_range[1])),
            periodic_u=bool(periodic_u),
            periodic_v=bool(periodic_v),
            normal_sign=int(normal_sign),
            _derivs=_SymbolicDerivs(u, v, comps),
        )

    @classmethod
    def from_callable(cls, fn, *, u_range, v_range, periodic_u=False,
                      periodic_v=False, normal_sign=1, name="chart",
                      rel_step=1e-3):
        """Build a chart from a bare callable (u, v) -> (3, ...) array.

        Derivatives are approximated by central differences; fine for
        exploratory work, too noisy for high-order curvature integrals.
        """
        warnings.warn(
            f"chart {name!r}: derivatives obtained by finite differences; "
            "supply expressions for exact results",
            stacklevel=2,
        )
        u_span = float(u_range[1]) - float(u_range[0])
        v_span = float(v_range[1]) - float(v_range[0])
        return cls(
            name=name,
            u_range=(float(u_range[0]), float(u_range[1])),
            v_range=(float(v_range[0]), float(v_range[1])),
            periodic_u=bool(periodic_u),
            periodic_v=bool(periodic_v),
            normal_sign=int(normal_sign),
            _derivs=_FiniteDifferenceDerivs(fn, u_span, v_span, rel_step),
        )

    # -- oracle --------------------------------------------------------

    def deriv(self, du, dv):
        """Return the vectorised evaluator of d^(du+dv) r / du^du dv^dv."""
        if du < 0 or dv < 0:
            raise ChartError("derivative orders must be non-negative")
        return self._derivs(du, dv)

    def position(self, u, v):
        return self.deriv(0, 0)(u, v)

    @property
    def u_span(self):
        return self.u_range[1] - self.u_range[0]

    @property
    def v_span(self):
        return self.v_range[1] - self.v_range[0]
