"""Curvature of parametric surfaces from one jet of the embedding.

Each evaluation takes the chart's embedding as a truncated Taylor series
(:mod:`.jets`) and carries the fundamental forms, the inward unit normal
and the shape operator through jet arithmetic, so every quantity is
exact up to rounding: an order-1 jet gives the position, normal and
metric, order 2 the curvatures, order 3 the tangential gradient of
tr L, and order 4 its Laplace-Beltrami.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from . import jets
from .charts import SingularChartError, SurfaceChart

__all__ = ["curvature_grid"]

# |r_u x r_v| / (|r_u||r_v|) below this means the parametrisation is
# effectively degenerate at the point.
_SINGULAR_SINE = 1e-10
# nodes per evaluation block (see _blockwise)
_BLOCK = 1 << 13
# glibc malloc thresholds set by _retain_heap: arrays up to the first
# come from the heap, and a free heap top up to the second stays there
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20
# the fields of curvature_grid at each order, in the order it returns
# them; the first eight need only first derivatives of the embedding
_FIELDS = {2: ("r", "ru", "rv", "n", "w", "E", "F", "G",
               "e", "f", "g2", "trL", "detL")}
_FIELDS[3] = _FIELDS[2] + ("Hu", "Hv", "grad_trL_sq")
_FIELDS[4] = _FIELDS[3] + ("lap_trL",)
_FIRST_ORDER = frozenset(_FIELDS[2][:8])


def _dot(a, b):
    return (a * b).sum(0)


def _cross(a, b):
    return a[[1, 2, 0]] * b[[2, 0, 1]] - a[[2, 0, 1]] * b[[1, 2, 0]]


def surface_jets(chart: SurfaceChart, u, v, order):
    """Jets of the local surface fields from one order-``order`` jet of
    the embedding at the points (u, v).

    Position ``r`` keeps the full order; tangents ``ru, rv``, inward
    unit normal ``n``, area element ``w`` and metric ``E, F, G`` are
    jets of order ``max(order - 2, 0)``.  At order 1 the fields stop
    after the normal; from order 2 the second fundamental form
    ``e, f, g2`` follows, of order ``order - 2``.  Raises
    ``SingularChartError`` where the immersion degenerates.
    """
    r = chart.jet(u, v, order)
    k = max(order - 2, 0)
    ru, rv = r.d(1, 0, k), r.d(0, 1, k)
    E, F, G = _dot(ru, ru), _dot(ru, rv), _dot(rv, rv)
    cross = _cross(ru, rv)
    with np.errstate(invalid="ignore", divide="ignore"):
        w = jets.sqrt(_dot(cross, cross))
        sine = w.value / np.sqrt(E.value * G.value)
    sine = np.where(np.isfinite(sine), sine, 0.0)
    if sine.size and not np.min(sine) >= _SINGULAR_SINE:
        at = np.unravel_index(int(np.argmin(sine)), np.shape(sine))
        ub, vb = (np.broadcast_to(x, np.shape(sine))[at] for x in (u, v))
        raise SingularChartError(chart.name, float(ub), float(vb),
                                 float(np.min(sine)))

    n = cross * (chart.normal_sign / w)
    s = {"r": r, "ru": ru, "rv": rv, "n": n, "w": w, "E": E, "F": F, "G": G}
    if order >= 2:
        s["e"], s["f"], s["g2"] = (_dot(n, r.d(2, 0)), _dot(n, r.d(1, 1)),
                                   _dot(n, r.d(0, 2)))
    return s


@functools.cache
def _retain_heap():
    """Keep freed block temporaries in the C heap (glibc only).

    Under glibc's adaptive defaults, whether the heap top a block leaves
    goes back to the kernel, to be faulted in again page by page for
    the next block, depends on where earlier allocations landed: the
    same eight surfaces took 36,000 to 131,000 page faults and 1.09 to
    1.49 s from one process to the next.  Fixed thresholds above a grid
    evaluation's footprint (under 15 MiB on a 65,536-node grid: one
    block's jets plus the named fields) take that to under 2,000 faults
    and about 1.0 s in every process.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return False
    except (AttributeError, ValueError, OSError):
        return False
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    # M_MMAP_THRESHOLD = -3, M_TRIM_THRESHOLD = -1 in <malloc.h>
    return bool(mallopt(-3, _MMAP_THRESHOLD) and mallopt(-1, _TRIM_THRESHOLD))


def _blockwise(fields, u, v, block=_BLOCK):
    """``fields(u, v)``, a dict of arrays, evaluated on blocks of the
    broadcast (u, v) grid and assembled.

    The first axis whose trailing rows fit in ``block`` nodes is cut
    into blocks of rows, and each axis before it is taken one index at a
    time, so any point shape, (40000,), (1, 40000) or (4, 100, 100),
    runs in blocks of at most ``block`` nodes.  An input of size 1 along
    an axis is passed whole along it (an open mesh keeps its row
    blocks).  Only the arrays ``fields`` returns get a whole-grid
    output; one block's jets (about 7 MiB at order 3, 13 MiB at order 4
    with ``_BLOCK``) are alive at a time, and their memory is reused
    from block to block (:func:`_retain_heap`).  Every field is
    elementwise in the points, so the result does not depend on the
    blocking.
    """
    _retain_heap()
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    shape = np.broadcast_shapes(u.shape, v.shape)
    if math.prod(shape) <= block:
        return fields(u, v)
    axis = next(k for k in range(len(shape))
                if math.prod(shape[k + 1:]) <= block)
    step = block // math.prod(shape[axis + 1:])
    tail = (slice(None),) * (len(shape) - axis - 1)
    u, v = (x.reshape((1,) * (len(shape) - x.ndim) + x.shape) for x in (u, v))
    out = {}
    for lead in np.ndindex(shape[:axis]):
        for lo in range(0, shape[axis], step):
            cut = tuple(slice(i, i + 1) for i in lead) + (slice(lo, lo + step),)
            part = fields(*(x[tuple(c if n > 1 else slice(None)
                                    for c, n in zip(cut, x.shape))]
                            for x in (u, v)))
            for name, val in part.items():
                if name not in out:
                    out[name] = np.empty(val.shape[:val.ndim - len(shape)]
                                         + shape)
                out[name][(Ellipsis,) + cut + tail] = val
            del part, val       # free this block's jets before the next
    return out


def curvature_grid(chart: SurfaceChart, u, v, order=2, names=None):
    """Evaluate the surface fields at an array of parameter points.

    u and v broadcast against each other (a quadrature grid passes its
    open mesh).  Returns a dict of arrays.  ``order`` is 2, 3 or 4:
    order 2 gives position ``r``, area element ``w``, inward unit
    normal ``n`` and the metric and shape data; order 3 adds the
    parameter derivatives ``Hu, Hv`` of tr L and ``grad_trL_sq``, the
    squared tangential gradient |grad tr L|^2; order 4 also adds
    ``lap_trL``, the Laplace-Beltrami of tr L, lap f = (d_u P + d_v Q)
    / w with the metric fluxes P = (G f_u - F f_v)/w and
    Q = (E f_v - F f_u)/w.

    ``names``, if given, selects the fields returned; the others are
    never assembled on the grid.  A name that ``order`` does not
    provide raises ``ValueError``.  One embedding jet serves every
    field: of order 1 when each name is one of ``r, ru, rv, n, w, E,
    F, G``, which need only first derivatives, and of ``order``
    otherwise.  The values do not depend on that choice.
    """
    if order not in _FIELDS:
        raise ValueError(f"curvature order must be 2, 3 or 4, got {order!r}")
    names = _FIELDS[order] if names is None else tuple(names)
    unknown = [name for name in names if name not in _FIELDS[order]]
    if unknown:
        raise ValueError(f"no curvature field {unknown[0]!r} at order "
                         f"{order}; expected one of "
                         f"{', '.join(_FIELDS[order])}")
    jet_order = 1 if _FIRST_ORDER.issuperset(names) else order

    def fields(u, v):
        s = surface_jets(chart, u, v, jet_order)
        out = {name: jet.value for name, jet in s.items()}
        if jet_order >= 2:
            E, F, G = s["E"], s["F"], s["G"]
            den = E * G - F * F
            inv = den ** -1             # shared by tr L and det L
            trL = (s["e"] * G - 2.0 * s["f"] * F + s["g2"] * E) * inv
            out["trL"] = trL.value
            # det L is never differentiated: formed from values
            out["detL"] = ((out["e"] * out["g2"] - out["f"] * out["f"])
                           * inv.value)
        if jet_order >= 3:
            Hu, Hv = trL.derivative(1, 0), trL.derivative(0, 1)
            out["Hu"], out["Hv"] = Hu, Hv
            out["grad_trL_sq"] = ((out["G"] * Hu ** 2
                                   - 2.0 * out["F"] * Hu * Hv
                                   + out["E"] * Hv ** 2) / den.value)
        if jet_order == 4:
            w = s["w"]
            Hu, Hv = trL.d(1, 0), trL.d(0, 1)
            P = (G * Hu - F * Hv) / w
            Q = (E * Hv - F * Hu) / w
            out["lap_trL"] = (P.d(1, 0).value + Q.d(0, 1).value) / w.value
        return {name: out[name] for name in names}

    return _blockwise(fields, u, v)
