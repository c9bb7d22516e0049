"""Truncated bivariate Taylor arithmetic ("jets"): the package's one way
to differentiate a surface.

A jet of order k carries, for every entry of a field, the coefficients
c_ij (i + j <= k) of f(u + s, v + t) = sum c_ij s^i t^j, which is
(k + 1)(k + 2)/2 numbers, 15 at order 4.  The coefficient axis comes
first, ``c.shape == (size(k), *value_shape)``, ordered by total degree
and within a degree by the power of t, so a truncation is a prefix and
a vector or matrix field is one jet.  Value shapes broadcast as numpy
arrays do, aligned from the right: on the open mesh of a quadrature
grid (u of shape (n, 1), v of shape (1, m)) a factor that depends on u
alone is carried at n points, not n * m.  A matrix field keeps its two
index axes first and its point axes last; ``T`` and ``@`` act on those
index axes.

Sums act coefficient-wise, products are truncated Cauchy convolutions,
d/du and d/dv shift coefficients and lower the order by one, and an
elementary function f enters through its Taylor polynomial at the
constant term, f(x) = sum_n f^(n)(x_0)/n! (x - x_0)^n (Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).  ``dep`` records
which of u and v a jet varies with, so the product of a u-only and a
v-only factor costs one multiplication per coefficient.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

__all__ = ["Jet", "size", "stack", "sin", "cos", "sinh", "cosh", "exp",
           "sqrt", "log"]

U, V = 1, 2          # bits of ``Jet.dep``
# a product whose gathered terms hold at most this many numbers is
# summed in one vectorised step, a larger one term by term, so that a
# product on a grid holds a single grid-sized temporary
_GATHER_LIMIT = 1 << 14


def size(order):
    """Number of coefficients of a jet of the given order."""
    return (order + 1) * (order + 2) // 2


def _index(i, j):
    d = i + j
    return d * (d + 1) // 2 + j


@functools.cache
def _monomials(order):
    return tuple((d - j, j) for d in range(order + 1) for j in range(d + 1))


def _varies(i, j, dep):
    return (i == 0 or dep & U) and (j == 0 or dep & V)


@functools.cache
def _terms(order, dx, dy):
    """The (a, b) coefficient pairs of each product coefficient.

    Returns the groups [(out, [(a, b), ...])], flattened the output
    indices, the a and b indices and each group's start, and whether
    every coefficient is a single term.
    """
    groups = []
    for o, (i, j) in enumerate(_monomials(order)):
        pairs = [(_index(p, q), _index(i - p, j - q))
                 for p in range(i + 1) for q in range(j + 1)
                 if _varies(p, q, dx) and _varies(i - p, j - q, dy)]
        if pairs:
            groups.append((o, pairs))
    flat = [pair for _, pairs in groups for pair in pairs]
    starts = np.cumsum([0] + [len(pairs) for _, pairs in groups[:-1]])
    single = len(flat) == len(groups) == size(order)
    return (groups, np.array([o for o, _ in groups]),
            np.array([a for a, _ in flat]), np.array([b for _, b in flat]),
            starts, single)


@functools.cache
def _shift(order, du, dv):
    """Source indices and factors of the order-``order`` jet of
    d^(du+dv) f / du^du dv^dv."""
    src, fac = [], []
    for i, j in _monomials(order):
        src.append(_index(i + du, j + dv))
        fac.append(math.perm(i + du, du) * math.perm(j + dv, dv))
    return np.array(src), np.array(fac, dtype=float)


def _array(x):
    """x as an array of its floating-point precision, at least double."""
    return np.asarray(x, dtype=np.result_type(x, float))


def _pad(c, ndim):
    """Coefficient array c with ndim value axes (new ones leading)."""
    return c.reshape(c.shape[:1] + (1,) * (ndim + 1 - c.ndim) + c.shape[1:])


def _convolve(a, b, order, dx, dy):
    groups, outs, ia, ib, starts, single = _terms(order, dx, dy)
    if order == 0:
        return a * b
    if single:
        return a[ia] * b[ib]
    if len(ia) * max(a.size // len(a), b.size // len(b)) <= _GATHER_LIMIT:
        terms = np.add.reduceat(a[ia] * b[ib], starts, axis=0)
        if len(outs) == size(order):
            return terms
        out = np.zeros((size(order),) + terms.shape[1:], dtype=terms.dtype)
        out[outs] = terms
        return out
    shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    dtype = np.result_type(a, b)
    out = np.zeros((size(order),) + shape, dtype=dtype)
    term = np.empty(shape, dtype=dtype)
    for o, pairs in groups:
        np.multiply(a[pairs[0][0]], b[pairs[0][1]], out=out[o])
        for p, q in pairs[1:]:
            out[o] += np.multiply(a[p], b[q], out=term)
    return out


class Jet:
    """A field and its Taylor coefficients in (u, v) up to ``order``."""

    __slots__ = ("c", "order", "dep")
    __array_ufunc__ = None       # ndarray (op) Jet defers to the Jet

    def __init__(self, c, order, dep=U | V):
        self.c, self.order, self.dep = c, order, dep

    @classmethod
    def constant(cls, x, order):
        """The jet of x, in its floating-point precision (at least double)."""
        x = _array(x)
        c = np.zeros((size(order),) + x.shape, dtype=x.dtype)
        c[0] = x
        return cls(c, order, 0)

    @classmethod
    def variable(cls, x, axis, order):
        """The jet of u (axis 0) or v (axis 1) at the points x."""
        jet = cls.constant(x, order)
        jet.c[1 + axis:2 + axis] = 1.0
        jet.dep = U if axis == 0 else V
        return jet

    @property
    def value(self):
        return self.c[0]

    @property
    def T(self):
        return Jet(self.c.swapaxes(1, 2), self.order, self.dep)

    def __matmul__(self, other):
        return (self[:, :, None] * other[None]).sum(1)

    def derivative(self, du, dv):
        """d^(du+dv) f / du^du dv^dv at the base points."""
        return (math.factorial(du) * math.factorial(dv)
                * self.c[_index(du, dv)])

    def d(self, du=0, dv=0, order=None):
        """The jet of d^(du+dv) f / du^du dv^dv, of order lower by
        du + dv or, if given, ``order``."""
        top = self.order - du - dv
        if top < 0:
            raise ValueError(f"an order-{self.order} jet has no "
                             f"derivative of order {du + dv}")
        order = top if order is None else min(order, top)
        src, fac = _shift(order, du, dv)
        return Jet(_pad(fac, self.c.ndim - 1) * self.c[src], order, self.dep)

    def __getitem__(self, index):
        index = index if isinstance(index, tuple) else (index,)
        return Jet(self.c[(slice(None),) + index], self.order, self.dep)

    def sum(self, axis):
        return Jet(self.c.sum(axis=axis + 1 if axis >= 0 else axis),
                   self.order, self.dep)

    # -- arithmetic ------------------------------------------------------

    def _common(self, other):
        a, b, k = self.c, other.c, self.order
        if other.order != k:
            k = min(k, other.order)
            a, b = a[:size(k)], b[:size(k)]
        if a.ndim != b.ndim:
            nd = max(a.ndim, b.ndim) - 1
            a, b = _pad(a, nd), _pad(b, nd)
        return a, b, k

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b, k = self._common(other)
            return Jet(a + b, k, self.dep | other.dep)
        other = _array(other)
        if other.ndim and other.shape != self.c.shape[1:]:
            return self + Jet.constant(other, self.order)
        c = self.c.copy()
        c[0] += other
        return Jet(c, self.order, self.dep)

    __radd__ = __add__

    def __pos__(self):
        return self

    def __neg__(self):
        return Jet(-self.c, self.order, self.dep)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b, k = self._common(other)
            return Jet(_convolve(a, b, k, self.dep, other.dep), k,
                       self.dep | other.dep)
        other = _array(other)
        c = self.c
        if other.ndim >= c.ndim:
            c = _pad(c, other.ndim)
        return Jet(c * other, self.order, self.dep)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * _power(other, -1.0)
        return self * (1.0 / _array(other))

    def __rtruediv__(self, other):
        return _power(self, -1.0) * other

    def __pow__(self, other):
        if isinstance(other, Jet):
            return exp(other * log(self))
        return _power(self, float(other))

    def __rpow__(self, other):
        return exp(self * np.log(_array(other)))


def stack(jets, axis=0):
    """One jet whose values stack the broadcast values of ``jets``."""
    k = min(j.order for j in jets)
    nd = max(j.c.ndim for j in jets) - 1
    cs = np.broadcast_arrays(*(_pad(j.c[:size(k)], nd) for j in jets))
    return Jet(np.stack(cs, axis=axis + 1 if axis >= 0 else axis), k,
               functools.reduce(operator.or_, (j.dep for j in jets)))


# -- elementary functions ------------------------------------------------

def _compose(x, f):
    """sum_n f[n] (x - x_0)^n, by Horner's rule in jet products."""
    if len(f) == 1:
        return Jet.constant(f[0], x.order)
    h = Jet(x.c.copy(), x.order, x.dep)
    h.c[0] = 0.0
    acc = h * f[-1]
    for fn in f[-2:0:-1]:
        acc = (acc + fn) * h
    return acc + f[0]


def _power(x, p):
    x0 = x.c[0]
    # a non-negative integer power is a polynomial of degree p
    top = min(x.order, int(p)) if p >= 0 and p == int(p) else x.order
    f, binom = [], 1.0
    for n in range(top + 1):
        f.append(binom * x0 ** (p - n))
        binom *= (p - n) / (n + 1)
    return _compose(x, f)


def _periodic(x, cycle):
    """f whose n-th derivative at x_0 is cycle[n % len(cycle)]."""
    return _compose(x, [cycle[n % len(cycle)] / math.factorial(n)
                        for n in range(x.order + 1)])


def sin(x):
    s, c = np.sin(x.c[0]), np.cos(x.c[0])
    return _periodic(x, (s, c, -s, -c))


def cos(x):
    s, c = np.sin(x.c[0]), np.cos(x.c[0])
    return _periodic(x, (c, -s, -c, s))


def sinh(x):
    return _periodic(x, (np.sinh(x.c[0]), np.cosh(x.c[0])))


def cosh(x):
    return _periodic(x, (np.cosh(x.c[0]), np.sinh(x.c[0])))


def exp(x):
    return _periodic(x, (np.exp(x.c[0]),))


def sqrt(x):
    return _power(x, 0.5)


def log(x):
    x0 = x.c[0]
    return _compose(x, [np.log(x0)] + [(-1.0) ** (n + 1) / (n * x0 ** n)
                                        for n in range(1, x.order + 1)])
