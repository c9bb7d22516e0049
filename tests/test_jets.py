"""Truncated Taylor arithmetic against symbolic differentiation."""

import tracemalloc

import numpy as np
import pytest
import sympy as sp

import cavityheat.geometry.curvature as curvature
from cavityheat.geometry import QuadratureSpec, SurfaceChart, torus
from cavityheat.geometry import jets
from cavityheat.geometry.charts import compile_expression

# every operation and function of the surface-file grammar
EXPRESSIONS = [
    "sqrt(1 + u^2*v) * exp(sin(u)) / (2 + cos(u*v))",
    "sinh(u - v)^3 - u^v + 2^(u*v) - cosh(v)/(u + v)^2",
    "(u + 2*v)^0.5 * (1.5 - u)^-2",
]
POINTS = [(0.7, 1.3), (1.1, 0.4)]
ORDER = 4


def fields_up_to(order):
    """Every curvature field whose jet order is at most ``order``."""
    return tuple(name for name, k in curvature._JET_ORDER.items()
                 if k <= order)


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_coefficients_match_symbolic_derivatives(text):
    u, v = sp.symbols("u v")
    expr = sp.sympify(text.replace("^", "**"))
    fn = compile_expression(text, {}, ("u", "v"))
    got = [fn(jets.Jet.variable(u0, 0, ORDER), jets.Jet.variable(v0, 1, ORDER))
           for u0, v0 in POINTS]
    for du in range(ORDER + 1):
        for dv in range(ORDER + 1 - du):
            deriv = sp.lambdify((u, v), sp.diff(expr, u, du, v, dv), "mpmath")
            for jet, point in zip(got, POINTS):
                want = float(deriv(*point))
                assert jet.derivative(du, dv) == pytest.approx(
                    want, rel=1e-12, abs=1e-12), (du, dv, point)


def test_gathered_and_termwise_products_agree(monkeypatch):
    """The two summation orders of a product: one vectorised gather for
    small values, term by term for grid-sized ones."""
    rng = np.random.default_rng(3)
    a = jets.Jet(rng.normal(size=(jets.size(ORDER), 3, 5)), ORDER)
    b = jets.Jet(rng.normal(size=(jets.size(ORDER), 5)), ORDER)
    gathered = (a * b).c
    monkeypatch.setattr(jets, "_GATHER_LIMIT", 0)
    termwise = (a * b).c
    scale = np.abs(a.c).max() * np.abs(b.c).max() * 9
    assert (np.max(np.abs(termwise - gathered))
            <= 4 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("points", [(), (4,), (2, 3)])
def test_transpose_and_matmul_act_on_the_index_axes(points):
    """A matrix field has index axes [i, j] first and its point axes
    last; T and @ are the pointwise matrix operations at every order."""
    rng = np.random.default_rng(5)
    a = jets.Jet(rng.normal(size=(jets.size(2), 2, 3) + points), 2)
    b = jets.Jet(rng.normal(size=(jets.size(2), 3, 2) + points), 2)
    assert np.array_equal(a.T.c, np.einsum("kij...->kji...", a.c))
    # Leibniz: the product coefficient (1, 1) of d^2/du dv
    want = sum(np.einsum("ij...,jk...->ik...", a.c[p], b.c[q])
               for p, q in [(0, 4), (1, 2), (2, 1), (4, 0)])
    assert np.allclose((a @ b).c[4], want, rtol=1e-14, atol=1e-14)
    assert (a @ b).c.shape == (jets.size(2), 2, 2) + points


def test_derivative_shifts_compose():
    fn = compile_expression(EXPRESSIONS[0], {}, ("u", "v"))
    jet = fn(jets.Jet.variable(0.7, 0, ORDER),
             jets.Jet.variable(1.3, 1, ORDER))
    for du, dv in [(1, 0), (0, 2), (1, 1)]:
        d = jet.d(du, dv)
        assert d.order == ORDER - du - dv
        assert d.value == pytest.approx(jet.derivative(du, dv), rel=1e-15)
        assert d.d(1, 1).value == pytest.approx(
            jet.derivative(du + 1, dv + 1), rel=1e-14)


def test_open_mesh_and_blocks_change_no_value(monkeypatch):
    chart = torus(2.0, 0.5).charts[0]
    U, V, _ = QuadratureSpec(order=8).grid(chart)
    assert U.shape == (16, 1) and V.shape == (1, 16)
    sparse = curvature.curvature_grid(chart, U, V)
    full = curvature.curvature_grid(chart, *np.broadcast_arrays(U, V))
    monkeypatch.setattr(curvature, "_BLOCK", 40)
    blocked = curvature.curvature_grid(chart, U, V)
    for name, value in sparse.items():
        assert np.array_equal(value, full[name]), name
        assert np.array_equal(value, blocked[name]), name


@pytest.mark.parametrize("order, names", [
    (2, ("w",)),
    (2, ("r", "n")),
    (3, ("w",)),
    (4, ("r", "n")),
    (4, ("ru", "rv", "E", "F", "G")),
    (3, ("w", "trL", "detL", "grad_trL_sq")),
    (4, ("w", "trL", "lap_trL")),
])
def test_named_fields_equal_the_full_grid(monkeypatch, order, names):
    # the named fields, on the jet order they need, equal those of an
    # order-``order`` grid and of the full order-4 grid
    chart = torus(2.0, 0.5).charts[0]
    U, V, _ = QuadratureSpec(order=8).grid(chart)
    monkeypatch.setattr(curvature, "_BLOCK", 40)    # eight blocks of 2 rows
    full = curvature.curvature_grid(chart, U, V)
    upto = curvature.curvature_grid(chart, U, V, names=fields_up_to(order))
    named = curvature.curvature_grid(chart, U, V, names=names)
    assert tuple(named) == names
    for name in names:
        assert np.array_equal(named[name], full[name]), name
        assert np.array_equal(named[name], upto[name]), name


@pytest.mark.parametrize("order, names, jet_order", [
    (4, ("r", "n", "w", "E", "F", "G", "ru", "rv"), 1),
    (2, ("w", "e"), 2),
    (3, ("w", "detL"), 2),
    (4, ("lap_trL",), 4),
    (3, None, 4),
])
def test_jet_order_follows_the_names(monkeypatch, order, names, jet_order):
    # one embedding jet, of the highest order a named field needs (every
    # field when none is named); the fields up to an order take a jet of
    # that order
    orders = []
    surface_jets = curvature.surface_jets

    def counted(chart, u, v, order):
        orders.append(order)
        return surface_jets(chart, u, v, order)

    monkeypatch.setattr(curvature, "surface_jets", counted)
    chart = torus(2.0, 0.5).charts[0]
    U, V, _ = QuadratureSpec(order=8).grid(chart)
    curvature.curvature_grid(chart, U, V, names=names)
    curvature.curvature_grid(chart, U, V, names=fields_up_to(order))
    assert orders == [jet_order, order]


@pytest.mark.parametrize("shape", [(1, 40000), (4, 100, 100)])
def test_any_point_shape_runs_in_blocks(shape):
    # a block cuts the first axis whose rows fit and steps the axes
    # before it, so wide rows get the same memory bound as a flat list
    chart = torus(2.0, 0.5).charts[0]
    u, v = np.random.default_rng(6).uniform(0.0, 2 * np.pi, (2, 40000))
    flat = curvature.curvature_grid(chart, u, v, names=("w",))
    tracemalloc.start()
    try:
        shaped = curvature.curvature_grid(chart, u.reshape(shape),
                                          v.reshape(shape), names=("w",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(shaped["w"], flat["w"].reshape(shape))
    assert peak < 10 << 20, peak


def test_zero_points_give_empty_fields():
    chart = torus(2.0, 0.5).charts[0]
    g = curvature.curvature_grid(chart, np.array([]), np.array([]))
    assert g["r"].shape == (3, 0)
    assert g["trL"].shape == g["lap_trL"].shape == (0,)


def test_unknown_field_name_raises():
    chart = torus(2.0, 0.5).charts[0]
    U, V, _ = QuadratureSpec(order=8).grid(chart)
    with pytest.raises(ValueError, match="no curvature field 'kappa'"):
        curvature.curvature_grid(chart, U, V, names=("w", "kappa"))


def test_first_order_grid_checks_for_singular_charts():
    # a cone's apex edge: r_u vanishes at u = 0
    chart = SurfaceChart.from_expressions(
        "u*cos(v)", "u*sin(v)", "u", u_range=(0, 1), v_range=(0, 6.3),
        name="cone")
    for names in (("w",), None):
        with pytest.raises(curvature.SingularChartError, match="cone"):
            curvature.curvature_grid(chart, np.array([0.0, 0.5]),
                                     np.array([1.0, 1.0]), names=names)


def test_constant_component_chart():
    chart = SurfaceChart.from_expressions(
        "u", "v", "1/2", u_range=(0, 1), v_range=(0, 1), name="lifted plane")
    r = chart.deriv(0, 0)(np.array([[0.25], [0.5]]), np.array([[0.1, 0.2]]))
    assert r.shape == (3, 2, 2)
    assert np.all(r[2] == 0.5)
    assert chart.deriv(1, 0)(0.3, 0.3).tolist() == [1.0, 0.0, 0.0]


def test_long_double_points_keep_their_precision():
    x = jets.Jet.variable(np.longdouble(1) / 3, 0, 2)
    y = jets.sqrt(jets.sin(x) * x + 1.0) / (x + 2.0)
    assert y.c.dtype == np.longdouble
    third = np.longdouble(1) / 3
    want = np.sqrt(np.sin(third) * third + 1) / (third + 2)
    assert abs(y.value - want) <= 4 * np.finfo(np.longdouble).eps


def test_order_too_high_rejected():
    with pytest.raises(ValueError):
        jets.Jet.variable(1.0, 0, 2).d(2, 1)
    assert jets.size(4) == 15
