"""Surface quadrature: exact areas/volumes, Gauss-Bonnet, convergence."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavityheat
from cavityheat import coefficients
from cavityheat.geometry import curvature, quadrature
from cavityheat.coefficients import compute_moments
from cavityheat.geometry.quadrature import gauss_legendre
from cavityheat.geometry import (
    EvaluationError,
    OrientationError,
    QuadratureSpec,
    SurfaceChart,
    SurfaceModel,
    TopologyInfo,
    curvature_grid,
    ellipsoid,
    enclosed_volume,
    sphere,
    surface_integral,
    torus,
    trL_lap_trL_integral,
)

Q16 = QuadratureSpec(order=16)
Q32 = QuadratureSpec(order=32)


def const_one(chart, U, V):
    return np.ones_like(U)


def det_L(chart, U, V):
    return curvature_grid(chart, U, V)["detL"]


class TestSurfaceIntegral:
    def test_sphere_area(self):
        res = surface_integral(sphere(1.0), const_one, Q16)
        assert res.value == pytest.approx(4 * math.pi, rel=1e-13)

    def test_sphere_total_curvature(self):
        res = surface_integral(sphere(1.0), det_L, Q16)
        assert res.value == pytest.approx(4 * math.pi, rel=1e-12)

    def test_torus_total_curvature_vanishes(self):
        res = surface_integral(torus(2.0, 0.5), det_L, Q16)
        assert abs(res.value) < 1e-12

    def test_ellipsoid_total_curvature(self):
        res = surface_integral(ellipsoid(1.0, 1.3, 1.7), det_L, Q32)
        assert res.value == pytest.approx(4 * math.pi, abs=1e-10)

    def test_torus_area(self):
        model = torus(2.0, 0.5)
        res = surface_integral(model, const_one, Q16)
        assert res.value == pytest.approx(model.closed_form_area, rel=1e-13)

    def test_torus_mean_curvature_integral(self):
        # integral of tr L over a torus is 4 pi^2 R, independent of the tube
        def tr_L(chart, U, V):
            return curvature_grid(chart, U, V)["trL"]

        res = surface_integral(torus(2.0, 0.5), tr_L, Q16)
        assert res.value == pytest.approx(4 * math.pi**2 * 2.0, rel=1e-12)

    def test_error_estimate_decays(self):
        model = ellipsoid(1.0, 1.3, 1.7)
        errs = [surface_integral(model, const_one, QuadratureSpec(order=n)).error
                for n in (6, 12, 24)]
        assert errs[0] > errs[1] > errs[2]

    def test_non_finite_integrand_reports_node(self):
        def bad(chart, U, V):
            out = np.ones_like(U)
            out[0, 0] = np.nan
            return out

        with pytest.raises(EvaluationError, match="non-finite"):
            surface_integral(sphere(1.0), bad, Q16)


class TestVolume:
    def test_unit_ball(self):
        assert enclosed_volume(sphere(1.0), Q16).value == pytest.approx(
            4 * math.pi / 3, rel=1e-13)

    def test_ellipsoid(self):
        assert enclosed_volume(ellipsoid(1.0, 1.0, 2.0), Q16).value == pytest.approx(
            8 * math.pi / 3, rel=1e-12)

    def test_torus_pappus(self):
        assert enclosed_volume(torus(2.0, 0.5), Q16).value == pytest.approx(
            math.pi**2, rel=1e-12)

    def test_outward_normal_rejected(self):
        chart = SurfaceChart.from_expressions(
            "sin(u)*cos(v)", "sin(u)*sin(v)", "cos(u)",
            u_range=(0, math.pi), v_range=(0, 2 * math.pi),
            periodic_v=True, normal_sign=1, name="inside-out",
        )
        model = SurfaceModel(name="inside-out", charts=(chart,),
                             topology=TopologyInfo(1, (0,)))
        with pytest.raises(OrientationError):
            enclosed_volume(model, Q16)

    @pytest.mark.parametrize("model", [ellipsoid(1.0, 1.3, 1.7),
                                       torus(2.0, 0.5)],
                             ids=["ellipsoid", "torus"])
    def test_flipped_stock_normals_rejected(self, model):
        # the first-order volume grid keeps the orientation of n
        flipped = SurfaceModel(
            name=model.name, topology=model.topology,
            charts=tuple(dataclasses.replace(c, normal_sign=-c.normal_sign)
                         for c in model.charts))
        volume = enclosed_volume(model, Q16).value
        with pytest.raises(OrientationError,
                           match=f"signed volume {-volume:.6g} <= 0"):
            enclosed_volume(flipped, Q16)


def by_parts_gap(model, quad):
    """|moment - integral(tr L * lap tr L)| relative to the moment.

    The moment is compute_moments' trL_lap_trL, minus the integral of
    |grad tr L|^2; the integral uses the pointwise Laplacian.  Both
    values are returned after the gap.
    """
    a = compute_moments(model, quad).trL_lap_trL.value
    b = trL_lap_trL_integral(model, quad).value
    return abs(a - b) / max(abs(a), 1.0), a, b


class TestGradLaplacianPair:
    # integration by parts on a closed surface: the moment a_5 uses
    # against the pointwise Laplacian
    @pytest.mark.parametrize("model", [ellipsoid(1.0, 1.0, 2.0),
                                       torus(2.0, 0.5),
                                       ellipsoid(1.0, 1.3, 1.7)])
    def test_antisymmetry(self, model):
        assert by_parts_gap(model, Q16)[0] < 1e-6

    @pytest.mark.parametrize("model", [ellipsoid(1.0, 1.0, 2.0),
                                       torus(2.0, 0.5),
                                       ellipsoid(1.0, 1.3, 1.7)])
    def test_exact_laplacian_agrees_to_quadrature(self, model):
        # both integrands are exact pointwise, so only quadrature separates
        # them, far below the finite-difference floor of ~1e-9
        assert by_parts_gap(model, Q32)[0] < 1e-12

    @pytest.mark.parametrize("model", [ellipsoid(1.0, 1.3, 1.7),
                                       torus(2.0, 0.5)],
                             ids=["ellipsoid", "torus"])
    def test_flipped_moment_sign_is_rejected(self, monkeypatch, model):
        # a sign error planted in the moment's integrand fails the
        # looser of the two bounds above at both orders
        fields = coefficients._boundary_fields

        def flipped(chart, U, V):
            w, f = fields(chart, U, V)
            return w, {**f, "trL_lap_trL": -f["trL_lap_trL"]}

        monkeypatch.setattr(coefficients, "_boundary_fields", flipped)
        for quad in (Q16, Q32):
            assert by_parts_gap(model, quad)[0] > 1e-6

    def test_sphere_both_vanish(self):
        _, a, b = by_parts_gap(sphere(1.0), Q16)
        assert abs(a) < 1e-20 and abs(b) < 1e-9

    @pytest.mark.parametrize("order", [4], ids=["lap"])
    def test_one_evaluation_per_level(self, monkeypatch, order):
        # a one-chart model at two levels: one grid and one embedding
        # jet per level, the area element included
        grids, jets = [], []
        grid, surface_jets = quadrature.curvature_grid, curvature.surface_jets

        def counted_grid(chart, U, V, **kw):
            grids.append(kw)
            return grid(chart, U, V, **kw)

        def counted_jets(chart, u, v, order):
            jets.append(order)
            return surface_jets(chart, u, v, order)

        monkeypatch.setattr(quadrature, "curvature_grid", counted_grid)
        monkeypatch.setattr(curvature, "surface_jets", counted_jets)
        trL_lap_trL_integral(ellipsoid(1.0, 1.3, 1.7), Q16)
        assert len(grids) == 2 and jets == [order, order]


def test_moment_jet_orders(monkeypatch):
    # per level, the volume's area element and r . n need first
    # derivatives only; the boundary fields need third
    orders = []
    surface_jets = curvature.surface_jets

    def counted(chart, u, v, order):
        orders.append(order)
        return surface_jets(chart, u, v, order)

    monkeypatch.setattr(curvature, "surface_jets", counted)
    compute_moments(ellipsoid(1.0, 1.3, 1.7), QuadratureSpec(order=8))
    assert orders == [1, 1, 1, 1, 3, 3]


@pytest.mark.parametrize("order", [16, 32, 64])
@pytest.mark.parametrize("model", [sphere(1.0), ellipsoid(1.0, 1.0, 2.0),
                                   ellipsoid(1.0, 1.3, 1.7), torus(2.0, 0.5)],
                         ids=["sphere", "ellipsoid-112", "ellipsoid-1317",
                              "torus"])
def test_moments_equal_the_public_integrals(model, order):
    # one integrator: the moment pass and the public integrals form the
    # same sums, bit for bit
    q = QuadratureSpec(order=order)
    m = compute_moments(model, q)
    pairs = ((m.area, surface_integral(model, const_one, q)),
             (m.volume, enclosed_volume(model, q)))
    for got, want in pairs:
        assert (got.value, got.error) == (want.value, want.error)


class TestSpecValidation:
    def test_order_floor(self):
        with pytest.raises(ValueError):
            QuadratureSpec(order=3)


@pytest.mark.parametrize("build, args", [
    (sphere, (math.nan,)), (sphere, (math.inf,)), (sphere, (0.0,)),
    (ellipsoid, (1.0, 1.0, math.nan)), (ellipsoid, (1.0, math.inf, 1.0)),
    (ellipsoid, (-1.0, 1.0, 1.0)), (torus, (math.nan, 0.5)),
    (torus, (2.0, math.nan)), (torus, (math.inf, 0.5)), (torus, (2.0, 0.0)),
])
def test_model_sizes_must_be_finite_and_positive(build, args):
    with pytest.raises(ValueError):
        build(*args)


def reference_rule(n, start):
    """30-digit Gauss-Legendre nodes and weights, by Newton's method on the
    Legendre recurrence from the float nodes ``start``."""
    import mpmath as mp

    def legendre(x):                   # P_n(x), P_n'(x)
        p0, p1 = mp.mpf(1), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, n * (p0 - x * p1) / (1 - x * x)

    with mp.workdps(40):
        nodes, weights = [], []
        for x in map(mp.mpf, start):
            for _ in range(2):         # errors ~1e-16, ~1e-28, ~1e-52
                p, dp = legendre(x)
                x -= p / dp
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        return nodes, weights


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [4, 16, 32, 64, 128, 256])
    def test_matches_30_digit_rule(self, n):
        x, w = gauss_legendre(n)
        nodes, weights = reference_rule(n, x)
        assert np.all(np.diff(x) > 0)
        assert max(abs(float(a - b)) for a, b in zip(x, nodes)) <= 2.3e-16
        # scipy's roots_legendre reads 5.5e-11 at n = 128, 1.3e-10 at 256
        assert max(abs(float((a - b) / b))
                   for a, b in zip(w, weights)) <= 1e-12
        assert abs(math.fsum(w) - 2.0) <= 8 * np.spacing(2.0)
        exact = 2.0 / (2 * n - 1)
        moment = math.fsum(w * x ** (2 * n - 2))
        assert abs(moment - exact) <= 1e-13 * exact

    def test_each_order_is_computed_once_and_read_only(self):
        x, w = gauss_legendre(24)
        again = gauss_legendre(24)
        assert again[0] is x and again[1] is w
        for a in (x, w):
            with pytest.raises(ValueError):
                a[0] = 0.0


# faults of the third evaluation of a 65,536-node grid, in a fresh process
_REPEAT_FAULTS = """
import resource
from cavityheat.geometry import QuadratureSpec, curvature_grid, torus
chart = torus(2.0, 0.5).charts[0]
U, V, _ = QuadratureSpec(order=128).grid(chart)
for _ in range(3):
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    curvature_grid(chart, U, V, order=3)
    curvature_grid(chart, U, V, order=4)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
"""


@pytest.mark.skipif(not curvature._retain_heap(), reason="glibc only")
def test_block_memory_is_reused():
    # with glibc's adaptive defaults the repeat faulted 16,000 to
    # 30,000 pages; the fixed thresholds keep a block's temporaries in
    # the heap
    src = str(Path(cavityheat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _REPEAT_FAULTS],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) < 1000
