"""Chart and curvature-pipeline tests against analytic oracles."""

import math

import numpy as np
import pytest

from cavityheat.geometry import (
    SingularChartError,
    SurfaceChart,
    curvature,
    curvature_grid,
    ellipsoid,
    sphere,
    torus,
)

RNG = np.random.default_rng(20240811)


def kappas(g):
    """Principal curvatures tr L/2 +- sqrt((tr L/2)^2 - det L)."""
    mean = g["trL"] / 2
    disc = np.sqrt(np.maximum(mean * mean - g["detL"], 0.0))
    return mean + disc, mean - disc


def plane_patch():
    return SurfaceChart.from_expressions(
        "u", "v", "0", u_range=(-1, 1), v_range=(-1, 1), name="plane",
    )


class TestSphere:
    def test_unit_sphere_curvature(self):
        chart = sphere(1.0).charts[0]
        for u, v in [(0.3, 0.1), (1.2, 2.2), (2.8, 5.9)]:
            c = curvature_grid(chart, u, v, order=3)
            assert c["trL"] == pytest.approx(2.0, abs=1e-12)
            assert c["detL"] == pytest.approx(1.0, abs=1e-12)
            assert kappas(c) == pytest.approx((1.0, 1.0), abs=1e-7)
            assert abs(c["grad_trL_sq"]) < 1e-20

    def test_scaled_sphere(self):
        chart = sphere(2.5).charts[0]
        c = curvature_grid(chart, 1.0, 1.0)
        assert c["trL"] == pytest.approx(2.0 / 2.5, rel=1e-12)
        assert c["detL"] == pytest.approx(1.0 / 2.5**2, rel=1e-12)

    def test_normal_is_inward(self):
        chart = sphere(1.0).charts[0]
        c = curvature_grid(chart, 0.9, 0.4)
        # at |x| = 1 the inward unit normal is -x
        assert np.allclose(c["n"], -c["r"], atol=1e-12)

    def test_laplacian_vanishes(self):
        chart = sphere(1.0).charts[0]
        c = curvature_grid(chart, 1.3, 0.2, order=4)
        assert abs(c["lap_trL"]) < 1e-9


class TestPlane:
    def test_flat_patch(self):
        c = curvature_grid(plane_patch(), 0.25, -0.5)
        assert c["e"] == c["f"] == c["g2"] == 0.0
        assert c["trL"] == 0.0 == c["detL"]


class TestTorus:
    def test_outer_equator(self):
        # principal curvatures 1/tube and 1/(ring + tube), both positive
        # for the inward normal
        chart = torus(2.0, 0.5).charts[0]
        c = curvature_grid(chart, 0.0, 1.0)
        assert kappas(c) == pytest.approx((2.0, 0.4), rel=1e-12)

    def test_inner_equator_saddle(self):
        chart = torus(2.0, 0.5).charts[0]
        c = curvature_grid(chart, math.pi, 1.0)
        assert c["detL"] < 0
        assert kappas(c) == pytest.approx((2.0, -1.0 / 1.5), rel=1e-12)


class TestDerivativeOracle:
    @pytest.mark.parametrize("order", [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (0, 3)])
    def test_matches_central_differences(self, order):
        chart = ellipsoid(1.0, 1.3, 1.7).charts[0]
        du, dv = order
        h = 1e-5
        for _ in range(5):
            u = RNG.uniform(0.5, 2.6)
            v = RNG.uniform(0.2, 6.0)
            ref = chart.deriv(du, dv)(u, v)
            if du > 0:
                lower = chart.deriv(du - 1, dv)
                fd = (lower(u + h, v) - lower(u - h, v)) / (2 * h)
            else:
                lower = chart.deriv(du, dv - 1)
                fd = (lower(u, v + h) - lower(u, v - h)) / (2 * h)
            assert np.allclose(fd, ref, rtol=1e-8, atol=1e-7)


class TestInvariants:
    def test_reparametrisation_covariance(self):
        # same geometric point through a stretched/shifted parameter chart
        base = ellipsoid(1.0, 1.3, 1.7).charts[0]
        alt = SurfaceChart.from_expressions(
            "1.0*sin(2*u)*cos(v + 1)",
            "1.3*sin(2*u)*sin(v + 1)",
            "1.7*cos(2*u)",
            u_range=(0, math.pi / 2), v_range=(-1, 2 * math.pi - 1),
            periodic_v=True, normal_sign=-1, name="ellipsoid-reparam",
        )
        for u, v in [(0.7, 1.1), (1.9, 4.0)]:
            a = curvature_grid(base, u, v, order=3)
            b = curvature_grid(alt, u / 2, v - 1, order=3)
            assert np.allclose(a["r"], b["r"], atol=1e-12)
            assert a["trL"] == pytest.approx(b["trL"], rel=1e-10)
            assert a["detL"] == pytest.approx(b["detL"], rel=1e-10)
            assert kappas(a) == pytest.approx(kappas(b), rel=1e-10)
            assert a["grad_trL_sq"] == pytest.approx(
                b["grad_trL_sq"], rel=1e-8, abs=1e-12)

    def test_immersion_failure_reports_point(self):
        degenerate = SurfaceChart.from_expressions(
            "u*u", "u*u", "v", u_range=(-1, 1), v_range=(0, 1), name="fold",
        )
        with pytest.raises(SingularChartError) as err:
            curvature_grid(degenerate, 0.0, 0.5)
        assert err.value.point[1] == pytest.approx(0.5)

    def test_grid_matches_pointwise(self):
        chart = torus(2.0, 0.5).charts[0]
        U, V = np.meshgrid([0.3, 1.4], [0.5, 2.5], indexing="ij")
        g = curvature_grid(chart, U, V, order=3)
        for i in range(2):
            for j in range(2):
                c = curvature_grid(chart, U[i, j], V[i, j], order=3)
                for name in ("trL", "detL", "grad_trL_sq"):
                    assert g[name][i, j] == pytest.approx(c[name], rel=1e-13)

    def test_lap_trL_flux_matches_analytic_torus(self):
        # tr L = 1/r + cos(u)/(R + r cos u) on the torus; its surface
        # Laplacian reduces to an ordinary u-derivative expression:
        # lap f = (1/(r^2 s)) d/du ( s df/du ),  s = R + r cos u.
        R0, r0 = 2.0, 0.5
        chart = torus(R0, r0).charts[0]
        import sympy as sp

        uu = sp.Symbol("u")
        s = R0 + r0 * sp.cos(uu)
        H = 1 / r0 + sp.cos(uu) / s
        lap = sp.diff(s * sp.diff(H, uu), uu) / (r0**2 * s)
        for u in [0.4, 1.3, 2.9, 4.4]:
            want = float(lap.subs(uu, u))
            got = float(curvature_grid(chart, u, 0.7, order=4)["lap_trL"])
            assert got == pytest.approx(want, rel=1e-7, abs=1e-9)

    def test_laplacian_sample_is_one_evaluation(self, monkeypatch):
        orders = []
        surface_jets = curvature.surface_jets

        def counted(chart, u, v, order):
            orders.append(order)
            return surface_jets(chart, u, v, order)

        monkeypatch.setattr(curvature, "surface_jets", counted)
        sample = curvature_grid(torus(2.0, 0.5).charts[0], 0.4, 0.7, order=4)
        assert orders == [4] and np.isfinite(sample["lap_trL"])
