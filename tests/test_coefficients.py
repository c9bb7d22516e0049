"""Coefficient evaluation on concrete surfaces.

Unit-ball reference values, hand-derived from the curvature formulas
with tr L = 2, det L = 1, area 4 pi, volume 4 pi / 3, genus 0:

    a_0 = 1/(3 sqrt(pi))      a_1 = 0
    a_2 = -4/(3 sqrt(pi))     a_3 = 1/8 + 1/2 = 5/8
    a_4 = -16/(315 sqrt(pi))  a_5 = 1/320
"""

import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cavityheat.coefficients as coefficients
from cavityheat.coefficients import (
    GeometricMoments,
    HeatCoefficientSet,
    Measurement,
    a3_local,
    a3_local_kappa_variant,
    compute_moments,
    delta_a3,
    em_coefficients,
    form_coefficients,
    gauss_bonnet_residual,
    phi_expansion,
)
from cavityheat.geometry import (
    EvaluationError,
    QuadratureSpec,
    TopologyInfo,
    ellipsoid,
    sphere,
    torus,
)
from cavityheat.tables import em_topology_term

SQPI = math.sqrt(math.pi)
BALL_EM = (1 / (3 * SQPI), 0.0, -4 / (3 * SQPI), 5 / 8, -16 / (315 * SQPI), 1 / 320)

Q16 = QuadratureSpec(order=16)


@pytest.fixture(scope="module")
def ball_moments():
    return compute_moments(sphere(1.0), Q16)


@pytest.fixture(scope="module")
def torus_moments():
    return compute_moments(torus(2.0, 0.5), Q16)


def synthetic_moments(**overrides):
    """Moments with every value zero except the given ones (exact)."""
    kw = {name: Measurement(0.0, 0.0) for name in (
        "volume", "area", "trL", "trL2", "detL", "trL3", "trL_detL",
        "trL4", "trL2_detL", "detL2", "trL_lap_trL")}
    for k, val in overrides.items():
        kw[k] = Measurement(float(val), 0.0)
    return GeometricMoments(**kw)


class TestMoments:
    def test_unit_ball_values(self, ball_moments):
        m = ball_moments
        assert m.volume.value == pytest.approx(4 * math.pi / 3, rel=1e-13)
        assert m.area.value == pytest.approx(4 * math.pi, rel=1e-13)
        assert m.trL.value == pytest.approx(8 * math.pi, rel=1e-13)
        assert m.trL2.value == pytest.approx(16 * math.pi, rel=1e-13)
        assert m.detL.value == pytest.approx(4 * math.pi, rel=1e-13)
        assert m.trL_detL.value == pytest.approx(8 * math.pi, rel=1e-13)
        assert m.trL_lap_trL.value == pytest.approx(0.0, abs=1e-18)

    def test_scaling_homogeneity(self, ball_moments):
        big = compute_moments(sphere(2.0), Q16)
        scaled = ball_moments.scaled(2.0)
        for name in ("volume", "area", "trL", "trL2", "detL", "trL3",
                     "trL4", "detL2"):
            assert big[name].value == pytest.approx(scaled[name].value, rel=1e-12)

    def test_torus_gauss_bonnet(self, torus_moments):
        assert abs(torus_moments.detL.value) < 1e-12

    @pytest.mark.parametrize("model", [sphere(1.0), ellipsoid(1.0, 1.3, 1.7),
                                       torus(2.0, 0.5)],
                             ids=["sphere", "ellipsoid", "torus"])
    def test_non_finite_moment_integrand_names_chart_and_node(
            self, model, monkeypatch):
        grid = coefficients.curvature_grid

        def nan_at_one_node(chart, U, V, names=None):
            g = dict(grid(chart, U, V, names=names))
            g["trL"] = np.array(g["trL"])
            g["trL"][1, 2] = np.nan
            return g

        monkeypatch.setattr(coefficients, "curvature_grid", nan_at_one_node)
        chart = model.charts[0]
        U, V, _ = Q16.grid(chart)
        node = f"(u, v) = ({U[1, 0]:.6g}, {V[0, 2]:.6g})"
        with pytest.raises(EvaluationError,
                           match=re.escape(f"{chart.name!r} at {node}")):
            compute_moments(model, Q16)

    def test_order_64_torus_peak_memory(self):
        # the grids hold only the fields the integrals read, and one
        # block's jets at a time
        model, q64 = torus(2.0, 0.5), QuadratureSpec(order=64)
        compute_moments(model, q64)      # compile and cache the chart first
        tracemalloc.start()
        try:
            compute_moments(model, q64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20


class TestEmCoefficients:
    def test_unit_ball_closed_forms(self, ball_moments):
        coeffs = em_coefficients(ball_moments, TopologyInfo(1, (0,)))
        for got, want in zip(coeffs.values, BALL_EM):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_a1_is_exactly_zero(self, ball_moments):
        coeffs = em_coefficients(ball_moments, TopologyInfo(1, (0,)))
        assert coeffs[1] == 0.0
        assert coeffs.errors[1] == 0.0

    def test_five_values_rejected(self):
        with pytest.raises(ValueError, match="need exactly a_0..a_5"):
            HeatCoefficientSet("em", (1.0,) * 5, (0.0,) * 5)

    def test_genus_two_synthetic_topology_term(self):
        coeffs = em_coefficients(synthetic_moments(), TopologyInfo(1, (2,)))
        assert coeffs[3] == pytest.approx(-0.5)

    def test_radius_scaling(self, ball_moments):
        base = em_coefficients(ball_moments, TopologyInfo(1, (0,)))
        big = em_coefficients(compute_moments(sphere(3.0), Q16),
                              TopologyInfo(1, (0,)))
        for n in range(6):
            assert big[n] == pytest.approx(base[n] * 3.0 ** (3 - n),
                                           rel=1e-12, abs=1e-15)
        assert big.scaled(1 / 3.0).values == pytest.approx(base.values)


class TestFormCoefficients:
    def test_ball_p0_a1(self, ball_moments):
        assert form_coefficients(0, ball_moments)[1] == pytest.approx(-0.25, rel=1e-13)

    def test_ball_p3_a1(self, ball_moments):
        assert form_coefficients(3, ball_moments)[1] == pytest.approx(0.25, rel=1e-13)

    @pytest.mark.parametrize("p, want", [
        (0, Fraction(-1, 48)), (1, Fraction(29, 48)),
        (2, Fraction(-11, 48)), (3, Fraction(7, 48)),
    ])
    def test_ball_a3(self, ball_moments, p, want):
        assert form_coefficients(p, ball_moments)[3] == pytest.approx(
            float(want), rel=1e-12)

    def test_em_equals_form_differences(self, ball_moments):
        topo = TopologyInfo(1, (0,))
        em = em_coefficients(ball_moments, topo)
        f = {p: form_coefficients(p, ball_moments) for p in range(4)}
        for n in (0, 1, 2, 4, 5):
            assert em[n] == pytest.approx(f[1][n] - f[0][n], rel=1e-11, abs=1e-14)
            assert em[n] == pytest.approx(f[2][n] - f[3][n], rel=1e-11, abs=1e-14)
        assert em[3] == pytest.approx(f[1][3] - f[0][3] - (1 - 1), rel=1e-11)
        assert em[3] == pytest.approx(f[2][3] - f[3][3] - (0 - 1), rel=1e-11)

    def test_em_equals_form_differences_on_torus(self, torus_moments):
        topo = TopologyInfo(1, (1,))
        em = em_coefficients(torus_moments, topo)
        f = {p: form_coefficients(p, torus_moments) for p in range(4)}
        tol = dict(rel=1e-9, abs=1e-11)
        for n in (0, 1, 2, 4, 5):
            assert em[n] == pytest.approx(f[1][n] - f[0][n], **tol)
        assert em[3] == pytest.approx(f[1][3] - f[0][3] - (1 - 1), **tol)
        assert em[3] == pytest.approx(f[2][3] - f[3][3] - (1 - 1), **tol)


class TestGaussBonnet:
    def test_sphere(self, ball_moments):
        r = gauss_bonnet_residual(ball_moments, TopologyInfo(1, (0,)))
        assert abs(r.value) < 1e-11

    def test_ellipsoid(self):
        m = compute_moments(ellipsoid(1.0, 1.3, 1.7), QuadratureSpec(order=32))
        r = gauss_bonnet_residual(m, TopologyInfo(1, (0,)))
        assert abs(r.value) < 1e-8

    def test_torus(self, torus_moments):
        r = gauss_bonnet_residual(torus_moments, TopologyInfo(1, (1,)))
        assert abs(r.value) < 1e-11

    def test_mismatched_topology_is_visible(self, ball_moments):
        r = gauss_bonnet_residual(ball_moments, TopologyInfo(1, (1,)))
        assert abs(r.value) == pytest.approx(4 * math.pi, rel=1e-12)


class TestA3Local:
    def test_unit_ball_is_one_eighth(self, ball_moments):
        assert a3_local(ball_moments).value == pytest.approx(1 / 8, rel=1e-13)

    def test_scale_invariance(self):
        m = compute_moments(sphere(7.5), Q16)
        assert a3_local(m).value == pytest.approx(1 / 8, rel=1e-13)

    def test_balanced_integrand_gives_zero(self):
        m = synthetic_moments(trL2=4.0, detL=3.0)
        assert a3_local(m).value == pytest.approx(0.0, abs=1e-18)

    @pytest.mark.parametrize("order", [8, 16, 32, 64])
    @pytest.mark.parametrize("model", [sphere(3.0), ellipsoid(1.0, 1.0, 2.0),
                                       torus(2.0, 0.5)],
                             ids=["sphere-3", "ellipsoid-112", "torus"])
    def test_em_a3_is_local_part_plus_topology_term(self, model, order):
        # both read the a_3 constants of the table, in the same order
        m = compute_moments(model, QuadratureSpec(order=order))
        topo = model.topology
        em = em_coefficients(m, topo)
        local = a3_local(m)
        assert em.values[3] == local.value + float(em_topology_term(topo))
        assert em.errors[3] == local.error

    def test_kappa_variant_differs_and_is_flagged_value(self, ball_moments):
        v = a3_local_kappa_variant(ball_moments)
        assert v.value == pytest.approx(math.pi / 32, rel=1e-13)
        assert v.value != pytest.approx(1 / 8, rel=1e-3)


class TestDeltaA3:
    def test_nonlocal_assembly(self):
        assert delta_a3(TopologyInfo(1, (3,)), 0.0)["count"] == -3

    def test_ball(self, ball_moments):
        d = delta_a3(TopologyInfo(1, (0,)), a3_local(ball_moments).value)
        assert d["count"] == pytest.approx(0.25, rel=1e-12)

    def test_zero_crossing(self):
        d = delta_a3(TopologyInfo(1, (2,)), 1.0)
        assert d["count"] == pytest.approx(0.0, abs=1e-15)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            delta_a3(TopologyInfo(2, (0, 0)), 0.25)


class TestModeCount:
    """delta a_3 read as the finite-frequency mode count."""

    def test_ball(self):
        report = delta_a3(TopologyInfo(1, (0,)), 0.125)
        assert report["count"] == pytest.approx(0.25)
        assert report["psi(0+)"] == 0.0
        assert report["delta_phi_constant"] == pytest.approx(-0.25)
        # the report has always written psi(0+) = -g as -0.0 for g = 0
        assert '"psi(0+)": -0.0' in json.dumps(report)

    def test_zero_crossing(self):
        report = delta_a3(TopologyInfo(1, (2,)), 1.0)
        assert report["count"] == pytest.approx(0.0)

    def test_block_is_psi_minus_plateau(self, torus_moments):
        a3l = a3_local(torus_moments).value
        report = delta_a3(TopologyInfo(1, (1,)), a3l)
        assert report == {
            "a3_local": a3l, "genus": 1, "psi(0+)": -1.0,
            "delta_phi_constant": -2.0 * a3l, "count": 2.0 * a3l - 1}

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError):
            delta_a3(TopologyInfo(1, (-1,)), 0.125)


class TestPhiExpansion:
    @pytest.fixture(scope="class")
    def ball_coeffs(self, ball_moments):
        return em_coefficients(ball_moments, TopologyInfo(1, (0,)))

    def test_unit_ball_values(self, ball_coeffs):
        phi = phi_expansion(ball_coeffs.values)
        assert phi["constant"] == pytest.approx(-5 / 8, rel=1e-12)
        assert phi["i*k"] == pytest.approx(-4.0 / 3.0, rel=1e-12)
        assert phi["k^2*ln(-k^2)"] == 0.0
        assert phi["i*k^3"] == pytest.approx(2 * SQPI / (3 * SQPI), rel=1e-12)

    def test_caveat_present(self, ball_coeffs):
        assert "polynomial" in phi_expansion(ball_coeffs.values)["caveat"]


@settings(max_examples=25, deadline=None)
@given(st.tuples(*[st.floats(0.6, 1.8)] * 3), st.floats(0.5, 2.0))
def test_scaling_property(axes, s):
    """a_n of the surface scaled by s equal s^(3-n) a_n of the original."""
    topo = TopologyInfo(1, (0,))
    base = em_coefficients(compute_moments(ellipsoid(*axes), Q16), topo)
    scaled = em_coefficients(
        compute_moments(ellipsoid(*(s * a for a in axes)), Q16), topo)
    for got, want in zip(scaled.values, base.scaled(s).values):
        assert abs(got - want) <= 1e-10 * abs(want)
