"""Boundary tensor-trace identities: numerical residuals and exact reductions."""

import tracemalloc

import numpy as np
import pytest
import sympy as sp

import cavityheat.geometry.identities as ident
from cavityheat import loads_surface
from cavityheat.cli import main
from cavityheat.geometry import SurfaceChart, ellipsoid, sphere, torus
from cavityheat.geometry.identities import (
    IDENTITY_NAMES,
    curvature_identity_residuals,
)

RNG = np.random.default_rng(7_11_2024)


def random_points(n, u_lo, u_hi, v_lo, v_hi, rng):
    return np.column_stack([rng.uniform(u_lo, u_hi, n), rng.uniform(v_lo, v_hi, n)])


class TestNumericalResiduals:
    def test_sphere_all_small(self):
        r = curvature_identity_residuals(sphere(1.0).charts[0], 1.2, 0.5)
        assert set(r.residuals) == set(IDENTITY_NAMES)
        assert r.max_residual < 1e-7

    def test_sphere_quartic_trace_value(self):
        # with L = identity the quartic projector trace equals
        # tr(L^4) + (tr L^2)^2 = 2 + 4 = 6
        P_a = ident._covariant_data(sphere(1.0).charts[0], np.array([1.2]),
                                    np.array([0.5]))["P_a"]
        s = np.einsum("aij...,ajk...,bkl...,bli...->...", P_a, P_a, P_a, P_a)
        assert s.shape == (1,)
        assert s[0] == pytest.approx(6.0, abs=1e-13)

    def test_plane_trivial(self):
        chart = SurfaceChart.from_expressions(
            "u", "v", "0", u_range=(-1, 1), v_range=(-1, 1), name="plane")
        r = curvature_identity_residuals(chart, 0.2, -0.3)
        assert r.max_residual < 1e-14

    @pytest.mark.parametrize("model,u_window", [
        (ellipsoid(1.0, 1.3, 1.7), (0.4, 2.7)),
        (torus(2.0, 0.5), (0.0, 6.28)),
    ])
    def test_random_points_below_threshold(self, model, u_window):
        rng = np.random.default_rng(1234)
        u, v = random_points(8, *u_window, 0.0, 6.28, rng).T
        r = curvature_identity_residuals(model.charts[0], u, v)
        assert r.error_model.shape == (8,)
        assert r.max_residual < 1e-6, r.residuals

    def test_no_violations_reported_on_valid_surface(self):
        r = curvature_identity_residuals(ellipsoid(1.0, 1.3, 1.7).charts[0],
                                         1.1, 0.6)
        assert r.violations() == {}

    def test_violations_flag_a_planted_error(self, monkeypatch):
        chart = ellipsoid(1.0, 1.3, 1.7).charts[0]
        clean = curvature_identity_residuals(chart, 1.1, 0.6)
        assert 0 < clean.error_model < 1e-12
        plant_tr_Pab_Pab(monkeypatch, 1e-8)
        planted = curvature_identity_residuals(chart, 1.1, 0.6)
        assert set(planted.violations()) == {"tr_Pab_Pab"}


def plant_tr_Pab_Pab(monkeypatch, rel):
    """Perturb the 6 tr L^4 term of tr_Pab_Pab's right side by rel, at
    every point of a batch (L has index axes [a, b] first)."""
    right_sides = ident._right_sides

    def planted(L, Lc, Lcd):
        out = right_sides(L, Lc, Lcd)
        trL4 = np.einsum("ab...,bc...,cd...,da...->...", L, L, L, L)
        out["tr_Pab_Pab"] = out["tr_Pab_Pab"] + rel * 6.0 * trL4
        return out

    monkeypatch.setattr(ident, "_right_sides", planted)


def criterion_5_points():
    """The 40 seeded points of acceptance criterion 5, as one
    (chart, u, v) batch per surface."""
    rng = np.random.default_rng(20240815)
    for model, (u_lo, u_hi) in ((ellipsoid(1.0, 1.3, 1.7), (0.4, 2.7)),
                                (torus(2.0, 0.5), (0.0, 2 * np.pi))):
        u, v = rng.uniform((u_lo, 0.0), (u_hi, 2 * np.pi), (20, 2)).T
        yield model.charts[0], u, v


SQUASHED_TORUS = """\
schema 1
components 1
genera 1
param R 2.0
param r 0.41
param squash 0.71
chart
  domain u 0 2*pi
  domain v 0 2*pi
  periodic u
  periodic v
  x (R + r*cos(u))*cos(v)
  y (R + r*cos(u))*sin(v)
  z squash*r*sin(u)
  normal inward
end
"""


class TestRoundingLevel:
    """Exact derivatives put the residuals at rounding level, which gives
    criterion 5 the power to see a small transcription error."""

    def test_criterion_5_points_below_1e_11(self):
        worst = max(curvature_identity_residuals(*p).max_residual
                    for p in criterion_5_points())
        assert worst < 1e-11

    def test_planted_relative_error_detected(self, monkeypatch):
        plant_tr_Pab_Pab(monkeypatch, 1e-8)
        for batch in criterion_5_points():
            r = curvature_identity_residuals(*batch)
            assert np.all(r["tr_Pab_Pab"] > 1e-11), batch
            assert max(np.max(v) for k, v in r.residuals.items()
                       if k != "tr_Pab_Pab") < 1e-11

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is double here: residuals sit at "
                               "the float64 floor, ~1e-11 at curvature 5")
    def test_squashed_torus_below_1e_11(self):
        chart = loads_surface(SQUASHED_TORUS).charts[0]
        rng = np.random.default_rng(20240815)
        u, v = rng.uniform(0.0, 2 * np.pi, (20, 2)).T
        r = curvature_identity_residuals(chart, u, v)
        assert r.max_residual < 1e-11, r.residuals
        assert r.violations() == {}


class TestBatches:
    """One call evaluates any number of points, a block at a time."""

    @pytest.mark.parametrize("u_shape, v_shape, block", [
        ((), (), ident._BLOCK),
        ((1,), (1,), ident._BLOCK),
        ((11,), (11,), 4),
        ((3, 1), (1, 4), 4),
    ], ids=["scalar", "one-point", "three-blocks", "open-mesh"])
    def test_batch_equals_per_point_calls(self, monkeypatch, u_shape, v_shape,
                                          block):
        monkeypatch.setattr(ident, "_BLOCK", block)
        chart = torus(2.0, 0.5).charts[0]
        rng = np.random.default_rng(3)
        u = rng.uniform(0.0, 2 * np.pi, u_shape)
        v = rng.uniform(0.0, 2 * np.pi, v_shape)
        batch = curvature_identity_residuals(chart, u, v)
        shape = np.broadcast_shapes(u_shape, v_shape)
        assert batch.error_model.shape == shape
        assert isinstance(batch.max_residual, float)
        u, v = np.broadcast_arrays(u, v)
        for i in np.ndindex(shape):
            one = curvature_identity_residuals(chart, float(u[i]),
                                               float(v[i]))
            assert batch.error_model[i] == pytest.approx(one.error_model,
                                                         rel=1e-12)
            for name in IDENTITY_NAMES:
                assert batch[name].shape == shape
                assert abs(batch[name][i] - one[name]) <= one.error_model

    def test_planted_error_is_the_same_at_every_point(self, monkeypatch):
        chart = ellipsoid(1.0, 1.3, 1.7).charts[0]
        u, v = np.random.default_rng(4).uniform((0.4, 0.0), (2.7, 6.0),
                                                (5, 2)).T
        plant_tr_Pab_Pab(monkeypatch, 1e-8)
        batch = curvature_identity_residuals(chart, u, v)
        assert set(batch.violations()) == {"tr_Pab_Pab"}
        for i in range(5):
            one = curvature_identity_residuals(chart, u[i], v[i])
            assert batch["tr_Pab_Pab"][i] == pytest.approx(
                one["tr_Pab_Pab"], rel=1e-6)

    def test_verify_checks_the_points_of_a_per_point_loop(self, tmp_path,
                                                          monkeypatch):
        seen = []

        def record(chart, u, v):
            seen.append(np.column_stack([u, v]))
            return curvature_identity_residuals(chart, u, v)

        monkeypatch.setattr(ident, "curvature_identity_residuals", record)
        windows = ((0.4, 2.7), (0.0, 2 * np.pi))
        for seed in range(30):
            seen.clear()
            assert main(["verify", "--seed", str(seed), "--quad-order", "6",
                         "--out", str(tmp_path)]) == 0
            rng = np.random.default_rng(seed)
            assert len(seen) == len(windows)
            for points, u_win in zip(seen, windows):
                want = [(rng.uniform(*u_win), rng.uniform(0.0, 2 * np.pi))
                        for _ in range(20)]
                assert np.array_equal(points, want), seed

    @pytest.mark.parametrize("points, calls", [(None, 2), (600, 6)])
    def test_verify_evaluates_once_per_block_and_surface(
            self, tmp_path, monkeypatch, points, calls):
        count = []
        covariant_data = ident._covariant_data

        def counted(*args):
            count.append(len(args[1]))
            return covariant_data(*args)

        monkeypatch.setattr(ident, "_covariant_data", counted)
        argv = ["verify", "--quad-order", "6", "--out", str(tmp_path)]
        if points is not None:
            argv += ["--points", str(points)]
        assert main(argv) == 0
        assert len(count) == calls
        assert max(count) <= ident._BLOCK

    @pytest.mark.parametrize("shape", [(5000,), (1, 5000)])
    def test_memory_is_bounded_by_the_block(self, shape):
        chart = torus(2.0, 0.5).charts[0]
        u, v = np.random.default_rng(5).uniform(0.0, 2 * np.pi, (2,) + shape)
        tracemalloc.start()
        try:
            r = curvature_identity_residuals(chart, u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.error_model.shape == shape
        assert r.violations() == {}
        assert peak < 8 << 20, peak


    def test_zero_points_give_empty_residuals(self):
        chart = torus(2.0, 0.5).charts[0]
        r = curvature_identity_residuals(chart, np.array([]), np.array([]))
        assert r.error_model.shape == (0,)
        for name in IDENTITY_NAMES:
            assert r[name].shape == (0,)
        assert r.violations() == {} and r.max_residual == 0.0


class TestSymbolicReductions:
    """Exact reductions at a constant-curvature point (sphere, plane).

    In the adapted frame the only derivative inputs are dn = -kappa e_a
    and de_a = kappa delta_ab n; everything else is matrix algebra, so
    with a symbolic kappa every identity must cancel exactly.
    """

    @staticmethod
    def symbolic_setup():
        k = sp.Symbol("kappa")
        e = [sp.Matrix([1, 0, 0]), sp.Matrix([0, 1, 0])]
        n = sp.Matrix([0, 0, 1])

        def outer(a, b):
            return a * b.T

        P = outer(n, n)
        P_a = [-k * (outer(e[a], n) + outer(n, e[a])) for a in range(2)]
        P_ab = [[-2 * k**2 * sp.eye(2)[a, b] * P
                 + k**2 * (outer(e[a], e[b]) + outer(e[b], e[a]))
                 for b in range(2)] for a in range(2)]
        return k, e, n, P, P_a, P_ab

    def test_projector_traces(self):
        k, e, n, P, P_a, P_ab = self.symbolic_setup()
        delta = sp.eye(2)
        # L = kappa * identity, so L^2 = kappa^2, tr L^2 = 2 kappa^2 ...
        for a in range(2):
            for b in range(2):
                lhs = sp.trace(P_a[a] * P_a[b])
                assert sp.simplify(lhs - 2 * k**2 * delta[a, b]) == 0

        lhs = sum(sp.trace(P_a[a] * P_a[a] * P_a[b] * P_a[b])
                  for a in range(2) for b in range(2))
        assert sp.simplify(lhs - (2 * k**4 + (2 * k**2) ** 2)) == 0

        lhs = sum(sp.trace(P_a[a] * P_a[b] * P_a[a] * P_a[b])
                  for a in range(2) for b in range(2))
        assert sp.simplify(lhs - 2 * 2 * k**4) == 0

        Paa = P_ab[0][0] + P_ab[1][1]
        assert sp.simplify(sp.trace(Paa * Paa)
                           - (4 * 2 * k**4 + 4 * (2 * k**2) ** 2)) == 0

        lhs = sum(sp.trace(P_ab[a][b] * P_ab[a][b])
                  for a in range(2) for b in range(2))
        assert sp.simplify(lhs - (6 * 2 * k**4 + 2 * (2 * k**2) ** 2)) == 0

    def test_boundary_operator_traces(self):
        k, e, n, P, P_a, P_ab = self.symbolic_setup()
        delta = sp.eye(2)
        S1_a = [-2 * k * P_a[a] for a in range(2)]      # S = -(tr L) P
        S2_a = [k * P_a[a] for a in range(2)]           # S = -L = -k(1 - P)

        for a in range(2):
            assert sp.simplify(sp.trace(S1_a[a])) == 0
            assert sp.simplify(sp.trace(S2_a[a])) == 0

        lhs = sum(sp.trace(S1_a[a] * S1_a[a]) for a in range(2))
        assert sp.simplify(lhs - 2 * (2 * k) ** 2 * (2 * k**2)) == 0

        for a in range(2):
            for b in range(2):
                lhs = sp.trace(P_a[a] * S1_a[b])
                assert sp.simplify(lhs + 2 * k**2 * delta[a, b] * 2 * k) == 0

        lhs = sum(sp.trace(P * S1_a[a] * S1_a[a]) for a in range(2))
        assert sp.simplify(lhs - (2 * k) ** 2 * (2 * k**2)) == 0

        lhs = sum(sp.trace(S2_a[a] * S2_a[a]) for a in range(2))
        assert sp.simplify(lhs - 2 * (2 * k**4)) == 0

        lhs = sum(sp.trace(P_a[a] * S2_a[a]) for a in range(2))
        assert sp.simplify(lhs - 2 * (2 * k**3)) == 0

        lhs = sum(sp.trace(P * S2_a[a] * S2_a[a]) for a in range(2))
        assert sp.simplify(lhs - 2 * k**4) == 0

    def test_gauss_commutator_reduces_to_zero(self):
        k = sp.Symbol("kappa")
        L = k * sp.eye(2)
        L2 = L * L
        rhs = sp.trace(L) * L2 - sp.trace(L2) * L
        assert sp.simplify(rhs) == sp.zeros(2, 2)

    def test_plane_reduction_is_trivial(self):
        k, e, n, P, P_a, P_ab = self.symbolic_setup()
        for a in range(2):
            assert P_a[a].subs(k, 0) == sp.zeros(3, 3)
            for b in range(2):
                assert P_ab[a][b].subs(k, 0) == sp.zeros(3, 3)
