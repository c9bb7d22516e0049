"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL
line per criterion.  Criteria:

 1. exact rational table consistency, both pairing routes, < 1 s
 2. unit-ball closed forms at quadrature order 32, 1e-10 relative, < 1 s
 3. spectral reproduction at omega_max = 60 for the electromagnetic,
    value-fixed and flux-fixed problems, < 60 s
 4. total-curvature (Gauss-Bonnet) integrals at order 64, 1e-8
 5. curvature-identity residuals < 1e-6 at 20 seeded points, plus
    exact symbolic reductions on the sphere/plane
 6. regulated-sum divergence structure for both regulators with a
    planted-defect sensitivity check, < 60 s
 7. squared-resolvent trace against the six-term large-mu expansion
 8. finite-mode-count consistency and the flagged a3-local variant
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
import sympy as sp

from cavityheat import (
    QuadratureSpec,
    RegulatorKind,
    TopologyInfo,
    detection_z,
    divergence_prediction,
    ellipsoid,
    remainder_scan,
    sphere,
    torus,
)
from cavityheat.asymptotics import FitConfig, fit_coefficients
from cavityheat.coefficients import (
    a3_local,
    a3_local_kappa_variant,
    compute_moments,
    delta_a3,
    em_coefficients,
    form_coefficients,
)
from cavityheat.geometry.curvature import curvature_grid
from cavityheat.geometry.identities import curvature_identity_residuals
from cavityheat.geometry.quadrature import surface_integral
from cavityheat.spectrum import (
    dirichlet_modes,
    em_modes,
    heat_trace_samples,
    neumann_modes,
    resolvent2_expansion,
    resolvent2_trace,
)
from cavityheat.tables import consistency_report, harmonic_form_dims

SQPI = math.sqrt(math.pi)
BALL_EM = (1 / (3 * SQPI), 0.0, -4 / (3 * SQPI), 5 / 8,
           -16 / (315 * SQPI), 1 / 320)


@contextmanager
def criterion(number, description):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL  {description}"
              f"  [{time.perf_counter() - t0:.1f}s]")
        raise
    print(f"ACCEPTANCE {number}: PASS  {description}"
          f"  [{time.perf_counter() - t0:.1f}s]")


@pytest.fixture(scope="module")
def store():
    return {}


def test_criterion_1_exact_tables():
    with criterion(1, "exact p-form table consistency, both routes"):
        t0 = time.perf_counter()
        topologies = [TopologyInfo(1, (0,)), TopologyInfo(1, (2,)),
                      TopologyInfo(2, (0, 1)), TopologyInfo(3, (1, 2, 0))]
        for topo in topologies:
            checks = consistency_report(topo)
            bad = [c for c in checks if not c.ok]
            assert not bad, bad
            names = {c.name for c in checks}
            # both routes cover k = 0, 1, 2, 4, 5, the two a_3 routes
            # and the quoted 28 / -36 combination lines
            for route in ("p1-p0", "p2-p3"):
                for n in (0, 1, 2, 4, 5):
                    assert any(name.startswith(f"a{n}[")
                               and name.endswith(route) for name in names)
                assert f"a3[topology]:{route}" in names
                assert f"a3-combination:{route}" in names
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_unit_ball_closed_forms(store):
    with criterion(2, "unit-ball closed forms at order 32, 1e-10 relative"):
        t0 = time.perf_counter()
        moments = compute_moments(sphere(1.0), QuadratureSpec(order=32))
        coeffs = em_coefficients(moments, TopologyInfo(1, (0,)))
        for got, want in zip(coeffs.values, BALL_EM):
            if want == 0.0:
                assert got == 0.0
            else:
                assert abs(got - want) <= 1e-10 * abs(want), (got, want)
        assert time.perf_counter() - t0 < 1.0
        store["ball_moments"] = moments
        store["ball_coeffs"] = coeffs


def test_criterion_3_spectral_reproduction(store):
    with criterion(3, "spectral fits at omega_max 60: EM, p0 and p3"):
        t0 = time.perf_counter()
        config = FitConfig(t_lo=0.006, t_hi=0.06, n_points=40)
        ball = TopologyInfo(1, (0,))
        moments = store.get("ball_moments") or compute_moments(
            sphere(1.0), QuadratureSpec(order=32))

        em = em_modes(60.0)
        fit = fit_coefficients(heat_trace_samples(em, config.t_grid()), config)
        assert abs(fit.a(0) - BALL_EM[0]) <= 1e-3 * BALL_EM[0]
        assert abs(fit.a(1)) < 1e-3
        assert abs(fit.a(2) - BALL_EM[2]) <= 1e-2 * abs(BALL_EM[2])
        assert abs(fit.a(3) - 0.625) <= 0.01
        print(f"  em fit: a0 off {abs(fit.a(0)/BALL_EM[0]-1):.1e}, "
              f"a1 {fit.a(1):+.1e}, a2 off {abs(fit.a(2)/BALL_EM[2]-1):.1e}, "
              f"a3 {fit.a(3):.5f} ({em.count} modes)")

        # scalar problems against the p-form table values; the mode lists
        # omit zero modes, so the fitted constant shifts by the harmonic
        # dimension of the problem (0 at p=0, 1 at p=3)
        for p, modes in ((0, dirichlet_modes(60.0)), (3, neumann_modes(60.0))):
            table = form_coefficients(p, moments)
            dim_h = harmonic_form_dims(ball)[p]
            fitp = fit_coefficients(
                heat_trace_samples(modes, config.t_grid()), config)
            assert abs(fitp.a(0) - table[0]) <= 1e-3 * abs(table[0])
            assert abs(fitp.a(1) - table[1]) <= 2.5e-3
            assert abs(fitp.a(2) - table[2]) <= 1e-2 * abs(table[2])
            assert abs(fitp.a(3) + dim_h - table[3]) <= 0.01
            print(f"  p{p} fit: a1 {fitp.a(1):+.5f} (want {table[1]:+.3f}), "
                  f"a3+dim {fitp.a(3) + dim_h:+.5f} (want {table[3]:+.5f})")
        assert time.perf_counter() - t0 < 60.0


def test_criterion_4_gauss_bonnet():
    with criterion(4, "total curvature at order 64 within 1e-8"):
        def det_L(chart, U, V):
            return curvature_grid(chart, U, V, names=("detL",))["detL"]

        # the refined level of an order-32 integral is the order-64 rule
        q32 = QuadratureSpec(order=32)
        for model, want in ((sphere(1.0), 4 * math.pi),
                            (ellipsoid(1.0, 1.3, 1.7), 4 * math.pi),
                            (torus(2.0, 0.5), 0.0)):
            got = surface_integral(model, det_L, q32).value
            assert abs(got - want) < 1e-8, (model.name, got)


def test_criterion_5_identity_residuals():
    with criterion(5, "identity residuals < 1e-6 at 20 seeded points"):
        rng = np.random.default_rng(20240815)
        for model, (u_lo, u_hi) in ((ellipsoid(1.0, 1.3, 1.7), (0.4, 2.7)),
                                    (torus(2.0, 0.5), (0.0, 2 * math.pi))):
            u, v = rng.uniform((u_lo, 0.0), (u_hi, 2 * math.pi), (20, 2)).T
            res = curvature_identity_residuals(model.charts[0], u, v)
            worst = res.max_residual
            assert res.violations() == {}, model.name
            assert worst < 1e-6, (model.name, worst)
            print(f"  {model.name}: worst residual {worst:.2e}")

        # symbolic reductions at a constant-curvature point: exact zeros
        k = sp.Symbol("kappa")
        e = [sp.Matrix([1, 0, 0]), sp.Matrix([0, 1, 0])]
        n = sp.Matrix([0, 0, 1])
        P = n * n.T
        P_a = [-k * (e[a] * n.T + n * e[a].T) for a in range(2)]
        for a in range(2):
            for b in range(2):
                lhs = sp.trace(P_a[a] * P_a[b])
                assert sp.simplify(lhs - 2 * k**2 * sp.eye(2)[a, b]) == 0
                assert lhs.subs(k, 0) == 0  # plane reduction
        quartic = sum(sp.trace(P_a[a] * P_a[a] * P_a[b] * P_a[b])
                      for a in range(2) for b in range(2))
        assert sp.simplify(quartic - (2 * k**4 + 4 * k**4)) == 0
        assert quartic.subs(k, 1) == 6


def test_criterion_6_casimir_finiteness(store):
    with criterion(6, "divergence structure, both regulators, with "
                      "planted-defect sensitivity"):
        t0 = time.perf_counter()
        coeffs = store.get("ball_coeffs") or em_coefficients(
            compute_moments(sphere(1.0), QuadratureSpec(order=32)),
            TopologyInfo(1, (0,)))
        em = em_modes(200.0)
        store["em200"] = em
        store["coeffs"] = coeffs
        gammas = np.geomspace(1e-4, 1e-2, 60)

        for kind in (RegulatorKind.HEAT, RegulatorKind.SQRT):
            pred = divergence_prediction(coeffs.values, kind)
            clean = remainder_scan(em, pred, gammas)
            value, err = clean.half_power
            assert abs(value) <= err, (kind, value, err)
            print(f"  {kind.name}: half-power {value:+.2e} +- {err:.1e} "
                  f"(z = {clean.z_half:.2f})")

            if kind is RegulatorKind.HEAT:
                defect = remainder_scan(em, pred.without("g_m1"), gammas)
                z = detection_z(clean, defect)
            else:
                # the square-root regulator needs gamma beyond 1e-2 for
                # the truncated sum to resolve a missing gamma^-1 term;
                # the sensitivity check therefore extends the grid
                wide = np.geomspace(1e-4, 1e-1, 60)
                clean_w = remainder_scan(em, pred, wide)
                defect = remainder_scan(em, pred.without("g_m1"), wide)
                z = detection_z(clean_w, defect)
            assert z > 5.0, (kind, z)
            print(f"  {kind.name}: omitted-term defect detected at "
                  f"{z:.0f} sigma")

        # both regulators cut off at omega ~ gamma^-1/2, so the ball's
        # log(gamma) divergence is one number under either
        heat, sqrt = (divergence_prediction(coeffs.values, kind)
                      for kind in RegulatorKind)
        assert heat.g_log == sqrt.g_log, (heat.g_log, sqrt.g_log)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_7_resolvent_route(store):
    with criterion(7, "squared resolvent vs six-term expansion"):
        em = store.get("em200") or em_modes(200.0)
        coeffs = store.get("coeffs") or em_coefficients(
            compute_moments(sphere(1.0), QuadratureSpec(order=32)),
            TopologyInfo(1, (0,)))
        for mu in (50.0, 120.0, 250.0, 500.0):
            r = resolvent2_trace(em, mu)
            model = resolvent2_expansion(coeffs.values, mu)
            bound = r.tail_sigma + math.gamma(3.5) * abs(coeffs[5]) * mu**-3.5
            assert abs(r.value - model) <= bound, (mu, r.value - model, bound)
        print(f"  mu=500: deviation {abs(r.value - model):.2e} "
              f"within bound {bound:.2e}")


def test_criterion_8_mode_count(store):
    with criterion(8, "mode count C = 2 a3_local - g and flagged variant"):
        moments = store.get("ball_moments") or compute_moments(
            sphere(1.0), QuadratureSpec(order=32))
        a3l = a3_local(moments)
        assert a3l.value == pytest.approx(0.125, rel=1e-10)

        report = delta_a3(TopologyInfo(1, (0,)), a3l.value)
        assert report["count"] == pytest.approx(0.25, rel=1e-10)

        # the alternative printed normalisation is reported separately,
        # never substituted: for the ball it gives pi/32, not 1/8
        variant = a3_local_kappa_variant(moments)
        assert variant.value == pytest.approx(math.pi / 32, rel=1e-10)
        assert abs(variant.value - a3l.value) > 0.02
        assert report["a3_local"] == a3l.value
