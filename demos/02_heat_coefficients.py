"""Heat-trace coefficients from boundary curvature integrals.

Computes the six electromagnetic coefficients a_0..a_5 for the unit
ball and a torus, the four p-form coefficient sets they decompose into,
and the exact rational consistency relations tying everything together.
"""

from fractions import Fraction

from cavityheat import QuadratureSpec, TopologyInfo, sphere, torus
from cavityheat.coefficients import (
    a3_local,
    a3_local_kappa_variant,
    compute_moments,
    delta_a3,
    em_coefficients,
    form_coefficients,
    gauss_bonnet_residual,
)
from cavityheat.tables import consistency_report

quad = QuadratureSpec(order=32)

print("== unit ball ==")
ball = sphere(1.0)
moments = compute_moments(ball, quad)
coeffs = em_coefficients(moments, ball.topology)

closed = ("1/(3 sqrt pi)", "0", "-4/(3 sqrt pi)", "5/8",
          "-16/(315 sqrt pi)", "1/320")
for n, (value, err, label) in enumerate(zip(coeffs.values, coeffs.errors,
                                            closed)):
    print(f"  a{n} = {value:+.12f}  (= {label}, quad err {err:.1e})")

print("\n  per-form sets (a3 column):")
for p in range(4):
    fp = form_coefficients(p, moments)
    frac = Fraction(fp[3]).limit_denominator(10**6)
    print(f"    degree {p}: a3 = {fp[3]:+.10f}  ({frac})")

print("\n  differences reproduce the electromagnetic set:")
f = {p: form_coefficients(p, moments) for p in range(4)}
for n in (0, 2, 4, 5):
    d1 = f[1][n] - f[0][n]
    d2 = f[2][n] - f[3][n]
    print(f"    a{n}: routes give {d1:+.10f} / {d2:+.10f} "
          f"vs {coeffs[n]:+.10f}")

print("\n== exact rational table relations ==")
checks = consistency_report(ball.topology)
print(f"  {sum(c.ok for c in checks)}/{len(checks)} relations hold exactly "
      f"(rational arithmetic, no floats)")

print("\n== torus (genus 1) ==")
ring = torus(2.0, 0.5)
tm = compute_moments(ring, quad)
tc = em_coefficients(tm, ring.topology)
gb = gauss_bonnet_residual(tm, ring.topology)
print(f"  a3 = {tc[3]:+.10f}   (local part {a3_local(tm).value:+.10f}, "
      f"topology term {-0.5 * 2 + 1:+.1f})")
print(f"  total curvature residual: {gb.value:+.2e}")

print("\n== scale covariance ==")
big = em_coefficients(compute_moments(sphere(2.5), quad),
                      TopologyInfo(1, (0,)))
for n in (0, 3, 5):
    ratio = big[n] / coeffs[n]
    print(f"  a{n}(R=2.5)/a{n}(R=1) = {ratio:.10f}  "
          f"(2.5^{3 - n} = {2.5 ** (3 - n):.10f})")

print("\n== the finite-mode-count combination ==")
a3l = a3_local(moments)
d3 = delta_a3(TopologyInfo(1, (0,)), a3l.value)
print(f"  ball: a3_local = {a3l.value:.6f},  delta a3 = 2*a3_local - g "
      f"= {d3['count']:.6f}")
kv = a3_local_kappa_variant(moments)
print(f"  (alternative printed normalisation would give {kv.value:.6f} "
      f"= pi/32; reported for comparison, never substituted)")
