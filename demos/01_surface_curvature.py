"""Curvature of parametric surfaces and quadrature over them.

Builds the three stock surfaces, samples their curvature, and checks
the classical integral identities: surface area, enclosed volume, and
the total-curvature (Gauss-Bonnet) integral against the declared
topology.
"""

import math

import numpy as np

from cavityheat import (
    QuadratureSpec,
    curvature_at,
    ellipsoid,
    enclosed_volume,
    sphere,
    surface_integral,
    torus,
)
from cavityheat.geometry.curvature import curvature_grid

quad = QuadratureSpec(order=24)

print("== pointwise curvature ==")
ball = sphere(1.0)
c = curvature_at(ball.charts[0], 1.1, 0.7, laplacian=True)
print(f"unit sphere: tr L = {c.trL:.12f}  det L = {c.detL:.12f}  "
      f"kappas = ({c.kappa1:.6f}, {c.kappa2:.6f})")
print(f"             |grad tr L| = {np.linalg.norm(c.grad_trL):.2e}  "
      f"lap tr L = {c.lap_trL:.2e}   (all flat, as it should be)")

ring = torus(2.0, 0.5)
outer = curvature_at(ring.charts[0], 0.0, 1.0)
inner = curvature_at(ring.charts[0], math.pi, 1.0)
print(f"torus outer equator: kappas = ({outer.kappa1:.3f}, {outer.kappa2:.3f})"
      f"   [1/tube, 1/(ring+tube)]")
print(f"torus inner equator: kappas = ({inner.kappa1:.3f}, {inner.kappa2:.3f})"
      f"   saddle: det L = {inner.detL:.3f}")

print("\n== integral identities ==")
for model, vol in ((ball, 4 * math.pi / 3),
                   (ellipsoid(1.0, 1.0, 2.0), 8 * math.pi / 3),
                   (ring, math.pi**2)):
    got = enclosed_volume(model, quad)
    print(f"{model.name:25s} volume {got.value:.12f} (exact {vol:.12f}, "
          f"quadrature error estimate {got.error:.1e})")

print("\n== total curvature vs topology ==")
def det_L(chart, U, V):
    return curvature_grid(chart, U, V)["detL"]

for model in (ball, ellipsoid(1.0, 1.3, 1.7), ring):
    total = surface_integral(model, det_L, quad)
    target = 4 * math.pi * model.topology.euler_sum()
    print(f"{model.name:25s} integral(det L) = {total.value:+.12f}   "
          f"4 pi sum(1-g) = {target:+.12f}")

print("\n== integration by parts on a closed surface ==")
from cavityheat import compute_moments, trL_lap_trL_integral

# the moment a_5 uses is minus the integral of |grad tr L|^2
egg = ellipsoid(1.0, 1.3, 1.7)
a = -compute_moments(egg, quad).trL_lap_trL.value
b = trL_lap_trL_integral(egg, quad).value
print(f"ellipsoid: integral |grad tr L|^2     = {a:+.9f}")
print(f"           integral tr L * lap tr L   = {b:+.9f}")
print(f"           sum (must vanish)          = {a + b:+.2e}")
# both integrands come from one embedding jet per grid: order 3 carries
# |grad tr L|^2, order 4 adds lap tr L
U, V, _ = quad.grid(egg.charts[0])
g = curvature_grid(egg.charts[0], U, V, order=4)
print(f"           on one order-4 grid: max |grad tr L|^2 = "
      f"{g['grad_trL_sq'].max():.4f}, max |lap tr L| = "
      f"{np.abs(g['lap_trL']).max():.4f}")
