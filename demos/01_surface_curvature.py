"""Curvature of parametric surfaces and quadrature over them.

Builds the three stock surfaces, evaluates their curvature at points,
and checks the classical integral identities: surface area, enclosed
volume, and the total-curvature (Gauss-Bonnet) integral against the
declared topology.
"""

import math

import numpy as np

from cavityheat import (
    QuadratureSpec,
    ellipsoid,
    enclosed_volume,
    sphere,
    surface_integral,
    torus,
)
from cavityheat.geometry.curvature import curvature_grid

quad = QuadratureSpec(order=24)


def kappas(g):
    """Principal curvatures tr L/2 +- sqrt((tr L/2)^2 - det L)."""
    mean = g["trL"] / 2
    disc = math.sqrt(max(mean * mean - g["detL"], 0.0))
    return mean + disc, mean - disc


print("== pointwise curvature ==")
ball = sphere(1.0)
c = curvature_grid(ball.charts[0], 1.1, 0.7, order=4)
print(f"unit sphere: tr L = {c['trL']:.12f}  det L = {c['detL']:.12f}  "
      "kappas = ({:.6f}, {:.6f})".format(*kappas(c)))
print(f"             |grad tr L| = {math.sqrt(c['grad_trL_sq']):.2e}  "
      f"lap tr L = {c['lap_trL']:.2e}   (all flat, as it should be)")

ring = torus(2.0, 0.5)
outer = curvature_grid(ring.charts[0], 0.0, 1.0)
inner = curvature_grid(ring.charts[0], math.pi, 1.0)
print("torus outer equator: kappas = ({:.3f}, {:.3f})".format(*kappas(outer))
      + "   [1/tube, 1/(ring+tube)]")
print("torus inner equator: kappas = ({:.3f}, {:.3f})".format(*kappas(inner))
      + f"   saddle: det L = {inner['detL']:.3f}")

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
