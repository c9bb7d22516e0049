"""Exact eigenvalues of the ball: scalar and electromagnetic families.

Enumerates the spectrum from spherical-Bessel roots with guaranteed
completeness (interlacing brackets refined by false position and
bisection), shows the lowest modes, checks the counting function
against its leading growth, and exports a CSV that the fitting tools
can consume.
"""

import math

from cavityheat import dirichlet_modes, em_modes, heat_trace, neumann_modes

em = em_modes(60.0)
print(f"electromagnetic spectrum to omega = 60: {len(em)} distinct "
      f"(l, m) pairs, {em.count} modes with multiplicity")

print("\nlowest ten electromagnetic modes:")
print("  family   l  m   omega        multiplicity")
for i in range(10):
    print(f"  {em.family[i]:6s}  {em.l[i]:2d} {em.m[i]:2d}   "
          f"{math.sqrt(em.lam[i]):.9f}   {em.multiplicity[i]}")

print("\ncounting function vs leading growth C w^3, C = 4/(9 pi):")
C = 4.0 / (9.0 * math.pi)
for w in (20, 30, 40, 50, 60):
    n = em.n_below(w)
    print(f"  N({w}) = {n:6d}   ratio to C w^3: {n / (C * w**3):.4f}")

print("\nscalar spectra (value-fixed / flux-fixed):")
for name, modes in (("dirichlet", dirichlet_modes(20.0)),
                    ("neumann", neumann_modes(20.0))):
    lo = math.sqrt(modes.lam.min())
    print(f"  {name:10s} {modes.count:5d} modes below omega=20, "
          f"lowest omega = {lo:.9f}")

print("\nheat trace against the curvature prediction:")
from cavityheat import QuadratureSpec, TopologyInfo, sphere
from cavityheat.coefficients import compute_moments, em_coefficients

coeffs = em_coefficients(compute_moments(sphere(1.0), QuadratureSpec(16)),
                         TopologyInfo(1, (0,)))
print("      t        spectral K(t)    curvature model   difference")
for t in (0.05, 0.02, 0.01):
    K, bound = heat_trace(em, t)
    model = sum(coeffs[n] * t ** ((n - 3) / 2) for n in range(6))
    print(f"  {t:7.3f}   {K:14.6f}   {model:14.6f}   {K - model:+.2e}")

path = "demo_modes_em.csv"
em.to_csv(path)
print(f"\nwrote {path} (+ .meta.json sidecar) for the fitting demos")
