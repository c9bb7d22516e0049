"""Heat-trace coefficients of a cavity from boundary curvature moments.

The six expansion coefficients a_0..a_5 (of sum_n a_n t^((n-3)/2)) are
linear in eleven geometric moments: the volume, the boundary area, and
integrals of tr L, (tr L)^2, det L, (tr L)^3, tr L det L, (tr L)^4,
(tr L)^2 det L, (det L)^2 and tr L lap(tr L) over the boundary.  The
ten boundary moments come from one call of the two-level integrator
:func:`cavityheat.geometry.quadrature.integrate`, the volume from
:func:`~cavityheat.geometry.quadrature.enclosed_volume`.  The exact
rational constants live in :mod:`cavityheat.tables`; floats enter only
in ``_combine``, which forms every linear combination of moments.

The reports read off a_3 and its neighbours live here too, so a
coefficient report needs no spectrum: the local part ``a3_local`` and
its flagged variant, :class:`DeltaA3` (the change of a_3 on inserting a
conducting surface, which is also the finite-frequency mode count) and
:func:`phi_expansion`, the large-k expansion of the mode generating
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import QuadratureSpec, SurfaceModel, TopologyInfo
from .geometry.curvature import curvature_grid
from .geometry.quadrature import Measurement, enclosed_volume, integrate
from .tables import (
    EM_EXACT,
    FOUR_PI_POWER,
    MOMENT_SLOTS,
    em_topology_term,
    form_exact,
)

__all__ = [
    "Measurement",
    "GeometricMoments",
    "HeatCoefficientSet",
    "compute_moments",
    "em_coefficients",
    "form_coefficients",
    "gauss_bonnet_residual",
    "gauss_bonnet_tolerance",
    "a3_local",
    "a3_local_kappa_variant",
    "DeltaA3",
    "delta_a3",
    "PhiExpansion",
    "phi_expansion",
]

# powers of length carried by each moment, for scaling checks
MOMENT_DIMENSIONS = {slot: 3 - n
                     for n, slots in MOMENT_SLOTS.items() for slot in slots}


@dataclass(frozen=True)
class GeometricMoments:
    """The eleven curvature moments of a closed surface, with errors.

    ``trL_lap_trL`` is evaluated as minus the integral of
    |grad tr L|^2 (integration by parts on a closed surface), which
    needs only third-order embedding derivatives.
    """

    volume: Measurement
    area: Measurement
    trL: Measurement
    trL2: Measurement
    detL: Measurement
    trL3: Measurement
    trL_detL: Measurement
    trL4: Measurement
    trL2_detL: Measurement
    detL2: Measurement
    trL_lap_trL: Measurement

    def __getitem__(self, slot):
        return getattr(self, slot)

    def as_dict(self):
        return {s: {"value": self[s].value, "error": self[s].error}
                for s in MOMENT_DIMENSIONS}

    def scaled(self, s):
        """Moments of the same surface scaled by x -> s x (for checks)."""
        kw = {name: self[name].scaled(s ** dim)
              for name, dim in MOMENT_DIMENSIONS.items()}
        return GeometricMoments(**kw)


def _boundary_fields(chart, U, V):
    """Area element and the ten boundary integrands from one grid."""
    g = curvature_grid(chart, U, V, order=3,
                       names=("w", "trL", "detL", "grad_trL_sq"))
    t, d = g["trL"], g["detL"]
    return g["w"], {
        "area": np.ones_like(t), "trL": t, "trL2": t * t, "detL": d,
        "trL3": t ** 3, "trL_detL": t * d,
        "trL4": t ** 4, "trL2_detL": t * t * d, "detL2": d * d,
        "trL_lap_trL": -g["grad_trL_sq"],
    }


def compute_moments(model: SurfaceModel, quad: QuadratureSpec) -> GeometricMoments:
    """All eleven moments of a closed model, with refinement error bars."""
    return GeometricMoments(volume=enclosed_volume(model, quad),
                            **integrate(model, _boundary_fields, quad))


@dataclass(frozen=True)
class HeatCoefficientSet:
    """Six heat-trace coefficients for one spectral problem.

    ``kind`` is "em" or "p0".."p3"; a_n carries dimension length^(3-n).
    """

    kind: str
    values: tuple
    errors: tuple

    def __post_init__(self):
        if len(self.values) != 6 or len(self.errors) != 6:
            raise ValueError("need exactly a_0..a_5")

    def __getitem__(self, n):
        return self.values[n]

    def as_dict(self):
        return {
            "kind": self.kind,
            "values": list(self.values),
            "errors": list(self.errors),
            "provenance": "quadrature",
        }

    def scaled(self, s):
        """Coefficients of the surface scaled by x -> s x: a_n -> s^(3-n) a_n."""
        return HeatCoefficientSet(
            kind=self.kind,
            values=tuple(a * s ** (3 - n) for n, a in enumerate(self.values)),
            errors=tuple(e * s ** (3 - n) for n, e in enumerate(self.errors)),
        )


def _combine(moments, coeffs, power=0):
    """Value and error of sum_slot c (4 pi)^power moment(slot), for
    ``{slot: c}``; each c becomes one float before the sum."""
    scale = (4.0 * math.pi) ** float(power)
    terms = [(float(c) * scale, moments[slot]) for slot, c in coeffs.items()]
    return Measurement(sum(c * m.value for c, m in terms),
                       sum(abs(c) * m.error for c, m in terms))


def _assemble(exact_map, moments):
    parts = [_combine(moments, exact_map[n], FOUR_PI_POWER[n])
             for n in range(6)]
    return [p.value for p in parts], [p.error for p in parts]


def em_coefficients(moments: GeometricMoments,
                    topology: TopologyInfo) -> HeatCoefficientSet:
    """Electromagnetic cavity coefficients a_0..a_5.

    a_1 is exactly zero; a_3 combines the local curvature integral with
    the topological constant 1 - (1/2) sum_i (1 + g_i).
    """
    values, errors = _assemble(EM_EXACT, moments)
    values[1], errors[1] = 0.0, 0.0
    values[3] += float(em_topology_term(topology))
    return HeatCoefficientSet("em", tuple(values), tuple(errors))


def form_coefficients(p: int, moments: GeometricMoments) -> HeatCoefficientSet:
    """Coefficients of the degree-p form Laplacian (p = 0..3)."""
    values, errors = _assemble(form_exact(p), moments)
    return HeatCoefficientSet(f"p{p}", tuple(values), tuple(errors))


def gauss_bonnet_residual(moments: GeometricMoments,
                          topology: TopologyInfo):
    """integral(det L) - 4 pi sum_i(1 - g_i); zero within quadrature error."""
    target = 4.0 * math.pi * topology.euler_sum()
    return Measurement(moments.detL.value - target, moments.detL.error)


def gauss_bonnet_tolerance(residual: Measurement) -> float:
    """Pass bound on |residual|: ten quadrature errors, never below 1e-8.

    A wrong declared genus moves the residual by 4 pi per unit of genus,
    far above either bound.
    """
    return max(1e-8, 10.0 * residual.error)


def a3_local(moments: GeometricMoments) -> Measurement:
    """Local (curvature-integral) part of the electromagnetic a_3.

    (1/64)(4 pi)^-1 * integral(3 (tr L)^2 - 4 det L); dimensionless and
    scale invariant.
    """
    return _combine(moments, EM_EXACT[3], FOUR_PI_POWER[3])


def a3_local_kappa_variant(moments: GeometricMoments) -> Measurement:
    """Alternative printed normalisation of the a_3 local part.

    (1/64) * integral(3/4 (k1^2 + k2^2) - k1 k2), i.e. without the
    (4 pi)^-1 and with a different det L weight.  For the unit ball this
    gives pi/32 instead of 1/8; it is *not* consistent with the p-form
    table routes or with spectral fits, and is reported for comparison
    only -- never substituted into downstream results.
    """
    # 3/4 (k1^2 + k2^2) - k1 k2 = 3/4 (tr L)^2 - 5/2 det L
    return _combine(moments, {"trL2": 0.75 / 64, "detL": -2.5 / 64})


@dataclass(frozen=True)
class DeltaA3:
    """Change of the total a_3 when a conducting surface is inserted.

    For a cavity with connected boundary of genus g inside a large ball,
    the three topological constants (cavity, complement shell, reference
    ball) are -(g-1)/2, -g/2 and +1/2; they sum to -g, while the local
    parts on the dividing surface double.  Hence delta a_3 =
    2 * a3_local - g, which is also the number of modes gained at finite
    frequency (Balian & Duplantier, Ann. Phys. 112 (1978) 165): the
    generating-function difference tends to the plateau
    ``delta_phi_constant`` = -2 * a3_local at high frequency, while its
    zero-frequency limit ``psi_zero_plus`` is -g.
    """

    genus: int
    a3_local: float
    nonlocal_parts: tuple
    nonlocal_sum: Fraction
    value: float

    @property
    def psi_zero_plus(self):
        return -float(self.genus)

    @property
    def delta_phi_constant(self):
        return -2.0 * self.a3_local

    def as_dict(self):
        """The ``mode_count`` block of a coefficient report."""
        return {"a3_local": self.a3_local, "genus": self.genus,
                "psi(0+)": self.psi_zero_plus,
                "delta_phi_constant": self.delta_phi_constant,
                "count": self.value}


def delta_a3(topology: TopologyInfo, a3_local_value) -> DeltaA3:
    if not topology.connected_boundary:
        raise ValueError(
            "delta_a3 is defined for a connected dividing surface only")
    g = topology.genera[0]
    parts = (-Fraction(g - 1, 2), -Fraction(g, 2), Fraction(1, 2))
    # cavity + shell - reference
    total = parts[0] + parts[1] - parts[2]
    assert total == -g
    a3l = float(a3_local_value)
    return DeltaA3(genus=g, a3_local=a3l, nonlocal_parts=parts,
                   nonlocal_sum=total, value=2.0 * a3l - g)


@dataclass(frozen=True)
class PhiExpansion:
    """Large-k expansion of the mode generating function Phi(k).

    Phi(k) = 2 sqrt(pi) a0 i k^3 - sqrt(pi) a1 k^2 ln(-k^2)
             + i sqrt(pi) a2 k - a3 + O(1/k),
    defined modulo polynomials in k^2, which makes the constant slot
    convention dependent; the resolvent normalisation above is reported
    as is.
    """

    ik3: float
    k2_log: float
    ik: float
    constant: float
    caveat: str = ("defined modulo an arbitrary polynomial in k^2; the "
                   "constant term follows the squared-resolvent route")

    def as_dict(self):
        return {"i*k^3": self.ik3, "k^2*ln(-k^2)": self.k2_log,
                "i*k": self.ik, "constant": self.constant,
                "caveat": self.caveat}


def phi_expansion(coeffs) -> PhiExpansion:
    sqpi = math.sqrt(math.pi)
    return PhiExpansion(
        ik3=2.0 * sqpi * coeffs[0],
        k2_log=-sqpi * coeffs[1],
        ik=sqpi * coeffs[2],
        constant=-coeffs[3],
    )
