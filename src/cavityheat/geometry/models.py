"""Closed surface models: charts plus declared topology.

The topology (component count and genera) is part of the model
declaration, never inferred from quadrature; the total-curvature
integral then provides an independent Gauss-Bonnet consistency check,
integral of det L over the boundary = 4 pi * sum_i (1 - g_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .charts import ChartError, SurfaceChart

__all__ = ["TopologyInfo", "SurfaceModel", "sphere", "ellipsoid", "torus"]


@dataclass(frozen=True)
class TopologyInfo:
    """Number of boundary components and the genus of each."""

    components: int
    genera: tuple

    def __post_init__(self):
        if self.components < 1:
            raise ValueError("need at least one boundary component")
        if len(self.genera) != self.components:
            raise ValueError(
                f"{self.components} components but {len(self.genera)} genera"
            )
        if any(g < 0 for g in self.genera):
            raise ValueError("genera must be non-negative")
        object.__setattr__(self, "genera", tuple(int(g) for g in self.genera))

    @property
    def total_genus(self):
        return sum(self.genera)

    def euler_sum(self):
        """sum_i (1 - g_i); the Gauss-Bonnet integral equals 4 pi times this."""
        return sum(1 - g for g in self.genera)

    @property
    def connected_boundary(self):
        return self.components == 1


@dataclass(frozen=True)
class SurfaceModel:
    """A closed surface: one or more charts per component, plus topology."""

    name: str
    charts: tuple
    topology: TopologyInfo
    closed_form_area: float = None
    closed_form_volume: float = None

    def __post_init__(self):
        if not self.charts:
            raise ChartError("a surface model needs at least one chart")


def sphere(radius=1.0) -> SurfaceModel:
    """Round sphere of the given radius, inward normal (tr L = 2/radius)."""
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius!r}")
    chart = SurfaceChart.from_expressions(
        "R*sin(u)*cos(v)", "R*sin(u)*sin(v)", "R*cos(u)",
        params={"R": radius},
        u_range=(0, math.pi), v_range=(0, 2 * math.pi), periodic_v=True,
        normal_sign=-1, name=f"sphere(R={radius})",
    )
    return SurfaceModel(
        name=f"sphere(R={radius})",
        charts=(chart,),
        topology=TopologyInfo(1, (0,)),
        closed_form_area=4.0 * math.pi * radius ** 2,
        closed_form_volume=4.0 * math.pi * radius ** 3 / 3.0,
    )


def ellipsoid(a=1.0, b=1.0, c=1.0) -> SurfaceModel:
    """Axis-aligned ellipsoid with semi-axes a, b, c."""
    if not all(math.isfinite(s) and s > 0 for s in (a, b, c)):
        raise ValueError(
            f"semi-axes must be finite and positive, got {(a, b, c)!r}")
    chart = SurfaceChart.from_expressions(
        "a*sin(u)*cos(v)", "b*sin(u)*sin(v)", "c*cos(u)",
        params={"a": a, "b": b, "c": c},
        u_range=(0, math.pi), v_range=(0, 2 * math.pi), periodic_v=True,
        normal_sign=-1, name=f"ellipsoid({a},{b},{c})",
    )
    return SurfaceModel(
        name=f"ellipsoid({a},{b},{c})",
        charts=(chart,),
        topology=TopologyInfo(1, (0,)),
        closed_form_volume=4.0 * math.pi * a * b * c / 3.0,
    )


def torus(ring_radius=2.0, tube_radius=0.5) -> SurfaceModel:
    """Torus of revolution; the tube centre circle has radius ring_radius.

    With the inward normal, both principal curvatures are positive on the
    outer equator and the Gauss curvature integrates to zero (genus 1).
    """
    if not 0 < tube_radius < ring_radius < math.inf:
        raise ValueError("need 0 < tube_radius < ring_radius < inf")
    chart = SurfaceChart.from_expressions(
        "(R + r*cos(u))*cos(v)", "(R + r*cos(u))*sin(v)", "r*sin(u)",
        params={"R": ring_radius, "r": tube_radius},
        u_range=(0, 2 * math.pi), v_range=(0, 2 * math.pi),
        periodic_u=True, periodic_v=True,
        normal_sign=1, name=f"torus({ring_radius},{tube_radius})",
    )
    return SurfaceModel(
        name=f"torus({ring_radius},{tube_radius})",
        charts=(chart,),
        topology=TopologyInfo(1, (1,)),
        closed_form_area=4.0 * math.pi ** 2 * ring_radius * tube_radius,
        closed_form_volume=2.0 * math.pi ** 2 * ring_radius * tube_radius ** 2,
    )
