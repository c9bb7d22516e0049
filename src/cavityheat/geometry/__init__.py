"""Surface geometry: charts, curvature, quadrature, tensor identities."""

from .charts import ChartError, SingularChartError, SurfaceChart
from .curvature import curvature_grid
from .models import SurfaceModel, TopologyInfo, ellipsoid, sphere, torus
from .quadrature import (
    EvaluationError,
    Measurement,
    OrientationError,
    QuadratureSpec,
    enclosed_volume,
    surface_integral,
    trL_lap_trL_integral,
)

__all__ = [
    "ChartError",
    "SingularChartError",
    "SurfaceChart",
    "curvature_grid",
    "SurfaceModel",
    "TopologyInfo",
    "sphere",
    "ellipsoid",
    "torus",
    "EvaluationError",
    "Measurement",
    "OrientationError",
    "QuadratureSpec",
    "enclosed_volume",
    "surface_integral",
    "trL_lap_trL_integral",
]
