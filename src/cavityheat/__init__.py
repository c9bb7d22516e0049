"""cavityheat: spectral geometry of smooth electromagnetic cavities.

Boundary-curvature heat-trace coefficients, exact p-form coefficient
tables with rational consistency checks, the exact ball spectrum as an
independent spectral oracle, small-t asymptotic fitting, and the
divergence structure of regularised Casimir mode sums.

Importing the package loads none of its layers: each public name is
imported from its submodule on first access (PEP 562), so a process
pays only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it provides
_SUBMODULES = {
    "geometry": (
        "QuadratureSpec", "SurfaceChart", "SurfaceModel", "TopologyInfo",
        "ellipsoid", "enclosed_volume", "sphere", "surface_integral", "torus",
        "trL_lap_trL_integral"),
    "geometry.identities": (
        "IdentityResiduals", "curvature_identity_residuals"),
    "tables": ("consistency_report", "harmonic_form_dims"),
    "coefficients": (
        "DeltaA3", "GeometricMoments", "HeatCoefficientSet", "Measurement",
        "PhiExpansion", "a3_local", "a3_local_kappa_variant",
        "compute_moments", "delta_a3", "em_coefficients",
        "form_coefficients", "gauss_bonnet_residual", "phi_expansion"),
    "spectrum": (
        "BESSEL", "ModeList", "SphericalBesselContract", "dirichlet_modes",
        "em_modes", "form_modes", "heat_trace", "heat_trace_samples",
        "min_usable_t", "neumann_modes", "resolvent2_expansion",
        "resolvent2_trace"),
    "asymptotics": ("FitConfig", "FitResult", "fit_coefficients"),
    "casimir": (
        "DivergencePrediction", "RegulatorKind", "RemainderScan",
        "detection_z", "divergence_prediction", "min_usable_gamma",
        "regularized_sum", "regulator_integral", "remainder_scan"),
    "surfacefile": ("load_surface", "loads_surface"),
    "errors": ("CutoffTooLowError", "SurfaceFileError"),
}
_SOURCE = {name: module for module, names in _SUBMODULES.items()
           for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
