"""Weighted least-squares extraction of heat-trace coefficients.

Samples of K(t) on a small-t grid are fit against the half-integer power
basis t^(-3/2) .. t^1.  Per-sample uncertainties combine the spectral
truncation bound with a next-order contamination model (the
last-included-term heuristic, |a_last| * t^(3/2)); known coefficients
can be pinned and are subtracted before solving.  Standard errors come
from the weighted normal equations, inflated by sqrt(chi2/dof) when the
residuals exceed the declared uncertainties, so quoted errors remain
honest when the model floor is optimistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IllPosedFitError

__all__ = [
    "FitConfig",
    "FitResult",
    "IllPosedFitError",
    "fit_coefficients",
    "weighted_power_fit",
]

HALF_POWERS = (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0)

CONDITION_REPORT = 1e6      # report the condition number beyond this
CONDITION_LIMIT = 1e10      # refuse to solve beyond this


@dataclass(frozen=True)
class FitConfig:
    """Grid, basis and weighting choices for a coefficient fit."""

    t_lo: float
    t_hi: float
    n_points: int = 40
    exponents: tuple = HALF_POWERS
    pinned: dict = field(default_factory=dict)
    weight_mode: str = "model"      # "model" | "bounds" | "uniform"
    next_order_scale: float = None  # |a_last| heuristic; estimated if None

    def __post_init__(self):
        if not 0 < self.t_lo < self.t_hi:
            raise ValueError("need 0 < t_lo < t_hi")
        bad = set(self.exponents) - set(HALF_POWERS)
        if bad:
            raise ValueError(f"exponents outside the half-power basis: {bad}")
        free = [e for e in self.exponents if e not in self.pinned]
        if self.n_points < 2 * len(free):
            raise ValueError("need at least 2 grid points per free coefficient")

    def t_grid(self):
        return np.geomspace(self.t_lo, self.t_hi, self.n_points)


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients keyed by basis exponent, with standard errors."""

    coefficients: dict          # exponent -> (value, stderr)
    pinned: dict
    residual_norm: float
    condition_number: float
    chi2_dof: float
    window: tuple
    n_samples: int

    def value(self, exponent):
        if exponent in self.pinned:
            return self.pinned[exponent]
        return self.coefficients[exponent][0]

    def stderr(self, exponent):
        if exponent in self.pinned:
            return 0.0
        return self.coefficients[exponent][1]

    def a(self, n):
        """Coefficient a_n addressed by expansion order (exponent (n-3)/2)."""
        return self.value((n - 3) / 2)

    def as_dict(self):
        return {
            "coefficients": {str(e): [v, s]
                             for e, (v, s) in self.coefficients.items()},
            "pinned": {str(e): v for e, v in self.pinned.items()},
            "residual_norm": self.residual_norm,
            "condition_number": self.condition_number,
            "chi2_dof": self.chi2_dof,
            "window": list(self.window),
            "n_samples": self.n_samples,
        }


def weighted_power_fit(design, b, sigma):
    """Column-scaled weighted least squares with honest standard errors.

    Returns (coefficients, stderrs, condition, chi2_dof, residual_norm).
    Raises IllPosedFitError when the scaled design is numerically rank
    deficient beyond CONDITION_LIMIT.
    """
    design = np.asarray(design, dtype=float)
    b = np.asarray(b, dtype=float)
    w = 1.0 / np.asarray(sigma, dtype=float)
    A = design * w[:, None]
    rhs = b * w
    scale = np.linalg.norm(A, axis=0)
    scale[scale == 0] = 1.0
    As = A / scale
    # SVD solve: the covariance diagonal V s^-2 V^T stays non-negative
    # even when the normal equations would be numerically indefinite
    U, s, Vt = np.linalg.svd(As, full_matrices=False)
    cond = float(s[0] / s[-1]) if s[-1] > 0 else math.inf
    if cond > CONDITION_LIMIT:
        raise IllPosedFitError(
            f"design condition number {cond:.3g} > {CONDITION_LIMIT:g}; "
            "narrow the basis or widen the sample window")
    def solve(r):
        return Vt.T @ ((U.T @ r) / s)

    y = solve(rhs)
    # one step of iterative refinement recovers the small coefficients
    # to near machine precision despite the Vandermonde-like conditioning
    y = y + solve(rhs - As @ y)
    coef = y / scale
    resid = rhs - As @ y
    dof = max(len(b) - len(coef), 1)
    chi2_dof = float(resid @ resid) / dof
    cov_diag = np.sum((Vt.T / s) ** 2, axis=1)
    stderr = np.sqrt(cov_diag) / scale * max(1.0, np.sqrt(chi2_dof))
    return coef, stderr, cond, chi2_dof, float(np.linalg.norm(resid))


def _sigma_model(t, bounds, K, config, last_coef_guess):
    floor = 1e-14 * np.maximum(np.abs(K), 1.0)
    if config.weight_mode == "uniform":
        return np.ones_like(t)
    if config.weight_mode == "bounds":
        return bounds + floor
    scale = (abs(last_coef_guess) if config.next_order_scale is None
             else config.next_order_scale)
    return bounds + scale * t ** 1.5 + floor


def fit_coefficients(samples, config: FitConfig) -> FitResult:
    """Fit heat-trace samples (t, K, bound) to the half-power basis.

    ``samples`` is a (t, K, bound) triple of arrays (the output of
    ``heat_trace_samples``) or an iterable of such rows.
    """
    t, K, bounds = (np.asarray(x, dtype=float) for x in _as_columns(samples))
    free = [e for e in config.exponents if e not in config.pinned]
    if not free:
        raise ValueError("at least one coefficient must remain free")
    target = K.copy()
    for e, value in config.pinned.items():
        target = target - value * t ** e

    def solve(last_guess):
        sigma = _sigma_model(t, bounds, K, config, last_guess)
        design = np.column_stack([t ** e for e in free])
        return weighted_power_fit(design, target, sigma)

    # two passes: the first estimates the last-basis coefficient that
    # feeds the next-order contamination model of the second
    coef, *_ = solve(0.0)
    last = coef[free.index(max(free))]
    coef, stderr, cond, chi2_dof, resid = solve(last)

    return FitResult(
        coefficients={e: (float(c), float(s))
                      for e, c, s in zip(free, coef, stderr)},
        pinned=dict(config.pinned),
        residual_norm=resid,
        condition_number=cond,
        chi2_dof=chi2_dof,
        window=(float(t.min()), float(t.max())),
        n_samples=len(t),
    )


def _as_columns(samples):
    if isinstance(samples, tuple) and len(samples) == 3:
        return samples
    rows = np.asarray(list(samples), dtype=float)
    return rows[:, 0], rows[:, 1], rows[:, 2]

