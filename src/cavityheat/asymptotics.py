"""Series terms from Mellin poles, and the weighted fit of heat traces.

pole_terms generates the terms of a_n in each spectral sum.  (t, K,
bound) samples are fit against the heat trace's exponents with
per-sample uncertainty bound + |a_last| t^(3/2) + 1e-14 max(|K|, 1),
a_last the last basis coefficient of a first pass without that term.
Pinned coefficients are subtracted first; standard errors inflate by
sqrt(chi2/dof) when the residuals exceed the declared uncertainties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IllPosedFitError, NumericalError

__all__ = [
    "FitConfig",
    "FitResult",
    "IllPosedFitError",
    "fit_coefficients",
    "pole_terms",
    "weighted_power_fit",
]

# name in spectrum._SUMS -> (c, ((a, b), ...), (s0, s1)): the sum's weight
# has Mellin transform g(u) = c prod Gamma(a + b u), times zeta(s0 + s1 u)
_KERNELS = {"heat_trace": (1.0, ((0.0, 1.0),), (0.0, 1.0)),
            "heat": (1.0, ((0.0, 1.0),), (-0.5, 1.0)),
            "sqrt": (2.0, ((0.0, 2.0),), (-0.5, 1.0)),
            "resolvent2": (1.0, ((0.0, 1.0), (2.0, -1.0)), (2.0, -1.0))}


def pole_terms(kernel, depth):
    """(exponent of x, power of log x, factor of a_n) for each n < depth.

    zeta(s) has a pole at s = (3 - n)/2 with residue a_n / Gamma(s), so a_n's
    term is g(u) / Gamma(s) x^-u, a residue in u standing in for a Gamma
    value at its pole.  A pole of Gamma(s) alone leaves zeta regular, the
    term +0.0; one of g alone doubles the pole: -res g / Gamma(s) x^-u log x.
    """
    c, gammas, (s0, s1) = _KERNELS[kernel]
    # Gamma(s) cancels a factor of g equal to it, or else divides g
    factors = [(a, b, 1) for a, b in gammas if (a, b) != (s0, s1)]
    factors += [(s0, s1, -1)] * (len(factors) == len(gammas))
    terms = []
    for e in ((s0 - (3 - n) / 2) / s1 for n in range(depth)):     # e = -u
        order, factor = 0, c
        for a, b, p in factors:
            x = a - b * e
            pole = x <= 0 and x.is_integer()
            v = (-1) ** x / math.gamma(1 - x) / b if pole else math.gamma(x)
            order += p * pole
            factor *= v if p > 0 else 1 / v
        terms.append((e, max(order, 0),
                      0.0 if order < 0 else -factor if order else factor))
    return tuple(terms)


HALF_POWERS = tuple(e for e, _, _ in pole_terms("heat_trace", 6))

CONDITION_REPORT = 1e6      # report the condition number beyond this
CONDITION_LIMIT = 1e10      # refuse to solve beyond this


def _require_samples(n, free):
    if n < 2 * len(free):
        raise ValueError(f"need at least 2 grid points per free coefficient, "
                         f"got {n} for {len(free)}")


@dataclass(frozen=True)
class FitConfig:
    """Grid and basis choices for a coefficient fit."""

    t_lo: float
    t_hi: float
    n_points: int = 40
    exponents: tuple = HALF_POWERS
    pinned: dict = field(default_factory=dict)

    def __post_init__(self):
        bad = set(self.exponents) - set(HALF_POWERS)
        if bad:
            raise ValueError(f"exponents outside the half-power basis: {bad}")
        _require_samples(self.n_points, self.free)
        if not 0 < self.t_lo < self.t_hi:
            raise ValueError("need 0 < t_lo < t_hi")

    @property
    def free(self):
        return [e for e in self.exponents if e not in self.pinned]

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


@np.errstate(all="ignore")
def weighted_power_fit(design, b, sigma):
    """Column-scaled weighted least squares with honest standard errors.

    Returns (coefficients, stderrs, condition, chi2_dof, residual_norm).
    Raises IllPosedFitError for a condition beyond CONDITION_LIMIT, and
    NumericalError for a design that is not finite or an SVD that fails.
    """
    design = np.asarray(design, dtype=float)
    b = np.asarray(b, dtype=float)
    w = 1.0 / np.asarray(sigma, dtype=float)
    A = design * w[:, None]
    rhs = b * w
    scale = np.linalg.norm(A, axis=0)
    scale[scale == 0] = 1.0
    As = A / scale
    if not np.isfinite(As).all():
        raise NumericalError("non-finite weighted design")
    # SVD solve: the covariance diagonal V s^-2 V^T stays non-negative
    # even when the normal equations would be numerically indefinite
    try:
        U, s, Vt = np.linalg.svd(As, full_matrices=False)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"weighted fit: {err}") from None
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


@np.errstate(all="ignore")
def fit_coefficients(samples, config: FitConfig) -> FitResult:
    """Fit the (t, K, bound) arrays of heat_trace_samples to the basis."""
    t, K, bounds = (np.asarray(x, dtype=float) for x in samples)
    if not len(t) == len(K) == len(bounds):
        raise ValueError(f"t, K and bound columns differ in length: "
                         f"{len(t)}, {len(K)}, {len(bounds)}")
    free = config.free
    if not free:
        raise ValueError("at least one coefficient must remain free")
    _require_samples(len(t), free)
    target = K.copy()
    for e, value in config.pinned.items():
        target = target - value * t ** e
    design = np.column_stack([t ** e for e in free])
    floor = 1e-14 * np.maximum(np.abs(K), 1.0)
    first = weighted_power_fit(design, target, bounds + floor)[0]
    scale = abs(first[free.index(max(free))])
    coef, stderr, cond, chi2_dof, resid = weighted_power_fit(
        design, target, bounds + scale * t ** 1.5 + floor)
    for e, c, s in zip(free, coef, stderr):
        if not (math.isfinite(c) and math.isfinite(s)):
            raise NumericalError(f"non-finite t^{e:g} fit {c:g} +- {s:g}")

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
