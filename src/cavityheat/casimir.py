"""Divergence structure of regularised frequency sums.

The regulated zero-point sum S(gamma) = sum_k multiplicity * sqrt(lambda)
* regulator(gamma, lambda) diverges as gamma -> 0 in the slots g^-2,
g^-3/2, g^-1, g^-1/2 and log g: a_0..a_4 times the factors that
asymptotics.pole_terms generates from the poles of the spectral zeta
function (Kirsten, Spectral Functions in Mathematics and Physics, 2002).
The gamma^-1/2 slot is exactly zero for both regulators -- a_3 drops out
of the divergence, which is what makes the energy difference finite.
``remainder_scan`` verifies this numerically: it fits
S(gamma) - prediction(gamma) against {1, g^-1/2, g^1/2 log g, g^1/2} and
checks that the g^-1/2 component is compatible with zero, while a
deliberately omitted prediction term is loudly detected.  S(gamma) and
its tail are the "heat" and "sqrt" sums of spectrum.sum_parts, which
keeps them on the mode list, so a clean scan and its planted-defect
scan on one grid cost one set of sums.  A point is usable while its
tail is at most REGULATED_RTOL = 0.5 times the raw sum, and a scan
reads "finite" while the g^-1/2 component lies within FINITE_Z = 2
standard errors of zero.

Related quantities: the single regulator integrals
int_0^1 t^-1/2 (t+gamma)^((n-5)/2) dt with their small-gamma
asymptotes, which no verdict or artifact reads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .asymptotics import IllPosedFitError, pole_terms, weighted_power_fit
from .errors import NumericalError
from .spectrum import (
    CutoffTooLowError,
    ModeList,
    TailCorrected,
    smallest_usable,
    sum_parts,
)

__all__ = [
    "RegulatorKind",
    "regularized_sum",
    "min_usable_gamma",
    "regulator_integral",
    "DivergencePrediction",
    "divergence_prediction",
    "RemainderScan",
    "remainder_scan",
    "detection_z",
]

class RegulatorKind(enum.Enum):
    """Frequency damping factor: exp(-g*lam) or exp(-sqrt(g*lam))."""

    HEAT = "heat"
    SQRT = "sqrt"


# largest tail-to-raw ratio at which a regulated sum is usable
REGULATED_RTOL = 0.5
# largest significance of the gamma^-1/2 component read as "finite"
FINITE_Z = 2.0


def regularized_sum(modes: ModeList, gamma,
                    kind: RegulatorKind) -> TailCorrected:
    """Exactly rounded sum of multiplicity * sqrt(lambda) * regulator.

    Returns the raw partial sum together with the calibrated-density
    tail estimate and its uncertainty.  Raises CutoffTooLowError
    (carrying the minimum usable gamma) when the tail exceeds
    REGULATED_RTOL * raw, i.e. when the cutoff spectrum no longer
    determines the sum, and ValueError for a gamma that is not positive
    and finite.
    """
    raw, tail = sum_parts(modes, kind.value, gamma)
    if tail > REGULATED_RTOL * raw:
        raise CutoffTooLowError(
            f"regulated-sum tail {tail:.3g} exceeds {REGULATED_RTOL:g} * raw "
            f"at gamma={gamma:g}; minimum usable gamma ~ "
            f"{min_usable_gamma(modes, kind):.4g}",
            min_usable_gamma(modes, kind))
    return TailCorrected(raw=raw, tail=tail)


def min_usable_gamma(modes: ModeList, kind: RegulatorKind):
    """Smallest gamma at which regularized_sum accepts the point."""
    return smallest_usable(modes, kind.value, REGULATED_RTOL, 1e-10, 10.0)


@dataclass(frozen=True)
class RegulatorIntegral:
    n: int
    gamma: float
    numeric: float
    asymptote: float


def regulator_integral(n, gamma) -> RegulatorIntegral:
    """int_0^1 t^-1/2 (t + gamma)^((n-5)/2) dt and its leading form.

    With t = s^2 the integral is 2 int_0^1 (s^2 + g)^((n-5)/2) ds,
    elementary for every n.  The antiderivatives in s:

        n = 0:  s (2 s^2 + 3 g) / (3 g^2 (s^2 + g)^(3/2))
        n = 1:  s / (2 g (s^2 + g)) + atan(s / sqrt(g)) / (2 g^(3/2))
        n = 2:  s / (g sqrt(s^2 + g))
        n = 3:  atan(s / sqrt(g)) / sqrt(g)
        n = 4:  asinh(s / sqrt(g))

    All vanish at s = 0 and every term is positive, so each value is
    good to a few ulp.  Leading asymptotes as gamma -> 0: (4/3) g^-2,
    (pi/2) g^-3/2, 2 g^-1, pi g^-1/2, -log g for n = 0..4, each modulo
    O(1) set by the (arbitrary, fixed) upper limit 1.
    """
    if not 0 < gamma < 1:
        raise ValueError("need 0 < gamma << 1")
    if n not in range(5):
        raise ValueError("n must be 0..4")
    # the antiderivatives at s = 1
    r, h = math.sqrt(gamma), 1.0 + gamma
    val = 2.0 * (
        (2.0 + 3 * gamma) / (3 * gamma**2 * h**1.5),
        1.0 / (2 * gamma * h) + math.atan(1.0 / r) / (2 * gamma**1.5),
        1.0 / (gamma * math.sqrt(h)),
        math.atan(1.0 / r) / r,
        math.asinh(1.0 / r),
    )[n]
    asym = {
        0: (4.0 / 3.0) * gamma ** -2,
        1: (math.pi / 2.0) * gamma ** -1.5,
        2: 2.0 / gamma,
        3: math.pi * gamma ** -0.5,
        4: -math.log(gamma),
    }[n]
    return RegulatorIntegral(n=n, gamma=gamma, numeric=val, asymptote=asym)


@dataclass(frozen=True)
class DivergencePrediction:
    """Divergent part of S(gamma); the g^-1/2 slot is identically zero."""

    kind: RegulatorKind
    g_m2: float
    g_m32: float
    g_m1: float
    g_m12: float      # always 0: the a_3 dropout
    g_log: float

    def evaluate(self, gamma):
        gamma = np.asarray(gamma, dtype=float)
        return (self.g_m2 * gamma**-2 + self.g_m32 * gamma**-1.5
                + self.g_m1 / gamma + self.g_m12 * gamma**-0.5
                + self.g_log * np.log(gamma))

    def without(self, term):
        """Copy with one named slot zeroed (sensitivity checks)."""
        if term not in ("g_m2", "g_m32", "g_m1", "g_log"):
            raise ValueError(f"unknown divergence slot {term!r}")
        return replace(self, **{term: 0.0})

    def as_dict(self):
        return {"kind": self.kind.value, "gamma^-2": self.g_m2,
                "gamma^-3/2": self.g_m32, "gamma^-1": self.g_m1,
                "gamma^-1/2": self.g_m12, "log(gamma)": self.g_log}


def divergence_prediction(coeffs, kind: RegulatorKind) -> DivergencePrediction:
    """Slot n of S(gamma) is a_n times pole_terms' factor of a_n."""
    return DivergencePrediction(
        kind, *(f * coeffs[n]
                for n, (_, _, f) in enumerate(pole_terms(kind.value, 5))))


SCAN_BASIS = ("const", "gamma^-1/2", "gamma^1/2*log", "gamma^1/2")


def _scan_design(gammas):
    g = np.asarray(gammas, dtype=float)
    return np.column_stack([
        np.ones_like(g), g**-0.5, np.sqrt(g) * np.log(g), np.sqrt(g)])


def _next_order_sigma(gammas, remainder, sigma):
    """Uncertainty floor from the first terms beyond the scan basis.

    The remainder continues with gamma*log(gamma) and gamma terms; a
    preliminary extended fit estimates their size, which then enters the
    per-point uncertainty of the reported four-function fit (same
    pattern as the next-order model of the heat-trace fit).  Extension
    coefficients the data cannot pin down (below two of their own
    standard errors) are discarded rather than allowed to inflate every
    uncertainty with noise, and so is an extended fit too ill-conditioned
    to solve; any other error propagates.
    """
    g = np.asarray(gammas, dtype=float)
    if len(g) < 12:
        return sigma
    extended = np.column_stack([_scan_design(g), g * np.log(g), g])
    try:
        coef, err, *_ = weighted_power_fit(extended, remainder, sigma)
    except IllPosedFitError:
        return sigma
    out = np.array(sigma, dtype=float)
    for c, e, column in ((coef[-2], err[-2], np.abs(g * np.log(g))),
                         (coef[-1], err[-1], np.abs(g))):
        if abs(c) > 2.0 * e:
            out = out + abs(c) * column
    return out


@dataclass(frozen=True)
class RemainderScan:
    """Fit of S(gamma) - prediction(gamma) on the remainder basis.

    ``half_power`` is the gamma^-1/2 component (value, stderr); the sum
    is finite in the gamma -> 0 limit iff that component vanishes, so
    ``finite`` records |value| <= FINITE_Z * stderr.
    """

    kind: RegulatorKind
    gammas: np.ndarray
    values: np.ndarray          # tail-corrected S(gamma)
    sigmas: np.ndarray
    prediction: np.ndarray
    remainder: np.ndarray
    excluded: tuple             # gammas beyond the usable range
    components: dict            # basis name -> (value, stderr)
    chi2_dof: float

    @property
    def half_power(self):
        return self.components["gamma^-1/2"]

    @property
    def detectable_half_power(self):
        """Five stderrs of the gamma^-1/2 component.

        The smallest amplitude c of a planted c * gamma^-1/2 that the
        scan resolves at 5 sigma; a "finite" verdict says something
        only where it is below |a_3|.
        """
        return 5.0 * self.half_power[1]

    @property
    def z_half(self):
        value, err = self.half_power
        return abs(value) / err if err > 0 else math.inf

    @property
    def finite(self):
        return self.z_half <= FINITE_Z

    @property
    def constant(self):
        """Extrapolated O(1) part of the regulated sum."""
        return self.components["const"]

    def as_dict(self):
        return {
            "kind": self.kind.value,
            "gammas": self.gammas.tolist(),
            "S": self.values.tolist(),
            "sigma": self.sigmas.tolist(),
            "prediction": self.prediction.tolist(),
            "remainder": self.remainder.tolist(),
            "excluded": list(self.excluded),
            "components": {k: list(v) for k, v in self.components.items()},
            "chi2_dof": self.chi2_dof,
            "z_half_power": self.z_half,
            "detectable_half_power": self.detectable_half_power,
            "z_threshold": FINITE_Z,
            "finite": self.finite,
        }


def remainder_scan(modes: ModeList, prediction: DivergencePrediction,
                   gammas) -> RemainderScan:
    """Check the divergence prediction against regulated sums.

    Points whose truncation tail exceeds REGULATED_RTOL times the raw
    sum are excluded (the cutoff spectrum says nothing there); the rest
    enter a weighted fit with their tail uncertainties.  Fewer than
    2 * len(SCAN_BASIS) usable points raise CutoffTooLowError carrying
    the minimum usable gamma when exclusions caused the shortfall, and
    ValueError when the grid itself is too short.  Quoted component errors
    inflate with sqrt(chi2/dof), so unmodelled smooth remainder terms
    widen the error bars instead of faking significance.  A prediction
    or remainder that is not finite, as from coefficients near the
    float range, raises NumericalError at its first gamma, and so does
    a fitted component or error bar that is not finite.
    """
    kept, excluded, vals, sigs = [], [], [], []
    for g in np.sort(np.asarray(gammas, dtype=float)):
        try:
            s = regularized_sum(modes, float(g), prediction.kind)
        except CutoffTooLowError:
            excluded.append(float(g))
            continue
        kept.append(float(g))
        vals.append(s.value)
        sigs.append(s.tail_sigma + 1e-14 * abs(s.value))
    if len(kept) < 2 * len(SCAN_BASIS):
        message = (f"only {len(kept)} usable gamma points (need "
                   f">= {2 * len(SCAN_BASIS)}); raise the cutoff or the grid")
        if not excluded:
            raise ValueError(message)   # the grid itself is too short
        g_min = min_usable_gamma(modes, prediction.kind)
        raise CutoffTooLowError(f"{message}; minimum usable gamma ~ "
                                f"{g_min:.4g}", g_min)
    kept = np.array(kept)
    vals = np.array(vals)
    sigs = np.array(sigs)
    # coefficients near the float range overflow here: checked below
    with np.errstate(over="ignore", invalid="ignore"):
        pred = prediction.evaluate(kept)
        rem = vals - pred
        for what, arr in (("prediction", pred), ("remainder", rem)):
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                raise NumericalError(f"non-finite {what} {arr[bad[0]]:g} "
                                     f"at gamma={kept[bad[0]]:g}")
        sigs = _next_order_sigma(kept, rem, sigs)
        coef, err, cond, chi2_dof, _ = weighted_power_fit(
            _scan_design(kept), rem, sigs)
    components = {name: (float(c), float(e))
                  for name, c, e in zip(SCAN_BASIS, coef, err)}
    for name, (c, e) in components.items():
        if not (math.isfinite(c) and math.isfinite(e)):
            raise NumericalError(f"non-finite remainder fit: {name} "
                                 f"component {c:g} +- {e:g}")
    return RemainderScan(
        kind=prediction.kind, gammas=kept, values=vals, sigmas=sigs,
        prediction=pred, remainder=rem, excluded=tuple(excluded),
        components=components, chi2_dof=chi2_dof,
    )


def detection_z(clean: RemainderScan, defect: RemainderScan):
    """Significance of a planted prediction defect.

    Likelihood-ratio significance sqrt(chi^2_defect - chi^2_clean) of
    the extra divergence left in the remainder, using the clean scan's
    per-point uncertainties for both.  (The defective fit's own error
    bars inflate with its chi^2 and would hide the very signal being
    planted; the component shift in units of the clean resolution is a
    weaker secondary indicator, available from the two scans directly.)
    """
    n = len(clean.gammas)
    if len(defect.gammas) != n or np.any(defect.gammas != clean.gammas):
        raise ValueError("scans must share the same usable gamma grid")
    dof = max(n - len(SCAN_BASIS), 1)
    # re-evaluate the defective remainder against the clean sigmas
    design = _scan_design(defect.gammas)
    coef, *_ = weighted_power_fit(design, defect.remainder, clean.sigmas)
    resid = (defect.remainder - design @ coef) / clean.sigmas
    chi2_defect = float(resid @ resid)
    chi2_clean = clean.chi2_dof * dof
    return math.sqrt(max(chi2_defect - chi2_clean, 0.0))
