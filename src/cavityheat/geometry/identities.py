"""Numerical verification of boundary tensor-trace identities.

For the normal projector P = n (x) n, the boundary operator summands
S = -(tr L) P (vector problem, normal block) and S = -L (vector
problem, tangential block), a family of trace identities reduces
covariant derivatives of P and S to polynomials in the second
fundamental form L and its covariant derivatives, e.g.

    Tr(P_:a P_:b) = 2 (L^2)_ab,
    Tr(P_:ab P_:ab) = 2 L_ab:c L_ab:c + 6 (L^4)_aa + 2 (L^2)_aa (L^2)_bb,

together with the Codazzi symmetry L_ab:c = L_ac:b and the commutator
L_ab:ca - L_ab:ac = L_aa (L^2)_bc - (L^2)_aa L_bc that follows from the
Gauss equation (repeated indices summed throughout).

This module evaluates both sides at an array of surface points in one
pass, index axes first and the point axis last as in :mod:`.curvature`,
and reports the residuals point by point.  Covariant derivatives are
taken in an adapted orthonormal frame transported from each base point
by tangent-plane projection; that frame has vanishing connection
coefficients at the base point and reproduces the gauge in which the
identities are stated.  Every field (normal, frame, L, P, S and the
connection) is one truncated Taylor series in the chart parameters,
built from a single order-4 jet of the embedding (:mod:`.jets`), and
the derivative along frame leg a is D_a F = alpha_a d_u F + beta_a d_v F
with the parameter velocities (alpha_a, beta_a) of that leg, themselves
jets.  The derivatives are therefore exact and the residuals sit at
rounding level.  The points are evaluated in numpy's long double
(80-bit extended on x86-64 Linux), which keeps them near 1e-15 even
where the quartic curvature terms reach 4e3; where long double is plain
double they sit at the float64 floor, about 1e-11 for curvatures of 5.
The left sides come from derivatives of P and S, the right sides from L
and its covariant derivatives only, so a residual above rounding means
a genuine transcription or implementation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .charts import SurfaceChart
from .curvature import _blockwise, _dot, surface_jets

__all__ = ["IdentityResiduals", "curvature_identity_residuals", "IDENTITY_NAMES"]

IDENTITY_NAMES = (
    "tr_PaPb", "tr_PaPaPbPb", "tr_PaPbPaPb", "tr_Paa_Pbb", "tr_Pab_Pab",
    "trS_a[p1]", "trS_ab[p1]", "tr_SaSa[p1]", "tr_PaSb[p1]", "tr_PSaSa[p1]",
    "trS_a[p2]", "trS_ab[p2]", "tr_SaSa[p2]", "tr_PaSa[p2]", "tr_PSaSa[p2]",
    "codazzi", "gauss_commutator",
)


# the residual model: a few units of rounding, in the working precision,
# on the scale of the largest curvature term, (1 + max |kappa|)^4
_ROUNDING = 64.0 * float(np.finfo(np.longdouble).eps)
# a residual is a violation beyond this many times the model
_SAFETY = 100.0
# points per evaluation block, at about 16 KiB a point (tracemalloc)
_BLOCK = 256


def _unit(a):
    return a / jets.sqrt(_dot(a, a))


def _covariant_data(chart: SurfaceChart, u, v):
    """Values at the points (u, v), of one shape, of L, the normal
    projector and the first and second frame derivatives of P, S and L.

    Keys: ``L``, ``P``, ``P_a``, ``P_ab``, ``S1_a``, ``S1_ab``, ``S2_a``,
    ``S2_ab``, ``Lc`` (L_ab:c, indices [a, b, c]) and ``Lcd`` (L_ab:cd);
    ``X_ab[a, b]`` is D_b D_a X.  The point axes come last.
    """
    s = surface_jets(chart, *np.asarray([u, v], dtype=np.longdouble), 4)
    n, ru, rv = s["n"], s["ru"], s["rv"]
    E, F, G = s["E"], s["F"], s["G"]
    # transported frame: project the coordinate basis at the base point
    # onto the local tangent plane and orthonormalise; its connection
    # vanishes at the base
    E1 = _unit(ru.value - n * _dot(n, ru.value))
    E2 = rv.value - n * _dot(n, rv.value)
    E2 = _unit(E2 - E1 * _dot(E2, E1))
    frame = jets.stack([E1, E2])                          # [a, i]

    # parameter velocities C[a] = (alpha_a, beta_a) of the legs, with
    # E_a = alpha_a r_u + beta_a r_v
    wu, wv = _dot(frame, ru, 1), _dot(frame, rv, 1)
    det = E * G - F * F
    alpha, beta = (G * wu - F * wv) / det, (E * wv - F * wu) / det

    def D(field):
        """D_a field = alpha_a d_u field + beta_a d_v field, a leading."""
        lead = (slice(None),) + (None,) * (field.c.ndim - alpha.c.ndim + 1)
        return (alpha[lead] * field.d(1, 0)[None]
                + beta[lead] * field.d(0, 1)[None])

    C = jets.stack([alpha, beta], axis=1)
    II = jets.stack([jets.stack([s["e"], s["f"]]),
                     jets.stack([s["f"], s["g2"]])])
    L = C @ II @ C.T
    L = (L + L.T) * 0.5

    P = n[:, None] * n[None]
    S1 = P * -(L[0, 0] + L[1, 1])
    S2 = -(frame.T @ L @ frame)

    out = {"L": L.value, "P": P.value}
    for name, field in (("P", P), ("S1", S1), ("S2", S2)):
        first = D(field)
        out[name + "_a"] = first.value
        out[name + "_ab"] = D(first).value.swapaxes(0, 1)
    DL = D(L)                                             # [c, a, b]
    out["Lc"] = np.moveaxis(DL.value, 0, 2)
    # connection omega[c, a, e] = (D_c E_a) . E_e and the covariant
    # field L_ab:c = D_c L_ab - omega_cae L_eb - omega_cbe L_ae
    omega = _dot(D(frame)[:, :, None], frame[None, None], 3)
    cov = (DL - _dot(omega[:, :, None], L[None, None], 3)
           - _dot(L[None, :, None], omega[:, None], 3))
    out["Lcd"] = np.moveaxis(D(cov).value, (0, 1), (3, 2))   # [a, b, c, d]
    return out


def _left_sides(d):
    """The derivative side of each identity, from P and S."""
    P_a, P_ab, P0 = d["P_a"], d["P_ab"], d["P"]
    S1_a, S1_ab, S2_a, S2_ab = d["S1_a"], d["S1_ab"], d["S2_a"], d["S2_ab"]
    Lcd, P4 = d["Lcd"], [P_a] * 4
    return {
        "tr_PaPb": np.einsum("aij...,bji...->ab...", P_a, P_a),
        "tr_PaPaPbPb": np.einsum("aij...,ajk...,bkl...,bli...->...", *P4),
        "tr_PaPbPaPb": np.einsum("aij...,bjk...,akl...,bli...->...", *P4),
        "tr_Paa_Pbb": np.einsum("aaij...,bbji...->...", P_ab, P_ab),
        "tr_Pab_Pab": np.einsum("abij...,abji...->...", P_ab, P_ab),
        "trS_a[p1]": np.einsum("aii...->a...", S1_a),
        "trS_ab[p1]": np.einsum("abii...->ab...", S1_ab),
        "tr_SaSa[p1]": np.einsum("aij...,aji...->...", S1_a, S1_a),
        "tr_PaSb[p1]": np.einsum("aij...,bji...->ab...", P_a, S1_a),
        "tr_PSaSa[p1]": np.einsum("ij...,ajk...,aki...->...", P0, S1_a, S1_a),
        "trS_a[p2]": np.einsum("aii...->a...", S2_a),
        "trS_ab[p2]": np.einsum("abii...->ab...", S2_ab),
        "tr_SaSa[p2]": np.einsum("aij...,aji...->...", S2_a, S2_a),
        "tr_PaSa[p2]": np.einsum("aij...,aji...->...", P_a, S2_a),
        "tr_PSaSa[p2]": np.einsum("ij...,ajk...,aki...->...", P0, S2_a, S2_a),
        "codazzi": d["Lc"],
        # L_ab:ca - L_ab:ac, indices [b, c]
        "gauss_commutator": (np.einsum("abca...->bc...", Lcd)
                             - np.einsum("abac...->bc...", Lcd)),
    }


def _right_sides(L, Lc, Lcd):
    """The reduction of each identity to L, L_ab:c and L_ab:cd."""
    L2 = np.einsum("ab...,bc...->ac...", L, L)
    trL, trL2 = np.einsum("aa...->...", L), np.einsum("aa...->...", L2)
    trL3, trL4 = (np.einsum("ab...,ba...->...", L2, M) for M in (L, L2))
    grad = np.einsum("aac...->c...", Lc)        # (tr L)_:c
    grad_sq = np.einsum("c...,c...->...", grad, grad)
    div = np.einsum("aca...->c...", Lc)
    div_sq = np.einsum("c...,c...->...", div, div)
    lc_sq = np.einsum("abc...,abc...->...", Lc, Lc)
    hess = np.einsum("eeab...->ab...", Lcd)      # L_ee:ab
    return {
        "tr_PaPb": 2.0 * L2,
        "tr_PaPaPbPb": trL4 + trL2 * trL2,
        "tr_PaPbPaPb": 2.0 * trL4,
        "tr_Paa_Pbb": 2.0 * div_sq + 4.0 * trL4 + 4.0 * trL2 ** 2,
        "tr_Pab_Pab": 2.0 * lc_sq + 6.0 * trL4 + 2.0 * trL2 ** 2,
        "trS_a[p1]": -grad,
        "trS_ab[p1]": -hess,
        "tr_SaSa[p1]": grad_sq + 2.0 * trL ** 2 * trL2,
        "tr_PaSb[p1]": -2.0 * trL * L2,
        "tr_PSaSa[p1]": grad_sq + trL ** 2 * trL2,
        "trS_a[p2]": -grad,
        "trS_ab[p2]": -hess,
        "tr_SaSa[p2]": lc_sq + 2.0 * trL4,
        "tr_PaSa[p2]": 2.0 * trL3,
        "tr_PSaSa[p2]": trL4,
        "codazzi": Lc.swapaxes(1, 2),
        "gauss_commutator": trL * L2 - trL2 * L,
    }


def curvature_identity_residuals(chart: SurfaceChart,
                                 u, v) -> "IdentityResiduals":
    """Residuals |left - right| (max over free indices) of every
    identity at the points (u, v), which broadcast as in
    ``curvature_grid``; exact derivatives put them at rounding level.
    """
    def fields(u, v):
        u, v = np.broadcast_arrays(u, v)        # _covariant_data stacks them
        d = _covariant_data(chart, u, v)
        left, right = _left_sides(d), _right_sides(d["L"], d["Lc"], d["Lcd"])
        out = {}
        for name in IDENTITY_NAMES:
            diff = np.abs(left[name] - right[name])
            out[name] = diff.max(tuple(range(diff.ndim - u.ndim)))
        L = np.moveaxis(d["L"].astype(float), (0, 1), (-2, -1))
        kappa = np.abs(np.linalg.eigvalsh(L)).max(-1)
        out["error_model"] = _ROUNDING * (1.0 + kappa) ** 4
        return {name: np.asarray(x, dtype=float) for name, x in out.items()}

    res = _blockwise(fields, u, v, _BLOCK)
    model = res.pop("error_model")
    return IdentityResiduals(residuals=res, error_model=model)


@dataclass(frozen=True)
class IdentityResiduals:
    """Residuals and the rounding-error model, each of the points' shape."""

    residuals: dict
    error_model: np.ndarray

    @property
    def max_residual(self):
        return float(max(np.max(r, initial=0.0)
                         for r in self.residuals.values()))

    def violations(self):
        """The worst residual of each identity that exceeds the
        rounding-error model at some point."""
        tol = _SAFETY * self.error_model
        return {k: float(np.max(v)) for k, v in self.residuals.items()
                if np.any(v > tol)}

    def __getitem__(self, name):
        return self.residuals[name]
