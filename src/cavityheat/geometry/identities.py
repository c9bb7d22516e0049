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

This module evaluates both sides at a surface point and reports the
residuals.  Covariant derivatives are taken in an adapted orthonormal
frame transported from the base point by tangent-plane projection; that
frame has vanishing connection coefficients at the base point and
reproduces the gauge in which the identities are stated.  Every field
(normal, frame, L, P, S and the connection) is one truncated Taylor
series in the chart parameters, built from a single order-4 jet of the
embedding (:mod:`.jets`), and the derivative along frame leg a is
D_a F = alpha_a d_u F + beta_a d_v F with the parameter velocities
(alpha_a, beta_a) of that leg, themselves jets.  The derivatives are
therefore exact and the residuals sit at rounding level.  The point is
evaluated in numpy's long double (80-bit extended on x86-64 Linux),
which keeps them near 1e-15 even where the quartic curvature terms
reach 4e3; where long double is plain double they sit at the float64
floor, about 1e-11 for curvatures of 5.  The left sides come from
derivatives of P and S, the right sides from L and its covariant
derivatives only, so a residual above rounding means a genuine
transcription or implementation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .charts import SurfaceChart
from .curvature import frame_matrix, surface_jets

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


def _dot(a, b):
    return (a * b).sum(-1)


def _matmul(a, b):
    """Matrix product over the last two value axes."""
    return (a[..., :, :, None] * b[..., None, :, :]).sum(-2)


def _unit(a):
    return a / jets.sqrt(_dot(a, a))


def _covariant_data(chart: SurfaceChart, u0, v0):
    """Values at (u0, v0) of L, the normal projector and the first and
    second frame derivatives of P, S and L.

    Keys: ``L``, ``P``, ``P_a``, ``P_ab``, ``S1_a``, ``S1_ab``, ``S2_a``,
    ``S2_ab``, ``Lc`` (L_ab:c, indices [a, b, c]) and ``Lcd`` (L_ab:cd);
    ``X_ab[a, b]`` is D_b D_a X.
    """
    s = surface_jets(chart, np.longdouble(u0), np.longdouble(v0), 4)
    n, ru, rv = s["n"], s["ru"], s["rv"]
    E, F, G = s["E"], s["F"], s["G"]
    # base point: Gram-Schmidt of the coordinate basis
    A = frame_matrix(E.value, F.value, G.value, s["w"].value)
    base = A @ np.stack([ru.value, rv.value])
    # transported frame: project the base frame onto the local tangent
    # plane and re-orthonormalise; its connection vanishes at the base
    E1 = _unit(base[0] - n * _dot(n, base[0]))
    E2 = base[1] - n * _dot(n, base[1])
    E2 = _unit(E2 - E1 * _dot(E2, E1))
    frame = jets.stack([E1, E2])                          # [a, i]

    # parameter velocities C[a] = (alpha_a, beta_a) of the legs, with
    # E_a = alpha_a r_u + beta_a r_v
    wu, wv = _dot(frame, ru), _dot(frame, rv)
    det = E * G - F * F
    alpha, beta = (G * wu - F * wv) / det, (E * wv - F * wu) / det

    def D(field):
        """D_a field = alpha_a d_u field + beta_a d_v field, a leading."""
        lead = (slice(None),) + (None,) * (field.c.ndim - 1)
        return (alpha[lead] * field.d(1, 0)[None]
                + beta[lead] * field.d(0, 1)[None])

    C = jets.stack([alpha, beta], axis=-1)
    II = jets.stack([jets.stack([s["e"], s["f"]]),
                     jets.stack([s["f"], s["g2"]])])
    L = _matmul(_matmul(C, II), C.T)
    L = (L + L.T) * 0.5

    P = n[:, None] * n[None, :]
    S1 = P * -(L[0, 0] + L[1, 1])
    S2 = -_matmul(_matmul(frame.T, L), frame)

    out = {"L": L.value, "P": P.value}
    for name, field in (("P", P), ("S1", S1), ("S2", S2)):
        first = D(field)
        out[name + "_a"] = first.value
        out[name + "_ab"] = D(first).value.swapaxes(0, 1)
    DL = D(L)                                             # [c, a, b]
    out["Lc"] = np.moveaxis(DL.value, 0, -1)
    # connection omega[c, a, e] = (D_c E_a) . E_e and the covariant
    # field L_ab:c = D_c L_ab - omega_cae L_eb - omega_cbe L_ae
    omega = _dot(D(frame)[:, :, None, :], frame[None, None, :, :])
    cov = DL - _matmul(omega, L) - _matmul(L, omega.T)
    out["Lcd"] = D(cov).value.transpose(2, 3, 1, 0)       # [d, c, a, b]
    return out


def _left_sides(d):
    """The derivative side of each identity, from P and S."""
    P_a, P_ab, P0 = d["P_a"], d["P_ab"], d["P"]
    S1_a, S1_ab, S2_a, S2_ab = d["S1_a"], d["S1_ab"], d["S2_a"], d["S2_ab"]
    Lc, Lcd = d["Lc"], d["Lcd"]
    pairs = [(a, b) for a in range(2) for b in range(2)]
    Paa = P_ab[0, 0] + P_ab[1, 1]
    return {
        "tr_PaPb": np.einsum("aij,bji->ab", P_a, P_a),
        "tr_PaPaPbPb": sum(np.trace(P_a[a] @ P_a[a] @ P_a[b] @ P_a[b])
                           for a, b in pairs),
        "tr_PaPbPaPb": sum(np.trace(P_a[a] @ P_a[b] @ P_a[a] @ P_a[b])
                           for a, b in pairs),
        "tr_Paa_Pbb": np.trace(Paa @ Paa),
        "tr_Pab_Pab": sum(np.trace(P_ab[a, b] @ P_ab[a, b]) for a, b in pairs),
        "trS_a[p1]": np.trace(S1_a, axis1=1, axis2=2),
        "trS_ab[p1]": np.trace(S1_ab, axis1=2, axis2=3),
        "tr_SaSa[p1]": sum(np.trace(S1_a[a] @ S1_a[a]) for a in range(2)),
        "tr_PaSb[p1]": np.einsum("aij,bji->ab", P_a, S1_a),
        "tr_PSaSa[p1]": sum(np.trace(P0 @ S1_a[a] @ S1_a[a])
                            for a in range(2)),
        "trS_a[p2]": np.trace(S2_a, axis1=1, axis2=2),
        "trS_ab[p2]": np.trace(S2_ab, axis1=2, axis2=3),
        "tr_SaSa[p2]": sum(np.trace(S2_a[a] @ S2_a[a]) for a in range(2)),
        "tr_PaSa[p2]": sum(np.trace(P_a[a] @ S2_a[a]) for a in range(2)),
        "tr_PSaSa[p2]": sum(np.trace(P0 @ S2_a[a] @ S2_a[a])
                            for a in range(2)),
        "codazzi": Lc,
        # L_ab:ca - L_ab:ac, indices [b, c]
        "gauss_commutator": (np.einsum("abca->bc", Lcd)
                             - np.einsum("abac->bc", Lcd)),
    }


def _right_sides(L, Lc, Lcd):
    """The reduction of each identity to L, L_ab:c and L_ab:cd."""
    L2 = L @ L
    L3 = L2 @ L
    trL, trL2, trL3, trL4 = (np.trace(M) for M in (L, L2, L3, L2 @ L2))
    grad = np.einsum("aac->c", Lc)             # (tr L)_:c
    grad_sq = grad @ grad
    div_sq = np.sum(np.einsum("aca->c", Lc) ** 2)
    lc_sq = np.sum(Lc * Lc)
    hess = np.einsum("eeab->ab", Lcd)           # L_ee:ab
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
        "codazzi": Lc.transpose(0, 2, 1),
        "gauss_commutator": trL * L2 - trL2 * L,
    }


def curvature_identity_residuals(chart: SurfaceChart,
                                 u, v) -> "IdentityResiduals":
    """Residuals |left - right| (max over free indices) of every
    identity at one point; exact derivatives put them at rounding level.
    """
    d = _covariant_data(chart, u, v)
    left = _left_sides(d)
    right = _right_sides(d["L"], d["Lc"], d["Lcd"])
    res = {name: float(np.max(np.abs(left[name] - right[name])))
           for name in IDENTITY_NAMES}
    scale = 1.0 + float(np.max(np.abs(np.linalg.eigvalsh(
        d["L"].astype(float)))))
    return IdentityResiduals(residuals=res,
                             error_model=_ROUNDING * scale ** 4,
                             point=(float(u), float(v)))


@dataclass(frozen=True)
class IdentityResiduals:
    residuals: dict
    error_model: float
    point: tuple

    @property
    def max_residual(self):
        return max(self.residuals.values())

    def violations(self):
        """Identities whose residual exceeds the rounding-error model."""
        tol = _SAFETY * self.error_model
        return {k: v for k, v in self.residuals.items() if v > tol}

    def __getitem__(self, name):
        return self.residuals[name]
