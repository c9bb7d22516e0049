"""Exact eigenvalue oracle for the ball: scalar and electromagnetic modes.

For a ball of radius R the Laplace eigenvalues are squares of scaled
spherical-Bessel roots:

    DIRICHLET   j_l(x) = 0,          l >= 0         (scalar, value fixed)
    NEUMANN     j_l'(x) = 0, x > 0,  l >= 0         (scalar, flux fixed)
    TE          j_l(x) = 0,          l >= 1
    TM          (x j_l(x))' = 0,     l >= 1

with lambda = (x/R)^2 and multiplicity 2l + 1.  There are no l = 0
electromagnetic modes (no transverse vector spherical harmonics exist at
l = 0) and zero eigenvalues are excluded everywhere, so traces over a
ModeList are traces with zero modes omitted.

Enumeration is complete by construction: zeros of consecutive-order
spherical Bessel functions interlace, so every root is isolated in a
bracket that provably contains exactly one sign change.  The
enumerations of the derivative families use the same interlacing plus
the turning point sqrt(l(l+1)), below which j_l is strictly increasing.

One ball spectrum per process serves every family, radius and cutoff
x_max = omega_max * R up to the deepest asked so far: the zeros of
j_0..j_l_max, trimmed to each order's zeros at or below x_max plus at
least one more, and each derivative family's roots, solved when first
asked for.  A shallower cutoff takes prefixes; R only rescales roots.
Ladder levels are bracketed one after another but refined coarsely; one
batched solve finishes them, as one solve finishes each derivative
family.  Vectorised Illinois (false-position) steps shrink each bracket
to a few ulp, and bisection ends it on the two adjacent floats that
carry the sign change, as plain bisection does: no root is skipped and
none depends on another bracket, so a prefix equals a cold solve.  Every
x evaluated lies in [pi or the turning point, (int(x_max) + 3) pi],
inside the domain BESSEL certifies for cutoffs up to 200.  So
spherical_jn calls scipy's compiled kernels directly: the public
scipy.special.spherical_jn adds only the reflection to x < 0 around
them, and its values at x > 0 are the same to the last bit.

Each tail-corrected sum (the heat trace, the heat- and sqrt-regulated
frequency sums, the squared-resolvent trace) is one entry of _SUMS: its
terms and the closed-form tail of the calibrated density above the
cutoff.  exact_sum rounds their sum as math.fsum does, by one extraction
pass and a rounding certificate (Rump, Ogita and Oishi 2008), in about
20 us on em_modes(200).  sum_parts keeps the last 256 (raw, tail) pairs
on each list.  A heat-trace point is usable while its tail is at most
HEAT_TRACE_RTOL = 1e-8 times the raw sum.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import BracketError, CutoffTooLowError

__all__ = [
    "ModeList",
    "SphericalBesselContract",
    "BESSEL",
    "CutoffTooLowError",
    "BracketError",
    "dirichlet_modes",
    "neumann_modes",
    "em_modes",
    "form_modes",
    "heat_trace",
    "heat_trace_samples",
    "resolvent2_trace",
    "resolvent2_expansion",
    "min_usable_t",
    "sidecar_path",
]

FAMILIES = ("TE", "TM", "DIRICHLET", "NEUMANN")

# Fraction of the enumerated range used to calibrate the smooth
# eigenvalue density for truncation-tail estimates, and the relative
# uncertainty assigned to those tails.  Measured against exact partial
# sums (enumerate to 200, truncate at 60/100/140, compare) the
# two-term calibrated tail is good to ~1% at cutoff 60 and ~0.2%
# beyond 100, for heat, square-root-regulated and squared-resolvent
# weights alike; 4% keeps a severalfold margin everywhere.
TAIL_CALIBRATION_WINDOW = 0.5
TAIL_DENSITY_RELERR = 0.04

# largest tail-to-raw ratio at which a heat-trace point is usable
HEAT_TRACE_RTOL = 1e-8

# Width each zero-ladder level is refined to before the next level is
# bracketed from it: far below the gap between zeros of neighbouring
# orders (>= 1.017 for cutoffs up to 200), which a coarse bracket must
# not swallow, else the next level fails its sign check.
_COARSE_WIDTH = 1e-3

# fsum of a list beats extraction's 6-11 us below this length (BENCH_38.json)
_EXACT_SUM_MIN = 256

# mode-file columns and the type each is read as
_CSV_TYPES = {"family": str, "l": int, "m": int, "multiplicity": int,
              "lambda": float}


class _SidecarError(ValueError):
    """A mode list's radius or cutoff, the values of its sidecar, that is
    not finite and positive or disagrees with its rows."""


def spherical_jn(l, x, derivative=False):
    """j_l(x) (or j_l'(x)) for x >= 0 from scipy's compiled kernels,
    imported at the first call.

    These are the ufuncs behind scipy.special.spherical_jn, called with
    l cast as that function casts it; its wrapper adds only the
    reflection to x < 0 (DLMF 10.47(v)) and array-API dispatch, so for
    x >= 0 the values are the same to the last bit, without that
    wrapper's per-call overhead.
    """
    from scipy.special._ufuncs import _spherical_jn, _spherical_jn_d
    l = np.asarray(l, dtype=np.dtype("long"))
    return _spherical_jn_d(l, x) if derivative else _spherical_jn(l, x)


def upper_gamma_3_2(z):
    """Gamma(3/2, z) = sqrt(z) e^-z + (sqrt(pi)/2) erfc(sqrt(z)), z >= 0
    (DLMF 8.4.6, 8.8.2); both terms are positive, so no digits cancel."""
    r = math.sqrt(z)
    return r * math.exp(-z) + 0.5 * math.sqrt(math.pi) * math.erfc(r)


@dataclass(frozen=True)
class SphericalBesselContract:
    """Accuracy contract of the spherical Bessel evaluator.

    The evaluator is spherical_jn above: scipy's compiled kernels
    (cylinder Bessel of half-integer order with stable downward
    recurrences where needed), which the enumerator calls through jl,
    jl_prime and riccati_prime.  On x <= x_max, l <= l_max its error
    relative to the local envelope max(|j_l|, |j_l'|), which never
    vanishes, is below rtol; the test suite measures that against
    30-digit references on a seeded sample grid.
    """

    x_max: float = 640.0
    l_max: int = 205
    rtol: float = 1e-12

    def jl(self, l, x):
        return spherical_jn(l, x)

    def jl_prime(self, l, x):
        return spherical_jn(l, x, derivative=True)

    def riccati_prime(self, l, x):
        """(x j_l(x))' = j_l(x) + x j_l'(x); TM mode condition."""
        return spherical_jn(l, x) + x * spherical_jn(l, x, derivative=True)


BESSEL = SphericalBesselContract()


# ---------------------------------------------------------------------------
# root enumeration
# ---------------------------------------------------------------------------

def _bisect_brackets(f, l, lo, hi):
    """The root of f(l_i, .) in each sign-change bracket [lo_i, hi_i].

    Each bracket ends on the fixed point of plain bisection: the two
    adjacent floats that carry the sign change, returned as their
    rounded midpoint, or the float at which f is exactly zero.  l is one
    order for all brackets or one order per bracket.

    Illinois steps (_false_position) first shrink the brackets to a few
    ulp; bisection then finishes each one down to adjacent floats.
    Every step keeps the sign change, so a bracketed root cannot be
    lost, and no bracket's result depends on another's.
    """
    l, lo, hi, flo = _shrink_brackets(f, l, lo, hi)
    idx = np.flatnonzero(hi > np.nextafter(lo, np.inf))
    while len(idx):
        a, b, fa = lo[idx], hi[idx], flo[idx]
        mid = 0.5 * (a + b)
        fm = f(l[idx], mid)
        left = fa * fm < 0           # root in (a, mid)
        hit = fm == 0.0
        hi[idx] = np.where(left | hit, mid, b)
        lo[idx] = np.where(left, a, mid)
        flo[idx] = np.where(left, fa, fm)
        idx = idx[hi[idx] > np.nextafter(lo[idx], np.inf)]
    return 0.5 * (lo + hi)


def _shrink_brackets(f, l, lo, hi, width=0.0):
    """Sign-change brackets [lo_i, hi_i] of f(l_i, .) shrunk by Illinois
    steps to at most max(width, 16 ulp); returns (l, lo, hi, sign of f(lo)).

    Raises BracketError when f has the same sign at both ends of a
    bracket.
    """
    l = np.broadcast_to(l, np.shape(lo))
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    n = len(lo)
    ends = f(np.concatenate([l, l]), np.concatenate([lo, hi]))
    flo, fhi = ends[:n], ends[n:]
    if np.any(flo * fhi > 0):
        raise BracketError("bracket without sign change")
    _false_position(f, l, lo, hi, flo, fhi, width)
    return l, lo, hi, flo


def _false_position(f, l, lo, hi, flo, fhi, width=0.0):
    """Illinois steps on the brackets whose end values are both nonzero.

    Shrinks [lo, hi] in place to at most max(width, 16 ulp) (at most 40
    steps) and leaves in flo the sign of f(lo), not its size.  Each
    iterate is kept at least 4 ulp inside its bracket (Brent's minimum
    step), so a root sitting on one end cannot stall the bracket at
    bisection speed.
    """
    idx = np.flatnonzero((flo != 0) & (fhi != 0))
    a, b, fa, fb = lo[idx], hi[idx], flo[idx], fhi[idx]
    moved = np.zeros(len(idx), dtype=np.int8)   # end replaced last: -1 a, 1 b
    for _ in range(40):
        ulp = np.spacing(b)
        done = b - a <= np.maximum(16 * ulp, width)
        lo[idx[done]], hi[idx[done]], flo[idx[done]] = a[done], b[done], fa[done]
        idx, a, b, fa, fb, moved, ulp = (
            v[~done] for v in (idx, a, b, fa, fb, moved, ulp))
        if not len(idx):
            return
        x = np.clip(a + (b - a) * (fa / (fa - fb)), a + 4 * ulp, b - 4 * ulp)
        fx = f(l[idx], x)
        up = np.signbit(fx) == np.signbit(fa)   # root in [x, b]
        # the end kept twice in a row has its value halved
        fb = np.where(up & (moved == -1), 0.5 * fb, fb)
        fa = np.where(~up & (moved == 1), 0.5 * fa, fa)
        a, fa = np.where(up, x, a), np.where(up, fx, fa)
        b, fb = np.where(up, b, x), np.where(up, fb, fx)
        moved = np.where(up, -1, 1).astype(np.int8)
        hit = fx == 0.0
        a[hit] = b[hit] = x[hit]
    lo[idx], hi[idx], flo[idx] = a, b, fa


# The deepest ball spectrum solved so far in the process: "x_max", its zero
# "ladder" and, once asked for, each derivative family's (l, roots) by name.
_BALL = {}


def _zero_ladder(x_max):
    """zeros[l] = the first l_max + 2 - l positive zeros of j_l, for
    l = 0..l_max = int(x_max) + 1, as read-only prefixes of the memo's
    ladder.  Enough, since j_(l+1/2,1) > l + 1/2 and the zero spacing
    exceeds pi, so j_l has at most l_max + 1 - l zeros at or below x_max.
    Every call checks each level's reach and that the last level-0 zero
    (exact, m pi), the largest x evaluated, is in the verified domain.
    """
    l_max = int(x_max) + 1
    if (l_max + 2) * math.pi > BESSEL.x_max or l_max > BESSEL.l_max:
        raise ValueError(
            f"zero ladder for x_max = {x_max:g} leaves the verified Bessel "
            f"domain (x <= {BESSEL.x_max:g}, l <= {BESSEL.l_max})")
    if x_max > _BALL.get("x_max", -math.inf):
        ladder = _climb(np.arange(1, l_max + 3) * math.pi, l_max, x_max)
        _BALL.clear()
        _BALL.update(x_max=x_max, ladder=ladder)
    zeros = tuple(z[:l_max + 2 - l]
                  for l, z in enumerate(_BALL["ladder"][:l_max + 1]))
    _check_reach(zeros, x_max)
    return zeros


def _check_reach(zeros, x_max):
    for l, z in enumerate(zeros):
        if not (len(z) and z[-1] > x_max):
            raise BracketError(
                f"zero ladder level {l} ends at or below x_max = {x_max:g}")


def _climb(level0, l_max, x_max):
    """Zeros of j_0..j_l_max from those of j_0, one fewer per order.

    Bracket k of level l runs from the upper end of level l-1's bracket k
    to the lower end of its bracket k + 1: inside the interlacing
    interval (DLMF 10.21(i)), so it holds at most one zero, and its sign
    change proves it holds one.  Levels are refined in turn only to
    _COARSE_WIDTH; one batched solve then finishes every bracket.
    Raises BracketError unless every level reaches beyond x_max.
    """
    lo = hi = level0
    ls, los, his = [], [], []
    for l in range(1, l_max + 1):
        _, lo, hi, _ = _shrink_brackets(BESSEL.jl, l, hi[:-1], lo[1:],
                                        _COARSE_WIDTH)
        ls.append(np.full(len(lo), l))
        los.append(lo)
        his.append(hi)
    roots = _bisect_brackets(BESSEL.jl, np.concatenate(ls),
                             np.concatenate(los), np.concatenate(his))
    zeros = (level0, *np.split(roots, np.cumsum([len(lo) for lo in los])[:-1]))
    _check_reach(zeros, x_max)
    for z in zeros:
        z.setflags(write=False)
    return zeros


def _derivative_family_roots(f, x_max):
    """(l, root) of f(l, .) (= j_l' or (x j_l)') below x_max, all l >= 1;
    _zero_ladder(x_max) must have run.

    Per l, one root sits between the turning point sqrt(l(l+1)) and the
    first zero of j_l; after that, exactly one root between consecutive
    zeros.  The first time f is asked for, all brackets of all orders up
    to the memo's cutoff are solved in one call; later calls cut them.
    """
    if f.__name__ not in _BALL:
        ladder, top = _BALL["ladder"], _BALL["x_max"]
        ls, los, his = [], [], []
        for l in range(1, len(ladder)):
            zl = ladder[l]
            lo = np.concatenate([[math.sqrt(l * (l + 1.0))], zl[:-1]])
            keep = lo <= top
            ls.append(np.full(np.count_nonzero(keep), l))
            los.append(lo[keep])
            his.append(zl[keep])
        l = np.concatenate(ls)
        _BALL[f.__name__] = l, _bisect_brackets(
            f, l, np.concatenate(los), np.concatenate(his))
    l, roots = _BALL[f.__name__]
    keep = roots <= x_max
    return l[keep], roots[keep]


def _rows(family, l, roots, radius):
    """Mode rows for roots grouped by ascending l; m counts within each l."""
    l = np.asarray(l, dtype=int)
    start = np.searchsorted(l, l)      # index of the first row of each l
    return {
        "family": np.full(len(roots), family, dtype="U9"),
        "l": l,
        "m": np.arange(1, len(roots) + 1) - start,
        "multiplicity": 2 * l + 1,
        "lam": (roots / radius) ** 2,
    }


def _require_positive(name, value, error=ValueError):
    if not (math.isfinite(value) and value > 0):
        raise error(f"{name} must be finite and positive, got {value!r}")


def _enumerate(families, omega_max, radius, note):
    _require_positive("omega_max", omega_max)
    _require_positive("radius", radius)
    x_max = omega_max * radius
    if x_max > 200.0:
        raise ValueError(
            f"omega_max * radius = {x_max:g} exceeds the cutoff limit of "
            "the verified Bessel domain (<= 200)")
    below = [z[z <= x_max] for z in _zero_ladder(x_max)]
    l_zero = np.concatenate([np.full(len(z), l) for l, z in enumerate(below)])
    zeros = np.concatenate(below)
    parts = []
    if "DIRICHLET" in families:
        parts.append(_rows("DIRICHLET", l_zero, zeros, radius))
    if "TE" in families:
        parts.append(_rows("TE", l_zero[l_zero >= 1], zeros[l_zero >= 1], radius))
    if "NEUMANN" in families:
        # j_0' = -j_1: the flux-free l = 0 roots are the zeros of j_1; the
        # constant (x = 0) mode is excluded
        l, roots = _derivative_family_roots(BESSEL.jl_prime, x_max)
        parts.append(_rows("NEUMANN", np.r_[np.zeros(len(below[1]), int), l],
                           np.r_[below[1], roots], radius))
    if "TM" in families:
        l, roots = _derivative_family_roots(BESSEL.riccati_prime, x_max)
        parts.append(_rows("TM", l, roots, radius))
    cols = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
    return ModeList(radius=radius, omega_max=omega_max, note=note, **cols)


# ---------------------------------------------------------------------------
# the mode list
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeList:
    """Enumerated eigenvalues with multiplicities and family labels.

    Zero modes never appear (all lambda > 0), matching the
    omit-zero-modes trace convention.  Rows are sorted by
    (lambda, family, l) so identical inputs give identical files.
    """

    family: np.ndarray
    l: np.ndarray
    m: np.ndarray
    multiplicity: np.ndarray
    lam: np.ndarray
    radius: float
    omega_max: float
    note: str = ""

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if len(lam) == 0:
            raise ValueError("empty mode list")
        if np.any(lam <= 0):
            raise ValueError("zero or negative eigenvalue in mode list")
        if not np.all(np.isfinite(lam)):
            raise ValueError("non-finite eigenvalue in mode list")
        family = np.asarray(self.family)
        unknown = set(family.tolist()) - set(FAMILIES)
        if unknown:
            raise ValueError(f"unknown mode family {sorted(unknown)[0]!r}; "
                             f"expected one of {', '.join(FAMILIES)}")
        l, m, mult = map(np.asarray, (self.l, self.m, self.multiplicity))
        bad = (l < np.isin(family, ("TE", "TM"))) | (m < 1) | (mult < 1)
        if np.any(bad):
            i = np.argmax(bad)
            raise ValueError(f"no {family[i]} mode has l = {l[i]}, m = "
                             f"{m[i]}, multiplicity {mult[i]}: l >= 0 (>= 1 "
                             "for TE, TM), m >= 1 and multiplicity >= 1")
        object.__setattr__(self, "family", family.astype("U9"))
        for name in ("radius", "omega_max"):
            _require_positive(name, getattr(self, name), _SidecarError)
        above = np.sqrt(lam) > self.omega_max * (1.0 + 1e-12)   # rounding
        if np.any(above):
            raise _SidecarError(
                f"omega_max {self.omega_max:g} lies below {np.sum(above)} of "
                f"the {len(lam)} rows, which reach {np.sqrt(lam.max()):.6g}")
        order = np.lexsort((self.l, self.family, lam))
        for name in ("family", "l", "m", "multiplicity"):
            object.__setattr__(self, name, np.asarray(getattr(self, name))[order])
        object.__setattr__(self, "lam", lam[order])
        # read-only, so an in-place write cannot leave the cached
        # columns, density, usable floors or sums stale
        for name in ("family", "l", "m", "multiplicity", "lam"):
            getattr(self, name).setflags(write=False)

    def __len__(self):
        return len(self.lam)

    @cached_property
    def omega(self):
        omega = np.sqrt(self.lam)
        omega.setflags(write=False)
        return omega

    @cached_property
    def weighted_omega(self):
        """multiplicity * omega, the frequency each row adds to a sum."""
        column = self.multiplicity * self.omega
        column.setflags(write=False)
        return column

    @property
    def count(self):
        """Total number of modes, multiplicity included."""
        return int(np.sum(self.multiplicity))

    @cached_property
    def _n_cumulative(self):
        """N at the top of each row, after a leading 0 (rows sort by omega)."""
        counts = np.concatenate(([0], np.cumsum(self.multiplicity)))
        counts.setflags(write=False)
        return counts

    def n_below(self, omega):
        """Cumulative mode count N(omega), multiplicity included.

        ``omega`` may be an array; the result then has its shape.
        """
        counts = self._n_cumulative[
            np.searchsorted(self.omega, omega, side="right")]
        return int(counts) if np.ndim(counts) == 0 else counts

    # -- truncation model ------------------------------------------------

    @cached_property
    def density(self):
        """Smooth density model (c2, c1): dN ~ (c2 omega^2 + c1 omega) d omega.

        Calibrated against the counted staircase over the top of the
        enumerated range rather than taken from the growth law, which
        absorbs the surface correction empirically.  Falls back to the
        single leading term when the list is too small for a stable
        two-parameter fit; ValueError below 20 calibrating modes, as a
        zero tail would pass every truncation bound, and for an
        ``omega_max`` beyond the list's end: one that gives a fitted
        c2 <= 0, or lies further above the last row than the widest gap
        between consecutive rows of the window, counted from its lower
        end.  Computed once.
        """
        w_hi = self.omega_max
        w_lo = TAIL_CALIBRATION_WINDOW * w_hi
        n_lo = self.n_below(w_lo)
        if self.count - n_lo < 20:
            raise ValueError(
                f"mode list to omega_max {w_hi:g}: {self.count - n_lo} of its "
                f"{self.count} modes lie in the tail calibration window "
                f"({w_lo:g}, {w_hi:g}], fewer than the 20 a tail needs")
        if self.count - n_lo < 500:
            vol = (w_hi ** 3 - w_lo ** 3) / 3.0
            c2, c1 = (self.count - n_lo) / vol, 0.0
        else:
            edges = np.linspace(w_lo, w_hi, 40)[1:]
            counts = (self.n_below(edges) - n_lo).astype(float)
            design = np.column_stack([(edges ** 3 - w_lo ** 3) / 3.0,
                                      (edges ** 2 - w_lo ** 2) / 2.0])
            (c2, c1), *_ = np.linalg.lstsq(design, counts, rcond=None)
            if not c2 > 0:
                raise _SidecarError(
                    f"omega_max {w_hi:g} lies beyond the end of the mode "
                    f"list: its calibrated density has c2 = {c2:.3g} <= 0")
        omega = self.omega[self.omega > w_lo]
        widest = np.diff(omega, prepend=w_lo).max()
        if w_hi - omega[-1] > widest:
            raise _SidecarError(
                f"omega_max {w_hi:g} lies {w_hi - omega[-1]:.3g} above the "
                f"last row, more than the widest row gap {widest:.3g} in the "
                f"calibration window ({w_lo:g}, {w_hi:g}]")
        return float(c2), float(c1)

    @cached_property
    def _usable_floor(self):
        """Memo of smallest_usable over this list: (trace, rtol) -> floor."""
        return {}

    @cached_property
    def _sums(self):
        """Memo of sum_parts over this list: (sum, x) -> (raw, tail)."""
        return {}

    # -- persistence -------------------------------------------------------

    def to_csv(self, path):
        """Write rows as CSV plus a JSON sidecar with the enumeration data."""
        path = Path(path)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(_CSV_TYPES))
            writer.writerows(zip(
                self.family.tolist(), self.l.tolist(), self.m.tolist(),
                self.multiplicity.tolist(), map(repr, self.lam.tolist())))
        sidecar = {
            "schema_version": 1,
            "radius": self.radius,
            "omega_max": self.omega_max,
            "note": self.note,
            "accuracy": {
                "bessel_envelope_rtol": BESSEL.rtol,
                "root_relative_tolerance": 1e-13,
                "zero_modes_excluded": True,
            },
        }
        meta_path = sidecar_path(path)
        meta_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True))
        return path, meta_path

    @classmethod
    def from_csv(cls, path):
        path = Path(path)
        meta_path = sidecar_path(path)
        if not meta_path.exists():
            raise FileNotFoundError(
                f"missing sidecar {meta_path.name}; mode CSVs carry their "
                "radius and cutoff in a JSON sidecar")
        try:
            # integers read as floats, too large ones as inf
            meta = json.loads(meta_path.read_text(), parse_int=float)
            values = [meta[k] for k in ("radius", "omega_max")]
        except (json.JSONDecodeError, RecursionError) as err:
            # RecursionError: nesting deeper than the decoder follows
            raise ValueError(
                f"{meta_path.name}: malformed JSON ({err})") from None
        except KeyError as err:
            raise ValueError(
                f"{meta_path.name} has no {err.args[0]!r} key") from None
        except TypeError:           # not a JSON object
            values = []
        # JSON numbers only: true and false are not, nor are strings
        if not (values and all(type(v) is float for v in values)):
            raise ValueError(f"{meta_path.name} must map 'radius' and "
                             "'omega_max' to numbers")
        radius, omega_max = values
        columns = {name: [] for name in _CSV_TYPES}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            # a repeated column name reads its last column, blank lines
            # are skipped and fields beyond the header are ignored
            index = {name: i for i, name in enumerate(next(reader, []))}
            for name in _CSV_TYPES:
                if name not in index:
                    raise ValueError(f"{path.name} has no {name!r} column")
            pick = itemgetter(*(index[name] for name in _CSV_TYPES))
            # columns are converted whole, a block of rows at a time, so
            # the fields of the whole file are never held at once
            for block in iter(lambda: list(islice(reader, 256)), []):
                try:
                    picked = [pick(row) for row in block if row]
                except IndexError:
                    raise ValueError(f"{path.name} has a row shorter than "
                                     "its header") from None
                for (name, convert), values in zip(_CSV_TYPES.items(),
                                                   zip(*picked)):
                    columns[name].extend(map(convert, values))
        modes = None
        try:
            modes = cls(lam=np.array(columns.pop("lambda")), radius=radius,
                        omega_max=omega_max, note=meta.get("note", ""),
                        **{k: np.array(v) for k, v in columns.items()})
            modes.density
        except _SidecarError as err:
            raise ValueError(f"{meta_path.name}: {err}") from None
        except ValueError as err:
            if modes is None:           # the rows themselves are invalid
                raise ValueError(f"{path.name}: {err}") from None
            # too few modes to calibrate: raised where a tail is needed
        return modes


def sidecar_path(path):
    """The JSON sidecar beside a mode CSV: its radius and cutoff."""
    path = Path(path)
    return path.with_name(path.name + ".meta.json")


# ---------------------------------------------------------------------------
# enumerators
# ---------------------------------------------------------------------------

def dirichlet_modes(omega_max, radius=1.0) -> ModeList:
    """Scalar value-fixed spectrum of the ball up to omega_max."""
    return _enumerate({"DIRICHLET"}, omega_max, radius, "dirichlet")


def neumann_modes(omega_max, radius=1.0) -> ModeList:
    """Scalar flux-fixed spectrum; the constant zero mode is excluded."""
    return _enumerate({"NEUMANN"}, omega_max, radius, "neumann")


def em_modes(omega_max, radius=1.0) -> ModeList:
    """Electromagnetic cavity spectrum: TE and TM families, each once."""
    return _enumerate({"TE", "TM"}, omega_max, radius, "em")


def form_modes(p, omega_max, radius=1.0) -> ModeList:
    """Spectrum of the degree-p form Laplacian on the ball (zero modes off).

    Degrees 1 and 2 list the EM families together with one scalar
    family (value-fixed for p=1, flux-fixed for p=2), enumerated in one
    pass, mirroring the exact trace splitting
    Tr' (vector, p=1) = Tr' (divergence-free) + Tr' (scalar, p=0) and its
    p=2/3 counterpart; the ball has no harmonic 1- or 2-forms, so no
    finite-dimensional correction arises.
    """
    if p == 0:
        return dirichlet_modes(omega_max, radius)
    if p == 3:
        return neumann_modes(omega_max, radius)
    if p not in (1, 2):
        raise ValueError("form degree must be 0..3")
    scalar = "DIRICHLET" if p == 1 else "NEUMANN"
    return _enumerate({"TE", "TM", scalar}, omega_max, radius, f"p{p}")


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def smallest_usable(modes, name, rtol, lo, hi):
    """Smallest x in (lo, hi] at which the sum ``name`` passes the cut-off.

    A point is usable when tail <= rtol * raw for sum_parts(modes, name,
    x), the test the traces apply before they raise CutoffTooLowError.
    Geometric bisection runs until (lo, hi) stops changing, i.e. until
    they are adjacent floats, so the result is the trace's own boundary
    to the last bit.  The rounded sqrt(lo * hi) never leaves [lo, hi],
    so the interval only shrinks and the loop ends (after about 60 steps
    on [1e-10, 10]).  The search runs once per (name, rtol) on each mode
    list, which keeps the floor in its memo.
    """
    memo = modes._usable_floor
    key = (name, rtol)
    if key not in memo:
        while True:
            mid = math.sqrt(lo * hi)
            raw, tail = sum_parts(modes, name, mid)
            new = (mid, hi) if tail > rtol * raw else (lo, mid)
            if new == (lo, hi):
                break
            lo, hi = new
        memo[key] = hi
    return memo[key]


def exact_sum(terms):
    """math.fsum(terms.tolist()) of a 1-d float64 array, bit for bit.

    Long arrays reach fsum's single rounding of the exact sum by one
    error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput.
    31(1), 2008): with n terms below 2^E, n + 2 <= 2^M and sigma =
    2^(E + M), q = (x + sigma) - sigma sums exactly in any order and
    r = x - q is exact with |r| <= 2^-53 sigma, so the float sum of r
    errs by less than B = 2 n^2 2^-106 sigma.  res = q.sum() + r.sum()
    is the rounded exact sum when its TwoSum error plus B is below half
    the gap to its nearer neighbour.  Lengths outside [_EXACT_SUM_MIN,
    2^25], a largest term outside (2^-900, 2^900) or not finite, a
    failed certificate and an exact zero, whose sign fsum decides, go
    to fsum.
    """
    n = len(terms)
    top = np.abs(terms).max() if _EXACT_SUM_MIN <= n <= 2 ** 25 else 0.0
    if 2.0 ** -900 < top < 2.0 ** 900:
        k = math.frexp(top)[1] + (n + 2).bit_length()
        q = terms + 2.0 ** k
        q -= 2.0 ** k
        s1 = float(q.sum())
        s2 = float(np.subtract(terms, q, out=q).sum())
        res = s1 + s2
        back = res - s1
        err = (s1 - (res - back)) + (s2 - back)
        half = math.ulp(res) / (4 if abs(math.frexp(res)[0]) == 0.5 else 2)
        if res and abs(err) + math.ldexp(n * n, k - 105) < half:
            return res
    return math.fsum(terms.tolist())


def _heat_trace_tail(c2, c1, W, t):
    z = t * W * W
    return (c2 * 0.5 * t ** -1.5 * upper_gamma_3_2(z)
            + c1 * 0.5 / t * math.exp(-z))


def _heat_regulated_tail(c2, c1, W, gamma):
    z = gamma * W * W
    return (c2 * 0.5 * (1.0 + z) * math.exp(-z) / gamma ** 2
            + c1 * 0.5 * gamma ** -1.5 * upper_gamma_3_2(z))


def _sqrt_regulated_tail(c2, c1, W, gamma):
    s = math.sqrt(gamma)
    e = math.exp(-s * W)
    return (c2 * e * (W**3 / s + 3 * W**2 / s**2 + 6 * W / s**3 + 6 / s**4)
            + c1 * e * (W**2 / s + 2 * W / s**2 + 2 / s**3))


def _resolvent2_tail(c2, c1, W, mu):
    smu = math.sqrt(mu)
    return (c2 * 0.5 * ((math.pi / 2 - math.atan(W / smu)) / smu
                        + W / (W * W + mu))
            + c1 * 0.5 / (W * W + mu))


# name -> (argument, terms over a list's rows at x, integral of the term
# times the calibrated density c2 w^2 + c1 w above the cutoff W); "heat"
# and "sqrt" are the values of casimir.RegulatorKind
_SUMS = {
    "heat_trace": ("t", lambda m, t: m.multiplicity * np.exp(-t * m.lam),
                   _heat_trace_tail),
    "heat": ("gamma", lambda m, g: m.weighted_omega * np.exp(-g * m.lam),
             _heat_regulated_tail),
    "sqrt": ("gamma",
             lambda m, g: m.weighted_omega * np.exp(-np.sqrt(g * m.lam)),
             _sqrt_regulated_tail),
    "resolvent2": ("mu", lambda m, mu: m.multiplicity / (m.lam + mu) ** 2,
                   _resolvent2_tail),
}

# (sum, x) entries one list keeps.  A clean scan and its planted-defect
# scan share one grid of 60 sums and a floor search adds about 60 more;
# 256 entries hold two such pairs in about 56 KB.
_SUM_MEMO_SIZE = 256


def sum_parts(modes, name, x):
    """(raw, tail) of the sum _SUMS[name] at x, computed once per list.

    ValueError names the argument when x is not positive and finite.
    A tail whose float arithmetic raises (t ** -1.5 overflows at a tiny
    t, gamma ** 2 underflows to a zero divisor at a tiny gamma or
    overflows at a huge one) is +inf, which no cut-off test accepts.
    The pair is kept in the list's memo under (name, x); once that
    holds _SUM_MEMO_SIZE entries, the oldest is dropped first.
    """
    arg, terms, tail = _SUMS[name]
    _require_positive(arg, x)
    x = float(x)
    memo = modes._sums
    key = (name, x)
    if key not in memo:
        if len(memo) >= _SUM_MEMO_SIZE:
            del memo[next(iter(memo))]
        try:
            bound = tail(*modes.density, modes.omega_max, x)
        except (OverflowError, ZeroDivisionError):
            bound = math.inf
        memo[key] = (exact_sum(terms(modes, x)), bound)
    return memo[key]


def heat_trace(modes: ModeList, t):
    """K(t) = sum multiplicity * exp(-t lambda), with truncation bound.

    Returns (value, bound).  Raises CutoffTooLowError carrying the
    minimum usable t when the truncation tail exceeds
    HEAT_TRACE_RTOL * K(t).
    """
    value, bound = sum_parts(modes, "heat_trace", t)
    if bound > HEAT_TRACE_RTOL * value:
        t_min = min_usable_t(modes)
        raise CutoffTooLowError(
            f"heat trace truncation {bound:.3g} exceeds {HEAT_TRACE_RTOL:g} "
            f"* K at t={t:g}; minimum usable t ~ {t_min:.4g}", t_min)
    return value, bound


def min_usable_t(modes: ModeList):
    """Smallest t at which heat_trace accepts the truncation."""
    return smallest_usable(modes, "heat_trace", HEAT_TRACE_RTOL, 1e-8, 10.0)


def heat_trace_samples(modes: ModeList, ts):
    """K(t) over a t-grid; returns (t, K, bound) arrays."""
    ts = np.asarray(ts, dtype=float)
    rows = [heat_trace(modes, float(t)) for t in ts]
    K, bounds = np.array(rows, dtype=float).reshape(len(ts), 2).T
    return ts, K, bounds


@dataclass(frozen=True)
class TailCorrected:
    """A truncated spectral sum plus its smooth-density tail estimate."""

    raw: float
    tail: float

    @property
    def value(self):
        return self.raw + self.tail

    @property
    def tail_sigma(self):
        return TAIL_DENSITY_RELERR * self.tail


def resolvent2_trace(modes: ModeList, mu) -> TailCorrected:
    """T2(mu) = sum multiplicity (lambda + mu)^-2 over the mode list.

    The squared-resolvent sum converges only like 1/cutoff, so the
    smooth-density tail above the cutoff is estimated in closed form and
    reported with a TAIL_DENSITY_RELERR uncertainty.
    """
    return TailCorrected(*sum_parts(modes, "resolvent2", mu))


def resolvent2_expansion(coeffs, mu):
    """Large-mu model sum_n Gamma((n+1)/2) a_n mu^-(n+1)/2 for n = 0..5,
    the terms asymptotics.pole_terms generates for this sum."""
    from .asymptotics import pole_terms     # not loaded by trace or modes
    return sum(f * coeffs[n] * mu ** e
               for n, (e, _, f) in enumerate(pole_terms("resolvent2", 6)))
