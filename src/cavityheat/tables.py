"""Exact heat-trace coefficient tables for p-form Laplacians, p = 0..3.

On a compact solid in R^3 with smooth boundary, the Laplacian on p-forms
with relative boundary conditions (Dirichlet at p=0, perfect-conductor
pairs at p=1,2, Neumann at p=3) has a small-t heat-trace expansion
sum_n a_n^(p) t^((n-3)/2).  The coefficients a_0..a_5 are combinations
of eleven boundary/volume curvature moments with *exact rational*
constants; this module stores those constants and the derived
electromagnetic combination, and proves their mutual consistency in
pure rational arithmetic (no floating point anywhere).

Every constant is a plain Fraction, and each order a_n carries one
power of 4 pi, ``FOUR_PI_POWER[n]``, shared by all of its entries, so
table transcription errors cannot hide behind rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "MOMENT_SLOTS",
    "TABLE",
    "FOUR_PI_POWER",
    "EM_EXACT",
    "form_exact",
    "em_topology_term",
    "harmonic_form_dims",
    "ConsistencyCheck",
    "consistency_report",
]

# Moment slot names, in the order they enter a_0..a_5.
MOMENT_SLOTS = {
    0: ("volume",),
    1: ("area",),
    2: ("trL",),
    3: ("trL2", "detL"),
    4: ("trL3", "trL_detL"),
    5: ("trL4", "trL2_detL", "detL2", "trL_lap_trL"),
}


# columns: p = 0, 1, 2, 3
TABLE = {
    "c0":  (1, 3, 3, 1),
    "c1":  (-1, -1, 1, 1),
    "c2":  (1, -3, -3, 1),
    "c31": (3, 21, 33, 15),
    "c32": (-20, 148, -220, -4),
    "c41": (4, 36, 60, 28),
    "c42": (-18, -162, -186, -42),
    "c51": (555, 5145, 8625, 4035),
    "c52": (-2840, -27720, -35720, -10840),
    "c53": (2224, 29072, 29712, 2864),
    "c54": (120, 2520, 4680, 2280),
}

# The power of 4 pi shared by every entry of a_n: (4 pi)^-m/2 at the
# integer heat orders and (4 pi)^-(m-1)/2 at the half-integer ones, m = 3.
FOUR_PI_POWER = {n: Fraction(-3, 2) if n % 2 == 0 else Fraction(-1)
                 for n in range(6)}

# a_n^(p) = (4 pi)^FOUR_PI_POWER[n] * prefactor * sum_rows c^(p) * moment
_ROWS = {
    # n: (prefactor, c-constant rows in MOMENT_SLOTS order)
    0: (Fraction(1), ("c0",)),
    1: (Fraction(1, 4), ("c1",)),
    2: (Fraction(1, 3), ("c2",)),
    3: (Fraction(1, 384), ("c31", "c32")),
    4: (Fraction(1, 315), ("c41", "c42")),
    5: (Fraction(1, 245760), ("c51", "c52", "c53", "c54")),
}


def form_exact(p, table=TABLE):
    """Exact coefficient map for the degree-p Laplacian.

    Returns ``{n: {slot: Fraction}}`` so that a_n^(p) =
    (4 pi)^FOUR_PI_POWER[n] * sum_slot value[n][slot] * moment(slot).
    """
    if p not in (0, 1, 2, 3):
        raise ValueError("form degree must be 0..3")
    return {n: {slot: prefactor * table[row][p]
                for slot, row in zip(MOMENT_SLOTS[n], rows)}
            for n, (prefactor, rows) in _ROWS.items()}


# Electromagnetic coefficients, in the units of form_exact: local
# curvature parts (exact), plus the topological constant in a_3 handled
# by em_topology_term().
EM_EXACT = {
    0: {"volume": Fraction(2)},
    1: {"area": Fraction(0)},
    2: {"trL": Fraction(-4, 3)},
    3: {"trL2": Fraction(3, 64), "detL": Fraction(-1, 16)},
    4: {"trL3": Fraction(32, 315), "trL_detL": Fraction(-144, 315)},
    5: {"trL4": Fraction(2295, 122880),
        "trL2_detL": Fraction(-12440, 122880),
        "detL2": Fraction(13424, 122880),
        "trL_lap_trL": Fraction(1200, 122880)},
}


def em_topology_term(topology):
    """The non-local constant in the electromagnetic a_3.

    For boundary components of genera g_1..g_n this is
    1 - (1/2) sum_i (1 + g_i), an exact rational.
    """
    return 1 - Fraction(1, 2) * sum(1 + g for g in topology.genera)


def harmonic_form_dims(topology):
    """Dimensions of the harmonic p-form spaces, p = 0..3.

    (0, n-1, sum of genera, 1) for n boundary components.
    """
    return (0, topology.components - 1, topology.total_genus, 1)


@dataclass(frozen=True)
class ConsistencyCheck:
    name: str
    ok: bool
    detail: str = ""


# The two pairing routes a_k = a_k^(hi) - a_k^(lo) relating the
# electromagnetic coefficients to p-form differences.  At a_3 the det L
# slots differ by ``transfer`` (4 pi)^-1 with transfer = +-1/2, which the
# total-curvature identity (4 pi)^-1 * integral(det L) = sum_i (1 - g_i)
# turns into a topological constant; ``det_weight`` is the quoted det L
# weight of the a_3 difference in units of (1/64)(4 pi)^-1, next to 3
# for (tr L)^2.
_ROUTES = {
    # route: (hi, lo, transfer, det_weight)
    "p1-p0": (1, 0, Fraction(1, 2), 28),
    "p2-p3": (2, 3, Fraction(-1, 2), -36),
}


def consistency_report(topology, table=TABLE):
    """Exact cross-checks between the p-form table and the EM coefficients.

    All arithmetic is rational.  Returns a list of ConsistencyCheck; a
    failure indicates a transcribed-constant error, not roundoff.
    """
    checks = []

    def add(name, got, want):
        def show(x):
            return ", ".join(map(str, x)) if isinstance(x, tuple) else str(x)
        checks.append(ConsistencyCheck(name, got == want,
                                       f"{show(got)} vs {show(want)}"))

    forms = [form_exact(p, table) for p in range(4)]
    harmonic = harmonic_form_dims(topology)
    euler = topology.euler_sum()

    def diff(route, n, slot):
        hi, lo = _ROUTES[route][:2]
        return forms[hi][n][slot] - forms[lo][n][slot]

    for route, (hi, lo, transfer, _) in _ROUTES.items():
        # local slots must match verbatim for k != 3
        for n in (0, 1, 2, 4, 5):
            for slot in MOMENT_SLOTS[n]:
                add(f"a{n}[{slot}]:{route}", diff(route, n, slot),
                    EM_EXACT[n][slot])
        # a_3: the (tr L)^2 slot matches directly, while the det L slot
        # differs by the transfer; adding the dimension of the harmonic
        # space gives the topological constant.
        add(f"a3[trL2]:{route}", diff(route, 3, "trL2"), EM_EXACT[3]["trL2"])
        add(f"a3[detL-transfer]:{route}",
            diff(route, 3, "detL") - EM_EXACT[3]["detL"], transfer)
        add(f"a3[topology]:{route}",
            transfer * euler - (harmonic[hi] - harmonic[lo]),
            em_topology_term(topology))

    # the quoted a_3 differences, in units of (1/64)(4 pi)^-1
    for route, (*_, det_weight) in _ROUTES.items():
        add(f"a3-combination:{route}",
            (64 * diff(route, 3, "trL2"), 64 * diff(route, 3, "detL")),
            (3, det_weight))

    # the electromagnetic a_1 vanishes because both c1 differences do
    for route in _ROUTES:
        add(f"a1-zero:{route}", diff(route, 1, "area"), 0)

    return checks
