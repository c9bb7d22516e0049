"""Exact rational consistency of the p-form coefficient table."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityheat import tables
from cavityheat.geometry import TopologyInfo
from cavityheat.tables import (
    EM_EXACT,
    TABLE,
    consistency_report,
    em_topology_term,
    form_exact,
    harmonic_form_dims,
)

TOPOLOGIES = [
    TopologyInfo(1, (0,)),
    TopologyInfo(1, (1,)),
    TopologyInfo(1, (2,)),
    TopologyInfo(2, (0, 0)),
    TopologyInfo(2, (1, 3)),
    TopologyInfo(3, (0, 1, 2)),
]


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_all_relations_hold_exactly(topology):
    report = consistency_report(topology)
    bad = [c for c in report if not c.ok]
    assert not bad, bad


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       genera=st.lists(st.integers(0, 5), min_size=1, max_size=4))
def test_relations_hold_for_any_topology(data, genera):
    report = consistency_report(TopologyInfo(len(genera), tuple(genera)))
    assert all(c.ok for c in report), [c for c in report if not c.ok]
    permuted = data.draw(st.permutations(genera))
    again = consistency_report(TopologyInfo(len(genera), tuple(permuted)))
    assert again == report


def test_report_covers_both_routes_and_all_orders():
    names = {c.name for c in consistency_report(TOPOLOGIES[0])}
    for route in ("p1-p0", "p2-p3"):
        for n in (0, 1, 2, 4, 5):
            assert any(f"a{n}[" in name and name.endswith(route) for name in names)
        assert f"a3[topology]:{route}" in names
        assert f"a3-combination:{route}" in names


def test_corrupted_table_is_detected():
    bad_table = {**TABLE, "c41": (4, 37, 60, 28)}  # one digit off
    report = consistency_report(TOPOLOGIES[0], table=bad_table)
    assert [chk.name for chk in report if not chk.ok] == ["a4[trL3]:p1-p0"]


@pytest.mark.parametrize("p", range(4))
@pytest.mark.parametrize("row", sorted(TABLE))
def test_every_c_constant_one_unit_off_is_detected(row, p):
    entries = list(TABLE[row])
    entries[p] += 1
    report = consistency_report(TOPOLOGIES[4],
                                table={**TABLE, row: tuple(entries)})
    assert any(not chk.ok for chk in report)


@pytest.mark.parametrize("n, slot", [(n, slot) for n in sorted(EM_EXACT)
                                     for slot in EM_EXACT[n]])
def test_every_wrong_em_entry_is_detected(monkeypatch, n, slot):
    value = EM_EXACT[n][slot]
    monkeypatch.setitem(tables.EM_EXACT[n], slot,
                        value + Fraction(1, value.denominator))
    report = consistency_report(TOPOLOGIES[4])
    assert any(not chk.ok and chk.name.startswith(f"a{n}[")
               for chk in report)



class TestKnownEntries:
    def test_c41_difference_matches_em_prefactor(self):
        # 36 - 4 = 32 and (1/315)*32 = (16/315)*2
        d = TABLE["c41"][1] - TABLE["c41"][0]
        assert d == 32
        assert Fraction(d, 315) == Fraction(16, 315) * 2

    def test_c53_difference_halves_into_em(self):
        d = TABLE["c53"][2] - TABLE["c53"][3]
        assert d == 29712 - 2864 == 26848 == 2 * 13424

    def test_em_a5_detL2_coefficient(self):
        assert EM_EXACT[5]["detL2"] == Fraction(13424, 122880)


class TestBallRationalValues:
    """a_3 on the unit ball: (tr L)^2 integral = 16 pi, det L = 4 pi.

    In units of (4 pi)^-1 the two moments contribute 4 and 1 per unit
    c-constant over 384.
    """

    @pytest.mark.parametrize("p, want", [
        (0, Fraction(-1, 48)),
        (1, Fraction(29, 48)),
        (2, Fraction(-11, 48)),
        (3, Fraction(7, 48)),
    ])
    def test_a3_values(self, p, want):
        fx = form_exact(p)
        got = fx[3]["trL2"] * 4 + fx[3]["detL"] * 1
        assert got == want

    def test_a3_em_from_both_routes(self):
        ball = TopologyInfo(1, (0,))
        t = em_topology_term(ball)
        r1 = Fraction(29, 48) - Fraction(-1, 48) - (1 - 1) + 0
        r2 = Fraction(-11, 48) - Fraction(7, 48) - (0 - 1) + 0
        # route constants: -(n-1) = 0 and -(sum g - 1) = +1
        assert r1 + 0 == Fraction(5, 8)
        assert r2 == Fraction(5, 8)
        local = Fraction(3, 64) * 4 + Fraction(-1, 16) * 1
        assert local + t == Fraction(5, 8)

    @pytest.mark.parametrize("p, want", [
        (0, Fraction(-1, 960)),
        (1, Fraction(1, 480)),
        (2, Fraction(97, 960)),
        (3, Fraction(47, 480)),
    ])
    def test_a5_values(self, p, want):
        fx = form_exact(p)
        got = fx[5]["trL4"] * 16 + fx[5]["trL2_detL"] * 4 + fx[5]["detL2"]
        assert got == want

    def test_a5_em_difference(self):
        assert Fraction(1, 480) - Fraction(-1, 960) == Fraction(1, 320)
        assert Fraction(97, 960) - Fraction(47, 480) == Fraction(1, 320)


def test_form_exact_rejects_degree_4():
    with pytest.raises(ValueError, match="form degree must be 0..3"):
        form_exact(4)


def test_harmonic_dims():
    assert harmonic_form_dims(TopologyInfo(1, (0,))) == (0, 0, 0, 1)
    assert harmonic_form_dims(TopologyInfo(2, (1, 3))) == (0, 1, 4, 1)


def test_topology_term_examples():
    # connected genus-2 boundary: -(1/2)(1+2) + 1 = -1/2
    assert em_topology_term(TopologyInfo(1, (2,))) == Fraction(-1, 2)
    assert em_topology_term(TopologyInfo(1, (0,))) == Fraction(1, 2)
