"""Market construction, indexes, and the allocation predicate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

import oracles
from envylattice import (
    Contract,
    HospitalSpec,
    Market,
    NotAnAllocationError,
    allocation_violations,
    canon,
    contract_count_balance,
    is_allocation,
    restrict,
)
from envylattice.model import require_allocation

from conftest import DOCTOR_OPT, EF_MIDDLE, small_markets


def test_contract_is_frozen():
    c = Contract(id="a", doctor="d", hospital="h")
    with pytest.raises(AttributeError):
        c.id = "b"


def test_indexes(no_lad):
    assert set(no_lad.contract_by_id) == {"x11", "x12", "x13", "x21", "x22", "x23"}
    assert no_lad.contract_by_id["x12"].doctor == "d1"
    assert no_lad.contract_by_id["x12"].hospital == "h2"
    assert no_lad.doctor_contracts["d1"] == frozenset({"x11", "x12", "x13"})
    assert no_lad.hospital_contracts["h3"] == frozenset({"x13", "x23"})
    assert no_lad.hospital_rank["h1"] == {"x21": 0, "x11": 1}


def test_canon_sorts():
    assert canon({"b", "a", "c"}) == ("a", "b", "c")
    assert canon(frozenset()) == ()


def test_restrict(no_lad):
    assert restrict(no_lad, DOCTOR_OPT, "d1") == frozenset({"x11", "x12"})
    assert restrict(no_lad, DOCTOR_OPT, "h3") == frozenset({"x23"})
    assert restrict(no_lad, frozenset(), "d1") == frozenset()


def test_allocation_violations_duplicate_pair(lattice_demo):
    # x11 and y11 both name (d1, h1)
    msgs = allocation_violations(lattice_demo, frozenset({"x11", "y11"}))
    assert len(msgs) == 1
    assert "d1" in msgs[0] and "h1" in msgs[0]


def test_allocation_violations_quota(no_lad):
    # h3 has quota 1 but x13 and x23 both name it
    msgs = allocation_violations(no_lad, frozenset({"x13", "x23"}))
    assert len(msgs) == 1
    assert "h3" in msgs[0] and "quota" in msgs[0]


def test_allocation_violations_clean(no_lad):
    assert allocation_violations(no_lad, DOCTOR_OPT) == []
    assert is_allocation(no_lad, DOCTOR_OPT)
    assert is_allocation(no_lad, frozenset())


def test_require_allocation_raises(no_lad):
    with pytest.raises(NotAnAllocationError):
        require_allocation(no_lad, frozenset({"x13", "x23"}))
    assert require_allocation(no_lad, EF_MIDDLE) == EF_MIDDLE


def test_unknown_ids_rejected(no_lad):
    from envylattice import UnknownIdError

    with pytest.raises(UnknownIdError):
        allocation_violations(no_lad, frozenset({"x11", "nope"}))


def test_count_balance(no_lad):
    # one signature per doctor-side pen stroke, one per hospital-side
    for Y in (frozenset(), EF_MIDDLE, DOCTOR_OPT):
        by_doctor, by_hospital, total = contract_count_balance(no_lad, Y)
        assert by_doctor == by_hospital == total == len(Y)


def test_market_accepts_several_contracts_per_pair():
    contracts = (
        Contract(id="a", doctor="d", hospital="h"),
        Contract(id="b", doctor="d", hospital="h"),
    )
    m = Market(
        doctors=(),
        hospitals=(HospitalSpec(id="h", quota=2, ranking=("a", "b")),),
        contracts=contracts,
    )
    assert m.hospital_contracts["h"] == frozenset({"a", "b"})
    # same doctor-hospital pair twice is never an allocation
    assert not is_allocation(m, frozenset({"a", "b"}))


def test_violations_match_the_sorted_oracle():
    # every contract set of each drawn market, broken ones included
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(small_markets())
    def check(market):
        for Y in oracles.subsets_of(c.id for c in market.contracts):
            expected = oracles.sorted_allocation_violations(market, Y)
            assert allocation_violations(market, Y) == expected, canon(Y)
            seen.update(v.split()[0] for v in expected)
            if len(expected) > 1:
                seen.add("several")

    check()
    assert seen == {"doctor", "hospital", "several"}
