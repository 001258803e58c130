"""Shared fixtures: the two bundled demo markets and their named allocations."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import strategies as st

from envylattice import (
    DoctorSpec,
    GenParams,
    Market,
    TableDoctor,
    doctor_choose,
    generate_responsive_market,
    parse_market,
)
from oracles import subsets_of

MARKET_DIR = Path(__file__).resolve().parent.parent / "markets"
NO_LAD_PATH = MARKET_DIR / "no_lad_demo.market.json"
LATTICE_PATH = MARKET_DIR / "lattice_demo.market.json"
# responsive_demo: responsive doctors with 3, 11 and 17 contracts, so its
# validation report has exhaustive, pair-sampled and sampled entries.
RESPONSIVE_PATH = Path(__file__).resolve().parent / "responsive_demo.market.json"
# axiom_fatal: one table doctor whose complementary rule breaks
# substitutability, consistency and path independence.
AXIOM_FATAL_PATH = Path(__file__).resolve().parent / "axiom_fatal.market.json"
# pi_pair: one table doctor over c0-c2 choosing nothing but {c0} from all
# three, so the first path-independence witness is ({c0}, {c1, c2}),
# whose second subset has two contracts.
PI_PAIR_PATH = Path(__file__).resolve().parent / "pi_pair.market.json"

# no_lad_demo: two table doctors, three quota-1 hospitals.  Doctor d2
# drops from two signed contracts to one when x23 shows up, breaking the
# law of aggregate demand, so the count-based consequences fail while
# the lattice structure itself survives.
DOCTOR_OPT = frozenset({"x11", "x12", "x23"})
HOSPITAL_OPT = frozenset({"x13", "x21", "x22"})
EF_MIDDLE = frozenset({"x11", "x23"})
EF_LOW = frozenset({"x21", "x22"})

# lattice_demo: two quota-2 hospitals that prefer the y contracts while
# both doctors prefer the x contracts.  Ships with an embedded
# "reference" block whose claims disagree with the computed lattice.
LD_DOCTOR_OPT = frozenset({"x11", "x12", "x21", "x22"})
LD_HOSPITAL_OPT = frozenset({"x11", "x12", "y21", "y22"})
LD_STABLE = frozenset(
    {
        LD_DOCTOR_OPT,
        LD_HOSPITAL_OPT,
        frozenset({"x11", "x12", "x21", "y22"}),
        frozenset({"x11", "x12", "x22", "y21"}),
    }
)
LD_JOIN_LEFT = frozenset({"y11", "y12", "y21"})
LD_JOIN_RIGHT = frozenset({"y11", "y12", "y22"})
LD_JOIN_VALUE = frozenset({"y11", "y12", "y21", "y22"})


@pytest.fixture(scope="session")
def no_lad() -> Market:
    return parse_market(NO_LAD_PATH.read_text())


@pytest.fixture(scope="session")
def lattice_demo() -> Market:
    return parse_market(LATTICE_PATH.read_text())


@pytest.fixture(scope="session")
def no_lad_doc() -> dict:
    return json.loads(NO_LAD_PATH.read_text())


@pytest.fixture(scope="session")
def lattice_doc() -> dict:
    return json.loads(LATTICE_PATH.read_text())


@st.composite
def small_markets(draw, max_contracts: int = 8):
    """A generated responsive market, or the same market with one doctor's
    rule tabulated and a few of its rows replaced by other subsets of the
    row, which may break any choice axiom."""
    hospital_quota = draw(st.integers(min_value=1, max_value=3), label="max hospital quota")
    market = generate_responsive_market(
        GenParams(
            doctors=draw(st.integers(min_value=1, max_value=3), label="doctors"),
            hospitals=draw(st.integers(min_value=1, max_value=3), label="hospitals"),
            contracts=draw(st.integers(min_value=1, max_value=max_contracts), label="contracts"),
            doctor_quota=(1, 3),
            hospital_quota=(1, hospital_quota),
            acceptability=draw(st.sampled_from([0.6, 0.9, 1.0]), label="acceptability"),
            seed=draw(st.integers(min_value=0, max_value=2**32), label="seed"),
        )
    )
    tabulable = [d.id for d in market.doctors if 0 < len(market.doctor_contracts[d.id]) <= 5]
    if not tabulable or not draw(st.booleans(), label="table doctor"):
        return market
    doctor = draw(st.sampled_from(tabulable), label="tabulated doctor")
    table = {S: doctor_choose(market, doctor, S) for S in subsets_of(market.doctor_contracts[doctor]) if S}
    for S in draw(st.lists(st.sampled_from(sorted(table, key=sorted)), max_size=3), label="replaced rows"):
        table[S] = frozenset(draw(st.lists(st.sampled_from(sorted(S)), unique=True), label="row"))
    doctors = tuple(
        DoctorSpec(id=d.id, choice=TableDoctor(table=table)) if d.id == doctor else d
        for d in market.doctors
    )
    return Market(doctors=doctors, hospitals=market.hospitals, contracts=market.contracts)
