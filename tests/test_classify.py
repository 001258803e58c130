"""Allocation classes: IR, envy-freeness, stability, and enumeration."""

from __future__ import annotations

import dataclasses
import importlib
import random

import pytest
from hypothesis import given, settings

from envylattice import (
    Contract,
    DoctorSpec,
    EnumerationCapError,
    GenParams,
    HospitalSpec,
    Market,
    MarketError,
    ResponsiveDoctor,
    blair_dominates,
    blocking_contracts,
    canon,
    classify,
    count_allocations,
    enumerate_allocations,
    generate_responsive_market,
    is_envy_free,
    is_individually_rational,
    is_stable,
    justified_envy_witnesses,
)
from envylattice.choice import _parts

from conftest import (
    DOCTOR_OPT,
    EF_LOW,
    EF_MIDDLE,
    HOSPITAL_OPT,
    LD_STABLE,
    small_markets,
)
from oracles import (
    allocation_count,
    brute_blocking,
    brute_envy,
    brute_ir,
    powerset_allocations,
)

# the module, which the package's ``classify`` function shadows
classify_module = importlib.import_module("envylattice.classify")

# frozen from the brute-force subset filter over both demo markets
NO_LAD_COUNTS = {"allocation": 27, "ir": 17, "envy-free": 11, "stable": 2}
LATTICE_COUNTS = {"allocation": 81, "ir": 72, "envy-free": 22, "stable": 4}


def test_frozen_counts(no_lad, lattice_demo):
    for market, expected in ((no_lad, NO_LAD_COUNTS), (lattice_demo, LATTICE_COUNTS)):
        for kind, count in expected.items():
            assert len(enumerate_allocations(market, kind)) == count, kind


def test_allocation_count_matches_the_closed_form(no_lad, lattice_demo):
    # X = 12..20 lies far past the X <= 8 reach of powerset_allocations
    generated = [
        generate_responsive_market(
            GenParams(7, 5, X, seed=seed, doctor_quota=(1, 3), hospital_quota=(1, 3))
        )
        for seed in (0, 1)
        for X in range(12, 21, 2)
    ]
    for market in (no_lad, lattice_demo, *generated):
        assert len(enumerate_allocations(market, "allocation")) == allocation_count(market)
        assert count_allocations(market, "allocation") == allocation_count(market)


def test_allocation_count_with_a_huge_quota(no_lad):
    # a hospital can take no more contracts than it has doctors, so the
    # count ignores the rest of the quota (allocation_count loops up to it)
    huge = dataclasses.replace(
        no_lad, hospitals=tuple(dataclasses.replace(h, quota=10**30) for h in no_lad.hospitals)
    )
    assert count_allocations(huge, "allocation") == len(enumerate_allocations(huge, "allocation")) == 64


@settings(max_examples=200, deadline=None)
@given(small_markets())
def test_counts_equal_the_listings_on_random_markets(market):
    # counts and listings come from one diagram, so both are also held
    # to the subset filter, on axiom-broken draws as well
    for kind in ("allocation", "ir", "envy-free", "stable"):
        count = count_allocations(market, kind)
        assert count == len(enumerate_allocations(market, kind)), kind
        assert count == len(powerset_allocations(market, kind)), kind


def test_counts_equal_the_listings_on_generated_markets(no_lad, lattice_demo):
    # large enough for the frontier memo to be hit
    generated = [
        generate_responsive_market(
            GenParams(7, 5, X, seed=seed, doctor_quota=(1, 3), hospital_quota=(1, 3))
        )
        for seed in (0, 1)
        for X in range(12, 21, 4)
    ]
    for market in (no_lad, lattice_demo, *generated):
        for kind in ("ir", "envy-free", "stable"):
            assert count_allocations(market, kind) == len(enumerate_allocations(market, kind)), kind


def test_stable_sets_exact(no_lad, lattice_demo):
    assert set(enumerate_allocations(no_lad, "stable")) == {DOCTOR_OPT, HOSPITAL_OPT}
    assert set(enumerate_allocations(lattice_demo, "stable")) == set(LD_STABLE)


def test_enumeration_is_sorted_and_nested(no_lad, lattice_demo):
    for market in (no_lad, lattice_demo):
        tiers = [enumerate_allocations(market, k) for k in ("allocation", "ir", "envy-free", "stable")]
        for tier in tiers:
            assert tier == sorted(tier, key=canon)
        for smaller, larger in zip(tiers[1:], tiers):
            assert set(smaller) <= set(larger)


def test_enumerator_equals_subset_filter(no_lad, lattice_demo):
    markets = [no_lad, lattice_demo]
    for seed in range(12):
        markets.append(
            generate_responsive_market(
                GenParams(doctors=2, hospitals=2, contracts=6, seed=300 + seed)
            )
        )
    for market in markets:
        for kind in ("allocation", "ir", "envy-free", "stable"):
            assert enumerate_allocations(market, kind) == powerset_allocations(market, kind)


@settings(max_examples=200, deadline=None)
@given(small_markets())
def test_enumerator_equals_subset_filter_on_random_markets(market):
    for kind in ("allocation", "ir", "envy-free", "stable"):
        assert enumerate_allocations(market, kind) == powerset_allocations(market, kind), kind


@pytest.fixture(scope="module")
def baseline_x22() -> Market:
    # the X=22 baseline market: 280,800 allocations, 328 of them envy-free
    return generate_responsive_market(
        GenParams(7, 5, 22, seed=5, doctor_quota=(1, 3), hospital_quota=(1, 3))
    )


def test_envy_free_search_skips_the_leaf_filters(baseline_x22, monkeypatch):
    def forbidden(*args):
        raise AssertionError("the envy-free search ran a per-leaf filter")

    monkeypatch.setattr(classify_module, "_ir", forbidden)
    monkeypatch.setattr(classify_module, "_blocking", forbidden)
    assert len(enumerate_allocations(baseline_x22, "envy-free")) == 328


def test_accounting_identity_runs_once_per_enumeration(lattice_demo, baseline_x22, monkeypatch):
    calls = []
    balance = classify_module.contract_count_balance

    def counted(market, Y):
        calls.append(Y)
        return balance(market, Y)

    monkeypatch.setattr(classify_module, "contract_count_balance", counted)
    for market in (lattice_demo, baseline_x22):
        for kind in classify_module.CLASSES:
            calls.clear()
            enumerate_allocations(market, kind)
            assert len(calls) == 1, kind
            calls.clear()
            count_allocations(market, kind)
            assert len(calls) == 1, kind


def test_counts_of_the_baseline(baseline_x22):
    counts = {kind: count_allocations(baseline_x22, kind) for kind in classify_module.CLASSES}
    assert counts == {"allocation": 280800, "ir": 5832, "envy-free": 328, "stable": 1}


def test_diagram_of_the_baseline(baseline_x22, monkeypatch):
    # node counts recorded when the envy-free and stable classes became
    # one diagram; a change means the frontier key or the level order
    # changed.  Ladder X=56 is past the default cap.
    monkeypatch.setenv("ENVYLATTICE_ENUM_CAP", "56")
    ladder_x56 = generate_responsive_market(
        GenParams(14, 10, 56, seed=5, doctor_quota=(1, 3), hospital_quota=(1, 3))
    )
    cases = {"ir": (baseline_x22, False), "envy-free": (baseline_x22, True),
             "ladder x56": (ladder_x56, True)}
    nodes, roots = {}, {}
    for name, (market, envy) in cases.items():
        memo, root = classify_module._diagram(market, envy)
        nodes[name], roots[name] = len(memo), memo[root][:2]
        for key, (count, stable, edges) in memo.items():
            # every stored edge is live: the listing never enters a dead branch
            assert all(memo[child][0] for _, child, _ in edges), name
            assert 0 <= stable <= count, name
            if key[0] == len(market.doctors):
                assert (count, stable, edges) == (1, 1, []), name
            elif edges:
                assert count == sum(memo[child][0] for _, child, _ in edges), name
                assert stable == sum(memo[child][1] for _, child, opens in edges if not opens), name
            # without the envy test no edge opens
            assert envy or not any(opens for _, _, opens in edges), name
    assert nodes == {"ir": 146, "envy-free": 144, "ladder x56": 6450}
    assert roots == {"ir": (5832, 5832), "envy-free": (328, 1), "ladder x56": (3456, 1)}


def ghost_market() -> Market:
    # built without validation: x2 names a doctor the market does not have
    return Market(
        doctors=(DoctorSpec(id="d1", choice=ResponsiveDoctor(quota=1, ranking=("x1",))),),
        hospitals=(HospitalSpec(id="h1", quota=2, ranking=("x1", "x2")),),
        contracts=(
            Contract(id="x1", doctor="d1", hospital="h1"),
            Contract(id="x2", doctor="ghost", hospital="h1"),
        ),
    )


def test_accounting_identity_still_refuses_unknown_doctors():
    m = ghost_market()
    with pytest.raises(AssertionError, match="^restriction accounting identity failed$"):
        enumerate_allocations(m, "allocation")


def test_contracts_of_unknown_doctors_keep_their_verdicts():
    # x2 is in no doctor's part, so IR and the join ignore it, and asking
    # its doctor about it, as a blocking read does, is a KeyError
    m = ghost_market()
    subsets = [frozenset(), frozenset({"x1"}), frozenset({"x2"}), frozenset({"x1", "x2"})]
    assert all(is_individually_rational(m, Y) for Y in subsets)
    for Y in subsets[:2]:
        with pytest.raises(KeyError):
            blocking_contracts(m, Y)
    assert blocking_contracts(m, {"x2"}) == frozenset({"x1"})
    assert blocking_contracts(m, {"x1", "x2"}) == frozenset()
    assert not is_envy_free(m, {"x2"}) and is_stable(m, {"x1", "x2"})
    dominating = {(canon(Y), canon(Yp)) for Y in subsets for Yp in subsets if blair_dominates(m, Y, Yp)}
    assert dominating == {
        ((), ()), ((), ("x2",)),
        (("x1",), ()), (("x1",), ("x1",)), (("x1",), ("x2",)), (("x1",), ("x1", "x2")),
    }


@settings(max_examples=200, deadline=None)
@given(small_markets())
def test_envy_test_stops_where_the_witnesses_start(market):
    for Y in enumerate_allocations(market, "allocation"):
        blocking = classify_module._blocking(market, Y, _parts(market, Y))
        assert classify_module._envious(market, Y, blocking) == bool(brute_envy(market, Y)), canon(Y)


def test_unknown_class(no_lad):
    with pytest.raises(MarketError):
        enumerate_allocations(no_lad, "everything")


def test_env_var_cap(no_lad, monkeypatch):
    monkeypatch.setenv("ENVYLATTICE_ENUM_CAP", "4")
    with pytest.raises(EnumerationCapError):
        enumerate_allocations(no_lad, "allocation")
    # the cap bounds the contract count, not the result count
    monkeypatch.setenv("ENVYLATTICE_ENUM_CAP", "6")
    assert len(enumerate_allocations(no_lad, "allocation")) == 27


def test_search_past_the_recursion_limit_is_refused(monkeypatch):
    # 1,199 doctor-hospital pairs and 1,200 doctors: one frame per level
    market = generate_responsive_market(GenParams(1200, 1200, 1200, seed=1))
    monkeypatch.setenv("ENVYLATTICE_ENUM_CAP", "100000")
    for kind in ("allocation", "ir", "envy-free"):
        with pytest.raises(EnumerationCapError, match="levels deep"):
            enumerate_allocations(market, kind)


def test_counts_are_refused_like_the_listings(no_lad, monkeypatch):
    monkeypatch.setenv("ENVYLATTICE_ENUM_CAP", "4")
    for kind in classify_module.CLASSES:
        with pytest.raises(EnumerationCapError, match="^market has 6 contracts, enumeration cap is 4$"):
            count_allocations(no_lad, kind)
    monkeypatch.setenv("ENVYLATTICE_ENUM_CAP", "many")
    for kind in classify_module.CLASSES:
        with pytest.raises(MarketError, match="must be an integer"):
            count_allocations(no_lad, kind)
    with pytest.raises(MarketError, match="unknown class"):
        count_allocations(no_lad, "everything")


def test_counts_past_the_recursion_limit(monkeypatch):
    # the doctor-side counts recurse like the searches; the closed form
    # for all allocations does not recurse, and answers
    market = generate_responsive_market(GenParams(1200, 1200, 1200, seed=1))
    monkeypatch.setenv("ENVYLATTICE_ENUM_CAP", "100000")
    for kind in ("ir", "envy-free", "stable"):
        with pytest.raises(EnumerationCapError, match="^enumeration search is 1200 levels deep"):
            count_allocations(market, kind)
    assert count_allocations(market, "allocation") == allocation_count(market)


@pytest.mark.parametrize("value", ["", "many", "6.0"])
def test_env_var_cap_must_be_an_integer(no_lad, monkeypatch, value):
    monkeypatch.setenv("ENVYLATTICE_ENUM_CAP", value)
    for kind in ("allocation", "envy-free"):
        with pytest.raises(MarketError, match="must be an integer"):
            enumerate_allocations(no_lad, kind)


def test_golden_classifications(no_lad):
    rep = classify(no_lad, EF_MIDDLE)
    assert rep.is_allocation and rep.is_ir and rep.is_envy_free and not rep.is_stable
    assert rep.blocking == frozenset({"x12"})
    assert rep.envy == ()

    rep = classify(no_lad, EF_LOW)
    assert rep.is_envy_free and not rep.is_stable
    assert rep.blocking == frozenset({"x13", "x23"})

    for Y in (DOCTOR_OPT, HOSPITAL_OPT):
        rep = classify(no_lad, Y)
        assert rep.is_stable and rep.blocking == frozenset() and rep.envy == ()


def test_classify_non_allocation(no_lad):
    rep = classify(no_lad, frozenset({"x13", "x23"}))
    assert not rep.is_allocation
    assert rep.violations
    assert not rep.is_ir and not rep.is_envy_free and not rep.is_stable


def test_blocking_against_oracle(no_lad, lattice_demo):
    for market in (no_lad, lattice_demo):
        for Y in enumerate_allocations(market, "ir"):
            assert blocking_contracts(market, Y) == brute_blocking(market, Y), canon(Y)


def test_envy_against_oracle(no_lad, lattice_demo):
    for market in (no_lad, lattice_demo):
        for Y in enumerate_allocations(market, "ir"):
            got = [
                (w.envious, w.envied, w.held, w.desired, w.hospital)
                for w in justified_envy_witnesses(market, Y)
            ]
            assert got == brute_envy(market, Y), canon(Y)


def test_blocking_and_envy_on_random_markets():
    for seed in range(20):
        market = generate_responsive_market(
            GenParams(doctors=3, hospitals=2, contracts=7, seed=600 + seed)
        )
        rng = random.Random(f"classify:{seed}")
        allocations = enumerate_allocations(market, "allocation")
        for Y in rng.sample(allocations, min(12, len(allocations))):
            assert blocking_contracts(market, Y) == brute_blocking(market, Y)
            got = [
                (w.envious, w.envied, w.held, w.desired, w.hospital)
                for w in justified_envy_witnesses(market, Y)
            ]
            assert got == brute_envy(market, Y)


def test_stability_decomposition(no_lad, lattice_demo):
    # stable == IR + no blocking; envy-free == IR + no justified envy
    for market in (no_lad, lattice_demo):
        for Y in enumerate_allocations(market, "allocation"):
            ir = is_individually_rational(market, Y)
            assert is_stable(market, Y) == (ir and not blocking_contracts(market, Y))
            assert is_envy_free(market, Y) == (ir and not justified_envy_witnesses(market, Y))


@settings(max_examples=200, deadline=None)
@given(small_markets())
def test_envy_and_stability_read_from_blocking(market):
    for Y in enumerate_allocations(market, "allocation"):
        ir = brute_ir(market, Y)
        assert is_individually_rational(market, Y) == ir, canon(Y)
        blocking, envy = brute_blocking(market, Y), brute_envy(market, Y)
        assert is_envy_free(market, Y) == (ir and not envy), canon(Y)
        assert is_stable(market, Y) == (ir and not blocking), canon(Y)
        rep = classify(market, Y)
        assert (rep.is_ir, rep.is_envy_free, rep.is_stable) == (ir, ir and not envy, ir and not blocking)
        assert rep.blocking == blocking
        assert [(w.envious, w.envied, w.held, w.desired, w.hospital) for w in rep.envy] == envy


def test_stable_implies_envy_free(no_lad, lattice_demo):
    for market in (no_lad, lattice_demo):
        for Y in enumerate_allocations(market, "stable"):
            assert is_envy_free(market, Y)


def test_self_envy():
    # one doctor, two contracts at the same hospital; both sides prefer b,
    # so holding a leaves the doctor enviously eyeing her own upgrade
    m = Market(
        doctors=(DoctorSpec(id="d", choice=ResponsiveDoctor(quota=1, ranking=("b", "a"))),),
        hospitals=(HospitalSpec(id="h", quota=1, ranking=("b", "a")),),
        contracts=(
            Contract(id="a", doctor="d", hospital="h"),
            Contract(id="b", doctor="d", hospital="h"),
        ),
    )
    Y = frozenset({"a"})
    assert is_individually_rational(m, Y)
    witnesses = justified_envy_witnesses(m, Y)
    assert [(w.envious, w.envied, w.held, w.desired) for w in witnesses] == [
        ("d", "d", "a", "b")
    ]
    assert not is_envy_free(m, Y)
    assert blocking_contracts(m, Y) == frozenset({"b"})


def test_vacancy_blocking_without_envy():
    # an open slot lets a contract block without wronging anyone
    m = Market(
        doctors=(
            DoctorSpec(id="d1", choice=ResponsiveDoctor(quota=1, ranking=("a",))),
            DoctorSpec(id="d2", choice=ResponsiveDoctor(quota=1, ranking=("b",))),
        ),
        hospitals=(HospitalSpec(id="h", quota=2, ranking=("a", "b")),),
        contracts=(
            Contract(id="a", doctor="d1", hospital="h"),
            Contract(id="b", doctor="d2", hospital="h"),
        ),
    )
    Y = frozenset({"a"})
    assert is_envy_free(m, Y)
    assert blocking_contracts(m, Y) == frozenset({"b"})
    assert not is_stable(m, Y)


def test_classification_report_shape(no_lad):
    rep = classify(no_lad, DOCTOR_OPT)
    assert rep.violations == ()
    assert isinstance(rep.blocking, frozenset)
    assert isinstance(rep.envy, tuple)
