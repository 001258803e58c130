"""Blair order, join, meet, and the Hasse diagram."""

from __future__ import annotations

import importlib
from functools import lru_cache

import pytest
from hypothesis import given, settings

from envylattice import (
    Contract,
    DoctorSpec,
    HospitalSpec,
    InvariantViolation,
    LatticeGraph,
    Market,
    MarketError,
    TableDoctor,
    blair_dominates,
    canon,
    choice_join,
    doctor_optimal,
    dominance_matrix,
    enumerate_allocations,
    graph_to_json,
    hasse,
    hospital_optimal,
    join,
    meet,
    to_dot,
)

from conftest import (
    DOCTOR_OPT,
    EF_LOW,
    EF_MIDDLE,
    HOSPITAL_OPT,
    LATTICE_PATH,
    LD_DOCTOR_OPT,
    LD_HOSPITAL_OPT,
    LD_JOIN_LEFT,
    LD_JOIN_RIGHT,
    LD_JOIN_VALUE,
    small_markets,
)
from oracles import (
    brute_dominance,
    extensional_meet,
    powerset_allocations,
    scan_optima,
    triple_loop_covers,
)

classify_module = importlib.import_module("envylattice.classify")
cli_module = importlib.import_module("envylattice.cli")
lattice_module = importlib.import_module("envylattice.lattice")
model_module = importlib.import_module("envylattice.model")


def _outcome(fn, *args):
    """What fn(*args) returns, or the class of the refusal it raises."""
    try:
        return fn(*args)
    except (MarketError, InvariantViolation) as exc:
        return type(exc)


def test_golden_dominance_chain(no_lad):
    chain = [DOCTOR_OPT, EF_MIDDLE, HOSPITAL_OPT, EF_LOW]
    for hi, lo in zip(chain, chain[1:]):
        assert blair_dominates(no_lad, hi, lo)
        assert not blair_dominates(no_lad, lo, hi)


def test_golden_joins(no_lad, lattice_demo):
    assert join(no_lad, EF_MIDDLE, HOSPITAL_OPT) == EF_MIDDLE
    assert join(no_lad, DOCTOR_OPT, HOSPITAL_OPT) == DOCTOR_OPT
    assert join(lattice_demo, LD_JOIN_LEFT, LD_JOIN_RIGHT) == LD_JOIN_VALUE


def test_join_requires_individual_rationality(no_lad):
    # {x11, x13} is an allocation d1 would walk away from
    with pytest.raises(MarketError):
        join(no_lad, frozenset({"x11", "x13"}), frozenset())


def test_join_symmetric_and_idempotent(no_lad, lattice_demo):
    for market in (no_lad, lattice_demo):
        nodes = enumerate_allocations(market, "envy-free")
        for a in nodes:
            assert join(market, a, a) == a
            for b in nodes:
                assert join(market, a, b) == join(market, b, a)


def test_partial_order_axioms(no_lad, lattice_demo):
    for market in (no_lad, lattice_demo):
        nodes = enumerate_allocations(market, "envy-free")
        dom = dominance_matrix(market, nodes)
        n = len(nodes)
        for i in range(n):
            assert dom[i][i]
            for j in range(n):
                if i != j and dom[i][j]:
                    assert not dom[j][i], (canon(nodes[i]), canon(nodes[j]))
                for k in range(n):
                    if dom[i][j] and dom[j][k]:
                        assert dom[i][k]


def test_join_is_least_upper_bound(no_lad, lattice_demo):
    for market in (no_lad, lattice_demo):
        nodes = enumerate_allocations(market, "envy-free")
        index = {Y: i for i, Y in enumerate(nodes)}
        dom = dominance_matrix(market, nodes)
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                v = join(market, a, b)
                assert v in index, "join left the envy-free set"
                k = index[v]
                assert dom[k][i] and dom[k][j]
                for u in range(len(nodes)):
                    if dom[u][i] and dom[u][j]:
                        assert dom[u][k]


def test_meet_is_greatest_lower_bound(no_lad, lattice_demo):
    for market in (no_lad, lattice_demo):
        nodes = enumerate_allocations(market, "envy-free")
        index = {Y: i for i, Y in enumerate(nodes)}
        dom = dominance_matrix(market, nodes)
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                v = meet(market, a, b)
                k = index[v]
                assert dom[i][k] and dom[j][k]
                for u in range(len(nodes)):
                    if dom[i][u] and dom[j][u]:
                        assert dom[k][u]


def test_meet_of_incomparable_stable_pair(lattice_demo):
    m1 = frozenset({"x11", "x12", "x21", "y22"})
    m2 = frozenset({"x11", "x12", "x22", "y21"})
    assert not blair_dominates(lattice_demo, m1, m2)
    assert not blair_dominates(lattice_demo, m2, m1)
    assert join(lattice_demo, m1, m2) == LD_DOCTOR_OPT
    assert meet(lattice_demo, m1, m2) == LD_HOSPITAL_OPT


def test_meet_requires_envy_free_inputs(no_lad):
    # a non-allocation, a non-IR allocation, and {x11}, which d2 envies
    for bad in ({"x11", "x21"}, {"x11", "x12", "x13"}, {"x11"}):
        with pytest.raises(MarketError):
            meet(no_lad, frozenset(bad), DOCTOR_OPT)
        with pytest.raises(MarketError):
            meet(no_lad, DOCTOR_OPT, frozenset(bad))


@settings(max_examples=100, deadline=None)
@given(small_markets())
def test_meet_matches_extensional_oracle(market):
    nodes = enumerate_allocations(market, "envy-free")
    for a in nodes:
        for b in nodes:
            assert _outcome(meet, market, a, b) == _outcome(
                extensional_meet, market, a, b, nodes
            ), (canon(a), canon(b))


def test_meet_searches_common_lower_bounds_once(no_lad, lattice_demo, monkeypatch):
    calls = []
    searches = []
    violations = model_module.allocation_violations
    search = lattice_module._search

    def counted(*args):
        calls.append(args)
        return violations(*args)

    def recorded(*args):
        leaves = search(*args)
        searches.append([Z for Z, _ in leaves])
        return leaves

    def forbidden(*args):
        raise AssertionError("meet enumerated a solution class")

    for owner in (model_module, lattice_module):
        monkeypatch.setattr(owner, "allocation_violations", counted)
    monkeypatch.setattr(lattice_module, "_search", recorded)
    monkeypatch.setattr(lattice_module, "enumerate_allocations", forbidden)
    for market in (no_lad, lattice_demo):
        nodes = enumerate_allocations(market, "envy-free")
        dom = dominance_matrix(market, nodes)
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                lower = [Z for k, Z in enumerate(nodes) if dom[i][k] and dom[j][k]]
                calls.clear()
                searches.clear()
                meet(market, a, b)
                assert searches == [lower]
                # two inputs, three per join, one for the result
                assert len(calls) <= 3 * len(lower)


def test_hasse_against_reachability_oracle(no_lad, lattice_demo):
    for market in (no_lad, lattice_demo):
        graph = hasse(market)
        nodes = list(graph.nodes)
        dom = brute_dominance(market, nodes)
        assert dominance_matrix(market, nodes) == dom
        assert list(graph.covers) == triple_loop_covers(dom)
        assert graph.nodes[graph.bottom] == frozenset()
        # bottom is the unique node nothing covers from below
        uppers = {hi for _, hi in graph.covers}
        roots = set(range(len(nodes))) - uppers
        assert roots == {graph.bottom} or len(nodes) == 1


@settings(max_examples=150, deadline=None)
@given(small_markets())
def test_hasse_matches_triple_loop_oracle(market):
    graph = hasse(market)
    nodes = list(graph.nodes)
    assert nodes == powerset_allocations(market, "envy-free")
    dom = brute_dominance(market, nodes)
    assert dominance_matrix(market, nodes) == dom
    assert [[blair_dominates(market, a, b) for b in nodes] for a in nodes] == dom
    assert list(graph.covers) == triple_loop_covers(dom)
    stable = set(powerset_allocations(market, "stable"))
    assert graph.stable == tuple(Y in stable for Y in nodes)
    # the bitset rows also agree off the envy-free set
    ir = enumerate_allocations(market, "ir")
    assert dominance_matrix(market, ir) == brute_dominance(market, ir)


def test_hasse_stable_flags(no_lad, lattice_demo):
    for market, stable_count in ((no_lad, 2), (lattice_demo, 4)):
        graph = hasse(market)
        flagged = {graph.nodes[i] for i, s in enumerate(graph.stable) if s}
        assert flagged == set(enumerate_allocations(market, "stable"))
        assert sum(graph.stable) == stable_count


def test_lattice_request_searches_once(monkeypatch, capsys):
    searched = []
    blocked = []
    search = classify_module._search

    def recorded(*args):
        searched.append(args[1])
        return search(*args)

    def counted(*args):
        blocked.append(args)
        return classify_module._blocking(*args)

    for owner in (classify_module, lattice_module):
        monkeypatch.setattr(owner, "_search", recorded)
    monkeypatch.setattr(lattice_module, "_blocking", counted, raising=False)
    assert cli_module.main(["lattice", str(LATTICE_PATH), "--format", "json"]) == 0
    # the reference block was reconciled against the same graph
    assert "47 claims, 37 mismatch(es)" in capsys.readouterr().err
    assert searched == ["envy-free"]
    assert blocked == []


def test_heights_against_longest_path(no_lad, lattice_demo):
    for market in (no_lad, lattice_demo):
        graph = hasse(market)
        above: dict[int, list[int]] = {}
        for lo, hi in graph.covers:
            above.setdefault(lo, []).append(hi)
        below: dict[int, list[int]] = {}
        for lo, hi in graph.covers:
            below.setdefault(hi, []).append(lo)

        @lru_cache(maxsize=None)
        def longest_to(i: int) -> int:
            return max((longest_to(lo) + 1 for lo in below.get(i, [])), default=0)

        assert graph.heights() == [longest_to(i) for i in range(len(graph.nodes))]
        longest_to.cache_clear()


def test_golden_optima(no_lad, lattice_demo):
    assert doctor_optimal(no_lad) == DOCTOR_OPT
    assert hospital_optimal(no_lad) == HOSPITAL_OPT
    assert doctor_optimal(lattice_demo) == LD_DOCTOR_OPT
    assert hospital_optimal(lattice_demo) == LD_HOSPITAL_OPT


def test_optima_against_scan(no_lad, lattice_demo):
    for market in (no_lad, lattice_demo):
        stable = enumerate_allocations(market, "stable")
        top = doctor_optimal(market)
        bot = hospital_optimal(market)
        assert all(blair_dominates(market, top, Z) for Z in stable)
        assert all(blair_dominates(market, Z, bot) for Z in stable)


@settings(max_examples=150, deadline=None)
@given(small_markets())
def test_optima_match_scan_oracle(market):
    try:
        expected = scan_optima(market)
    except InvariantViolation:
        expected = (None, None)
    assert (_outcome(doctor_optimal, market), _outcome(hospital_optimal, market)) == tuple(
        InvariantViolation if Y is None else Y for Y in expected
    )


def test_empty_stable_set_is_a_fault():
    # this table contradicts substitutability and leaves nothing stable:
    # the empty set and {b} are blocked, everything else fails IR
    table = {
        frozenset({"a"}): frozenset(),
        frozenset({"b"}): frozenset({"b"}),
        frozenset({"a", "b"}): frozenset({"a"}),
    }
    m = Market(
        doctors=(DoctorSpec(id="d", choice=TableDoctor(table=table)),),
        hospitals=(
            HospitalSpec(id="h1", quota=1, ranking=("a",)),
            HospitalSpec(id="h2", quota=1, ranking=("b",)),
        ),
        contracts=(
            Contract(id="a", doctor="d", hospital="h1"),
            Contract(id="b", doctor="d", hospital="h2"),
        ),
    )
    assert enumerate_allocations(m, "stable") == []
    with pytest.raises(InvariantViolation):
        doctor_optimal(m)
    with pytest.raises(InvariantViolation):
        hospital_optimal(m)


def test_dot_output(no_lad):
    graph = hasse(no_lad)
    dot = to_dot(graph)
    assert dot == to_dot(graph)
    assert dot.startswith("digraph envy_free_lattice {")
    assert dot.count("[label=") == len(graph.nodes)
    assert dot.count("->") == len(graph.covers)
    assert dot.count("lightgrey") == sum(graph.stable)
    assert '"∅"' in dot


def test_dot_labels_are_escaped():
    graph = LatticeGraph(
        nodes=(frozenset(), frozenset({'a"b', "a\\b"})), covers=((0, 1),),
        stable=(False, True), bottom=0,
    )
    assert '  n1 [label="{a\\"b, a\\\\b}" style=' in to_dot(graph)


def test_graph_json_shape(lattice_demo):
    graph = hasse(lattice_demo)
    doc = graph_to_json(graph)
    assert doc["bottom"] == graph.bottom
    assert doc["nodes"][graph.bottom] == []
    assert all(isinstance(lo, int) and isinstance(hi, int) for lo, hi in doc["covers"])
    assert doc["stable"].count(True) == 4
    assert [frozenset(n) for n in doc["nodes"]] == list(graph.nodes)


def test_choice_join_matches_dominance(no_lad):
    # the closed form used everywhere: Y >= Yp  iff  lambda(Y, Yp) == Y
    nodes = enumerate_allocations(no_lad, "envy-free")
    for a in nodes:
        for b in nodes:
            assert (choice_join(no_lad, a, b) == a) == blair_dominates(no_lad, a, b)
