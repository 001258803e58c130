"""Blocking-driven reallocation: one-step map, iteration, retirements."""

from __future__ import annotations

import importlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from envylattice import (
    Contract,
    DoctorSpec,
    EnumerationCapError,
    GenParams,
    HospitalSpec,
    InvariantViolation,
    Market,
    MarketError,
    RetirementEvent,
    TableDoctor,
    UnknownIdError,
    blair_dominates,
    blocking_contracts,
    canon,
    check_lad,
    classify,
    doctor_choose,
    enumerate_allocations,
    generate_responsive_market,
    is_envy_free,
    is_individually_rational,
    is_stable,
    justified_envy_witnesses,
    parse_market,
    reduce_market,
    star_blocking,
    tarski_fixed_point,
    tarski_step,
    vacancy_chain,
    verify_lad_predictions,
)
from envylattice.dynamics import default_iteration_cap

from conftest import (
    DOCTOR_OPT,
    EF_LOW,
    EF_MIDDLE,
    HOSPITAL_OPT,
    LD_DOCTOR_OPT,
    RESPONSIVE_PATH,
    small_markets,
)

# the modules, which the package's functions of the same names shadow
classify_module = importlib.import_module("envylattice.classify")
dynamics_module = importlib.import_module("envylattice.dynamics")
lattice_module = importlib.import_module("envylattice.lattice")
model_module = importlib.import_module("envylattice.model")


def test_star_blocking_golden(no_lad):
    # h3 ranks x13 over x23, so only x13 is starred out of the pair
    assert star_blocking(no_lad, EF_MIDDLE) == frozenset({"x12"})
    assert star_blocking(no_lad, EF_LOW) == frozenset({"x13"})
    assert star_blocking(no_lad, DOCTOR_OPT) == frozenset()


def test_one_step_golden(no_lad):
    assert tarski_step(no_lad, EF_MIDDLE) == DOCTOR_OPT
    assert tarski_step(no_lad, EF_LOW) == HOSPITAL_OPT
    assert tarski_step(no_lad, frozenset()) == HOSPITAL_OPT


def test_step_requires_envy_freeness(no_lad):
    # {x12} is individually rational but d2 justifiably envies d1
    with pytest.raises(MarketError):
        tarski_step(no_lad, frozenset({"x12"}))


def test_step_maps_envy_free_into_envy_free(no_lad, lattice_demo):
    for market in (no_lad, lattice_demo):
        for Y in enumerate_allocations(market, "envy-free"):
            image = tarski_step(market, Y)
            assert is_envy_free(market, image)
            assert blair_dominates(market, image, Y)


def test_fixed_points_are_exactly_stable(no_lad, lattice_demo):
    for market in (no_lad, lattice_demo):
        for Y in enumerate_allocations(market, "envy-free"):
            assert (tarski_step(market, Y) == Y) == is_stable(market, Y)


def test_isotone_on_comparable_pairs(no_lad, lattice_demo):
    for market in (no_lad, lattice_demo):
        nodes = enumerate_allocations(market, "envy-free")
        for a in nodes:
            for b in nodes:
                if blair_dominates(market, a, b):
                    assert blair_dominates(
                        market, tarski_step(market, a), tarski_step(market, b)
                    )


def test_trace_golden(no_lad):
    trace = tarski_fixed_point(no_lad, EF_MIDDLE)
    assert trace.fixed_point == DOCTOR_OPT
    assert trace.iterations == 1
    assert [s.allocation for s in trace.steps] == [EF_MIDDLE, DOCTOR_OPT]
    first = trace.steps[0]
    assert first.blocking == frozenset({"x12"})
    assert first.starred == frozenset({"x12"})
    assert first.per_doctor == {"d1": frozenset({"x12"})}
    last = trace.steps[-1]
    assert last.blocking == frozenset() and last.per_doctor == {}


def test_trace_from_stable_is_trivial(no_lad):
    trace = tarski_fixed_point(no_lad, HOSPITAL_OPT)
    assert trace.iterations == 0
    assert trace.fixed_point == HOSPITAL_OPT
    assert [s.allocation for s in trace.steps] == [HOSPITAL_OPT]


def test_every_envy_free_start_reaches_stable(no_lad, lattice_demo):
    for market in (no_lad, lattice_demo):
        for Y in enumerate_allocations(market, "envy-free"):
            trace = tarski_fixed_point(market, Y)
            assert is_stable(market, trace.fixed_point)
            assert trace.iterations <= default_iteration_cap(market)


def test_iteration_cap(no_lad, monkeypatch):
    assert default_iteration_cap(no_lad) == 13
    monkeypatch.setattr(dynamics_module, "default_iteration_cap", lambda market: 0)
    with pytest.raises(InvariantViolation, match="^no fixed point within 0 iterations"):
        tarski_fixed_point(no_lad, EF_MIDDLE)
    monkeypatch.setattr(dynamics_module, "default_iteration_cap", lambda market: 1)
    assert tarski_fixed_point(no_lad, EF_MIDDLE).fixed_point == DOCTOR_OPT


def test_reduce_market(no_lad):
    reduced = reduce_market(no_lad, {"d1"})
    assert [d.id for d in reduced.doctors] == ["d2"]
    assert sorted(c.id for c in reduced.contracts) == ["x21", "x22", "x23"]
    assert {h.id: h.ranking for h in reduced.hospitals} == {
        "h1": ("x21",),
        "h2": ("x22",),
        "h3": ("x23",),
    }
    with pytest.raises(MarketError):
        reduce_market(no_lad, {"d9"})


def test_vacancy_chain_golden(no_lad):
    # d1 leaves the hospital-side optimum: d2 walks her upgrade chain
    reduced, trace = vacancy_chain(
        no_lad, RetirementEvent(retiring=frozenset({"d1"}), before=HOSPITAL_OPT)
    )
    assert sorted(c.id for c in reduced.contracts) == ["x21", "x22", "x23"]
    assert trace.fixed_point == frozenset({"x23"})
    assert trace.iterations == 1
    assert [s.allocation for s in trace.steps] == [
        frozenset({"x21", "x22"}),
        frozenset({"x23"}),
    ]

    # d2 leaves the doctor-side optimum: nothing worth re-signing appears
    reduced, trace = vacancy_chain(
        no_lad, RetirementEvent(retiring=frozenset({"d2"}), before=DOCTOR_OPT)
    )
    assert trace.fixed_point == frozenset({"x11", "x12"})
    assert trace.iterations == 0


def test_vacancy_chain_survivors_start_envy_free(no_lad, lattice_demo):
    for market in (no_lad, lattice_demo):
        doctors = sorted(market.doctor_by_id)
        for before in enumerate_allocations(market, "stable"):
            for retiree in doctors:
                reduced, trace = vacancy_chain(
                    market, RetirementEvent(retiring=frozenset({retiree}), before=before)
                )
                surviving = frozenset(
                    x for x in before if market.contract_by_id[x].doctor != retiree
                )
                assert trace.steps[0].allocation == surviving
                assert is_envy_free(reduced, surviving)
                assert is_stable(reduced, trace.fixed_point)


def test_vacancy_chain_retire_everyone(no_lad):
    reduced, trace = vacancy_chain(
        no_lad, RetirementEvent(retiring=frozenset({"d1", "d2"}), before=DOCTOR_OPT)
    )
    assert reduced.contracts == ()
    assert trace.fixed_point == frozenset()
    assert trace.iterations == 0


def test_vacancy_chain_preconditions(no_lad):
    with pytest.raises(MarketError):
        vacancy_chain(no_lad, RetirementEvent(retiring=frozenset(), before=DOCTOR_OPT))
    with pytest.raises(MarketError):
        vacancy_chain(
            no_lad, RetirementEvent(retiring=frozenset({"d1"}), before=EF_MIDDLE)
        )


def test_lad_report_no_lad_market(no_lad):
    report = verify_lad_predictions(no_lad, EF_MIDDLE)
    assert not report.applicable
    assert report.lad_failures == ("d2",)
    checks = report.checks
    assert not checks["fixed_point_equals_join"].holds
    assert checks["fixed_point_equals_join"].detail["fixed_point"] == ["x11", "x12", "x23"]
    assert checks["fixed_point_equals_join"].detail["join_with_hospital_optimal"] == [
        "x11",
        "x23",
    ]
    assert not checks["dominating_envy_free_is_stable"].holds
    assert not checks["stable_counts_constant"].holds
    violated = {v["agent"] for v in checks["stable_counts_constant"].detail["violations"]}
    assert violated == {"d1", "d2"}
    assert checks["envy_free_never_exceeds_stable_counts"].holds


def test_lad_report_from_empty_start(no_lad):
    report = verify_lad_predictions(no_lad, frozenset())
    assert not report.applicable
    assert report.checks["fixed_point_equals_join"].holds
    assert report.checks["dominating_envy_free_is_stable"].holds
    assert not report.checks["stable_counts_constant"].holds


def test_lad_report_lattice_demo(lattice_demo):
    report = verify_lad_predictions(lattice_demo, frozenset())
    assert not report.applicable
    assert report.lad_failures == ("d1",)
    assert all(check.holds for check in report.checks.values())


def test_lad_report_on_valid_market():
    market = generate_responsive_market(
        GenParams(doctors=3, hospitals=2, contracts=8, seed=77)
    )
    for Y in enumerate_allocations(market, "envy-free"):
        report = verify_lad_predictions(market, Y)
        assert report.applicable
        assert report.lad_failures == ()
        assert all(check.holds for check in report.checks.values()), {
            k: v.detail for k, v in report.checks.items() if not v.holds
        }


def test_lad_report_requires_envy_free_start(no_lad):
    with pytest.raises(MarketError):
        verify_lad_predictions(no_lad, frozenset({"x12"}))


def test_fixed_point_requires_envy_free_start(no_lad):
    with pytest.raises(MarketError):
        tarski_fixed_point(no_lad, frozenset({"x12"}))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (MarketError, InvariantViolation) as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(small_markets())
def test_walk_matches_stepwise_oracle(market):
    for Y in enumerate_allocations(market, "envy-free"):
        assert _outcome(tarski_fixed_point, market, Y) == _outcome(
            oracles.stepwise_trace, market, Y
        ), canon(Y)


@settings(max_examples=200, deadline=None)
@given(small_markets())
def test_vacancy_chain_matches_stepwise_oracle(market):
    for before in enumerate_allocations(market, "stable"):
        for retiree in sorted(market.doctor_by_id):
            event = RetirementEvent(retiring=frozenset({retiree}), before=before)
            assert _outcome(vacancy_chain, market, event) == _outcome(
                oracles.stepwise_vacancy, market, event
            ), (canon(before), retiree)


X300 = GenParams(20, 13, 300, seed=1, doctor_quota=(1, 3), hospital_quota=(1, 4))


@pytest.fixture(scope="module")
def x300():
    """The X=300 market and the fixed point of its walk from the empty set."""
    market = generate_responsive_market(X300)
    return market, tarski_fixed_point(market, frozenset()).fixed_point


def _retirements(market) -> list[frozenset]:
    doctors = sorted(market.doctor_by_id)
    pairs = random.Random(0).sample(list(itertools.combinations(doctors, 2)), 5)
    return [frozenset({d}) for d in doctors] + [frozenset(p) for p in pairs]


def test_walk_and_chains_match_stepwise_oracle_at_scale(x300):
    market, fixed_point = x300
    trace = tarski_fixed_point(market, frozenset())
    assert trace == oracles.stepwise_trace(market, frozenset())
    assert trace.iterations > 1
    for retiring in _retirements(market):
        event = RetirementEvent(retiring=retiring, before=fixed_point)
        reduced, chain = vacancy_chain(market, event)
        assert (reduced, chain) == oracles.stepwise_vacancy(market, event), sorted(retiring)
        for step in chain.steps:
            assert step.blocking == classify_module._blocking(reduced, step.allocation)


def test_reduce_market_derives_the_indexes_of_a_fresh_market(x300):
    market, fixed_point = x300
    retiring = {"d3", "d11"}
    reduced = reduce_market(market, retiring)
    fresh = Market(doctors=reduced.doctors, hospitals=reduced.hospitals, contracts=reduced.contracts)
    for index in ("contract_by_id", "doctor_by_id", "hospital_by_id",
                  "doctor_contracts", "hospital_contracts", "hospital_rank"):
        assert getattr(reduced, index) == getattr(fresh, index), index
    lost = {market.contract_by_id[x].hospital for r in retiring for x in market.doctor_contracts[r]}
    assert lost and lost != set(market.hospital_by_id)
    for h in market.hospital_by_id.keys() - lost:
        assert reduced.hospital_by_id[h] is market.hospital_by_id[h]
        assert reduced.hospital_rank[h] is market.hospital_rank[h]
    assert reduced._choice_cache is market._choice_cache
    assert reduced.contract_bit is market.contract_bit
    assert all(reduced.contract_bit[x] == bit for x, bit in fresh.contract_bit.items())
    for d in sorted(reduced.doctor_by_id):
        own = fixed_point & market.doctor_contracts[d]
        for x in sorted(market.doctor_contracts[d]):
            for S in ({x}, own | {x}, own - {x}):
                assert doctor_choose(reduced, d, S) == doctor_choose(fresh, d, S), (d, canon(S))
    for r in retiring:
        with pytest.raises(UnknownIdError):
            doctor_choose(reduced, r, market.doctor_contracts[r])


@settings(max_examples=100, deadline=None)
@given(small_markets(), st.data())
def test_reduced_market_reads_the_shared_memo_like_a_fresh_market(market, data):
    for Y in enumerate_allocations(market, "allocation"):  # fill the parent's memo
        classify_module._blocking(market, Y)
        classify_module._ir(market, Y)
    retiree = data.draw(st.sampled_from(sorted(market.doctor_by_id)), label="retiree")
    reduced = reduce_market(market, {retiree})
    assert reduced._choice_cache is market._choice_cache
    fresh = Market(doctors=reduced.doctors, hospitals=reduced.hospitals, contracts=reduced.contracts)
    for Y in enumerate_allocations(fresh, "allocation"):
        assert classify_module._blocking(reduced, Y) == oracles.brute_blocking(fresh, Y), canon(Y)
        assert classify_module._ir(reduced, Y) == oracles.brute_ir(fresh, Y), canon(Y)


def test_walk_memo_size_is_pinned():
    # One memo key (doctor, mask) per distinct nonempty menu a doctor is
    # asked about; the count depends on the walk, not on the machine.
    market = generate_responsive_market(
        GenParams(60, 40, 1000, seed=1, doctor_quota=(1, 3), hospital_quota=(1, 4))
    )
    assert tarski_fixed_point(market, frozenset()).iterations == 10
    assert len(market._choice_cache) == 1845


# One table doctor with two contracts at a quota-2 hospital that ranks
# c02 first.  From the empty allocation only c01 blocks, the doctor
# signs it, and then envies themself: c02 would now be chosen.
LEAVES_ENVY_FREE = Market(
    doctors=(DoctorSpec(id="d1", choice=TableDoctor(table={
        frozenset({"c01"}): frozenset({"c01"}),
        frozenset({"c02"}): frozenset(),
        frozenset({"c01", "c02"}): frozenset({"c02"}),
    })),),
    hospitals=(HospitalSpec(id="h1", quota=2, ranking=("c02", "c01")),),
    contracts=(Contract(id="c01", doctor="d1", hospital="h1"),
               Contract(id="c02", doctor="d1", hospital="h1")),
)

# One table doctor holding c03 is offered c01 and c02, picks c01 alone,
# yet would keep c03 beside c01: the round moved them down.
MOVES_DOWN = Market(
    doctors=(DoctorSpec(id="d1", choice=TableDoctor(table={
        frozenset({"c01"}): frozenset({"c01"}),
        frozenset({"c02"}): frozenset({"c02"}),
        frozenset({"c03"}): frozenset({"c03"}),
        frozenset({"c01", "c02"}): frozenset({"c01"}),
        frozenset({"c01", "c03"}): frozenset({"c01", "c03"}),
        frozenset({"c02", "c03"}): frozenset({"c02"}),
        frozenset({"c01", "c02", "c03"}): frozenset({"c01"}),
    })),),
    hospitals=(HospitalSpec(id="h1", quota=1, ranking=("c01",)),
               HospitalSpec(id="h2", quota=2, ranking=("c03", "c02"))),
    contracts=(Contract(id="c01", doctor="d1", hospital="h1"),
               Contract(id="c02", doctor="d1", hospital="h2"),
               Contract(id="c03", doctor="d1", hospital="h2")),
)


@pytest.mark.parametrize("step", [tarski_step, tarski_fixed_point, oracles.stepwise_trace])
def test_round_that_leaves_the_envy_free_set_raises(step):
    with pytest.raises(InvariantViolation, match="left the envy-free set"):
        step(LEAVES_ENVY_FREE, frozenset())


# One table doctor with two contracts at a quota-2 hospital that ranks
# c02 first.  From {c02} only c01 blocks, and the doctor, offered it,
# keeps both: two contracts between one doctor and one hospital.
TWO_AT_ONE_HOSPITAL = Market(
    doctors=(DoctorSpec(id="d1", choice=TableDoctor(table={
        frozenset({"c01"}): frozenset({"c01"}),
        frozenset({"c02"}): frozenset({"c02"}),
        frozenset({"c01", "c02"}): frozenset({"c01", "c02"}),
    })),),
    hospitals=(HospitalSpec(id="h1", quota=2, ranking=("c02", "c01")),),
    contracts=(Contract(id="c01", doctor="d1", hospital="h1"),
               Contract(id="c02", doctor="d1", hospital="h1")),
)


@pytest.mark.parametrize("step", [tarski_step, tarski_fixed_point, oracles.stepwise_trace])
def test_round_whose_image_is_not_an_allocation_raises(step):
    Y = frozenset({"c02"})
    assert is_envy_free(TWO_AT_ONE_HOSPITAL, Y)
    with pytest.raises(InvariantViolation, match="non-allocation"):
        step(TWO_AT_ONE_HOSPITAL, Y)


@pytest.mark.parametrize("step", [tarski_step, tarski_fixed_point, oracles.stepwise_trace])
def test_round_that_moves_a_doctor_down_raises(step):
    Y = frozenset({"c03"})
    assert is_envy_free(MOVES_DOWN, Y)
    with pytest.raises(InvariantViolation, match="down the Blair order"):
        step(MOVES_DOWN, Y)


@pytest.fixture
def counted(monkeypatch):
    """Calls of the blocking pass and of ``allocation_violations``, by name."""
    calls = Counter()

    def count(name, original):
        def counter(*args):
            calls[name] += 1
            return original(*args)
        return counter

    blocking = count("_blocking", classify_module._blocking)
    for owner in (classify_module, dynamics_module):
        monkeypatch.setattr(owner, "_blocking", blocking)
    violations = count("allocation_violations", model_module.allocation_violations)
    for owner in (model_module, classify_module, lattice_module, dynamics_module):
        monkeypatch.setattr(owner, "allocation_violations", violations)
    return calls


def test_walk_computes_blocking_once_per_state(no_lad, lattice_demo, counted):
    starts = [(m, Y) for m in (no_lad, lattice_demo) for Y in enumerate_allocations(m, "envy-free")]
    x300 = generate_responsive_market(
        GenParams(20, 13, 300, seed=1, doctor_quota=(1, 3), hospital_quota=(1, 4))
    )
    starts.append((x300, frozenset()))
    for market, Y in starts:
        counted.clear()
        trace = tarski_fixed_point(market, Y)
        # the start check, then one blocking pass per round; a round
        # checks its image as an allocation locally
        assert counted == {
            "_blocking": trace.iterations + 1,
            "allocation_violations": 1,
        }, canon(Y)
    assert trace.iterations > 1


def test_chain_reads_only_the_hospitals_it_touched(x300, monkeypatch):
    market, fixed_point = x300
    passed = []
    blocking = classify_module._blocking

    def recorded(market, Y, hospitals=None):
        passed.append(hospitals)
        return blocking(market, Y, hospitals)

    monkeypatch.setattr(dynamics_module, "_blocking", recorded)
    contract = market.contract_by_id
    local = []
    for d in sorted(market.doctor_by_id):
        passed.clear()
        _, trace = vacancy_chain(
            market, RetirementEvent(retiring=frozenset({d}), before=fixed_point)
        )
        # where the retiree held a contract, and where a moved doctor has one
        touched = {contract[x].hospital for x in fixed_point & market.doctor_contracts[d]}
        for a, b in zip(trace.steps, trace.steps[1:]):
            for own in market.doctor_contracts.values():
                if a.allocation & own != b.allocation & own:
                    touched |= {contract[x].hospital for x in own}
        # the stability check of the start reads every hospital
        assert passed[0] is None and len(passed) == trace.iterations + 2, d
        assert set().union(*passed[1:]) <= touched, d
        local.append(len(touched) < len(market.hospitals))
    assert any(local)


def test_point_predicates_check_once(no_lad, counted):
    for fn in (classify, is_envy_free, is_stable, is_individually_rational,
               blocking_contracts, justified_envy_witnesses):
        counted.clear()
        fn(no_lad, EF_LOW)
        assert counted["allocation_violations"] == 1, fn.__name__
        assert counted["_blocking"] <= 1, fn.__name__


def test_verify_lad_enumerates_the_stable_set_once(no_lad, lattice_demo, monkeypatch):
    starts = [(m, Y) for m in (no_lad, lattice_demo) for Y in enumerate_allocations(m, "envy-free")]
    searched = []
    search = classify_module._search

    def counted(market, kind):
        searched.append(kind)
        return search(market, kind)

    monkeypatch.setattr(classify_module, "_search", counted)
    for market, Y in starts:
        searched.clear()
        verify_lad_predictions(market, Y)
        assert searched == ["stable"], canon(Y)


def test_verify_lad_reads_responsive_verdicts_without_a_sweep():
    market = generate_responsive_market(GenParams(3, 2, 20, seed=7))
    report = verify_lad_predictions(market, frozenset())
    assert report.lad_failures == ()
    assert market._axiom_cache == {}


def test_verify_lad_refuses_at_the_cap_before_any_sweep():
    # responsive_demo has 31 contracts, above the default cap of 22
    market = parse_market(RESPONSIVE_PATH.read_text())
    with pytest.raises(EnumerationCapError) as refused:
        verify_lad_predictions(market, frozenset())
    assert market._axiom_cache == {}
    with pytest.raises(EnumerationCapError) as enumerated:
        enumerate_allocations(market, "stable")
    assert str(refused.value) == str(enumerated.value)


def test_lad_failures_match_the_sweep():
    # The sweep is the oracle, run on a fresh copy so that it shares no
    # cached verdict with the market that verify_lad_predictions read.
    compared = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(small_markets())
    def check(market):
        try:
            report = verify_lad_predictions(market, frozenset())
        except (MarketError, InvariantViolation):
            return
        fresh = Market(doctors=market.doctors, hospitals=market.hospitals, contracts=market.contracts)
        expected = tuple(d for d in sorted(fresh.doctor_by_id) if not check_lad(fresh, d).passed)
        assert report.lad_failures == expected
        compared.append(expected)

    check()
    assert any(compared), "no draw had a doctor failing LAD"
