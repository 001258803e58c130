"""Choice evaluators and the five axiom checkers."""

from __future__ import annotations

import contextlib
import itertools
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from envylattice import (
    CHECKERS,
    Contract,
    DoctorSpec,
    HospitalSpec,
    InvariantViolation,
    Market,
    PROPERTIES,
    ResponsiveDoctor,
    TableDoctor,
    UnknownIdError,
    ValidationEntry,
    check_lad,
    check_substitutable,
    doctor_choose,
    hospital_choose,
    validate_market,
)
from envylattice import choice
from envylattice.choice import hospital_prefers

from oracles import (
    doctor_choice_oracle,
    first_witness_oracle,
    hospital_choice_oracle,
    naive_axiom_verdict,
    subsets_of,
)


def tight_sweeps(subset_cap=3, pair_cap=2, samples=24):
    """Patch the sweep constants, so that few contracts take the sampled paths.

    Checkers read the constants at call time, but a market caches each
    doctor's sweep: patched calls need a market no unpatched call has
    swept, such as a freshly built one.
    """
    return mock.patch.multiple(choice, SUBSET_CAP=subset_cap, PAIR_CAP=pair_cap, SAMPLES=samples)


def one_doctor_market(contracts, choice, quotas=None) -> Market:
    """One doctor ``d`` with the given (cid, hospital) contracts."""
    specs = tuple(Contract(id=c, doctor="d", hospital=h) for c, h in contracts)
    by_h: dict[str, list[str]] = {}
    for c, h in contracts:
        by_h.setdefault(h, []).append(c)
    hospitals = tuple(
        HospitalSpec(id=h, quota=(quotas or {}).get(h, 1), ranking=tuple(sorted(own)))
        for h, own in sorted(by_h.items())
    )
    return Market(
        doctors=(DoctorSpec(id="d", choice=choice),),
        hospitals=hospitals,
        contracts=specs,
    )


def random_table_market(seed: int) -> Market:
    """A random total choice table, possibly violating any axiom."""
    rng = random.Random(f"tables:{seed}")
    n = rng.randint(2, 4)
    hospitals = [f"h{j}" for j in range(1, rng.randint(2, 4))]
    contracts = [(f"c{i}", rng.choice(hospitals)) for i in range(1, n + 1)]
    ids = [c for c, _ in contracts]
    table = {}
    for S in subsets_of(ids):
        if not S:
            continue
        options = sorted(subsets_of(S), key=sorted)
        table[S] = rng.choice(options)
    return one_doctor_market(contracts, TableDoctor(table=table))


def test_empty_offer_chooses_nothing(no_lad):
    assert doctor_choose(no_lad, "d1", frozenset()) == frozenset()
    assert hospital_choose(no_lad, "h1", frozenset()) == frozenset()


def test_offers_are_restricted_to_own_contracts(no_lad):
    # d1 only ever sees x11/x12/x13, the rest is ignored
    got = doctor_choose(no_lad, "d1", frozenset({"x11", "x21", "x22"}))
    assert got == frozenset({"x11"})


def test_golden_table_rows(no_lad):
    assert doctor_choose(no_lad, "d2", {"x21", "x22"}) == frozenset({"x21", "x22"})
    assert doctor_choose(no_lad, "d2", {"x21", "x22", "x23"}) == frozenset({"x23"})
    assert doctor_choose(no_lad, "d1", {"x11", "x12", "x13"}) == frozenset({"x11", "x12"})


def test_unknown_agent(no_lad):
    with pytest.raises(UnknownIdError):
        doctor_choose(no_lad, "d9", {"x11"})
    with pytest.raises(UnknownIdError):
        hospital_choose(no_lad, "h9", {"x11"})
    for check in CHECKERS.values():
        with pytest.raises(UnknownIdError, match="^unknown doctor id: 'nobody'$"):
            check(no_lad, "nobody")


def test_partial_table_is_a_hard_fault():
    m = one_doctor_market(
        [("a", "h1"), ("b", "h2")],
        TableDoctor(table={frozenset({"a"}): frozenset({"a"})}),
    )
    with pytest.raises(InvariantViolation):
        doctor_choose(m, "d", {"a", "b"})


def test_foreign_contract_in_a_row_is_a_hard_fault():
    # d's row {a} chooses z, a contract of doctor e
    m = Market(
        doctors=(
            DoctorSpec(id="d", choice=TableDoctor(table={
                frozenset({"a"}): frozenset({"z"}),
                frozenset({"b"}): frozenset({"b"}),
                frozenset({"a", "b"}): frozenset({"b"}),
            })),
            DoctorSpec(id="e", choice=ResponsiveDoctor(quota=1, ranking=("z",))),
        ),
        hospitals=(
            HospitalSpec(id="h1", quota=1, ranking=("a", "z")),
            HospitalSpec(id="h2", quota=1, ranking=("b",)),
        ),
        contracts=(
            Contract(id="a", doctor="d", hospital="h1"),
            Contract(id="b", doctor="d", hospital="h2"),
            Contract(id="z", doctor="e", hospital="h1"),
        ),
    )
    for check in CHECKERS.values():
        with pytest.raises(InvariantViolation, match=r"doctor d .*\('a',\)"):
            check(m, "d")


def test_hospital_prefers(no_lad):
    assert hospital_prefers(no_lad, "h1", "x21", "x11")
    assert not hospital_prefers(no_lad, "h1", "x11", "x21")
    assert not hospital_prefers(no_lad, "h1", "x11", "x11")
    # unranked contracts lose to ranked ones and never win
    assert hospital_prefers(no_lad, "h1", "x21", "x13")
    assert not hospital_prefers(no_lad, "h1", "x13", "x21")


def test_quota_rule_against_oracle_seeded():
    for seed in range(80):
        rng = random.Random(f"quota-rule:{seed}")
        hospitals = [f"h{j}" for j in range(1, rng.randint(2, 4))]
        contracts = [(f"c{i}", rng.choice(hospitals)) for i in range(1, rng.randint(3, 7))]
        ids = [c for c, _ in contracts]
        ranking = [c for c in ids if rng.random() < 0.85]
        rng.shuffle(ranking)
        m = one_doctor_market(
            contracts, ResponsiveDoctor(quota=rng.randint(1, 3), ranking=tuple(ranking))
        )
        for _ in range(12):
            menu = frozenset(c for c in ids if rng.random() < 0.6)
            assert doctor_choose(m, "d", menu) == doctor_choice_oracle(m, "d", menu)


def test_hospital_choice_against_oracle_seeded(no_lad, lattice_demo):
    for market in (no_lad, lattice_demo):
        ids = sorted(c.id for c in market.contracts)
        for seed in range(40):
            rng = random.Random(f"hchoice:{seed}")
            menu = frozenset(c for c in ids if rng.random() < 0.5)
            for h in market.hospital_by_id:
                assert hospital_choose(market, h, menu) == hospital_choice_oracle(
                    market, h, menu
                )


def test_checkers_against_naive_verdicts():
    # arbitrary tables: every checker must agree with the two-quantifier replay
    disagreements = []
    failures_seen = {prop: 0 for prop in PROPERTIES}
    for seed in range(120):
        m = random_table_market(seed)
        for prop in PROPERTIES:
            got = CHECKERS[prop](m, "d").passed
            want = naive_axiom_verdict(m, "d", prop)
            if got != want:
                disagreements.append((seed, prop, got, want))
            if not want:
                failures_seen[prop] += 1
    assert not disagreements
    # the batch must actually exercise both verdicts for every axiom
    assert all(failures_seen[prop] > 0 for prop in PROPERTIES), failures_seen


def test_witnesses_replay():
    for seed in range(120):
        m = random_table_market(seed)
        for prop in PROPERTIES:
            out = CHECKERS[prop](m, "d")
            if out.passed:
                assert out.witness is None
                continue
            w = out.witness
            assert w is not None and w.prop == prop
            for subset, choice in zip(w.subsets, w.choices):
                assert doctor_choose(m, "d", frozenset(subset)) == frozenset(choice)


def test_golden_axiom_facts(no_lad, lattice_demo):
    for d in ("d1", "d2"):
        for prop in ("distinct-hospitals", "substitutability", "consistency", "path-independence"):
            assert CHECKERS[prop](no_lad, d).passed, (d, prop)
            assert CHECKERS[prop](lattice_demo, d).passed, (d, prop)
    assert check_lad(no_lad, "d1").passed
    out = check_lad(no_lad, "d2")
    assert not out.passed
    assert sorted(len(c) for c in out.witness.choices) == [1, 2]
    assert not check_lad(lattice_demo, "d1").passed
    assert check_lad(lattice_demo, "d2").passed


def test_sampled_flag():
    contracts = [(f"c{i}", f"h{i % 3}") for i in range(5)]
    ids = tuple(sorted(c for c, _ in contracts))
    rule = ResponsiveDoctor(quota=2, ranking=ids)
    with tight_sweeps(samples=40):
        out = check_substitutable(one_doctor_market(contracts, rule), "d")
    assert out.passed and out.sampled
    assert not check_substitutable(one_doctor_market(contracts, rule), "d").sampled


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quota_rule_satisfies_all_axioms(data):
    n = data.draw(st.integers(min_value=1, max_value=8), label="contracts")
    hospitals = data.draw(
        st.lists(st.sampled_from(["h1", "h2", "h3", "h4"]), min_size=n, max_size=n),
        label="hospital per contract",
    )
    contracts = [(f"c{i}", hospitals[i]) for i in range(n)]
    ranked = data.draw(st.permutations([c for c, _ in contracts]), label="ranking")
    cut = data.draw(st.integers(min_value=0, max_value=n), label="acceptable prefix")
    quota = data.draw(st.integers(min_value=1, max_value=4), label="quota")
    m = one_doctor_market(
        contracts, ResponsiveDoctor(quota=quota, ranking=tuple(ranked[:cut]))
    )
    for prop in PROPERTIES:
        assert CHECKERS[prop](m, "d").passed, prop


@st.composite
def one_doctor_markets(draw):
    """A responsive doctor, or its tabulated rule with a few rows replaced.

    A replaced row may choose contracts outside its own subset, which only
    the distinct-hospitals check rejects.
    """
    n = draw(st.integers(min_value=1, max_value=6), label="contracts")
    hospitals = draw(
        st.lists(st.sampled_from(["h1", "h2", "h3"]), min_size=n, max_size=n),
        label="hospital per contract",
    )
    contracts = [(f"c{i}", hospitals[i]) for i in range(n)]
    ranked = draw(st.permutations([c for c, _ in contracts]), label="ranking")
    quota = draw(st.integers(min_value=1, max_value=3), label="quota")
    m = one_doctor_market(contracts, ResponsiveDoctor(quota=quota, ranking=tuple(ranked)))
    if draw(st.booleans(), label="responsive"):
        return m
    table = {S: doctor_choose(m, "d", S) for S in subsets_of(ranked) if S}
    rows = st.sampled_from(sorted(table, key=sorted))
    for S in draw(st.lists(rows, max_size=4), label="replaced rows"):
        pool = draw(st.sampled_from([sorted(S), sorted(ranked)]), label="row pool")
        table[S] = frozenset(draw(st.lists(st.sampled_from(pool), unique=True)))
    return one_doctor_market(contracts, TableDoctor(table=table))


def _out_of_row_market() -> Market:
    # C({c1}) = {c0, c2}: the first path-independence witness is
    # ({c1}, {c0}), whose B overlaps C(A) outside A
    ids = ("c0", "c1", "c2")
    table = {S: S for S in subsets_of(ids) if S}
    table[frozenset({"c1"})] = frozenset({"c0", "c2"})
    return one_doctor_market([(c, f"h{c}") for c in ids], TableDoctor(table=table))


@settings(max_examples=200, deadline=None)
@example(_out_of_row_market(), False)
@given(one_doctor_markets(), st.booleans())
def test_checkers_match_first_witness_oracle(m, tight):
    # each draw builds its own market, so a tight draw sweeps it first
    with tight_sweeps() if tight else contextlib.nullcontext():
        for prop in PROPERTIES:
            out = CHECKERS[prop](m, "d")
            witness = None if out.witness is None else (out.witness.subsets, out.witness.choices)
            assert (out.passed, out.sampled, witness) == first_witness_oracle(m, "d", prop), prop
            assert out.witness is None or out.witness.prop == prop


def _mask_table_market(table: list[int]) -> Market:
    """One table doctor over c0..c(n-1), C(subset of mask a) = subset of table[a]."""
    ids = [f"c{i}" for i in range(len(table).bit_length() - 1)]

    def subset(mask: int) -> frozenset:
        return frozenset(c for i, c in enumerate(ids) if mask >> i & 1)

    rows = {subset(a): subset(c) for a, c in enumerate(table) if a}
    return one_doctor_market([(c, f"h{c}") for c in ids], TableDoctor(table=rows))


@st.composite
def mask_tables(draw):
    """C(mask) for every mask over n <= 4 contracts, with C(0) == 0.

    Either arbitrary, rows outside their subset included, or the path
    independent C(a) = a & K with a few rows replaced.
    """
    n = draw(st.integers(min_value=0, max_value=4), label="contracts")
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    if draw(st.booleans(), label="arbitrary"):
        return [0] + draw(st.lists(masks, min_size=(1 << n) - 1, max_size=(1 << n) - 1), label="rows")
    keep = draw(masks, label="K")
    table = [a & keep for a in range(1 << n)]
    for a in draw(st.lists(masks.filter(bool), max_size=2), label="replaced rows"):
        table[a] = draw(masks, label="row")
    return table


@settings(max_examples=300, deadline=None)
@example([0, 0, 0, 0, 0, 0, 0, 1])  # tests/pi_pair.market.json
@example([0, 0, 2, 2, 0, 0, 2, 2])  # C(a) = a & {c1}
@given(mask_tables())
def test_single_additions_decide_path_independence(table):
    want = naive_axiom_verdict(_mask_table_market(table), "d", "path-independence")
    assert choice._path_independent(table) == want


CONTRACTS_10 = [(f"c{i}", f"h{i % 4}") for i in range(10)]
QUOTA_RULE_10 = ResponsiveDoctor(quota=2, ranking=tuple(c for c, _ in CONTRACTS_10))


def replaced_rows_market(n: int, seed: int) -> Market:
    """QUOTA_RULE_10 tabulated on c0..c(n-1) with one to three rows replaced.

    Odd seeds choose each new row inside its own subset, even seeds from
    all the doctor's contracts.
    """
    rng = random.Random(f"replaced-rows:{n}:{seed}")
    contracts = CONTRACTS_10[:n]
    ids = [c for c, _ in contracts]
    rule = one_doctor_market(contracts, QUOTA_RULE_10)
    table = {S: doctor_choose(rule, "d", S) for S in subsets_of(ids) if S}
    for S in rng.sample(sorted(table, key=sorted), rng.randint(1, 3)):
        pool = sorted(S) if seed % 2 else ids
        table[S] = frozenset(c for c in pool if rng.random() < 0.4)
    return one_doctor_market(contracts, TableDoctor(table=table))


def test_checkers_match_first_witness_oracle_past_one_byte():
    # masks of 9 and 10 contracts span two bytes
    failed = []
    for n, seed in itertools.product((9, 10), range(4)):
        m = replaced_rows_market(n, seed)
        outs = {prop: CHECKERS[prop](m, "d") for prop in PROPERTIES}
        for prop, out in outs.items():
            witness = None if out.witness is None else (out.witness.subsets, out.witness.choices)
            want = first_witness_oracle(m, "d", prop)
            assert (out.passed, out.sampled, witness) == want, (n, seed, prop)
        failed.append({prop for prop, out in outs.items() if not out.passed})
    removal = {"distinct-hospitals", "substitutability", "consistency", "lad"}
    assert any(removal <= props for props in failed)  # every removal property fails
    assert any("path-independence" in props for props in failed)


def test_patched_sweeps_reach_validation():
    with tight_sweeps():
        m = replaced_rows_market(5, 1)
        doctors = [e for e in validate_market(m).entries if e.agent_kind == "doctor"]
        assert [e.prop for e in doctors] == list(PROPERTIES)
        for e in doctors:
            witness = None if e.witness is None else (e.witness.subsets, e.witness.choices)
            assert e.sampled
            assert (e.passed, e.sampled, witness) == first_witness_oracle(m, "d", e.prop), e.prop
    # the patch is gone, and it left nothing behind for a new market
    fresh = validate_market(replaced_rows_market(5, 1)).entries
    assert not any(e.sampled for e in fresh if e.agent_kind == "doctor")


@pytest.fixture
def evaluate_calls(monkeypatch) -> Counter:
    """Counts ``choice.evaluate_doctor`` calls by subset from here on."""
    calls = Counter()
    evaluate = choice.evaluate_doctor

    def counting(market, doctor, own):
        calls[own] += 1
        return evaluate(market, doctor, own)

    monkeypatch.setattr(choice, "evaluate_doctor", counting)
    return calls


def test_validation_reads_table_rows_without_evaluating(evaluate_calls):
    rule = one_doctor_market(CONTRACTS_10, QUOTA_RULE_10)
    table = {S: doctor_choose(rule, "d", S) for S in subsets_of(c for c, _ in CONTRACTS_10) if S}
    m = one_doctor_market(CONTRACTS_10, TableDoctor(table=table))
    evaluate_calls.clear()  # tabulating evaluated the rule once per subset
    assert validate_market(m).ok
    assert not evaluate_calls  # the sweep reads every row straight off the table
    assert not m._choice_cache  # validation leaves the choice memo alone


def test_validation_does_not_sweep_responsive_doctors(evaluate_calls):
    m = one_doctor_market(CONTRACTS_10, QUOTA_RULE_10)
    assert validate_market(m).ok
    assert not evaluate_calls  # the quota rule passes by theorem, unevaluated
    assert not m._choice_cache and not m._axiom_cache


@pytest.mark.parametrize("n", [*range(1, 11), 11, 17])
def test_responsive_validation_matches_the_sweep(n):
    rng = random.Random(f"responsive:{n}")
    contracts = [(f"c{i}", f"h{rng.randrange(4)}") for i in range(n)]
    ranked = [c for c, _ in contracts]
    rng.shuffle(ranked)
    rule = ResponsiveDoctor(quota=rng.randint(1, 4), ranking=tuple(ranked[: rng.randint(1, n)]))
    m = one_doctor_market(contracts, rule)
    swept = []
    for prop in PROPERTIES:
        out = CHECKERS[prop](m, "d")
        swept.append(
            ValidationEntry(
                agent="d", agent_kind="doctor", prop=prop, passed=out.passed,
                severity="informative" if prop == "lad" else "fatal",
                sampled=out.sampled, witness=out.witness,
            )
        )
    doctors = [e for e in validate_market(m).entries if e.agent_kind == "doctor"]
    assert doctors == swept


def assert_report_holds_checker_entries(m: Market):
    report = validate_market(m).entries
    for d in m.doctor_by_id:
        reported = [e for e in report if e.agent_kind == "doctor" and e.agent == d]
        assert reported == [CHECKERS[p](m, d) for p in PROPERTIES], d


def test_validation_reports_the_checkers_entries(no_lad, lattice_demo):
    for m in (no_lad, lattice_demo):
        assert_report_holds_checker_entries(m)


@settings(max_examples=60, deadline=None)
@given(one_doctor_markets())
def test_validation_reports_the_checkers_entries_on_table_draws(m):
    assume(isinstance(m.doctor_by_id["d"].choice, TableDoctor))
    assume(validate_market(m).entries[0].prop != "structure")  # rows chosen outside their key
    assert_report_holds_checker_entries(m)


def test_choice_cache_is_per_market(no_lad):
    before = dict(no_lad._choice_cache)
    got1 = doctor_choose(no_lad, "d1", {"x11", "x12"})
    got2 = doctor_choose(no_lad, "d1", {"x11", "x12"})
    assert got1 == got2 == frozenset({"x11", "x12"})
    assert ("d1", frozenset({"x11", "x12"})) in no_lad._choice_cache
    assert set(before).issubset(no_lad._choice_cache)


def test_hospital_top_quota_is_set_maximal(lattice_demo):
    # quota-2 hospital takes the two best-ranked of any menu
    assert hospital_choose(lattice_demo, "h1", {"x11", "x21", "y21"}) == frozenset(
        {"x11", "y21"}
    )
    assert hospital_choose(lattice_demo, "h1", {"x21", "y21"}) == frozenset({"x21", "y21"})


def test_every_nonempty_menu_keeps_acceptable_contract():
    # quota rule: an acceptable contract alone is always signed
    m = one_doctor_market(
        [("a", "h1"), ("b", "h2")], ResponsiveDoctor(quota=1, ranking=("b", "a"))
    )
    for cid in ("a", "b"):
        assert doctor_choose(m, "d", {cid}) == frozenset({cid})
    assert doctor_choose(m, "d", {"a", "b"}) == frozenset({"b"})
