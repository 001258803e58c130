"""Market file parsing, emission, and the small JSON codecs."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envylattice import (
    FatalValidationError,
    GenParams,
    ParseError,
    TableDoctor,
    UnknownIdError,
    classify,
    generate_responsive_market,
    market_from_json,
    market_to_json,
    market_to_text,
    parse_market,
    tarski_fixed_point,
    validate_market,
)
from envylattice.serialize import (
    _json_text,
    allocation_from_csv,
    allocation_to_list,
    classification_to_json,
    doctor_ids_from_csv,
    render_trace_text,
    trace_to_json,
    validation_to_json,
)

from conftest import DOCTOR_OPT, EF_MIDDLE, LATTICE_PATH, NO_LAD_PATH


def test_golden_parse(no_lad):
    assert len(no_lad.contracts) == 6
    assert [h.id for h in no_lad.hospitals] == ["h1", "h2", "h3"]
    assert all(h.quota == 1 for h in no_lad.hospitals)
    d2 = no_lad.doctor_by_id["d2"].choice
    assert isinstance(d2, TableDoctor)
    assert len(d2.table) == 7


def test_parse_accepts_bytes():
    parse_market(NO_LAD_PATH.read_bytes())


def test_round_trip_is_identity(no_lad, lattice_demo):
    markets = [no_lad, lattice_demo]
    markets.append(
        generate_responsive_market(GenParams(doctors=3, hospitals=3, contracts=9, seed=3))
    )
    for market in markets:
        doc = market_to_json(market)
        again = market_to_json(market_from_json(doc))
        assert doc == again
        assert market_to_text(market).endswith("\n")
        assert market_to_json(parse_market(market_to_text(market))) == doc


def test_emission_is_sorted(lattice_demo):
    doc = market_to_json(lattice_demo)
    ids = [c["id"] for c in doc["contracts"]]
    assert ids == sorted(ids)
    rows = doc["doctors"][0]["table"]
    keys = [(len(r["given"]), r["given"]) for r in rows]
    assert keys == sorted(keys)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_market("not json")
    with pytest.raises(ParseError):
        parse_market("[1, 2]")
    with pytest.raises(ParseError):
        parse_market('{"contracts": []}')
    # nesting deeper than the decoder recurses is malformed JSON too
    for deep in ("[" * 200_000, '{"contracts": ' + "[" * 5_000 + "]" * 5_000 + "}"):
        with pytest.raises(ParseError, match="^not valid JSON: "):
            parse_market(deep)
    doc = json.loads(NO_LAD_PATH.read_text())
    doc["doctors"][0]["kind"] = "exotic"
    with pytest.raises(ParseError, match="responsive"):
        market_from_json(doc)


def test_duplicate_table_row_rejected():
    doc = json.loads(NO_LAD_PATH.read_text())
    doc["doctors"][0]["table"].append(dict(doc["doctors"][0]["table"][0]))
    with pytest.raises(ParseError) as excinfo:
        market_from_json(doc)
    assert str(excinfo.value) == "doctors[0].table[7] repeats the subset ['x11']"


def _drop(key):
    return lambda row: row.pop(key)


def _put(key, value):
    return lambda row: row.__setitem__(key, value)


@pytest.mark.parametrize(
    "spoil, message",
    [
        (None, "doctors[1].table[2] must be an object"),
        (_drop("given"), "doctors[1].table[2] is missing key 'given'"),
        (_drop("chosen"), "doctors[1].table[2] is missing key 'chosen'"),
        (_put("given", {"x21": 1}), "doctors[1].table[2].given has the wrong type, expected list"),
        (_put("chosen", "x21"), "doctors[1].table[2].chosen has the wrong type, expected list"),
        (_put("given", ["x21", 7]), "doctors[1].table[2].given must be a list of contract ids"),
        (_put("chosen", [None]), "doctors[1].table[2].chosen must be a list of contract ids"),
    ],
)
def test_table_row_errors_are_pinned(spoil, message):
    doc = json.loads(NO_LAD_PATH.read_text())
    rows = doc["doctors"][1]["table"]
    if spoil is None:
        rows[2] = ["x21"]
    else:
        spoil(rows[2])
    rows[3]["given"] = [0]  # a later bad row: the first one is reported
    with pytest.raises(ParseError) as excinfo:
        market_from_json(doc)
    assert str(excinfo.value) == message


def test_wrong_types_rejected():
    doc = json.loads(NO_LAD_PATH.read_text())
    doc["hospitals"][0]["quota"] = "two"
    with pytest.raises(ParseError, match="quota"):
        market_from_json(doc)


@pytest.mark.parametrize("flag", [True, False])
def test_bool_quotas_rejected(flag):
    doc = json.loads(NO_LAD_PATH.read_text())
    doc["hospitals"][0]["quota"] = flag
    with pytest.raises(ParseError, match=r"hospitals\[0\]\.quota has the wrong type"):
        market_from_json(doc)
    doc = market_to_json(generate_responsive_market(GenParams(doctors=2, hospitals=2, contracts=4, seed=1)))
    doc["doctors"][0]["quota"] = flag
    with pytest.raises(ParseError, match=r"doctors\[0\]\.quota has the wrong type"):
        market_from_json(doc)


def test_fatal_validation_carries_report():
    doc = json.loads(NO_LAD_PATH.read_text())
    doc["doctors"][1]["table"] = doc["doctors"][1]["table"][:3]
    with pytest.raises(FatalValidationError) as err:
        parse_market(json.dumps(doc))
    report = err.value.report
    assert not report.ok
    assert any("table" in e.detail for e in report.fatal)


def test_empty_market_parses():
    m = parse_market('{"contracts": [], "hospitals": [], "doctors": []}')
    assert m.contracts == ()
    assert validate_market(m).ok


def test_allocation_csv(no_lad):
    assert allocation_from_csv(no_lad, " x11 , x23 ") == EF_MIDDLE
    assert allocation_from_csv(no_lad, "") == frozenset()
    assert allocation_from_csv(no_lad, "  ") == frozenset()
    with pytest.raises(UnknownIdError, match="unknown"):
        allocation_from_csv(no_lad, "x11,zzz")
    with pytest.raises(UnknownIdError, match="repeated"):
        allocation_from_csv(no_lad, "x11,x11")


def test_doctor_ids_csv(no_lad):
    assert doctor_ids_from_csv(no_lad, "d1,d2") == frozenset({"d1", "d2"})
    with pytest.raises(UnknownIdError):
        doctor_ids_from_csv(no_lad, "d1,h1")


def test_allocation_to_list(no_lad):
    assert allocation_to_list(DOCTOR_OPT) == ["x11", "x12", "x23"]
    assert allocation_to_list(frozenset()) == []


def test_classification_json(no_lad):
    doc = classification_to_json(classify(no_lad, EF_MIDDLE))
    assert doc == {
        "is_allocation": True,
        "violations": [],
        "is_ir": True,
        "is_envy_free": True,
        "is_stable": False,
        "blocking": ["x12"],
        "envy": [],
    }


def test_classification_json_envy(no_lad):
    doc = classification_to_json(classify(no_lad, frozenset({"x12"})))
    assert doc["is_envy_free"] is False
    (w,) = doc["envy"]
    assert w == {
        "envious": "d2",
        "envied": "d1",
        "held": "x12",
        "desired": "x22",
        "hospital": "h2",
    }


def test_validation_json(no_lad):
    doc = validation_to_json(validate_market(no_lad))
    assert doc["ok"] is True
    lad_rows = [e for e in doc["entries"] if e["property"] == "lad"]
    assert {e["agent"]: e["passed"] for e in lad_rows} == {"d1": True, "d2": False}
    failing = [e for e in lad_rows if not e["passed"]]
    assert failing[0]["severity"] == "informative"
    assert failing[0]["witness"] is not None


def test_trace_json_and_text(no_lad):
    trace = tarski_fixed_point(no_lad, EF_MIDDLE)
    doc = trace_to_json(trace)
    assert [sorted(step) for step in doc] == [
        ["allocation", "blocking", "per_doctor", "starred"]
    ] * 2
    assert doc[0]["allocation"] == ["x11", "x23"]
    assert doc[0]["per_doctor"] == {"d1": ["x12"]}
    assert doc[1]["blocking"] == []

    text = render_trace_text(trace)
    assert "step 0: {x11, x23}" in text
    assert "fixed point: {x11, x12, x23}" in text
    assert "iterations: 1" in text
    assert render_trace_text(trace) == text


_texts = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u2028é€😀'))
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | _texts,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_texts, children, max_size=4)
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_json_text_is_json_dumps_with_indent(value):
    assert _json_text(value) == json.dumps(value, indent=2)
