"""Diffing embedded reference claims against the computed lattice."""

from __future__ import annotations

import importlib
from collections import Counter

import pytest

from envylattice import ParseError, canon, hasse, reconcile, reference_from_doc
from envylattice.reconcile import reconciliation_to_json, render_reconciliation_text

from conftest import LD_DOCTOR_OPT, LD_JOIN_VALUE

reconcile_module = importlib.import_module("envylattice.reconcile")


@pytest.fixture(scope="module")
def report(lattice_demo, lattice_doc):
    return reconcile(lattice_demo, reference_from_doc(lattice_doc, lattice_demo), hasse(lattice_demo))


def test_reference_block_parses(lattice_demo, lattice_doc):
    ref = reference_from_doc(lattice_doc, lattice_demo)
    assert len(ref.envy_free) == 12
    assert len(ref.stable) == 4
    assert len(ref.cover_edges) == 15
    assert ref.counts == {"envy_free": 12, "stable": 4}


def test_reference_absent(no_lad, no_lad_doc):
    assert reference_from_doc(no_lad_doc, no_lad) is None


def test_reference_shape_errors(lattice_demo):
    with pytest.raises(ParseError):
        reference_from_doc({"reference": []}, lattice_demo)
    with pytest.raises(ParseError):
        reference_from_doc({"reference": {"envy_free": "x"}}, lattice_demo)
    with pytest.raises(ParseError):
        reference_from_doc({"reference": {"envy_free": [], "stable": [[123]]}}, lattice_demo)
    with pytest.raises(ParseError, match="sides must be lists of contract ids"):
        reference_from_doc({"reference": {"cover_edges": [[[1], ["x"]]]}}, lattice_demo)
    with pytest.raises(ParseError, match="sides must be lists of contract ids"):
        reference_from_doc({"reference": {"cover_edges": [["x11", []]]}}, lattice_demo)


def test_reference_counts_must_be_integers(lattice_demo):
    # JSON true == 1, so a boolean count once reconciled as a match
    for key in ("envy_free", "stable"):
        for bad in (True, False, 4.0, "4", None, [4]):
            doc = {"reference": {"counts": {key: bad}}}
            with pytest.raises(ParseError, match=rf"^reference\.counts\.{key} must be an integer$"):
                reference_from_doc(doc, lattice_demo)
    ref = reference_from_doc({"reference": {"counts": {"envy_free": 0, "stable": -1}}}, lattice_demo)
    assert ref.counts == {"envy_free": 0, "stable": -1}


def test_reference_ids_must_name_market_contracts(lattice_demo):
    for key in ("envy_free", "stable"):
        doc = {"reference": {key: [["x11"], ["x11", "nosuch"]]}}
        with pytest.raises(ParseError, match=rf"reference\.{key} entries name unknown contract ids: \['nosuch'\]"):
            reference_from_doc(doc, lattice_demo)
    doc = {"reference": {"cover_edges": [[["x11"], ["nosuch", "zz"]]]}}
    with pytest.raises(ParseError, match=r"cover_edges sides name unknown contract ids: \['nosuch', 'zz'\]"):
        reference_from_doc(doc, lattice_demo)


def test_row_and_mismatch_totals(report):
    # frozen: 2 count rows + 12 claimed nodes + 17 unlisted nodes
    # + 15 claimed covers + 1 unlisted-covers row
    assert len(report.rows) == 47
    assert len(report.mismatches) == 37


def test_count_rows(report):
    by_claim = {r.claim: r for r in report.rows}
    ef = by_claim["envy-free count"]
    assert (ef.expected, ef.computed, ef.verdict) == (12, 22, "mismatch")
    stable = by_claim["stable count"]
    assert (stable.expected, stable.computed, stable.verdict) == (4, 4, "match")


def test_agreeing_claims(report):
    by_claim = {r.claim: r for r in report.rows}
    label = "stable {" + ",".join(canon(LD_DOCTOR_OPT)) + "}"
    assert by_claim[label].verdict == "match"
    assert by_claim["cover {} -> {y11}"].verdict == "match"


def test_every_node_mismatch_carries_witnesses(report):
    for row in report.mismatches:
        if row.claim.startswith(("stable {", "envy-free {")):
            assert row.witnesses, row.claim
            kinds = {w["kind"] for w in row.witnesses}
            assert kinds <= {
                "not-an-allocation",
                "not-individually-rational",
                "justified-envy",
                "blocking-contracts",
            }


def test_claimed_top_is_disqualified_by_envy(report):
    label = "stable {" + ",".join(canon(LD_JOIN_VALUE)) + "}"
    (row,) = [r for r in report.rows if r.claim == label]
    assert row.verdict == "mismatch"
    envy = [w for w in row.witnesses if w["kind"] == "justified-envy"]
    assert {(w["desired"], w["held"]) for w in envy} == {
        ("x11", "y21"),
        ("x12", "y22"),
    }
    blocking = [w for w in row.witnesses if w["kind"] == "blocking-contracts"]
    assert blocking == [{"kind": "blocking-contracts", "contracts": ["x11", "x12"]}]


def test_unlisted_nodes_reported(report):
    unlisted = [r for r in report.rows if r.claim.startswith("unlisted envy-free")]
    assert len(unlisted) == 17
    assert all(r.verdict == "mismatch" for r in unlisted)
    stables = [r for r in unlisted if r.computed == "stable"]
    assert len(stables) == 3


def test_cover_rows(report):
    covers = [r for r in report.rows if r.claim.startswith("cover ")]
    assert len(covers) == 15
    assert sum(r.verdict == "match" for r in covers) == 4
    (extra,) = [r for r in report.rows if r.claim == "unlisted cover edges"]
    assert extra.verdict == "mismatch"
    assert len(extra.computed) == 30


def test_json_shape(report):
    doc = reconciliation_to_json(report)
    assert doc["mismatches"] == 37
    assert len(doc["rows"]) == 47
    assert all({"claim", "expected", "computed", "verdict"} <= set(r) for r in doc["rows"])


def test_text_rendering(report):
    text = render_reconciliation_text(report)
    assert text == render_reconciliation_text(report)
    assert "47 claims, 37 mismatch(es)" in text
    assert "envy-free count" in text
    # witness details are indented under their row
    assert "\n    {'kind': 'justified-envy'" in text


def test_each_claim_is_classified_at_most_once(lattice_demo, lattice_doc, monkeypatch):
    reference = reference_from_doc(lattice_doc, lattice_demo)
    graph = hasse(lattice_demo)
    classified = Counter()
    original = reconcile_module.classify

    def counted(market, Y):
        classified[frozenset(Y)] += 1
        return original(market, Y)

    monkeypatch.setattr(reconcile_module, "classify", counted)
    reconcile(lattice_demo, reference, graph)
    assert set(classified) <= set(reference.envy_free)
    assert max(classified.values()) == 1


def test_stable_claims_missing_from_envy_free_get_rows(lattice_demo):
    graph = hasse(lattice_demo)
    envious = ["y11", "y12", "y21", "y22"]  # d1 justifiably envies d2 at h1 and h2
    doc = {"reference": {"envy_free": [], "stable": [envious, sorted(LD_DOCTOR_OPT)]}}
    report = reconcile(lattice_demo, reference_from_doc(doc, lattice_demo), graph)
    by_claim = {r.claim: r for r in report.rows}
    row = by_claim["stable {y11,y12,y21,y22}"]
    assert (row.computed, row.verdict) == ("allocation with justified envy", "mismatch")
    assert {(w["desired"], w["held"]) for w in row.witnesses if w["kind"] == "justified-envy"} == {
        ("x11", "y21"),
        ("x12", "y22"),
    }
    assert by_claim["stable {" + ",".join(canon(LD_DOCTOR_OPT)) + "}"].verdict == "match"
    # the claimed stable node is listed, so it is not reported as unlisted
    unlisted = [r for r in report.rows if r.claim.startswith("unlisted envy-free")]
    assert len(unlisted) == len(graph.nodes) - 1
    count = by_claim["envy-free count"]
    assert (count.expected, count.computed) == (0, 22)
    assert by_claim["stable count"].expected == 2
