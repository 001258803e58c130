"""Reconciliation of computed results against an embedded reference lattice.

A market file may carry a ``reference`` block describing an expected
envy-free lattice, for example one transcribed from an external source
or computed by hand.  The reference is never taken as ground truth: the
envy-free and stable sets are recomputed from the definitions, and this
module diffs the two views claim by claim.  Every mismatch on a claimed
allocation is itemized with the disqualifying evidence, i.e. the
justified-envy witnesses, blocking contracts, or rationality failures
that the definitions produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .classify import classify
from .lattice import LatticeGraph, hasse
from .model import Market, canon
from .serialize import ParseError, envy_witness_to_json


@dataclass(frozen=True)
class Reference:
    """Claims embedded in a market file."""

    envy_free: tuple[frozenset, ...]
    stable: tuple[frozenset, ...]
    cover_edges: tuple[tuple[frozenset, frozenset], ...]
    counts: dict


def reference_from_doc(doc: dict, market: Market) -> Reference | None:
    """Extract the optional reference block from a parsed market document.

    Every allocation and every cover-edge side must be a list of contract
    ids, each naming one of ``market``'s contracts.  Anything else is a
    ParseError.
    """
    block = doc.get("reference")
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ParseError("reference must be an object")

    def id_set(entry, what: str) -> frozenset:
        if not isinstance(entry, list) or not all(isinstance(x, str) for x in entry):
            raise ParseError(f"{what} must be lists of contract ids")
        unknown = sorted(x for x in entry if x not in market.contract_by_id)
        if unknown:
            raise ParseError(f"{what} name unknown contract ids: {unknown}")
        return frozenset(entry)

    def alloc_list(key) -> tuple[frozenset, ...]:
        value = block.get(key, [])
        if not isinstance(value, list):
            raise ParseError(f"reference.{key} must be a list of allocations")
        return tuple(id_set(entry, f"reference.{key} entries") for entry in value)

    edges_raw = block.get("cover_edges", [])
    if not isinstance(edges_raw, list):
        raise ParseError("reference.cover_edges must be a list")
    edges = []
    for entry in edges_raw:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError("reference.cover_edges entries must be [lower, upper] pairs")
        lo, hi = (id_set(side, "reference.cover_edges sides") for side in entry)
        edges.append((lo, hi))
    counts = block.get("counts", {})
    if not isinstance(counts, dict):
        raise ParseError("reference.counts must be an object")
    return Reference(
        envy_free=alloc_list("envy_free"),
        stable=alloc_list("stable"),
        cover_edges=tuple(edges),
        counts=dict(counts),
    )


@dataclass(frozen=True)
class ClaimRow:
    claim: str
    expected: object
    computed: object
    verdict: str  # "match" | "mismatch"
    witnesses: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class ReconciliationReport:
    rows: tuple[ClaimRow, ...]

    @property
    def mismatches(self) -> tuple[ClaimRow, ...]:
        return tuple(r for r in self.rows if r.verdict == "mismatch")


def _ids(Y) -> str:
    return "{" + ",".join(canon(Y)) + "}"


def _disqualifiers(market: Market, Y: frozenset, want_stable: bool) -> tuple:
    """Definition-level evidence that Y misses the claimed class."""
    report = classify(market, Y)
    out: list[dict] = []
    if not report.is_allocation:
        out.extend({"kind": "not-an-allocation", "detail": v} for v in report.violations)
        return tuple(out)
    if not report.is_ir:
        out.append({"kind": "not-individually-rational"})
    for w in report.envy:
        out.append({"kind": "justified-envy", **envy_witness_to_json(w)})
    if want_stable and report.blocking:
        out.append({"kind": "blocking-contracts", "contracts": sorted(report.blocking)})
    return tuple(out)


def reconcile(market: Market, reference: Reference) -> ReconciliationReport:
    """Diff the computed envy-free lattice against the reference claims."""
    graph: LatticeGraph = hasse(market)
    computed = {Y: i for i, Y in enumerate(graph.nodes)}
    computed_stable = {Y for Y, i in computed.items() if graph.stable[i]}
    cover_set = {
        (graph.nodes[lo], graph.nodes[hi]) for lo, hi in graph.covers
    }
    rows: list[ClaimRow] = []

    claimed_ef = reference.counts.get("envy_free", len(reference.envy_free))
    rows.append(
        ClaimRow(
            claim="envy-free count",
            expected=claimed_ef,
            computed=len(computed),
            verdict="match" if claimed_ef == len(computed) else "mismatch",
        )
    )
    claimed_stable_n = reference.counts.get("stable", len(reference.stable))
    rows.append(
        ClaimRow(
            claim="stable count",
            expected=claimed_stable_n,
            computed=len(computed_stable),
            verdict="match" if claimed_stable_n == len(computed_stable) else "mismatch",
        )
    )

    claimed_stable = {frozenset(Y) for Y in reference.stable}
    for Y in sorted(reference.envy_free, key=canon):
        want_stable = Y in claimed_stable
        label = "stable" if want_stable else "envy-free"
        ok = Y in computed_stable if want_stable else (Y in computed and Y not in computed_stable)
        # A claimed-envy-free node that is actually stable is still a
        # mismatch: the reference says it is not in the stable sublist.
        rows.append(
            ClaimRow(
                claim=f"{label} {_ids(Y)}",
                expected=label,
                computed=_computed_class(market, Y, computed, computed_stable),
                verdict="match" if ok else "mismatch",
                witnesses=() if ok else _disqualifiers(market, Y, want_stable),
            )
        )

    claimed_nodes = {frozenset(Y) for Y in reference.envy_free}
    for Y in graph.nodes:
        if Y in claimed_nodes:
            continue
        rows.append(
            ClaimRow(
                claim=f"unlisted envy-free {_ids(Y)}",
                expected="absent from reference",
                computed="stable" if Y in computed_stable else "envy-free",
                verdict="mismatch",
            )
        )

    for lo, hi in reference.cover_edges:
        claim = f"cover {_ids(lo)} -> {_ids(hi)}"
        if (lo, hi) in cover_set:
            rows.append(ClaimRow(claim=claim, expected="cover", computed="cover", verdict="match"))
            continue
        missing = [side for side in (lo, hi) if side not in computed]
        if missing:
            detail = "endpoints not envy-free: " + ", ".join(_ids(m) for m in missing)
        else:
            detail = "both envy-free, not a cover relation"
        rows.append(
            ClaimRow(claim=claim, expected="cover", computed=detail, verdict="mismatch")
        )

    extra_covers = sorted(
        (edge for edge in cover_set if edge not in set(reference.cover_edges)),
        key=lambda e: (canon(e[0]), canon(e[1])),
    )
    rows.append(
        ClaimRow(
            claim="unlisted cover edges",
            expected=0,
            computed=[f"{_ids(lo)} -> {_ids(hi)}" for lo, hi in extra_covers],
            verdict="match" if not extra_covers else "mismatch",
        )
    )
    return ReconciliationReport(rows=tuple(rows))


def _computed_class(market, Y, computed, computed_stable) -> str:
    if Y in computed_stable:
        return "stable"
    if Y in computed:
        return "envy-free"
    report = classify(market, Y)
    if not report.is_allocation:
        return "not an allocation"
    if not report.is_ir:
        return "not individually rational"
    return "allocation with justified envy"


def reconciliation_to_json(report: ReconciliationReport) -> dict:
    return {
        "mismatches": len(report.mismatches),
        "rows": [
            {
                "claim": r.claim,
                "expected": r.expected,
                "computed": r.computed,
                "verdict": r.verdict,
                "witnesses": list(r.witnesses),
            }
            for r in report.rows
        ],
    }


def render_reconciliation_text(report: ReconciliationReport) -> str:
    """Three columns (claim, computed, verdict); witnesses indented below."""
    rows: list[tuple[str, str, str, tuple]] = []
    for r in report.rows:
        if isinstance(r.computed, list):
            cell = f"{len(r.computed)} item(s)" if r.computed else "none"
            extra = tuple(str(item) for item in r.computed)
        else:
            cell = str(r.computed)
            extra = ()
        rows.append((r.claim, cell, r.verdict, extra + tuple(str(w) for w in r.witnesses)))
    header = ("claim", "computed", "verdict")
    widths = [
        max(len(header[i]), max((len(row[i]) for row in rows), default=0))
        for i in range(3)
    ]
    lines = [
        "  ".join(header[i].ljust(widths[i]) for i in range(3)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for claim, cell, verdict, extras in rows:
        lines.append(
            "  ".join(v.ljust(widths[i]) for i, v in enumerate((claim, cell, verdict))).rstrip()
        )
        lines.extend(f"    {item}" for item in extras)
    summary = f"{len(report.rows)} claims, {len(report.mismatches)} mismatch(es)"
    return "\n".join(lines) + "\n" + summary + "\n"
