"""Reconciliation of computed results against an embedded reference lattice.

A market file may carry a ``reference`` block describing an expected
envy-free lattice, for example one transcribed from an external source
or computed by hand.  The reference is never taken as ground truth:
``reconcile`` diffs it claim by claim against the lattice computed from
the definitions, which the caller hands in.  Every mismatch on a claimed
allocation is itemized with the disqualifying evidence, i.e. the
justified-envy witnesses, blocking contracts, or rationality failures
that the definitions produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .classify import classify
from .lattice import LatticeGraph
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
    ids, each naming one of ``market``'s contracts, and the envy-free and
    stable counts, when given, must be integers.  Anything else is a
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
    for key in ("envy_free", "stable"):
        # JSON true and false decode to bool, which is an int subclass
        if key in counts and type(counts[key]) is not int:
            raise ParseError(f"reference.counts.{key} must be an integer")
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


def _node_row(market: Market, Y: frozenset, label: str, computed: str | None) -> ClaimRow:
    """The row of the claim that Y is in class ``label`` (``stable`` or
    ``envy-free``), given its class ``computed`` in the lattice (None
    off it).  On a mismatch Y is classified once, for the evidence."""
    claim = f"{label} {_ids(Y)}"
    # A claimed-envy-free node that is actually stable is still a
    # mismatch: the reference says it is not in the stable sublist.
    if computed == label:
        return ClaimRow(claim=claim, expected=label, computed=label, verdict="match")
    report = classify(market, Y)
    if not report.is_allocation:
        witnesses = [{"kind": "not-an-allocation", "detail": v} for v in report.violations]
        computed = "not an allocation"
    else:
        witnesses = [] if report.is_ir else [{"kind": "not-individually-rational"}]
        witnesses.extend({"kind": "justified-envy", **envy_witness_to_json(w)} for w in report.envy)
        if label == "stable" and report.blocking:
            witnesses.append({"kind": "blocking-contracts", "contracts": sorted(report.blocking)})
        if computed is None:
            computed = "allocation with justified envy" if report.is_ir else "not individually rational"
    return ClaimRow(
        claim=claim, expected=label, computed=computed, verdict="mismatch", witnesses=tuple(witnesses)
    )


def reconcile(market: Market, reference: Reference, graph: LatticeGraph) -> ReconciliationReport:
    """Diff ``graph``, the envy-free lattice of ``market`` as ``hasse``
    builds it, against the reference claims."""
    computed = {
        Y: "stable" if stable else "envy-free" for Y, stable in zip(graph.nodes, graph.stable)
    }
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
    computed_stable_n = sum(graph.stable)
    rows.append(
        ClaimRow(
            claim="stable count",
            expected=claimed_stable_n,
            computed=computed_stable_n,
            verdict="match" if claimed_stable_n == computed_stable_n else "mismatch",
        )
    )

    # A stable claim is an envy-free claim too, listed or not.
    claimed_stable = set(reference.stable)
    claimed_nodes = claimed_stable.union(reference.envy_free)
    for Y in sorted(claimed_nodes, key=canon):
        label = "stable" if Y in claimed_stable else "envy-free"
        rows.append(_node_row(market, Y, label, computed.get(Y)))

    for Y in graph.nodes:
        if Y in claimed_nodes:
            continue
        rows.append(
            ClaimRow(
                claim=f"unlisted envy-free {_ids(Y)}",
                expected="absent from reference",
                computed=computed[Y],
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

    claimed_covers = set(reference.cover_edges)
    extra_covers = sorted(
        cover_set - claimed_covers, key=lambda e: (canon(e[0]), canon(e[1]))
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
