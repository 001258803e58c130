"""Canonical JSON wire format for markets, allocations, and reports.

Market files are JSON documents with three required top-level keys:

* ``contracts``: list of {"id", "doctor", "hospital"};
* ``hospitals``: list of {"id", "quota", "ranking"} with the ranking
  best-first over acceptable contract ids;
* ``doctors``: list of {"id", "kind", ...} where kind "responsive"
  carries "quota" and "ranking" and kind "table" carries "table", a list
  of {"given": [ids], "chosen": [ids]} rows covering every nonempty
  subset of the doctor's contracts.

An optional ``reference`` key may embed an expected lattice (claimed
envy-free allocations, stable sublist, cover edges, counts) for
reconciliation against computed results; it does not affect parsing.

Allocations on the wire are canonically sorted lists of contract ids.
Serialization is canonical: parsing a document and re-serializing it is
idempotent, and equal markets serialize to identical bytes.

Every indented JSON document the program prints, market files
included, is written by ``_json_text``, which returns exactly
``json.dumps(doc, indent=2)`` but encodes strings with the C encoder.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from typing import NoReturn

from .choice import PropertyWitness
from .classify import ClassificationReport, EnvyWitness
from .dynamics import TarskiTrace, TheoremReport
from .model import (
    Contract,
    DoctorSpec,
    HospitalSpec,
    Market,
    MarketError,
    ResponsiveDoctor,
    TableDoctor,
    UnknownIdError,
    canon,
    check_ids,
)
from .validate import ValidationReport, validate_market


class ParseError(ValueError):
    """The document is not a well-formed market file."""


class FatalValidationError(ParseError):
    """The document parsed but the market fails validation fatally."""

    def __init__(self, message: str, report: ValidationReport):
        super().__init__(message)
        self.report = report


def _expect(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise ParseError(f"{where} is missing key {key!r}")
    value = doc[key]
    # JSON true and false decode to bool, which is an int subclass
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"{where}.{key} has the wrong type, expected {kind.__name__}")
    return value


_is_str = str.__instancecheck__


def _id_list(value, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(map(_is_str, value)):
        raise ParseError(f"{where} must be a list of contract ids")
    return tuple(value)


def _raise_row_error(row, rw: str) -> NoReturn:
    """Raise the first error of table row ``rw``, which failed the shape test."""
    if not isinstance(row, dict):
        raise ParseError(f"{rw} must be an object")
    _id_list(_expect(row, "given", list, rw), f"{rw}.given")
    _expect(row, "chosen", list, rw)
    raise ParseError(f"{rw}.chosen must be a list of contract ids")  # the one fault left


def market_from_json(doc) -> Market:
    """Structural parse only; run validate_market for semantic checks."""
    if not isinstance(doc, dict):
        raise ParseError("market document must be a JSON object")
    contracts = []
    for i, entry in enumerate(_expect(doc, "contracts", list, "market")):
        where = f"contracts[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where} must be an object")
        contracts.append(
            Contract(
                id=_expect(entry, "id", str, where),
                doctor=_expect(entry, "doctor", str, where),
                hospital=_expect(entry, "hospital", str, where),
            )
        )
    hospitals = []
    for i, entry in enumerate(_expect(doc, "hospitals", list, "market")):
        where = f"hospitals[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where} must be an object")
        hospitals.append(
            HospitalSpec(
                id=_expect(entry, "id", str, where),
                quota=_expect(entry, "quota", int, where),
                ranking=_id_list(_expect(entry, "ranking", list, where), f"{where}.ranking"),
            )
        )
    doctors = []
    for i, entry in enumerate(_expect(doc, "doctors", list, "market")):
        where = f"doctors[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where} must be an object")
        did = _expect(entry, "id", str, where)
        kind = _expect(entry, "kind", str, where)
        if kind == "responsive":
            rule = ResponsiveDoctor(
                quota=_expect(entry, "quota", int, where),
                ranking=_id_list(_expect(entry, "ranking", list, where), f"{where}.ranking"),
            )
        elif kind == "table":
            rows = _expect(entry, "table", list, where)
            table: dict[frozenset, frozenset] = {}
            for j, row in enumerate(rows):
                # the shape test; _raise_row_error names the row's first error
                if not (
                    isinstance(row, dict)
                    and isinstance(given := row.get("given"), list)
                    and isinstance(chosen := row.get("chosen"), list)
                    and all(map(_is_str, given))
                    and all(map(_is_str, chosen))
                ):
                    _raise_row_error(row, f"{where}.table[{j}]")
                given, chosen = frozenset(given), frozenset(chosen)
                if given in table:
                    raise ParseError(f"{where}.table[{j}] repeats the subset {sorted(given)}")
                table[given] = chosen
            rule = TableDoctor(table=table)
        else:
            raise ParseError(f"{where}.kind must be 'responsive' or 'table', got {kind!r}")
        doctors.append(DoctorSpec(id=did, choice=rule))
    return Market(
        doctors=tuple(doctors), hospitals=tuple(hospitals), contracts=tuple(contracts)
    )


def decode_json(text: str | bytes):
    """The JSON value of ``text``; malformed JSON is a ParseError.

    Bytes are decoded the way ``json.loads`` does it (UTF-8, -16 or
    -32), so undecodable bytes are malformed JSON too, and so is nesting
    too deep for the decoder's recursion.
    """
    try:
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from None


def parse_market(text: str | bytes) -> Market:
    """Parse and validate a market document."""
    return market_from_doc(decode_json(text))


def market_from_doc(doc) -> Market:
    """Build and validate a market from a decoded document.

    Raises ParseError on malformed documents and FatalValidationError
    (with the report attached) when validation finds a fatal problem.
    Informative findings, such as a doctor without the law of aggregate
    demand, do not block parsing.
    """
    market = market_from_json(doc)
    report = validate_market(market)
    if not report.ok:
        raise FatalValidationError("market fails validation", report)
    return market


def market_to_json(market: Market) -> dict:
    def doctor_doc(d: DoctorSpec) -> dict:
        if isinstance(d.choice, TableDoctor):
            rows = sorted(
                d.choice.table.items(), key=lambda kv: (len(kv[0]), canon(kv[0]))
            )
            return {
                "id": d.id,
                "kind": "table",
                "table": [
                    {"given": list(canon(g)), "chosen": list(canon(c))}
                    for g, c in rows
                ],
            }
        return {
            "id": d.id,
            "kind": "responsive",
            "quota": d.choice.quota,
            "ranking": list(d.choice.ranking),
        }

    return {
        "contracts": [
            {"id": c.id, "doctor": c.doctor, "hospital": c.hospital}
            for c in sorted(market.contracts, key=lambda c: c.id)
        ],
        "hospitals": [
            {"id": h.id, "quota": h.quota, "ranking": list(h.ranking)}
            for h in sorted(market.hospitals, key=lambda h: h.id)
        ],
        "doctors": [
            doctor_doc(d) for d in sorted(market.doctors, key=lambda d: d.id)
        ],
    }


def market_to_text(market: Market) -> str:
    return _json_text(market_to_json(market)) + "\n"


_string = json.encoder.encode_basestring_ascii


def _json_text(value, pad: str = "") -> str:
    """Exactly ``json.dumps(value, indent=2)``, for a value made of str,
    int, bool, None, float, lists, tuples and str-keyed dicts.

    ``json.dumps`` encodes with an indent in pure Python; here strings go
    through the C encoder the module uses without one, ``int``, ``bool``
    and ``None`` are written inline, and only floats (and anything else)
    are left to ``json.dumps``.  ``pad`` is the indent of the line the
    value starts on.
    """
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        try:
            return int.__repr__(value)
        except ValueError:  # more digits than Python converts to text
            raise MarketError(
                f"cannot print an integer of more than {sys.get_int_max_str_digits()} "
                "digits, Python's limit for integer-to-text conversion"
            ) from None
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_string(v) if type(v) is str else _json_text(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            _string(k) + ": " + (_string(v) if type(v) is str else _json_text(v, inner))
            for k, v in value.items()
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    return json.dumps(value)


def allocation_to_list(Y) -> list[str]:
    return list(canon(Y))


def allocation_from_csv(market: Market, text: str) -> frozenset:
    """Parse a comma-separated contract id list; empty text means empty."""
    ids = [part.strip() for part in text.split(",") if part.strip()]
    dupes = sorted(i for i, k in Counter(ids).items() if k > 1)
    if dupes:
        raise UnknownIdError(f"contract ids repeated in allocation literal: {dupes}")
    return check_ids(market, ids)


def doctor_ids_from_csv(market: Market, text: str) -> frozenset:
    ids = frozenset(part.strip() for part in text.split(",") if part.strip())
    unknown = sorted(d for d in ids if d not in market.doctor_by_id)
    if unknown:
        raise UnknownIdError(f"unknown doctor ids: {unknown}")
    return ids


def witness_to_json(w: PropertyWitness) -> dict:
    return {
        "property": w.prop,
        "subsets": [list(canon(s)) for s in w.subsets],
        "choices": [list(canon(c)) for c in w.choices],
    }


def validation_to_json(report: ValidationReport) -> dict:
    return {
        "ok": report.ok,
        "entries": [
            {
                "agent": e.agent,
                "agent_kind": e.agent_kind,
                "property": e.prop,
                "passed": e.passed,
                "severity": e.severity,
                "sampled": e.sampled,
                "witness": witness_to_json(e.witness) if e.witness else None,
                "detail": e.detail,
            }
            for e in report.entries
        ],
    }


def envy_witness_to_json(w: EnvyWitness) -> dict:
    return {
        "envious": w.envious,
        "envied": w.envied,
        "held": w.held,
        "desired": w.desired,
        "hospital": w.hospital,
    }


def classification_to_json(report: ClassificationReport) -> dict:
    return {
        "is_allocation": report.is_allocation,
        "violations": list(report.violations),
        "is_ir": report.is_ir,
        "is_envy_free": report.is_envy_free,
        "is_stable": report.is_stable,
        "blocking": allocation_to_list(report.blocking),
        "envy": [envy_witness_to_json(w) for w in report.envy],
    }


def trace_to_json(trace: TarskiTrace) -> list[dict]:
    """Ordered step array; each entry is the state before one application."""
    return [
        {
            "allocation": allocation_to_list(step.allocation),
            "blocking": allocation_to_list(step.blocking),
            "starred": allocation_to_list(step.starred),
            "per_doctor": {
                d: allocation_to_list(g) for d, g in sorted(step.per_doctor.items())
            },
        }
        for step in trace.steps
    ]


def render_trace_text(trace: TarskiTrace) -> str:
    """One block per step, contracts sorted; stable across runs."""

    def fmt(Y) -> str:
        return "{" + ", ".join(canon(Y)) + "}"

    blocks = []
    for k, step in enumerate(trace.steps):
        lines = [f"step {k}: {fmt(step.allocation)}"]
        lines.append(f"  blocking: {fmt(step.blocking)}")
        lines.append(f"  starred:  {fmt(step.starred)}")
        for d, gained in sorted(step.per_doctor.items()):
            lines.append(f"  {d} offered: {fmt(gained)}")
        blocks.append("\n".join(lines))
    blocks.append(
        f"fixed point: {fmt(trace.fixed_point)}\niterations: {trace.iterations}"
    )
    return "\n".join(blocks) + "\n"


def theorem_report_to_json(report: TheoremReport) -> dict:
    return {
        "applicable": report.applicable,
        "lad_failures": list(report.lad_failures),
        "checks": {
            name: {"holds": verdict.holds, "detail": verdict.detail}
            for name, verdict in sorted(report.checks.items())
        },
    }
