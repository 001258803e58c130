"""Whole-market validation.

Validation runs in two passes.  A structural pass checks that ids are
unique and resolvable and that every agent spec is well formed (rankings
name own contracts without duplicates, quotas are positive, choice
tables are total over the doctor's contracts with rows contained in
their keys).  Structural failures are fatal and suppress the second
pass, which reports the entries the choice-axiom checkers return for
every table doctor.  Responsive doctors and hospitals follow quota rules
over a ranking, which satisfy every axiom by construction, so they pass
without a sweep.  Axiom failures are fatal except for the law of
aggregate demand, which the model treats as an optional regularity and
reports informatively.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .choice import CHECKERS, PROPERTIES, ValidationEntry, _doctor_entries
from .model import Market, TableDoctor


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[ValidationEntry, ...]

    @property
    def ok(self) -> bool:
        return not self.fatal

    @property
    def fatal(self) -> tuple[ValidationEntry, ...]:
        return tuple(
            e for e in self.entries if not e.passed and e.severity == "fatal"
        )


def _structural(market: Market) -> list[ValidationEntry]:
    bad: list[ValidationEntry] = []

    def flag(agent, kind, detail):
        bad.append(
            ValidationEntry(
                agent=agent, agent_kind=kind, prop="structure",
                passed=False, severity="fatal", detail=detail,
            )
        )

    seen: set[str] = set()
    for c in market.contracts:
        if c.id in seen:
            flag(c.id, "market", f"duplicate contract id {c.id}")
        seen.add(c.id)
    doctor_ids = [d.id for d in market.doctors]
    hospital_ids = [h.id for h in market.hospitals]
    for name, ids in (("doctor", doctor_ids), ("hospital", hospital_ids)):
        for i in sorted(i for i, k in Counter(ids).items() if k > 1):
            flag(i, name, f"duplicate {name} id {i}")
    overlap = sorted(set(doctor_ids) & set(hospital_ids))
    for i in overlap:
        # Restriction by agent id must be unambiguous.
        flag(i, "market", f"id {i} names both a doctor and a hospital")
    for c in market.contracts:
        if c.doctor not in market.doctor_by_id:
            flag(c.id, "market", f"contract {c.id} names unknown doctor {c.doctor}")
        if c.hospital not in market.hospital_by_id:
            flag(c.id, "market", f"contract {c.id} names unknown hospital {c.hospital}")
    if bad:
        # Ids are unusable; the per-agent checks below assume clean indexes.
        return bad

    def quota_rule(agent, kind, quota, ranking, own, pronoun):
        # A positive quota over a ranking of own contracts, each once.
        if quota < 1:
            flag(agent, kind, f"{kind} {agent} has quota {quota}, expected >= 1")
        seen_r: set[str] = set()
        for cid in ranking:
            if cid in seen_r:
                flag(agent, kind, f"{kind} {agent} ranks {cid} twice")
            seen_r.add(cid)
            if cid not in own:
                flag(agent, kind, f"{kind} {agent} ranks {cid}, which does not name {pronoun}")

    for h in market.hospitals:
        quota_rule(h.id, "hospital", h.quota, h.ranking, market.hospital_contracts[h.id], "it")

    for d in market.doctors:
        own = market.doctor_contracts[d.id]
        rule = d.choice
        if isinstance(rule, TableDoctor):
            usable = 0
            for given, chosen in rule.table.items():
                if not given:
                    flag(d.id, "doctor", f"doctor {d.id} has a table row for the empty set")
                elif not given <= own:
                    extra = sorted(given - own)
                    flag(d.id, "doctor", f"doctor {d.id} table row {sorted(given)} uses foreign ids {extra}")
                else:
                    usable += 1
                if not chosen <= given:
                    flag(d.id, "doctor", f"doctor {d.id} table row {sorted(given)} chooses outside the row: {sorted(chosen - given)}")
            want = (1 << len(own)) - 1
            if usable != want:
                flag(d.id, "doctor", f"doctor {d.id} table has {usable} valid rows, needs {want} (one per nonempty subset)")
        else:
            quota_rule(d.id, "doctor", rule.quota, rule.ranking, own, "them")
    return bad


def validate_market(market: Market) -> ValidationReport:
    """Validate structure first, then the choice axioms of table doctors.

    Deterministic: identical markets produce identical reports, including
    any sampled checks, whose generators are seeded from agent ids.
    """
    structural = _structural(market)
    if structural:
        return ValidationReport(entries=tuple(structural))

    entries: list[ValidationEntry] = []
    for d in sorted(market.doctors, key=lambda s: s.id):
        if isinstance(d.choice, TableDoctor):
            entries.extend(CHECKERS[prop](market, d.id) for prop in PROPERTIES)
        else:
            # The quota rule is greedy selection over a matroid, so it
            # satisfies every axiom (see ResponsiveDoctor); the ranking
            # itself was vetted structurally.
            entries.extend(_doctor_entries(d.id, len(market.doctor_contracts[d.id]), {}).values())
    for h in sorted(market.hospitals, key=lambda s: s.id):
        # Quota rules over a strict ranking satisfy every axiom; the
        # ranking itself was vetted structurally.
        entries.append(
            ValidationEntry(
                agent=h.id, agent_kind="hospital", prop="ranking",
                passed=True, severity="fatal",
            )
        )
    return ValidationReport(entries=tuple(entries))
