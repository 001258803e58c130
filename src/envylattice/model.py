"""Core model for many-to-many matching markets with contracts.

A market couples three ingredient lists:

* contracts, each an indivisible term naming one doctor and one hospital
  (several parallel contracts between the same pair may coexist in the
  market, but an allocation may sign at most one of them);
* hospital specs: a quota plus a strict ranking, best first, of the
  contracts the hospital is willing to sign at all;
* doctor specs: either a quota-plus-ranking rule or an explicit choice
  table over every nonempty subset of the doctor's own contracts.

Allocations are plain ``frozenset`` objects holding contract ids.  The
helpers here enforce the two allocation axioms: at most one contract per
doctor-hospital pair, and no hospital above quota.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

ContractId = str
DoctorId = str
HospitalId = str

#: Allocations and candidate contract sets are frozensets of contract ids.
Allocation = frozenset


class MarketError(ValueError):
    """Domain-level refusal: unknown ids, failed preconditions, caps."""


class UnknownIdError(MarketError):
    """An id that does not exist in the market."""


class NotAnAllocationError(MarketError):
    """A contract set violating one of the allocation axioms."""


class InvariantViolation(RuntimeError):
    """A guarantee of the model failed at runtime.

    This is reserved for states the choice axioms rule out.  Reaching it
    means the market violates substitutability or consistency in a way
    validation did not catch (for example because an oversized agent was
    only sample-checked), and the offending computation refuses to guess.
    """


@dataclass(frozen=True)
class Contract:
    id: ContractId
    doctor: DoctorId
    hospital: HospitalId


@dataclass(frozen=True)
class ResponsiveDoctor:
    """Greedy quota rule over a strict personal ranking of contracts.

    The evaluator scans ``ranking`` best-first and signs a contract when
    its hospital is not already used and the quota is not exhausted.
    Contracts absent from ``ranking`` are unacceptable.  This rule
    satisfies every choice axiom checked by the validators, including the
    law of aggregate demand: it is greedy selection over a matroid (Fleiner
    2003; Hatfield & Milgrom 2005).  Validation relies on this and does not
    sweep responsive doctors; ``test_quota_rule_satisfies_all_axioms`` is
    the proof obligation, running the full checkers on this rule.
    """

    quota: int
    ranking: tuple[ContractId, ...]


@dataclass(frozen=True)
class TableDoctor:
    """Extensional choice function: one row per nonempty subset of the
    doctor's contracts.

    The table must be total; missing rows are a validation failure, never
    silently defaulted.  The mapping is treated as read-only after
    construction.
    """

    table: dict[frozenset, frozenset]


@dataclass(frozen=True)
class DoctorSpec:
    id: DoctorId
    choice: ResponsiveDoctor | TableDoctor


@dataclass(frozen=True)
class HospitalSpec:
    """Quota plus a strict ranking (best first) of acceptable contracts.

    Omission from ``ranking`` encodes unacceptability.  No set-level
    preference is ever materialized: the quota rule "take the best ranked
    contracts up to quota" is the hospital's choice function, and every
    operation in the package needs nothing beyond the ranking and quota.
    """

    id: HospitalId
    quota: int
    ranking: tuple[ContractId, ...]


@dataclass(frozen=True)
class Market:
    """Immutable market instance plus cached derived indexes."""

    doctors: tuple[DoctorSpec, ...]
    hospitals: tuple[HospitalSpec, ...]
    contracts: tuple[Contract, ...]

    # Derived indexes are built lazily and cached on the instance.  The
    # dataclass itself stays frozen; caches are write-once per key, so a
    # rare duplicate computation under contention is harmless.

    @cached_property
    def contract_by_id(self) -> dict[ContractId, Contract]:
        return {c.id: c for c in self.contracts}

    @cached_property
    def doctor_by_id(self) -> dict[DoctorId, DoctorSpec]:
        return {d.id: d for d in self.doctors}

    @cached_property
    def hospital_by_id(self) -> dict[HospitalId, HospitalSpec]:
        return {h.id: h for h in self.hospitals}

    @cached_property
    def doctor_contracts(self) -> dict[DoctorId, frozenset]:
        """X_d: the contracts naming each doctor."""
        out: dict[DoctorId, set] = {d.id: set() for d in self.doctors}
        for c in self.contracts:
            if c.doctor in out:
                out[c.doctor].add(c.id)
        return {d: frozenset(s) for d, s in out.items()}

    @cached_property
    def hospital_contracts(self) -> dict[HospitalId, frozenset]:
        """X_h: the contracts naming each hospital."""
        out: dict[HospitalId, set] = {h.id: set() for h in self.hospitals}
        for c in self.contracts:
            if c.hospital in out:
                out[c.hospital].add(c.id)
        return {h: frozenset(s) for h, s in out.items()}

    @cached_property
    def hospital_rank(self) -> dict[HospitalId, dict[ContractId, int]]:
        """Position of each acceptable contract in its hospital's ranking."""
        return {
            h.id: {cid: pos for pos, cid in enumerate(h.ranking)}
            for h in self.hospitals
        }

    @cached_property
    def _choice_cache(self) -> dict:
        # Memo of doctor_choose, keyed (doctor, frozenset of own contracts).
        # dynamics.reduce_market shares it with the reduced market, where
        # every surviving doctor keeps their rule and own contracts.
        return {}

    @cached_property
    def _axiom_cache(self) -> dict:
        # Choice-axiom outcomes of each doctor, keyed by doctor id.
        return {}


def canon(Y) -> tuple[ContractId, ...]:
    """Canonical form of a contract set: sorted tuple of ids."""
    return tuple(sorted(Y))


def check_ids(market: Market, Y) -> frozenset:
    """Return ``Y`` as a frozenset after checking every id exists."""
    Y = frozenset(Y)
    unknown = [x for x in Y if x not in market.contract_by_id]
    if unknown:
        raise UnknownIdError(f"unknown contract ids: {sorted(unknown)}")
    return Y


def restrict(market: Market, Y, agent: str) -> frozenset:
    """Y_a: the subset of ``Y`` whose contracts name ``agent``.

    ``agent`` may be a doctor id or a hospital id.  Restrictions by doctor
    partition any allocation, as do restrictions by hospital.
    """
    Y = check_ids(market, Y)
    if agent in market.doctor_by_id:
        return Y & market.doctor_contracts[agent]
    if agent in market.hospital_by_id:
        return Y & market.hospital_contracts[agent]
    raise UnknownIdError(f"unknown agent id: {agent!r}")


_pair = attrgetter("doctor", "hospital")
_hospital = attrgetter("hospital")


def allocation_violations(market: Market, Y) -> list[str]:
    """Axiom violations that stop ``Y`` from being an allocation.

    Returns an empty list when ``Y`` is an allocation.  Violations are
    reported deterministically, sorted by the ids involved.  One pass
    counts the pairs and the hospital loads; only the violated entries
    are sorted.
    """
    Y = check_ids(market, Y)
    contracts = list(map(market.contract_by_id.__getitem__, Y))
    out = []
    if len(set(map(_pair, contracts))) < len(contracts):
        by_pair: dict[tuple[str, str], list[str]] = {}
        for c in contracts:
            by_pair.setdefault(_pair(c), []).append(c.id)
        for (d, h), ids in sorted(by_pair.items()):
            if len(ids) > 1:
                out.append(
                    f"doctor {d} and hospital {h} are paired by "
                    f"{len(ids)} contracts: {', '.join(sorted(ids))}"
                )
    hospital_by_id = market.hospital_by_id
    for h, n in sorted(
        (h, n) for h, n in Counter(map(_hospital, contracts)).items()
        if n > hospital_by_id[h].quota
    ):
        out.append(f"hospital {h} holds {n} contracts, quota {hospital_by_id[h].quota}")
    return out


def is_allocation(market: Market, Y) -> bool:
    return not allocation_violations(market, Y)


def require_allocation(market: Market, Y) -> frozenset:
    Y = frozenset(Y)
    bad = allocation_violations(market, Y)
    if bad:
        raise NotAnAllocationError("; ".join(bad))
    return Y


def contract_count_balance(market: Market, Y) -> tuple[int, int, int]:
    """(sum over doctors of |Y_d|, sum over hospitals of |Y_h|, |Y|).

    All three coincide for any set of known contract ids, because every
    contract names exactly one doctor and one hospital; exposing the
    triple lets tests assert the identity explicitly.
    """
    Y = check_ids(market, Y)
    by_doctor = sum(len(Y & market.doctor_contracts[d.id]) for d in market.doctors)
    by_hospital = sum(len(Y & market.hospital_contracts[h.id]) for h in market.hospitals)
    return by_doctor, by_hospital, len(Y)
