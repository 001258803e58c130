"""Choice evaluation and choice-axiom checking.

Doctor choice functions must satisfy, over subsets of the doctor's own
contracts X_d:

* containment and distinctness: C(S) is a subset of S naming pairwise
  distinct hospitals;
* substitutability: C(Y) & Yp <= C(Yp) whenever Yp <= Y;
* consistency: C(Yp) == C(Y) whenever C(Y) <= Yp <= Y;
* path independence: C(Y | Yp) == C(C(Y) | Yp)  (implied by the two
  properties above, checked anyway as a derived cross-check);
* law of aggregate demand (LAD), informative only: |C(Yp)| <= |C(Y)|
  whenever Yp <= Y.

The quantified checks run over single-element removals instead of all
subset pairs: the full universally-quantified properties follow from the
single-removal instances by induction on the removed set.  Path
independence is decided the same way, by single additions: it holds for
every pair (A, B) exactly when C(C(A)) == C(A) and C(A | x) ==
C(C(A) | x) for every A and every single contract x.  Both are instances
of it, and induction on |B| gives the rest: C(A | B | x) ==
C(C(A | B) | x) == C(C(C(A) | B) | x) == C(C(A) | B | x).  Only when the
decision fails are the pairs scanned, A major, for the first witness.
Witnesses are reported as full (Y, Yp) pairs either way so that
replaying them through the evaluator reproduces the violation.  Each
checker returns the ``ValidationEntry`` that the validation report
prints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .model import (
    InvariantViolation,
    Market,
    TableDoctor,
    UnknownIdError,
    canon,
)

PROPERTIES = (
    "distinct-hospitals",
    "substitutability",
    "consistency",
    "path-independence",
    "lad",
)


def doctor_choose(market: Market, doctor: str, S) -> frozenset:
    """C_d(S): the doctor's choice on S & X_d, memoized per market.

    The empty restriction always chooses the empty set.
    """
    if doctor not in market.doctor_by_id:
        raise UnknownIdError(f"unknown doctor id: {doctor!r}")
    own = frozenset(S) & market.doctor_contracts[doctor]
    if not own:
        return frozenset()
    key = (doctor, own)
    cached = market._choice_cache.get(key)
    if cached is None:
        cached = market._choice_cache[key] = evaluate_doctor(market, doctor, own)
    return cached


def evaluate_doctor(market: Market, doctor: str, own: frozenset) -> frozenset:
    """C_d on a nonempty subset of X_d, uncached.

    This is the one definition of each doctor rule: ``doctor_choose``
    memoizes it and the axiom checkers validate it.  The checkers read a
    table doctor's rows directly and call this only for a subset the
    table lacks.  For table doctors a missing row is a hard fault:
    validation proves totality, so a miss means the table was mutated
    after construction.
    """
    rule = market.doctor_by_id[doctor].choice
    if isinstance(rule, TableDoctor):
        try:
            return rule.table[own]
        except KeyError:
            raise InvariantViolation(
                f"choice table for doctor {doctor} has no row for {canon(own)}"
            ) from None
    taken: dict[str, str] = {}  # hospital -> its best offered contract
    for cid in rule.ranking:
        if cid in own:
            if len(taken) >= rule.quota:
                break
            taken.setdefault(market.contract_by_id[cid].hospital, cid)
    return frozenset(taken.values())


def hospital_choose(market: Market, hospital: str, S) -> frozenset:
    """C_h(S): the best-ranked acceptable contracts of S & X_h, up to quota."""
    spec = market.hospital_by_id.get(hospital)
    if spec is None:
        raise UnknownIdError(f"unknown hospital id: {hospital!r}")
    own = frozenset(S) & market.hospital_contracts[hospital]
    ranked = [cid for cid in spec.ranking if cid in own]
    return frozenset(ranked[: spec.quota])


def hospital_prefers(market: Market, hospital: str, a: str, b: str) -> bool:
    """Strict contract-level comparison a > b for ``hospital``.

    Acceptable beats unacceptable; among acceptable contracts the ranking
    position decides.  Two unacceptable contracts are never comparable.
    """
    rank = market.hospital_rank[hospital]
    if a not in rank:
        return False
    return b not in rank or rank[a] < rank[b]


@dataclass(frozen=True)
class PropertyWitness:
    """A violating instance of one choice axiom.

    ``subsets`` holds the one or two contract sets quantified over and
    ``choices`` the evaluator's answers on them, in the same order.
    Replaying the subsets through the evaluator must reproduce
    ``choices`` and hence the violation.
    """

    prop: str
    subsets: tuple[tuple[str, ...], ...]
    choices: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class ValidationEntry:
    """One verdict of the validation report, as the checkers return it."""

    agent: str
    agent_kind: str  # "doctor" | "hospital" | "market"
    prop: str
    passed: bool
    severity: str  # "fatal" | "informative"
    # For a responsive doctor, which is not swept, this records the size
    # rule a sweep would follow (more than ``SUBSET_CAP`` contracts, or
    # ``PAIR_CAP`` for path independence), not a sampled check.
    sampled: bool = False
    witness: PropertyWitness | None = None
    detail: str = ""


# Exhaustiveness caps of the axiom sweeps, read at call time.  Up to
# SUBSET_CAP own contracts the single-removal sweeps cover all n * 2^n
# instances; path independence is decided over all 4^n subset pairs up
# to PAIR_CAP.  Larger doctors are spot-checked with SAMPLES seeded
# random instances and the outcome is marked sampled.
SUBSET_CAP = 16
PAIR_CAP = 10
SAMPLES = 2000


class _Memo(dict):
    """A dict that computes each missing key once, with ``fill``."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _subset_masks(doctor: str, n: int):
    """All subset masks when exhaustive, a seeded sample otherwise."""
    if n <= SUBSET_CAP:
        return range(1 << n)
    rng = random.Random(f"axiom-check:{doctor}:{n}")
    masks = {0, (1 << n) - 1}
    # SAMPLES can exceed the whole mask space when SUBSET_CAP is small
    target = min(SAMPLES, 1 << n)
    while len(masks) < target:
        masks.add(rng.getrandbits(n))
    return sorted(masks)


def _doctor_entries(doctor: str, n: int, witnesses: dict) -> dict:
    """A doctor's entry per axiom, failed where ``witnesses`` has one.

    LAD alone is informative.  ``sampled`` follows the sweeps' size rule.
    """
    return {
        prop: ValidationEntry(
            agent=doctor, agent_kind="doctor", prop=prop, passed=prop not in witnesses,
            severity="informative" if prop == "lad" else "fatal",
            sampled=n > (PAIR_CAP if prop == "path-independence" else SUBSET_CAP),
            witness=witnesses.get(prop),
        )
        for prop in PROPERTIES
    }


def _path_independent(table: list[int]) -> bool:
    """Whether C(a | b) == C(C(a) | b) for all masks a and b.

    ``table[a]`` is C(a) over n contracts, for all 2^n masks.  Checks
    b = {} and every single contract b = {x}, which decide all pairs (see
    the module docstring): n + 1 passes over the table instead of 4^n
    pairs.
    """
    full = range(len(table))
    for x in (0, *(1 << i for i in range(len(table).bit_length() - 1))):
        up = [table[m | x] for m in full]  # C(m | x)
        if list(map(up.__getitem__, table)) != up:  # C(C(m) | x) == C(m | x)
            return False
    return True


def _check_all(market: Market, doctor: str) -> dict[str, ValidationEntry]:
    """Every axiom's entry for one doctor, from one table of choices.

    Subsets of X_d are bitmasks over the sorted contract order.  A table
    doctor's rows are read into the mask table in one pass; any other
    subset is evaluated at most once, when first read.  One sweep over
    all the masks checks distinct hospitals, substitutability,
    consistency and LAD together, whether they fail or not; path
    independence is decided on the same table (``_path_independent``).
    The witness of each property is its first violation by definition:
    masks ascending, then removed bit ascending, or pairs (a, b) with a
    major for path independence.
    """
    contracts = canon(market.doctor_contracts[doctor])
    n = len(contracts)
    bit = {cid: 1 << i for i, cid in enumerate(contracts)}
    hospital_of = [market.contract_by_id[cid].hospital for cid in contracts]

    def ids(mask: int) -> tuple[str, ...]:
        return tuple(c for i, c in enumerate(contracts) if mask >> i & 1)

    def choose(mask: int) -> int:
        given = frozenset(ids(mask))
        chosen = evaluate_doctor(market, doctor, given) if mask else frozenset()
        if not chosen <= bit.keys():
            raise InvariantViolation(
                f"choice table for doctor {doctor} chooses {canon(chosen)} from {canon(given)}, "
                "outside the doctor's contracts"
            )
        return sum(map(bit.__getitem__, chosen))

    C = _Memo(choose)
    C[0] = 0
    rule = market.doctor_by_id[doctor].choice
    if isinstance(rule, TableDoctor):
        own = market.doctor_contracts[doctor]
        for given, chosen in rule.table.items():
            # any other row is left to ``choose``, read through evaluate_doctor
            if chosen <= given <= own:
                C[sum(map(bit.__getitem__, given))] = sum(map(bit.__getitem__, chosen))
    if len(C) == 1 << n and n <= SUBSET_CAP:
        C = [C[m] for m in range(1 << n)]  # list indexing beats dict lookup
    distinct_ok = _Memo(
        lambda c: len({h for i, h in enumerate(hospital_of) if c >> i & 1}) == c.bit_count()
    )
    found: dict[str, tuple[int, ...]] = {}
    for m in _subset_masks(doctor, n):
        c = C[m]
        if (c & ~m or not distinct_ok[c]) and "distinct-hospitals" not in found:
            found["distinct-hospitals"] = (m,)
        bits = m
        while bits:
            low = bits & -bits
            bits ^= low
            s = C[m ^ low]
            if s == c:
                continue  # no removal property can fail
            if c & (m ^ low) & ~s and "substitutability" not in found:
                found["substitutability"] = (m, m ^ low)
            if not c & low and "consistency" not in found:
                found["consistency"] = (m, m ^ low)
            if s.bit_count() > c.bit_count() and "lad" not in found:
                found["lad"] = (m, m ^ low)

    # Path independence.  The pairs are scanned only for the witness of a
    # failed decision, which is itself a failing pair (b empty or one
    # contract), so the scan always finds one.
    if n <= PAIR_CAP:
        full = range(1 << n)
        table = [C[m] for m in full]
        if not _path_independent(table):
            found["path-independence"] = next(
                (a, b) for a in full for b in full if table[a | b] != table[table[a] | b]
            )
    else:
        rng = random.Random(f"axiom-check-pairs:{doctor}:{n}")
        for _ in range(SAMPLES):
            a, b = rng.getrandbits(n), rng.getrandbits(n)
            ca = C[a]
            if ca != a and C[a | b] != C[ca | b]:
                found["path-independence"] = (a, b)
                break

    witnesses = {
        prop: PropertyWitness(prop, tuple(map(ids, masks)), tuple(ids(C[m]) for m in masks))
        for prop, masks in found.items()
    }
    return _doctor_entries(doctor, n, witnesses)


def _entry(market: Market, doctor: str, prop: str) -> ValidationEntry:
    """One axiom's entry, from a sweep made once per doctor."""
    if doctor not in market.doctor_by_id:
        raise UnknownIdError(f"unknown doctor id: {doctor!r}")
    if doctor not in market._axiom_cache:
        market._axiom_cache[doctor] = _check_all(market, doctor)
    return market._axiom_cache[doctor][prop]


def check_distinct_hospitals(market: Market, doctor: str) -> ValidationEntry:
    """C(S) <= S, and no two chosen contracts name the same hospital."""
    return _entry(market, doctor, "distinct-hospitals")


def check_substitutable(market: Market, doctor: str) -> ValidationEntry:
    """Chosen contracts stay chosen when other contracts disappear."""
    return _entry(market, doctor, "substitutability")


def check_consistency(market: Market, doctor: str) -> ValidationEntry:
    """Dropping unchosen contracts never changes the choice."""
    return _entry(market, doctor, "consistency")


def check_path_independence(market: Market, doctor: str) -> ValidationEntry:
    """C(Y | Yp) == C(C(Y) | Yp) over subset pairs.

    Derived cross-check: substitutability plus consistency imply it, so a
    failure here flags an internal contradiction in the other checks.
    """
    return _entry(market, doctor, "path-independence")


def check_lad(market: Market, doctor: str) -> ValidationEntry:
    """Law of aggregate demand: smaller offer sets never win more contracts."""
    return _entry(market, doctor, "lad")


CHECKERS = {
    "distinct-hospitals": check_distinct_hospitals,
    "substitutability": check_substitutable,
    "consistency": check_consistency,
    "path-independence": check_path_independence,
    "lad": check_lad,
}
