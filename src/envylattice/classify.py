"""Solution concepts: individual rationality, blocking, justified envy,
stability, and exhaustive enumeration by solution class.

Definitions, for an allocation Y:

* individually rational (IR): C_a(Y) == Y_a for every agent a;
* x outside Y blocks Y when both sides would sign it on top of Y:
  x in C_d(Y | {x}) for the doctor d naming x, and x is in its
  hospital's ranking, above the worst contract the hospital holds when
  it is full;
* doctor dp has justified envy at Y when some held contract x in Y and
  some dp-contract xp outside Y name the same hospital h, h ranks xp
  strictly above x, and xp in C_dp(Y | {xp}).  dp == d is allowed: a
  doctor can justifiably envy their own inferior contract;
* envy-free: IR with no justified envy;  stable: IR with no blocking
  contract.  Stability implies envy-freeness: a justified-envy triple is
  itself a blocking contract.

The point predicates share one pass.  ``_blocking`` computes the
blocking set of a known allocation by reading each hospital's ranking
prefix: all of it below quota, and above the worst contract held when
full.  Justified envy is read off the blocking set: the witnesses are
the pairs of a blocking contract and a held contract at its hospital
that it beats, so Y has justified envy exactly when some blocking
contract ranks above the worst contract held at its hospital.  No
choice axiom is needed for this: the desired contract of a witness is
acceptable and beats a held one, so its hospital would take it, and it
blocks.  Each public predicate checks its input once with
``require_allocation`` and ``classify`` runs ``allocation_violations``
once; everything below them is unchecked.

Every condition above is local: IR is a condition on each doctor's part
Y_d and each hospital's load, and a justified-envy witness involves one
hospital and two doctors' parts.  ``_diagram`` exploits this with one
depth-first search over the doctors that fixes one IR part per doctor
and settles each witness as soon as both of its doctors are fixed.  The
search is memoized on the frontier, the hospitals that a later doctor
can still hold or desire (frontier-based search, Kawahara et al. 2017;
Minato 1993), so it builds a decision diagram whose nodes keep their
leaf count, their stable leaf count and their edges to children with a
nonzero count.  ``count_allocations`` reads a count at the root, and
``enumerate_allocations`` walks the edges, entering only subtrees that
end in a leaf.

The allocation axioms are rules about one hospital, so
``all_allocations`` lists every allocation, for the plain
``allocation`` class, by a depth-first search over the hospitals that
takes one option per hospital: a subset of its contracts with at most
one per doctor and at most quota many, and its count is a closed form
over the hospitals.  Each search and count checks the cap and asserts
the restriction accounting identity once, on the contracts its leaves
are drawn from, and so on every leaf.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from operator import lt

from .choice import _choose, _ids, _parts, hospital_prefers
from .model import (
    Market,
    MarketError,
    allocation_violations,
    canon,
    contract_count_balance,
    require_allocation,
)

CLASSES = ("allocation", "ir", "envy-free", "stable")

DEFAULT_ENUM_CAP = 22
ENUM_CAP_ENV = "ENVYLATTICE_ENUM_CAP"


class EnumerationCapError(MarketError):
    """Raised instead of attempting an enumeration that cannot finish."""


@dataclass(frozen=True)
class EnvyWitness:
    envious: str
    envied: str
    held: str
    desired: str
    hospital: str


@dataclass(frozen=True)
class ClassificationReport:
    """Full classification of one contract set.

    The boolean fields form an implication chain: stable implies
    envy-free implies IR implies allocation.  ``blocking`` and ``envy``
    are populated only when the set is an allocation.
    """

    is_allocation: bool
    violations: tuple[str, ...]
    is_ir: bool
    is_envy_free: bool
    is_stable: bool
    blocking: frozenset
    envy: tuple[EnvyWitness, ...]


def _ir(market: Market, Y: frozenset) -> bool:
    # IR of the allocation Y: every doctor's choice from its part keeps
    # it, and every held contract is acceptable to its hospital; Y is an
    # allocation, so no hospital is above quota and C_h(Y_h) == Y_h.
    for d, part in _parts(market, Y).items():
        if _choose(market, d, part) != part:
            return False
    rank = market.hospital_rank
    return all(x in rank[market.contract_by_id[x].hospital] for x in Y)


def _blocking(market: Market, Y: frozenset, hospitals=None) -> frozenset:
    """The contracts outside the allocation Y that block it, unchecked;
    only those at the ids in ``hospitals`` when it is given.

    Each hospital's ranking is read best first, so only acceptable
    contracts are read; a full hospital's is cut at the worst rank it
    holds (an unacceptable held contract is worst of all and cuts
    nothing).  The doctor is asked about each contract read outside Y:
    x in C_d(Y_d | {x}), with Y_d the doctor's part mask, built once.
    """
    if hospitals is None:
        hospitals = market.hospitals
    else:
        hospitals = map(market.hospital_by_id.__getitem__, hospitals)
    parts = _parts(market, Y)
    bit = market.contract_bit
    out = []
    for h in hospitals:
        ranking = h.ranking
        held = Y & market.hospital_contracts[h.id]
        if len(held) >= h.quota:
            rank = market.hospital_rank[h.id]
            if rank.keys() >= held:
                ranking = ranking[:max(map(rank.__getitem__, held), default=0)]
        for x in ranking:
            if x not in Y:
                d, b = bit[x]
                if _choose(market, d, parts.get(d, 0) | b) & b:
                    out.append(x)
    return frozenset(out)


def _witnesses(market: Market, Y: frozenset, blocking: frozenset) -> tuple[EnvyWitness, ...]:
    """The justified-envy witnesses of Y: the pairs of a blocking
    contract and a held contract at its hospital that it beats."""
    found = []
    for xp in blocking:
        desired = market.contract_by_id[xp]
        h = desired.hospital
        for x in Y & market.hospital_contracts[h]:
            if hospital_prefers(market, h, xp, x):
                found.append(EnvyWitness(
                    envious=desired.doctor, envied=market.contract_by_id[x].doctor,
                    held=x, desired=xp, hospital=h,
                ))
    found.sort(key=lambda w: (w.hospital, w.held, w.desired, w.envious))
    return tuple(found)


def _envious(market: Market, Y: frozenset, blocking: frozenset) -> bool:
    """Whether Y has justified envy: whether some contract of its
    blocking set ranks above the worst contract held at its hospital
    (an unacceptable one is worst of all).  Stops at the first."""
    rank = market.hospital_rank
    for x in blocking:
        h = market.contract_by_id[x].hospital
        r = rank[h]
        if any(r.get(y, len(r)) > r[x] for y in Y & market.hospital_contracts[h]):
            return True
    return False


def _envy_free(market: Market, Y: frozenset, blocking: frozenset) -> bool:
    return _ir(market, Y) and not _envious(market, Y, blocking)


def _require_envy_free(market: Market, Y) -> tuple[frozenset, frozenset]:
    """Y, checked to be an envy-free allocation, and its blocking set."""
    Y = require_allocation(market, Y)
    blocking = _blocking(market, Y)
    if not _envy_free(market, Y, blocking):
        raise MarketError(f"allocation {canon(Y)} is not envy-free")
    return Y, blocking


def is_individually_rational(market: Market, Y) -> bool:
    return _ir(market, require_allocation(market, Y))


def blocking_contracts(market: Market, Y) -> frozenset:
    """All contracts outside Y that block Y.  Requires an allocation."""
    return _blocking(market, require_allocation(market, Y))


def justified_envy_witnesses(market: Market, Y) -> tuple[EnvyWitness, ...]:
    """Every justified-envy instance at Y, deterministically ordered."""
    Y = require_allocation(market, Y)
    return _witnesses(market, Y, _blocking(market, Y))


def is_envy_free(market: Market, Y) -> bool:
    Y = require_allocation(market, Y)
    return _envy_free(market, Y, _blocking(market, Y))


def is_stable(market: Market, Y) -> bool:
    Y = require_allocation(market, Y)
    return _ir(market, Y) and not _blocking(market, Y)


def classify(market: Market, Y) -> ClassificationReport:
    Y = frozenset(Y)
    violations = tuple(allocation_violations(market, Y))
    if violations:
        return ClassificationReport(
            is_allocation=False, violations=violations, is_ir=False,
            is_envy_free=False, is_stable=False, blocking=frozenset(), envy=(),
        )
    ir = _ir(market, Y)
    blocking = _blocking(market, Y)
    envy = _witnesses(market, Y, blocking)
    return ClassificationReport(
        is_allocation=True, violations=(), is_ir=ir,
        is_envy_free=ir and not envy, is_stable=ir and not blocking,
        blocking=blocking, envy=envy,
    )


def _check_cap(market: Market) -> None:
    """Refuse a market above the enumeration cap: ENVYLATTICE_ENUM_CAP, else 22.

    Run before any work by ``all_allocations``, ``_levels`` and the
    ``allocation`` count, and the one reader of the environment
    variable.  A set variable must hold an integer (``int`` syntax, so
    surrounding blanks are fine); anything else, the empty string
    included, is a refusal.
    """
    env = os.environ.get(ENUM_CAP_ENV)
    try:
        cap = DEFAULT_ENUM_CAP if env is None else int(env)
    except ValueError:
        raise MarketError(f"{ENUM_CAP_ENV} must be an integer, got {env!r}") from None
    if len(market.contracts) > cap:
        raise EnumerationCapError(
            f"market has {len(market.contracts)} contracts, enumeration cap is {cap}"
        )


def _balanced(market: Market, Y: frozenset) -> None:
    """Assert the restriction accounting identity on Y and so on its subsets."""
    bd, bh, size = contract_count_balance(market, Y)
    if not bd == bh == size:
        raise AssertionError("restriction accounting identity failed")


def _one_per_group(ids, group, limit: int) -> list[frozenset]:
    """Every subset of ``ids`` with at most one id per ``group(id)`` and at
    most ``limit`` ids, built group by group in ``canon`` order."""
    groups: dict[str, list[str]] = {}
    for x in canon(ids):
        groups.setdefault(group(x), []).append(x)
    out = [frozenset()]
    for members in groups.values():
        out += [S | {x} for S in out if len(S) < limit for x in members]
    return out


def all_allocations(market: Market) -> list[frozenset]:
    """Every allocation, canonically sorted.

    Walks the hospitals depth-first, each taking one of its options: a
    subset of its contracts with at most one per doctor and at most
    quota many.  The work is proportional to the number of allocations
    rather than to 2^|X|.  Refuses markets above the cap (default 22
    contracts, overridable via the ENVYLATTICE_ENUM_CAP environment
    variable).
    """
    _check_cap(market)
    _balanced(market, frozenset(c.id for c in market.contracts))
    doctor_of = {c.id: c.doctor for c in market.contracts}
    options = [
        _one_per_group(market.hospital_contracts[h.id], doctor_of.get, h.quota)
        for h in market.hospitals
    ]
    out: list[frozenset] = []

    def walk(i: int, Y: frozenset):
        if i == len(options):
            out.append(Y)
            return
        for S in options[i]:
            walk(i + 1, Y | S)

    try:
        walk(0, frozenset())
    except RecursionError:
        raise EnumerationCapError(
            f"enumeration search is {len(options)} levels deep, past the recursion limit"
        ) from None
    out.sort(key=canon)
    return out


@dataclass(frozen=True)
class _Part:
    """One IR part S of a doctor, with what the envy test needs of it.

    ``held`` pairs the hospital index of each contract of S with its
    rank there; ``desired`` pairs each hospital index with the best rank
    among the contracts x outside S that it finds acceptable and that
    the doctor would take on top of S (x in C_d(S | {x})).
    """

    contracts: frozenset
    held: tuple[tuple[int, int], ...]
    desired: tuple[tuple[int, int], ...]


def _ir_parts(market: Market, doctor: str, index: dict[str, int], below: list[int]) -> list[_Part]:
    """Every S within X_d with C_d(S) == S, distinct hospitals, every
    contract acceptable to its hospital, and C_d(B_d | S) == B_d for each
    part mask B_d in ``below``."""
    rank = market.hospital_rank
    facts: dict[int, tuple[int, int]] = {}  # hospital index and rank of each acceptable bit
    for x in market.doctor_contracts[doctor]:
        h = market.contract_by_id[x].hospital
        if x in rank[h]:
            facts[market.contract_bit[x][1]] = index[h], rank[h][x]
    parts = []
    for S in _one_per_group(facts, lambda b: facts[b][0], len(facts)):
        s = sum(S)
        if _choose(market, doctor, s) != s or below and any(
            _choose(market, doctor, b | s) != b for b in below
        ):
            continue
        best: dict[int, int] = {}
        for b, (h, r) in facts.items():
            if not s & b and _choose(market, doctor, s | b) & b:
                best[h] = min(best.get(h, r), r)
        held = tuple(map(facts.__getitem__, S))
        parts.append(_Part(_ids(market, doctor, s), held, tuple(best.items())))
    return parts


def _levels(market: Market, below=()) -> list[list[_Part]]:
    """The levels of the doctor-side searches: each doctor's IR parts, in
    sorted doctor id order, after the cap check.  Asserts the accounting
    identity on the contracts of all the parts."""
    _check_cap(market)
    index = {h.id: i for i, h in enumerate(market.hospitals)}
    below = [_parts(market, B) for B in below]
    levels = [
        _ir_parts(market, d, index, [B.get(d, 0) for B in below]) for d in sorted(market.doctor_by_id)
    ]
    _balanced(market, frozenset().union(*(p.contracts for parts in levels for p in parts)))
    return levels


def _diagram(market: Market, envy: bool, below=()) -> tuple[dict, tuple]:
    """The doctor search of the IR class, or with ``envy`` of the
    envy-free class, as a memoized diagram: a dict mapping each node key
    to its leaf count, stable leaf count and edges ``(part contracts,
    child key, opens)`` to children with a nonzero leaf count, and the root key.

    Doctors are fixed in sorted id order, each to one of its IR parts,
    and a part that would put a hospital above quota is skipped.  Parts
    that some allocation in ``below`` does not dominate are dropped, so
    the leaves are the members of the class below all of them.  Per
    hospital the search keeps the worst held rank and the best desired
    rank over the doctors fixed so far.  A desired rank better than a
    held rank is exactly a justified-envy witness, and fixing more
    doctors can only add witnesses, so the branch is cut.

    The frontier at a level is the hospitals that some part at that
    level or a later one holds or desires; the others are settled, and
    passed their envy test when last touched.  So the subtree below a
    node depends only on its level and the load, worst held rank and
    best desired rank of each frontier hospital (without ``envy``, the
    loads alone).  An edge opens when its part settles a hospital below
    quota and desired.  An envy-free leaf is stable exactly when no edge
    on its path opens: at quota, a blocking contract would beat the worst
    rank held there and so be a witness, with no choice axiom.  A node's
    stable count sums its children's over the edges that do not open.
    """
    levels = _levels(market, below)
    hospitals = market.hospitals
    quota = [h.quota for h in hospitals]
    none = max((len(h.ranking) for h in hospitals), default=0)  # beyond every rank
    frontier = [()]
    for parts in reversed(levels):
        touched = {h for p in parts for h, _ in p.held + p.desired}
        frontier.append(tuple(sorted(touched.union(frontier[-1]))))
    frontier.reverse()
    settling = [set(f).difference(g) for f, g in zip(frontier, frontier[1:])]
    memo: dict[tuple, tuple[int, int, list]] = {}

    def walk(level: int, load: list[int], worst: list[int], best: list[int]) -> tuple:
        if envy:
            key = (level, *[(load[h], worst[h], best[h]) for h in frontier[level]])
        else:  # no envy test: the loads decide
            key = (level, *[load[h] for h in frontier[level]])
        if key in memo:
            return key
        if level == len(levels):
            memo[key] = (1, 1, [])
            return key
        total, stable, edges = 0, 0, []
        for part in levels[level]:
            nload, nworst, nbest = load[:], worst[:], best[:]
            for h, r in part.held:
                nload[h] += 1
                nworst[h] = max(nworst[h], r)
            if any(nload[h] > quota[h] for h, _ in part.held):
                continue
            for h, r in part.desired:
                nbest[h] = min(nbest[h], r)
            if envy and any(map(lt, nbest, nworst)):
                continue
            child = walk(level + 1, nload, nworst, nbest)
            count, stable_count, _ = memo[child]
            if count:
                opens = envy and any(nload[h] < quota[h] and nbest[h] < none for h in settling[level])
                total += count
                stable += 0 if opens else stable_count
                edges.append((part.contracts, child, opens))
        memo[key] = (total, stable, edges)
        return key

    n = len(hospitals)
    try:
        return memo, walk(0, [0] * n, [-1] * n, [none] * n)
    except RecursionError:
        raise EnumerationCapError(
            f"enumeration search is {len(levels)} levels deep, past the recursion limit"
        ) from None


def _search(market: Market, kind: str, below=()) -> list[tuple[frozenset, bool]]:
    """The leaves of the ``kind`` class in ``_diagram``, each paired with
    whether it is stable, sorted by ``canon`` of the allocation.

    The walk follows only edges to children with a nonzero count of its
    class, so every branch it enters ends in a leaf; ``stable`` follows
    no opening edge.  A leaf is stable when no edge on its path opens;
    every ``ir`` leaf is flagged False, since its search runs no envy test.
    """
    envy, stable = kind != "ir", kind == "stable"
    memo, root = _diagram(market, envy, below)
    out: list[tuple[frozenset, bool]] = []
    stack = [(root, frozenset(), True)] if memo[root][stable] else []
    while stack:
        key, Y, clean = stack.pop()
        edges = memo[key][2]
        stack += [(child, Y | S, clean and not opens) for S, child, opens in edges
                  if not stable or not opens and memo[child][1]]
        if not edges:  # a leaf
            out.append((Y, envy and clean))
    out.sort(key=lambda leaf: canon(leaf[0]))
    return out


def enumerate_allocations(market: Market, kind: str = "allocation") -> list[frozenset]:
    """All allocations of the requested solution class, canonically sorted.

    ``allocation`` lists every allocation (``all_allocations``).  The
    other classes are the leaves of ``_diagram``, the doctor search in
    sorted id order: each doctor takes one of its IR parts, hospital
    loads are pruned against quota, and for ``envy-free`` and ``stable``
    a branch is cut as soon as two fixed doctors form a justified-envy
    witness.  The work then follows the size of the class returned, not
    the number of allocations.  Each search checks the contract-count
    cap before any work.
    """
    if kind not in CLASSES:
        raise MarketError(f"unknown class {kind!r}, expected one of {CLASSES}")
    if kind == "allocation":
        return all_allocations(market)
    return [Y for Y, _ in _search(market, kind)]


def count_allocations(market: Market, kind: str = "allocation") -> int:
    """The number of allocations of the requested class, without listing
    them: ``len(enumerate_allocations(market, kind))``, refused alike.

    ``allocation`` has a closed form.  Hospitals take their options
    independently, and a hospital whose contracts name doctors with
    n_1, n_2, ... contracts each has, summed over k up to its quota, the
    k-th elementary symmetric sum of the n_i as options (0 past the
    number of doctors).  The other classes read the leaf or the stable
    leaf count at the root of ``_diagram``.
    """
    if kind not in CLASSES:
        raise MarketError(f"unknown class {kind!r}, expected one of {CLASSES}")
    if kind != "allocation":
        memo, root = _diagram(market, kind != "ir")
        return memo[root][kind == "stable"]
    _check_cap(market)
    _balanced(market, frozenset(c.id for c in market.contracts))
    doctor_of = {c.id: c.doctor for c in market.contracts}
    total = 1
    for h in market.hospitals:
        per_doctor = Counter(map(doctor_of.get, market.hospital_contracts[h.id])).values()
        top = min(h.quota, len(per_doctor))  # elementary symmetric sums up to here
        sums = [1] + [0] * top
        for n in per_doctor:
            for k in range(top, 0, -1):
                sums[k] += sums[k - 1] * n
        total *= sum(sums)
    return total

