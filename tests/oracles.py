"""Brute-force reference implementations the fast code is tested against.

Everything here recomputes its answer from the raw definitions with the
dumbest correct method available.  None of it is fast and none of it
shares logic with the enumerators or checkers under test beyond the
choice evaluators themselves.
"""

from __future__ import annotations

import itertools
import math
import random

from envylattice import (
    HospitalSpec,
    InvariantViolation,
    Market,
    MarketError,
    NotAnAllocationError,
    TableDoctor,
    blair_dominates,
    canon,
    doctor_choose,
    enumerate_allocations,
    hospital_choose,
    is_allocation,
    is_envy_free,
    is_individually_rational,
    is_stable,
    join,
    restrict,
)
from envylattice import choice
from envylattice.choice import hospital_prefers
from envylattice.dynamics import TarskiStep, TarskiTrace, default_iteration_cap


def powerset_allocations(market: Market, kind: str) -> list[frozenset]:
    """Filter all 2^|X| contract subsets through the class predicates."""
    ids = sorted(c.id for c in market.contracts)
    out = []
    for r in range(len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            Y = frozenset(combo)
            if not is_allocation(market, Y):
                continue
            if kind == "allocation":
                out.append(Y)
                continue
            if not is_individually_rational(market, Y):
                continue
            if kind == "ir":
                out.append(Y)
                continue
            if not is_envy_free(market, Y):
                continue
            if kind == "envy-free":
                out.append(Y)
                continue
            if is_stable(market, Y):
                out.append(Y)
    return sorted(out, key=canon)


def allocation_count(market: Market) -> int:
    """The number of allocations, in closed form.

    A hospital signs at most one contract per doctor and at most quota
    contracts, independently of the other hospitals.  With n_1, n_2, ...
    contracts to each of its doctors it has the sum over k <= quota of
    the k-th elementary symmetric sums of the n_i as options, and the
    count is the product of these sums over the hospitals.
    """
    total = 1
    for h in market.hospitals:
        doctors = [c.doctor for c in market.contracts if c.hospital == h.id]
        counts = [doctors.count(d) for d in set(doctors)]
        total *= sum(
            math.prod(combo)
            for k in range(h.quota + 1)
            for combo in itertools.combinations(counts, k)
        )
    return total


def sorted_allocation_violations(market: Market, Y) -> list[str]:
    """The allocation-axiom violations of Y by one pass over its ids in
    sorted order: the doctor-hospital pairs signed more than once, then
    the hospitals above quota, each group sorted by its ids."""
    by_pair: dict[tuple[str, str], list[str]] = {}
    by_hospital: dict[str, int] = {}
    for x in sorted(Y):
        c = market.contract_by_id[x]
        by_pair.setdefault((c.doctor, c.hospital), []).append(x)
        by_hospital[c.hospital] = by_hospital.get(c.hospital, 0) + 1
    out = []
    for (d, h), ids in sorted(by_pair.items()):
        if len(ids) > 1:
            out.append(
                f"doctor {d} and hospital {h} are paired by "
                f"{len(ids)} contracts: {', '.join(ids)}"
            )
    for h, n in sorted(by_hospital.items()):
        q = market.hospital_by_id[h].quota
        if n > q:
            out.append(f"hospital {h} holds {n} contracts, quota {q}")
    return out


def brute_dominance(market: Market, nodes) -> list[list[bool]]:
    """matrix[i][j]: every doctor, offered both parts, keeps nodes[i]'s."""
    return [
        [
            i == j
            or all(
                doctor_choose(market, d, a | b) == a & market.doctor_contracts[d]
                for d in market.doctor_contracts
            )
            for j, b in enumerate(nodes)
        ]
        for i, a in enumerate(nodes)
    ]


def triple_loop_covers(dom) -> list[tuple[int, int]]:
    """(lower, upper) pairs with nothing strictly between, by trying every k."""
    n = len(dom)
    return [
        (lo, hi)
        for lo in range(n)
        for hi in range(n)
        if hi != lo
        and dom[hi][lo]
        and not any(k not in (lo, hi) and dom[hi][k] and dom[k][lo] for k in range(n))
    ]


def extensional_meet(market: Market, Y, Yp, envy_free) -> frozenset:
    """The meet as the join of every common lower bound in ``envy_free``,
    each bound asked of the checked ``blair_dominates``."""
    Y = frozenset(Y)
    Yp = frozenset(Yp)
    members = {frozenset(Z) for Z in envy_free}
    for name, Z in (("left", Y), ("right", Yp)):
        if Z not in members:
            raise MarketError(
                f"{name} allocation {canon(Z)} is not in the supplied envy-free set"
            )
    lower = [
        Z
        for Z in sorted(members, key=canon)
        if blair_dominates(market, Y, Z) and blair_dominates(market, Yp, Z)
    ]
    if not lower:
        raise MarketError("supplied envy-free set has no common lower bound; is it complete?")
    glb = lower[0]
    for Z in lower[1:]:
        glb = join(market, glb, Z)
    if not (blair_dominates(market, Y, glb) and blair_dominates(market, Yp, glb)):
        raise InvariantViolation(
            "join of the common lower bounds is not itself a lower bound; "
            "the supplied set is not a complete envy-free enumeration"
        )
    return glb


def scan_optima(market: Market) -> tuple:
    """(doctor-optimal, hospital-optimal) stable allocations by comparing
    every pair of stable allocations with ``blair_dominates``; None where
    no stable allocation is Blair-greatest (or least)."""
    stable = enumerate_allocations(market, "stable")
    if not stable:
        raise InvariantViolation("stable set is empty; the market violates the choice axioms")
    top = [Y for Y in stable if all(blair_dominates(market, Y, Z) for Z in stable)]
    bottom = [Y for Y in stable if all(blair_dominates(market, Z, Y) for Z in stable)]
    return (top[0] if top else None), (bottom[0] if bottom else None)


def doctor_choice_oracle(market: Market, doctor: str, offered) -> frozenset:
    """Best feasible subset under the padded rank-vector order.

    Feasible means: acceptable contracts only, pairwise distinct
    hospitals, at most quota many.  Subsets compare by their sorted rank
    positions padded with a sentinel, so fewer high-ranked contracts beat
    more low-ranked ones exactly the way single-contract swaps dictate.
    A table doctor's rule is its table: the row of the offer.
    """
    rule = market.doctor_by_id[doctor].choice
    if isinstance(rule, TableDoctor):
        own = frozenset(offered) & market.doctor_contracts[doctor]
        return rule.table[own] if own else frozenset()
    rank = {cid: i for i, cid in enumerate(rule.ranking)}
    usable = sorted(c for c in frozenset(offered) & market.doctor_contracts[doctor] if c in rank)
    pad = len(rank)
    best, best_key = frozenset(), (pad,) * rule.quota
    for r in range(1, min(rule.quota, len(usable)) + 1):
        for combo in itertools.combinations(usable, r):
            hospitals = [market.contract_by_id[c].hospital for c in combo]
            if len(set(hospitals)) != len(hospitals):
                continue
            key = tuple(sorted(rank[c] for c in combo)) + (pad,) * (rule.quota - r)
            if key < best_key:
                best, best_key = frozenset(combo), key
    return best


def hospital_choice_oracle(market: Market, hospital: str, offered) -> frozenset:
    """Same padded rank-vector argmax, without the distinct-hospital rule."""
    spec = market.hospital_by_id[hospital]
    rank = {cid: i for i, cid in enumerate(spec.ranking)}
    usable = sorted(c for c in frozenset(offered) & market.hospital_contracts[hospital] if c in rank)
    pad = len(rank)
    best, best_key = frozenset(), (pad,) * spec.quota
    for r in range(1, min(spec.quota, len(usable)) + 1):
        for combo in itertools.combinations(usable, r):
            key = tuple(sorted(rank[c] for c in combo)) + (pad,) * (spec.quota - r)
            if key < best_key:
                best, best_key = frozenset(combo), key
    return best


def brute_ir(market: Market, Y) -> bool:
    """Every agent, asked to choose from its own part of Y, keeps it all."""
    return all(
        doctor_choose(market, d, restrict(market, Y, d)) == restrict(market, Y, d)
        for d in market.doctor_by_id
    ) and all(
        hospital_choose(market, h, restrict(market, Y, h)) == restrict(market, Y, h)
        for h in market.hospital_by_id
    )


def brute_blocking(market: Market, Y) -> frozenset:
    """Unsigned contracts both sides would take, each side asked directly."""
    Y = frozenset(Y)
    out = set()
    for c in market.contracts:
        if c.id in Y:
            continue
        yd = restrict(market, Y, c.doctor)
        yh = restrict(market, Y, c.hospital)
        if c.id not in doctor_choose(market, c.doctor, yd | {c.id}):
            continue
        if c.id in hospital_choose(market, c.hospital, yh | {c.id}):
            out.add(c.id)
    return frozenset(out)


def brute_envy(market: Market, Y) -> list[tuple[str, str, str, str, str]]:
    """All justified-envy instances as (envious, envied, held, desired, hospital)."""
    Y = frozenset(Y)
    out = []
    for desired in market.contracts:
        if desired.id in Y:
            continue
        for held_id in sorted(Y):
            held = market.contract_by_id[held_id]
            if held.hospital != desired.hospital:
                continue
            if not hospital_prefers(market, desired.hospital, desired.id, held.id):
                continue
            yd = restrict(market, Y, desired.doctor)
            if desired.id in doctor_choose(market, desired.doctor, yd | {desired.id}):
                out.append((desired.doctor, held.doctor, held_id, desired.id, desired.hospital))
    return sorted(out, key=lambda w: (w[4], w[2], w[3], w[0]))


def subsets_of(ids) -> list[frozenset]:
    ids = sorted(ids)
    return [
        frozenset(combo)
        for r in range(len(ids) + 1)
        for combo in itertools.combinations(ids, r)
    ]


def naive_axiom_verdict(market: Market, doctor: str, prop: str) -> bool:
    """Replay one choice axiom with both quantifiers fully expanded."""
    table = {S: doctor_choose(market, doctor, S) for S in subsets_of(market.doctor_contracts[doctor])}
    if prop == "distinct-hospitals":
        for S, C in table.items():
            if not C <= S:
                return False
            hospitals = [market.contract_by_id[c].hospital for c in C]
            if len(hospitals) != len(set(hospitals)):
                return False
        return True
    if prop == "substitutability":
        for S, C in table.items():
            for T in table:
                if T <= S and not (C & T) <= table[T]:
                    return False
        return True
    if prop == "consistency":
        for S, C in table.items():
            for T in table:
                if C <= T <= S and table[T] != C:
                    return False
        return True
    if prop == "path-independence":
        for A in table:
            for B in table:
                if table[A | B] != table[table[A] | B]:
                    return False
        return True
    if prop == "lad":
        for S, C in table.items():
            for T in table:
                if T <= S and len(table[T]) > len(C):
                    return False
        return True
    raise ValueError(prop)


def first_witness_oracle(market: Market, doctor: str, prop: str) -> tuple:
    """Replay one axiom with plain nested loops, in the checkers' order.

    Subsets of X_d are numbered by bitmasks over the sorted contract ids.
    The single-removal properties visit every subset in ascending order
    (the seeded sample above ``choice.SUBSET_CAP``), then remove one
    contract at a time in ascending order.  Path independence visits the
    pairs (A, B) with A major (the seeded sampled pairs above
    ``choice.PAIR_CAP``).  The constants are read at call time, so a
    patch on ``envylattice.choice`` reaches both this and the checkers.
    Returns (passed, sampled, witness) with the witness as its (subsets,
    choices) id tuples, or None.
    """
    contracts = sorted(market.doctor_contracts[doctor])
    n = len(contracts)

    def subset(mask: int) -> frozenset:
        return frozenset(c for i, c in enumerate(contracts) if mask >> i & 1)

    def choose(S: frozenset) -> frozenset:
        return doctor_choose(market, doctor, S)

    def witness(*sets):
        return (tuple(canon(S) for S in sets), tuple(canon(choose(S)) for S in sets))

    if prop == "path-independence":
        sampled = n > choice.PAIR_CAP
        if sampled:
            rng = random.Random(f"axiom-check-pairs:{doctor}:{n}")
            pairs = [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(choice.SAMPLES)]
        else:
            pairs = [(a, b) for a in range(2**n) for b in range(2**n)]
        for a, b in pairs:
            A, B = subset(a), subset(b)
            if choose(A | B) != choose(choose(A) | B):
                return False, sampled, witness(A, B)
        return True, sampled, None

    sampled = n > choice.SUBSET_CAP
    if sampled:
        rng = random.Random(f"axiom-check:{doctor}:{n}")
        masks = {0, 2**n - 1}
        while len(masks) < min(choice.SAMPLES, 2**n):
            masks.add(rng.getrandbits(n))
        masks = sorted(masks)
    else:
        masks = range(2**n)
    for mask in masks:
        S = subset(mask)
        C = choose(S)
        if prop == "distinct-hospitals":
            hospitals = [market.contract_by_id[c].hospital for c in C]
            if not C <= S or len(hospitals) != len(set(hospitals)):
                return False, sampled, witness(S)
            continue
        for x in sorted(S):
            T = S - {x}
            if prop == "substitutability" and not (C & T) <= choose(T):
                return False, sampled, witness(S, T)
            if prop == "consistency" and x not in C and choose(T) != C:
                return False, sampled, witness(S, T)
            if prop == "lad" and len(choose(T)) > len(C):
                return False, sampled, witness(S, T)
    return True, sampled, None



def _brute_envy_free(market: Market, Y: frozenset) -> bool:
    return brute_ir(market, Y) and not brute_envy(market, Y)


def stepwise_round(market: Market, Y: frozenset) -> frozenset:
    """One adjustment round from the definitions, on an envy-free Y.

    Every doctor, starred or not, chooses from their part plus their
    stars.  The image must be an allocation, envy-free, and above Y in
    the Blair order, with each condition asked of its brute-force twin.
    """
    starred = brute_starred(market, Y)
    out = frozenset().union(*(
        doctor_choose(market, d, Y | (starred & own))
        for d, own in market.doctor_contracts.items()
    ))
    if not is_allocation(market, out):
        raise InvariantViolation(f"round produced a non-allocation {canon(out)}")
    if not _brute_envy_free(market, out):
        raise InvariantViolation(f"round left the envy-free set at {canon(Y)}")
    if not brute_dominance(market, [out, Y])[0][1]:
        raise InvariantViolation(f"round moved doctors down the Blair order at {canon(Y)}")
    return out


def brute_starred(market: Market, Y) -> frozenset:
    """Each hospital's best-ranked contract among the brute blocking set."""
    blocking = brute_blocking(market, Y)
    return frozenset(
        min(mine, key=market.hospital_rank[h].__getitem__)
        for h, pool in market.hospital_contracts.items()
        if (mine := blocking & pool)
    )


def stepwise_trace(market: Market, Y, cap: int | None = None) -> TarskiTrace:
    """The Tarski walk one round at a time, each state described afresh.

    Every visited state has its blocking and starred sets recomputed
    from the definitions, and the walk stops on the first state with no
    blocking contract, which must then be IR.
    """

    def describe(Y: frozenset) -> TarskiStep:
        starred = brute_starred(market, Y)
        per_doctor = {}
        for d in sorted(market.doctor_contracts):
            gained = starred & market.doctor_contracts[d]
            if gained:
                per_doctor[d] = gained
        return TarskiStep(
            allocation=Y, blocking=brute_blocking(market, Y), starred=starred,
            per_doctor=per_doctor,
        )

    Y = frozenset(Y)
    if not is_allocation(market, Y):
        raise NotAnAllocationError(f"not an allocation: {canon(Y)}")
    if not _brute_envy_free(market, Y):
        raise MarketError(f"allocation {canon(Y)} is not envy-free")
    if cap is None:
        cap = default_iteration_cap(market)
    steps = [describe(Y)]
    while steps[-1].blocking:
        if len(steps) > cap:
            raise InvariantViolation(f"no fixed point within {cap} iterations")
        Y = stepwise_round(market, Y)
        steps.append(describe(Y))
    if not brute_ir(market, Y):
        raise InvariantViolation("iteration stopped on a non-stable allocation")
    return TarskiTrace(steps=tuple(steps), fixed_point=Y, iterations=len(steps) - 1)


def filtered_market(market: Market, retiring) -> Market:
    """A fresh market without the retiring doctors and their contracts:
    the parent's tuples filtered in order, every hospital's ranking
    without the dropped contracts.  Refuses an unknown doctor id."""
    unknown = sorted(set(retiring) - market.doctor_by_id.keys())
    if unknown:
        raise MarketError(f"unknown doctor ids: {unknown}")
    dead = {c.id for c in market.contracts if c.doctor in retiring}
    return Market(
        doctors=tuple(d for d in market.doctors if d.id not in retiring),
        hospitals=tuple(
            HospitalSpec(id=h.id, quota=h.quota, ranking=tuple(x for x in h.ranking if x not in dead))
            for h in market.hospitals
        ),
        contracts=tuple(c for c in market.contracts if c.id not in dead),
    )


def stepwise_vacancy(market: Market, event, cap: int | None = None) -> tuple[Market, TarskiTrace]:
    """A vacancy chain: the stable check, the reduced market (a fresh
    ``filtered_market``, not ``reduce_market``), the survivors' envy
    check, then ``stepwise_trace``."""
    if not event.retiring:
        raise MarketError("retiring set must be nonempty")
    before = frozenset(event.before)
    if not is_allocation(market, before):
        raise NotAnAllocationError(f"not an allocation: {canon(before)}")
    if not brute_ir(market, before) or brute_blocking(market, before):
        raise MarketError(f"allocation {canon(before)} is not stable in this market")
    reduced = filtered_market(market, event.retiring)
    surviving = frozenset(
        x for x in before if market.contract_by_id[x].doctor not in event.retiring
    )
    if not _brute_envy_free(reduced, surviving):
        raise InvariantViolation("surviving allocation is not envy-free in the reduced market")
    return reduced, stepwise_trace(reduced, surviving, cap)
