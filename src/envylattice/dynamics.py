"""Re-equilibration dynamics on the envy-free set.

One adjustment round starting from an envy-free allocation Y: collect
the blocking contracts of Y, keep only each hospital's best one (the
starred set), hand every doctor their starred contracts on top of Y,
and let them re-choose.  The round maps envy-free allocations to
envy-free allocations, never moves a doctor down the Blair order, and
its fixed points are exactly the stable allocations, so iterating from
any envy-free start walks up to a stable outcome.  Both facts are
asserted on every computed step; their failure means the market
violates the choice axioms and is reported loudly.

The walk checks its start once: an allocation, IR, and no justified
envy by its blocking set.  Each round takes the starred set from the
blocking set in hand, lets the doctors with stars re-choose (IR keeps
every other doctor's part), and re-reads only what moved.  The image's
blocking set stays exact and gives the envy-free assertion, the next
step of the trace and the stop test.  The walk stops on the
first state with an empty blocking set, and that state passed the
envy-free assertion, so it is stable with no further check.
``tarski_step`` and ``star_blocking`` check their input once and run
the same round.

The vacancy-chain operation applies this to retirements: deleting some
doctors (and all their contracts) from a market leaves the surviving
part of any stable allocation envy-free in the reduced market, and the
iteration re-stabilizes it; only the hospitals that lost a retiree's
contract are read for the survivors' blocking set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .choice import _choose, _ids, _parts, hospital_prefers
from .classify import (
    _blocking,
    _envious,
    _ir,
    _require_envy_free,
    _witnesses,
    enumerate_allocations,
)
from .lattice import _extremum, _stable_extremes, choice_join
from .model import (
    HospitalSpec,
    InvariantViolation,
    Market,
    MarketError,
    allocation_violations,
    canon,
    require_allocation,
)
from .validate import validate_market


@dataclass(frozen=True)
class TarskiStep:
    """State before one application: the allocation and its blocking data.

    ``per_doctor`` maps each doctor with starred contracts to them; the
    final step of a trace has all three collections empty.
    """

    allocation: frozenset
    blocking: frozenset
    starred: frozenset
    per_doctor: dict[str, frozenset]


@dataclass(frozen=True)
class TarskiTrace:
    steps: tuple[TarskiStep, ...]
    fixed_point: frozenset
    iterations: int


def _step(market: Market, Y: frozenset, blocking: frozenset) -> TarskiStep:
    """Y with its blocking set, each hospital's best blocking contract
    (the starred set, its ranking decides) and the stars of each doctor."""
    best: dict[str, str] = {}
    for x in blocking:
        h = market.contract_by_id[x].hospital
        if h not in best or hospital_prefers(market, h, x, best[h]):
            best[h] = x
    per_doctor: dict[str, set] = {}
    for x in best.values():
        per_doctor.setdefault(market.contract_by_id[x].doctor, set()).add(x)
    return TarskiStep(
        allocation=Y, blocking=blocking, starred=frozenset(best.values()),
        per_doctor={d: frozenset(per_doctor[d]) for d in sorted(per_doctor)},
    )


def _apply(market: Market, step: TarskiStep) -> tuple[frozenset, frozenset]:
    """One adjustment round from the envy-free ``step.allocation``.

    Each doctor with stars re-chooses from their part plus the stars;
    every other doctor keeps their part, which IR makes their choice.
    Returns the image and its blocking set after asserting both
    theorems on it.  An image that is not an allocation breaks them
    too, and is an InvariantViolation.

    Whether x blocks depends only on its doctor's part and its
    hospital's holdings, so only the hospitals where a moved doctor
    (one whose part changed) has a contract are read again.  The checks
    are exact at the moved doctors alone: the allocation axioms at their
    pairs and at the hospitals that gained a contract; IR and the Blair
    assertion, the join closed form choice_join(T(Y), Y) == T(Y), per
    moved doctor (each held contract was held at Y or is starred, so it
    is acceptable); and Y has no justified envy, so a witness of the
    image is among the blocking contracts read again.
    """
    Y = step.allocation
    contract = market.contract_by_id
    parts = _parts(market, Y)
    moved: dict[str, tuple[int, int]] = {}  # doctor -> (own, new) part masks
    for d, gained in step.per_doctor.items():
        own = parts.get(d, 0)
        new = _choose(market, d, own | _parts(market, gained)[d])
        if new != own:
            moved[d] = own, new
    dropped = [_ids(market, d, own) for d, (own, _) in moved.items()]
    added = [_ids(market, d, new) for d, (_, new) in moved.items()]
    out = Y.difference(*dropped).union(*added)
    if any(len({contract[x].hospital for x in new}) < len(new) for new in added) or any(
        len(out & market.hospital_contracts[h]) > market.hospital_by_id[h].quota
        for h in {contract[x].hospital for x in out - Y}
    ):
        raise InvariantViolation(
            f"adjustment round produced a non-allocation at {canon(Y)}: "
            + "; ".join(allocation_violations(market, out))
        )
    touched = {contract[x].hospital for d in moved for x in market.doctor_contracts[d]}
    fresh = _blocking(market, out, touched)
    if any(_choose(market, d, new) != new for d, (_, new) in moved.items()) or _envious(
        market, out, fresh
    ):
        raise InvariantViolation(
            f"adjustment round left the envy-free set at {canon(Y)} -> {canon(out)}"
        )
    if any(_choose(market, d, own | new) != new for d, (own, new) in moved.items()):
        raise InvariantViolation(
            f"adjustment round moved doctors down the Blair order at {canon(Y)}"
        )
    return out, fresh.union(x for x in step.blocking if contract[x].hospital not in touched)


def star_blocking(market: Market, Y) -> frozenset:
    """Each hospital's best blocking contract at Y (its ranking decides)."""
    return _step(market, *_require_envy_free(market, Y)).starred


def tarski_step(market: Market, Y) -> frozenset:
    """One adjustment round.  Requires and returns an envy-free allocation."""
    return _apply(market, _step(market, *_require_envy_free(market, Y)))[0]


def default_iteration_cap(market: Market) -> int:
    # Each round strictly improves some doctor; |X| * |D| + 1 rounds is a
    # generous bound on any monotone walk through the envy-free set.
    return len(market.contracts) * max(len(market.doctors), 1) + 1


def tarski_fixed_point(market: Market, Y) -> TarskiTrace:
    """Iterate adjustment rounds from Y until stable.

    The trace records every visited allocation including the fixed
    point; ``iterations`` counts the applications.  Exceeding
    ``default_iteration_cap`` rounds is a hard fault: on an
    axiom-satisfying market the walk provably terminates well inside it.
    """
    return _walk(market, *_require_envy_free(market, Y))


def _walk(market: Market, Y: frozenset, blocking: frozenset) -> TarskiTrace:
    # The walk from the envy-free Y with blocking set ``blocking``.
    cap = default_iteration_cap(market)
    steps = [_step(market, Y, blocking)]
    while steps[-1].blocking:
        if len(steps) > cap:
            raise InvariantViolation(
                f"no fixed point within {cap} iterations; the market "
                "violates the choice axioms"
            )
        Y, blocking = _apply(market, steps[-1])
        steps.append(_step(market, Y, blocking))
    return TarskiTrace(steps=tuple(steps), fixed_point=Y, iterations=len(steps) - 1)


@dataclass(frozen=True)
class RetirementEvent:
    retiring: frozenset  # doctor ids
    before: frozenset  # stable allocation in the full market


def reduce_market(market: Market, retiring) -> Market:
    """The market without the retiring doctors and all their contracts.

    Its indexes are the parent's with the retirees and their contracts
    deleted.  A hospital that lost no contract keeps its spec and rank
    dict: a validated ranking names only the hospital's own contracts.
    The reduced market shares the parent's choice memo and its bit index
    ``contract_bit``.  Every survivor keeps their rule and X_d, so each
    key (d, mask) means the same in both, and ``doctor_choose`` refuses
    a retiree before it reads the memo.
    """
    retiring = frozenset(retiring)
    unknown = sorted(r for r in retiring if r not in market.doctor_by_id)
    if unknown:
        raise MarketError(f"unknown doctor ids: {unknown}")
    dead = frozenset().union(*(market.doctor_contracts[r] for r in retiring))
    lost = {market.contract_by_id[x].hospital for x in dead}
    changed = {
        h.id: HospitalSpec(
            id=h.id, quota=h.quota, ranking=tuple(x for x in h.ranking if x not in dead)
        )
        for h in market.hospitals if h.id in lost
    }
    reduced = Market(
        doctors=tuple(d for d in market.doctors if d.id not in retiring),
        hospitals=tuple(changed.get(h.id, h) for h in market.hospitals),
        contracts=tuple(c for c in market.contracts if c.id not in dead),
    )
    vars(reduced).update(
        contract_by_id=_without(market.contract_by_id, dead),
        doctor_by_id=_without(market.doctor_by_id, retiring),
        doctor_contracts=_without(market.doctor_contracts, retiring),
        hospital_by_id={**market.hospital_by_id, **changed},
        hospital_contracts={
            **market.hospital_contracts,
            **{h: market.hospital_contracts[h] - dead for h in changed},
        },
        hospital_rank={
            **market.hospital_rank,
            **{h: {x: i for i, x in enumerate(spec.ranking)} for h, spec in changed.items()},
        },
        contract_bit=market.contract_bit,
        _choice_cache=market._choice_cache,
    )
    return reduced


def _without(index: dict, keys) -> dict:
    out = dict(index)
    for key in keys:
        del out[key]
    return out


def vacancy_chain(market: Market, event: RetirementEvent) -> tuple[Market, TarskiTrace]:
    """Re-stabilize after retirements.

    Checks that ``event.before`` is stable, builds the reduced market,
    keeps the surviving part of the allocation, asserts it is envy-free
    there (anything else disproves the model and is raised with the
    witnesses attached, never repaired), and iterates to a fixed point.
    The survivors keep their parts, so they stay IR, and ``before`` is
    stable, so a contract can block the survivors only at a hospital
    that lost a retiree's contract; only those hospitals are read.
    """
    if not event.retiring:
        raise MarketError("retiring set must be nonempty")
    before = require_allocation(market, event.before)
    if not _ir(market, before) or _blocking(market, before):
        raise MarketError(f"allocation {canon(before)} is not stable in this market")
    reduced = reduce_market(market, event.retiring)
    retired = frozenset().union(*(before & market.doctor_contracts[r] for r in event.retiring))
    surviving = before - retired
    blocking = _blocking(reduced, surviving, {market.contract_by_id[x].hospital for x in retired})
    if _envious(reduced, surviving, blocking):
        raise InvariantViolation(
            "surviving allocation is not envy-free in the reduced market; "
            f"restriction={canon(surviving)} witnesses={_witnesses(reduced, surviving, blocking)}"
        )
    return reduced, _walk(reduced, surviving, blocking)


@dataclass(frozen=True)
class CheckVerdict:
    holds: bool
    detail: dict


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of the aggregate-demand consequence checks at one start Y.

    When some doctor fails the law of aggregate demand the consequences
    are not guaranteed; ``applicable`` is False and the verdicts record
    the observed behavior descriptively rather than as failures.
    """

    applicable: bool
    lad_failures: tuple[str, ...]
    checks: dict[str, CheckVerdict]


def verify_lad_predictions(market: Market, Y) -> TheoremReport:
    """Check the consequences of the law of aggregate demand at Y.

    After the envy-free check of Y the stable set is enumerated, so a
    market above the cap is refused before any other work; it gives the
    hospital-optimal allocation.  The doctors failing the law of
    aggregate demand are the failed ``lad`` entries of
    ``validate_market``, so none on a market that fails its structural
    pass.  The walk from Y runs under ``default_iteration_cap``.

    * fixed_point_equals_join: iterating from the envy-free Y lands on
      join(Y, hospital-optimal stable allocation);
    * dominating_envy_free_is_stable: if Y dominates the
      hospital-optimal stable allocation then Y is stable;
    * envy_free_never_exceeds_stable_counts: no doctor signs more at the
      envy-free Y than at any stable allocation;
    * stable_counts_constant: every agent signs the same number of
      contracts in every stable allocation.
    """
    Y, blocking = _require_envy_free(market, Y)
    stable = enumerate_allocations(market, "stable")
    lad_failures = tuple(
        e.agent for e in validate_market(market).entries if e.prop == "lad" and not e.passed
    )
    y_hosp = _extremum(_stable_extremes(market, stable)[1])
    trace = _walk(market, Y, blocking)
    joined = choice_join(market, Y, y_hosp)

    checks: dict[str, CheckVerdict] = {}
    checks["fixed_point_equals_join"] = CheckVerdict(
        holds=trace.fixed_point == joined,
        detail={
            "fixed_point": list(canon(trace.fixed_point)),
            "join_with_hospital_optimal": list(canon(joined)),
            "iterations": trace.iterations,
        },
    )
    dominates = joined == Y
    y_stable = not blocking  # Y is envy-free, so IR
    checks["dominating_envy_free_is_stable"] = CheckVerdict(
        holds=(not dominates) or y_stable,
        detail={"dominates_hospital_optimal": dominates, "is_stable": y_stable},
    )
    size_violations = []
    for Z in stable:
        for d in sorted(market.doctor_contracts):
            mine = len(Y & market.doctor_contracts[d])
            theirs = len(Z & market.doctor_contracts[d])
            if mine > theirs:
                size_violations.append(
                    {"doctor": d, "envy_free_count": mine, "stable_count": theirs,
                     "stable_allocation": list(canon(Z))}
                )
    checks["envy_free_never_exceeds_stable_counts"] = CheckVerdict(
        holds=not size_violations, detail={"violations": size_violations}
    )
    count_violations = []
    pools = [
        (agent, market.doctor_contracts[agent])
        for agent in sorted(market.doctor_contracts)
    ] + [
        (agent, market.hospital_contracts[agent])
        for agent in sorted(market.hospital_contracts)
    ]
    for agent, pool in pools:
        counts = sorted({len(Z & pool) for Z in stable})
        if len(counts) > 1:
            count_violations.append({"agent": agent, "counts": counts})
    checks["stable_counts_constant"] = CheckVerdict(
        holds=not count_violations, detail={"violations": count_violations}
    )
    return TheoremReport(
        applicable=not lad_failures, lad_failures=lad_failures, checks=checks
    )
