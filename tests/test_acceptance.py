"""Acceptance gate: six end-to-end criteria, one pass/fail line each.

Each test prints ``ACCEPTANCE n (<name>): PASS`` or ``FAIL`` on the
real stdout (visible even under pytest capture) and then asserts that
no problems were collected, so a red criterion names every violation.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

from conftest import (
    DOCTOR_OPT,
    EF_LOW,
    EF_MIDDLE,
    HOSPITAL_OPT,
    LATTICE_PATH,
    LD_JOIN_LEFT,
    LD_JOIN_RIGHT,
    LD_JOIN_VALUE,
    NO_LAD_PATH,
)
from oracles import powerset_allocations
from envylattice import (
    GenParams,
    RetirementEvent,
    blair_dominates,
    blocking_contracts,
    check_consistency,
    check_lad,
    check_substitutable,
    classify,
    contract_count_balance,
    doctor_optimal,
    dominance_matrix,
    enumerate_allocations,
    generate_responsive_market,
    hasse,
    hospital_optimal,
    join,
    meet,
    parse_market,
    reconcile,
    reference_from_doc,
    restrict,
    star_blocking,
    tarski_fixed_point,
    tarski_step,
    vacancy_chain,
)
from envylattice.dynamics import default_iteration_cap


def _announce(capsys, number: int, name: str, problems: list[str]) -> None:
    status = "FAIL" if problems else "PASS"
    with capsys.disabled():
        print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not problems, "\n".join([f"{len(problems)} problem(s):"] + problems[:25])


def _check(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def suite_params(i: int) -> GenParams:
    shape = random.Random(f"acceptance-shape:{i}")
    return GenParams(
        doctors=shape.randint(1, 3),
        hospitals=shape.randint(1, 3),
        contracts=shape.randint(3, 10),
        doctor_quota=(1, shape.randint(1, 2)),
        hospital_quota=(1, shape.randint(1, 3)),
        acceptability=shape.choice([0.7, 0.85, 1.0]),
        seed=1000 + i,
    )


SUITE_SIZE = 220


@pytest.fixture(scope="module")
def suite_markets():
    return [generate_responsive_market(suite_params(i)) for i in range(SUITE_SIZE)]


def test_criterion_1_golden_reproduction(capsys, no_lad):
    problems: list[str] = []
    Y, Yp = EF_MIDDLE, EF_LOW

    for name, alloc in (("Y", Y), ("Y'", Yp)):
        report = classify(no_lad, alloc)
        _check(problems, report.is_envy_free, f"{name} should be envy-free")
        _check(problems, not report.is_stable, f"{name} should not be stable")
    _check(problems, blocking_contracts(no_lad, Y) == frozenset({"x12"}),
           "blocking(Y) != {x12}")
    _check(problems, blocking_contracts(no_lad, Yp) == frozenset({"x13", "x23"}),
           "blocking(Y') != {x13, x23}")

    stable = enumerate_allocations(no_lad, "stable")
    _check(problems, set(stable) == {DOCTOR_OPT, HOSPITAL_OPT},
           f"stable set is {sorted(sorted(s) for s in stable)}")
    _check(problems, doctor_optimal(no_lad) == DOCTOR_OPT, "doctor-optimal wrong")
    _check(problems, hospital_optimal(no_lad) == HOSPITAL_OPT, "hospital-optimal wrong")

    chain = [DOCTOR_OPT, Y, HOSPITAL_OPT, Yp]
    for hi, lo in zip(chain, chain[1:]):
        _check(problems, blair_dominates(no_lad, hi, lo),
               f"chain link broken: {sorted(hi)} should dominate {sorted(lo)}")
        _check(problems, not blair_dominates(no_lad, lo, hi),
               f"chain link not strict: {sorted(lo)} vs {sorted(hi)}")

    _check(problems, join(no_lad, Y, HOSPITAL_OPT) == Y, "join(Y, Y^H) != Y")
    fixed = tarski_fixed_point(no_lad, Y).fixed_point
    _check(problems, fixed == DOCTOR_OPT, "fixed point from Y is not Y^D")
    _check(problems, fixed != join(no_lad, Y, HOSPITAL_OPT),
           "fixed point from Y unexpectedly equals join(Y, Y^H)")

    lad = check_lad(no_lad, "d2")
    _check(problems, not lad.passed, "d2 should fail the aggregate-demand check")
    if lad.witness is not None:
        big, small = lad.witness.subsets
        chose_big, chose_small = lad.witness.choices
        _check(problems, set(small) < set(big), "LAD witness subsets not nested")
        _check(problems, (len(chose_big), len(chose_small)) == (1, 2),
               f"LAD witness sizes {len(chose_big)} vs {len(chose_small)}, wanted 1 vs 2")
    else:
        problems.append("d2 LAD failure carries no witness")
    _check(problems, check_lad(no_lad, "d1").passed, "d1 should pass aggregate demand")

    _announce(capsys, 1, "golden reproduction", problems)


def test_criterion_2_reconciliation(capsys):
    problems: list[str] = []
    raw = LATTICE_PATH.read_bytes()
    market = parse_market(raw)

    for doctor in market.doctors:
        for checker, label in ((check_substitutable, "substitutability"),
                               (check_consistency, "consistency")):
            outcome = checker(market, doctor.id)
            _check(problems, outcome.passed, f"{doctor.id} fails {label}")

    _check(problems, join(market, LD_JOIN_LEFT, LD_JOIN_RIGHT) == LD_JOIN_VALUE,
           "documented join value not reproduced")

    reference = reference_from_doc(json.loads(raw), market)
    _check(problems, reference is not None, "bundled reference block missing")
    report = reconcile(market, reference, hasse(market))
    _check(problems, len(report.rows) > 0, "reconciliation produced no rows")

    witness_kinds = {
        "not-an-allocation", "not-individually-rational",
        "justified-envy", "blocking-contracts",
    }
    contract_ids = {c.id for c in market.contracts}
    for row in report.mismatches:
        is_node_claim = row.claim.startswith(("envy-free {", "stable {"))
        if is_node_claim:
            _check(problems, len(row.witnesses) > 0,
                   f"mismatch lacks a definition witness: {row.claim}")
            for witness in row.witnesses:
                _check(problems, witness.get("kind") in witness_kinds,
                       f"unknown witness kind in {row.claim}: {witness}")
                named = [v for k, v in witness.items()
                         if k in ("held", "desired", "contract") and isinstance(v, str)]
                for cid in named:
                    _check(problems, cid in contract_ids,
                           f"witness in {row.claim} names unknown contract {cid}")
        else:
            # count/cover/unlisted rows itemize through the computed column
            _check(problems, row.computed is not None,
                   f"mismatch row has nothing computed: {row.claim}")

    _announce(capsys, 2, "documented-example reconciliation", problems)


def test_criterion_3_theorem_property_suite(capsys, suite_markets):
    problems: list[str] = []
    assert len(suite_markets) >= 200

    for mi, market in enumerate(suite_markets):
        tag = f"market {mi}"
        ef = enumerate_allocations(market, "envy-free")
        index = {Y: k for k, Y in enumerate(ef)}
        dom = dominance_matrix(market, list(ef))
        n = len(ef)
        touched = set(ef)

        stable_flags = [classify(market, Y).is_stable for Y in ef]
        stable_nodes = [Y for Y, flag in zip(ef, stable_flags) if flag]
        _check(problems, len(stable_nodes) > 0, f"{tag}: no stable allocation")

        yh = hospital_optimal(market)
        steps = []
        fixed_points = []
        for Y in ef:
            step = tarski_step(market, Y)
            steps.append(step)
            touched.add(step)
            trace = tarski_fixed_point(market, Y)
            fixed_points.append(trace.fixed_point)
            touched.add(trace.fixed_point)

        # (b) partial order axioms over the envy-free set
        for i in range(n):
            _check(problems, dom[i][i], f"{tag}: order not reflexive at {i}")
            for j in range(n):
                if i != j and dom[i][j] and dom[j][i]:
                    problems.append(f"{tag}: antisymmetry fails at ({i},{j})")
        for i in range(n):
            for j in range(n):
                if not dom[i][j]:
                    continue
                for k in range(n):
                    if dom[j][k] and not dom[i][k]:
                        problems.append(f"{tag}: transitivity fails ({i},{j},{k})")

        for i in range(n):
            Yi = ef[i]

            # (c) the adjustment operator stays inside the envy-free set
            step = steps[i]
            si = index.get(step)
            _check(problems, si is not None, f"{tag}: step leaves envy-free set at {i}")
            if si is not None:
                _check(problems, dom[si][i], f"{tag}: step not weakly improving at {i}")
                _check(problems, (step == Yi) == stable_flags[i],
                       f"{tag}: fixed-point/stable mismatch at {i}")

            # (f) iterated operator lands on the join with the hospital optimum
            _check(problems, fixed_points[i] == join(market, Yi, yh),
                   f"{tag}: fixed point differs from join with hospital-optimal at {i}")

            # (g) dominating the hospital optimum implies stability
            if blair_dominates(market, Yi, yh):
                _check(problems, stable_flags[i],
                       f"{tag}: node {i} dominates hospital-optimal but is unstable")

            # (h) envy-free doctors never hold more than under any stable allocation
            for Yp in stable_nodes:
                for doctor in market.doctors:
                    _check(
                        problems,
                        len(restrict(market, Yi, doctor.id))
                        <= len(restrict(market, Yp, doctor.id)),
                        f"{tag}: doctor {doctor.id} holds more at envy-free node {i}",
                    )

            for j in range(i, n):
                Yj = ef[j]

                # (a) join closure + least upper bound
                lam = join(market, Yi, Yj)
                touched.add(lam)
                li = index.get(lam)
                _check(problems, li is not None, f"{tag}: join leaves set ({i},{j})")
                if li is not None:
                    _check(problems, dom[li][i] and dom[li][j],
                           f"{tag}: join not an upper bound ({i},{j})")
                    for k in range(n):
                        if dom[k][i] and dom[k][j] and not dom[k][li]:
                            problems.append(f"{tag}: join not least ({i},{j}) vs {k}")

                # (b) meets exist and are greatest lower bounds
                mu = meet(market, Yi, Yj)
                touched.add(mu)
                ki = index.get(mu)
                _check(problems, ki is not None, f"{tag}: meet leaves set ({i},{j})")
                if ki is not None:
                    _check(problems, dom[i][ki] and dom[j][ki],
                           f"{tag}: meet not a lower bound ({i},{j})")
                    for k in range(n):
                        if dom[i][k] and dom[j][k] and not dom[ki][k]:
                            problems.append(f"{tag}: meet not greatest ({i},{j}) vs {k}")

                # (d) isotonicity on comparable pairs
                for hi, lo in ((i, j), (j, i)):
                    if dom[hi][lo]:
                        shi, slo = index.get(steps[hi]), index.get(steps[lo])
                        if shi is not None and slo is not None:
                            _check(problems, dom[shi][slo],
                                   f"{tag}: operator not isotone ({hi},{lo})")

        # (e) stable set closed under join and meet
        for a in range(len(stable_nodes)):
            for b in range(a, len(stable_nodes)):
                lam = join(market, stable_nodes[a], stable_nodes[b])
                mu = meet(market, stable_nodes[a], stable_nodes[b])
                touched.update((lam, mu))
                _check(problems, classify(market, lam).is_stable,
                       f"{tag}: stable join escapes ({a},{b})")
                _check(problems, classify(market, mu).is_stable,
                       f"{tag}: stable meet escapes ({a},{b})")

        # (i) rural hospitals: identical per-agent counts across stable allocations
        agents = [d.id for d in market.doctors] + [h.id for h in market.hospitals]
        for agent in agents:
            counts = {len(restrict(market, Yp, agent)) for Yp in stable_nodes}
            _check(problems, len(counts) == 1,
                   f"{tag}: agent {agent} count varies across stable: {sorted(counts)}")

        # (j) the count identity holds on every allocation touched above
        for Y in touched:
            by_doctor, by_hospital, total = contract_count_balance(market, Y)
            _check(problems, by_doctor == by_hospital == total,
                   f"{tag}: count identity fails on {sorted(Y)}")

        if len(problems) > 50:
            break

    _announce(capsys, 3, "theorem property suite", problems)


def test_criterion_4_oracle_equivalence(capsys, suite_markets, no_lad, lattice_demo):
    problems: list[str] = []
    kinds = ("allocation", "ir", "envy-free", "stable")
    for mi, market in enumerate(list(suite_markets) + [no_lad, lattice_demo]):
        if len(market.contracts) > 10:
            problems.append(f"market {mi} exceeds the 10-contract bound")
            continue
        for kind in kinds:
            fast = enumerate_allocations(market, kind)
            slow = powerset_allocations(market, kind)
            _check(problems, list(fast) == list(slow),
                   f"market {mi}: {kind} enumeration disagrees with subset filter")
        if len(problems) > 20:
            break
    _announce(capsys, 4, "oracle equivalence", problems)


def test_criterion_5_vacancy_chains(capsys, suite_markets):
    problems: list[str] = []
    chains = 0
    i = 0
    while chains < 50 and i < len(suite_markets):
        market = suite_markets[i]
        rng = random.Random(f"acceptance-retire:{i}")
        i += 1

        stable = enumerate_allocations(market, "stable")
        before = rng.choice(stable)
        doctors = [d.id for d in market.doctors]
        retiring = frozenset(rng.sample(doctors, rng.randint(1, len(doctors))))

        reduced, trace = vacancy_chain(
            market, RetirementEvent(retiring=retiring, before=before)
        )
        chains += 1
        tag = f"chain {chains} (market {i - 1})"

        restriction = trace.steps[0].allocation
        expected = frozenset(
            c.id for c in market.contracts if c.id in before and c.doctor not in retiring
        )
        _check(problems, restriction == expected, f"{tag}: wrong restricted allocation")
        _check(problems, classify(reduced, restriction).is_envy_free,
               f"{tag}: restriction not envy-free in the reduced market")
        _check(problems, classify(reduced, trace.fixed_point).is_stable,
               f"{tag}: fixed point not stable in the reduced market")
        _check(problems, trace.iterations <= default_iteration_cap(reduced),
               f"{tag}: iteration count {trace.iterations} exceeds the cap")

    _check(problems, chains >= 50, f"only {chains} vacancy chains ran")
    _announce(capsys, 5, "vacancy chains", problems)


def test_criterion_6_cli_determinism(capsys, tmp_path):
    problems: list[str] = []
    out_a = tmp_path / "gen-a.json"
    out_b = tmp_path / "gen-b.json"
    invocations = [
        ("validate", str(NO_LAD_PATH)),
        ("validate", str(LATTICE_PATH)),
        ("check", str(NO_LAD_PATH), "--allocation", "x11,x23"),
        ("enumerate", str(NO_LAD_PATH), "--class", "allocation"),
        ("enumerate", str(LATTICE_PATH), "--class", "stable", "--count-only"),
        ("lattice", str(NO_LAD_PATH), "--format", "dot"),
        ("lattice", str(LATTICE_PATH), "--format", "dot"),
        ("lattice", str(LATTICE_PATH), "--format", "json"),
        ("join", str(NO_LAD_PATH), "--left", "x11,x23", "--right", "x13,x21,x22"),
        ("meet", str(LATTICE_PATH), "--left", "x11,x12,x21,y22",
         "--right", "x11,x12,x22,y21"),
        ("tarski", str(NO_LAD_PATH), "--from", "x21,x22"),
        ("tarski", str(NO_LAD_PATH), "--from", "x11,x23", "--trace"),
        ("vacancy-chain", str(NO_LAD_PATH), "--stable", "x13,x21,x22",
         "--retire", "d1", "--trace"),
        ("verify-lad", str(NO_LAD_PATH), "--from", "x11,x23"),
    ]
    env = dict(os.environ)
    env.pop("ENVYLATTICE_ENUM_CAP", None)

    def run(argv):
        return subprocess.run(
            [sys.executable, "-m", "envylattice", *argv],
            capture_output=True, env=env,
        )

    for argv in invocations:
        first, second = run(argv), run(argv)
        _check(problems, first.returncode == 0,
               f"{argv[0]}: exit {first.returncode}: {first.stdout[:120]!r}")
        _check(problems, first.returncode == second.returncode,
               f"{argv[0]}: exit codes differ between runs")
        _check(problems, first.stdout == second.stdout,
               f"{argv[0]}: stdout differs between runs")
        _check(problems, first.stderr == second.stderr,
               f"{argv[0]}: stderr differs between runs")

    # the generator command is deterministic in its file output as well
    spec = ("random", "--doctors", "3", "--hospitals", "2",
            "--contracts", "7", "--seed", "42")
    first = run(spec + ("--out", str(out_a)))
    second = run(spec + ("--out", str(out_b)))
    _check(problems, first.returncode == 0 and second.returncode == 0,
           "generator command failed")
    _check(problems, out_a.read_bytes() == out_b.read_bytes(),
           "generated market files differ for identical seeds")

    _announce(capsys, 6, "CLI determinism", problems)
