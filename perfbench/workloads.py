"""Seeded workloads: the markets each one generates and the requests it sends.

A workload turns ``--seed`` into market files under a work directory
(``setup``) and then yields one pass of requests at a time
(``requests``).  A pass is deterministic: every pass of a run sends the
same requests and must get byte-identical answers.  The program only
sees the generated files (CLI requests) or ``Market`` objects parsed
from them (library requests).

Checks that span several requests (class counts of one market, a Tarski
fixed point and its classification) are made inside the generator and
recorded on the request whose answer completes them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import traceback

CLASSES = ("allocation", "ir", "envy-free", "stable")


class Request:
    """One closed-loop request: a call, its answer and any problem found."""

    __slots__ = ("name", "call", "render", "with_stderr", "exit", "out", "err", "value", "problem")

    def __init__(self, name, call, render=None, with_stderr=False):
        self.name = name
        self.call = call
        self.render = render  # None for CLI calls, which return (exit, out, err)
        self.with_stderr = with_stderr
        self.exit = None
        self.out = ""
        self.err = ""
        self.value = None
        self.problem = None

    def finish(self, value) -> None:
        if self.render is None:
            self.exit, self.out, self.err = value
        else:
            self.exit, self.out, self.value = 0, self.render(value), value

    def fail(self, exc: BaseException) -> None:
        self.exit = -1
        self.problem = "".join(traceback.format_exception_only(type(exc), exc)).strip()


def cli_request(mods, name, argv, with_stderr=False) -> Request:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = mods["cli"].main(argv)  # looked up per call so traced runs see the wrapper
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue(), err.getvalue()

    return Request(name, call, with_stderr=with_stderr)


def dfs_leaves(market) -> int:
    """Number of allocations, which is the number of leaves of the DFS in
    ``classify.all_allocations``: every doctor-hospital pair signs none or
    one of its contracts and each hospital takes at most ``quota`` pairs, so
    the count is a product over hospitals of elementary symmetric sums."""
    sizes: dict[tuple[str, str], int] = {}
    for c in market.contracts:
        sizes[c.doctor, c.hospital] = sizes.get((c.doctor, c.hospital), 0) + 1
    total = 1
    for h in market.hospitals:
        e = [1] + [0] * h.quota
        for (_, hospital), n in sizes.items():
            if hospital == h.id:
                for k in range(h.quota, 0, -1):
                    e[k] += e[k - 1] * n
        total *= sum(e)
    return total


def _ids(Y) -> str:
    return ",".join(sorted(Y))


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


class Workload:
    name = ""
    # Layers and tracer tags that should take most of the traced time.
    intended: frozenset = frozenset()

    def __init__(self, root: str, seed: int, workdir: str, mods: dict):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.mods = mods
        self.track = lambda market: None  # replaced by the tracer's in a traced pass

    def demo(self, name: str) -> str:
        return os.path.join(self.root, "markets", f"{name}.market.json")


class LatticeWorkload(Workload):
    """Enumeration, Hasse diagram, meet and verify-lad through ``cli.main``.

    Markets are ``GenParams(7, 5, X, doctor_quota=(1, 3), hospital_quota=(1, 3))``
    for X on a ladder.  At each rung a fixed number of generator seeds is
    drawn from the run seed, and the ``PER_RUNG`` markets whose DFS leaf
    counts lie closest to the rung's target are kept, so the cost of a run
    depends on the ladder and not on which seed the run was given.  Each
    generated market gets one of three request groups in turn, so a pass
    spreads over many markets; the demo markets get all three.
    """

    name = "lattice"
    intended = frozenset({"classify", "lattice"})
    # (X, target DFS leaves, candidates drawn).  The candidate counts give
    # about 18 markets within 0.85-1.18x of the target at every rung, and
    # keep set-up time the same for every seed.
    RUNGS = ((12, 1200, 100), (14, 1600, 150), (16, 2000, 250), (18, 2500, 500), (20, 3200, 1500))
    PER_RUNG = 6

    def setup(self) -> None:
        m = self.mods
        groups = (self._counts, self._lattice, self._listing)
        self.markets = []  # (request groups, label, path, leaves, meet left, meet right)
        for X, target, candidates in self.RUNGS:
            rng = random.Random(f"lattice:{self.seed}:{X}")
            # Only the seeds are kept, so set-up adds nothing to peak memory.
            drawn = sorted(
                (abs(math.log(dfs_leaves(self._generate(X, seed)) / target)), seed)
                for seed in (rng.getrandbits(31) for _ in range(candidates))
            )
            for i, (_, seed) in enumerate(drawn[: self.PER_RUNG]):
                kept = self._generate(X, seed)
                leaves = dfs_leaves(kept)
                label = f"X{X}s{seed}"
                path = _write(os.path.join(self.workdir, f"{label}.json"), m["serialize"].market_to_text(kept))
                self.markets.append(((groups[i % len(groups)],), label, path, leaves, *self._meet_args(kept)))
        for demo in ("lattice_demo", "no_lad_demo"):
            path = self.demo(demo)
            with open(path, "rb") as fh:
                market = m["serialize"].parse_market(fh.read())
            self.markets.append((groups, demo, path, dfs_leaves(market), *self._meet_args(market)))

    def _generate(self, X, seed):
        generate = self.mods["generate"]
        return generate.generate_responsive_market(
            generate.GenParams(7, 5, X, doctor_quota=(1, 3), hospital_quota=(1, 3), seed=seed)
        )

    def _meet_args(self, market):
        # Two envy-free allocations the user could get from `tarski --from ""`:
        # the fixed point and the first state of the walk.
        trace = self.mods["dynamics"].tarski_fixed_point(market, frozenset())
        first = trace.steps[min(1, len(trace.steps) - 1)].allocation
        return _ids(trace.fixed_point), _ids(first)

    def requests(self):
        for groups, *market in self.markets:
            for group in groups:
                yield from group(*market)

    def _counts(self, label, path, leaves, left, right):
        counts = {}
        for kind in CLASSES:
            r = cli_request(self.mods, f"{label} enumerate {kind} --count-only",
                            ["enumerate", path, "--class", kind, "--count-only"])
            yield r
            counts[kind] = json.loads(r.out)["count"] if r.exit == 0 else None
        if None in counts.values():
            return  # the failed request is already counted
        if counts["allocation"] != leaves:
            r.problem = f"{counts['allocation']} allocations, expected {leaves} DFS leaves"
        elif not counts["allocation"] >= counts["ir"] >= counts["envy-free"] >= counts["stable"]:
            r.problem = f"class counts out of order: {counts}"

    def _lattice(self, label, path, leaves, left, right):
        r = cli_request(self.mods, f"{label} enumerate envy-free", ["enumerate", path, "--class", "envy-free"])
        yield r
        envy_free = json.loads(r.out)["allocations"] if r.exit == 0 else None
        for fmt in ("json", "dot"):
            # lattice_demo carries a reference block, so `lattice` also
            # reconciles it and writes the report to stderr.
            r = cli_request(self.mods, f"{label} lattice {fmt}", ["lattice", path, "--format", fmt],
                            with_stderr=label == "lattice_demo")
            yield r
            if fmt == "json" and r.exit == 0 and json.loads(r.out)["nodes"] != envy_free:
                r.problem = "Hasse nodes differ from the envy-free allocations"

    def _listing(self, label, path, leaves, left, right):
        r = cli_request(self.mods, f"{label} enumerate allocation", ["enumerate", path, "--class", "allocation"])
        yield r
        if r.exit == 0 and len(json.loads(r.out)["allocations"]) != leaves:
            r.problem = f"full listing has other than {leaves} allocations"
        yield cli_request(self.mods, f"{label} meet", ["meet", path, "--left", left, "--right", right])
        yield cli_request(self.mods, f"{label} verify-lad", ["verify-lad", path, "--from", ""])


class WalkWorkload(Workload):
    """Library sweep: Tarski walk, vacancy chains, classification, join.

    Markets have X contracts, X/5 doctors with exactly five contracts
    each and X/8 hospitals, far past the enumeration cap; 90% of contracts
    are acceptable to each side.  They are written by this benchmark so
    that no doctor is large enough to make validation in setup, or choice
    in the walk, depend on the seed.  Each market is parsed and validated
    once in setup; each pass works on fresh ``Market`` copies of the parsed
    specs, so the choice memo starts empty in every pass and every pass
    does the same work.
    """

    name = "walk"
    intended = frozenset({"dynamics", "point"})
    LADDER = (40, 60, 80, 110, 150, 200, 250, 300)
    CONTRACTS_PER_DOCTOR = 5
    PAIRS = 3  # two-doctor retirements per market

    def setup(self) -> None:
        m = self.mods
        self.markets = []
        for X in self.LADDER:
            rng = random.Random(f"walk:{self.seed}:{X}")
            owners = [(f"d{i + 1}", self.CONTRACTS_PER_DOCTOR) for i in range(X // self.CONTRACTS_PER_DOCTOR)]
            doc = market_doc(rng, owners, X // 8, acceptability=0.9)
            path = _write(os.path.join(self.workdir, f"walk{X}.json"), json.dumps(doc, indent=2) + "\n")
            with open(path, "rb") as fh:
                market = m["serialize"].parse_market(fh.read())
            doctors = [d for d, _ in owners]
            retirements = [(d,) for d in doctors] + rng.sample(list(itertools.combinations(doctors, 2)), self.PAIRS)
            self.markets.append((f"X{X}", market, retirements))

    def requests(self):
        dyn, cls, lat = self.mods["dynamics"], self.mods["classify"], self.mods["lattice"]
        model = self.mods["model"]
        for label, parsed, retirements in self.markets:
            market = model.Market(doctors=parsed.doctors, hospitals=parsed.hospitals, contracts=parsed.contracts)
            self.track(market)
            r = Request(f"{label} tarski", lambda mk=market: dyn.tarski_fixed_point(mk, frozenset()), _render_trace)
            yield r
            if r.value is None:
                continue
            states = [step.allocation for step in r.value.steps]
            for i, Y in enumerate(states):
                r = Request(f"{label} classify state {i}", lambda mk=market, Y=Y: cls.classify(mk, Y), _render_report)
                yield r
                if i == len(states) - 1 and r.value is not None and not r.value.is_stable:
                    r.problem = "Tarski fixed point does not classify as stable"
            for i in range(len(states) - 1):
                yield Request(f"{label} join {i}", lambda mk=market, a=states[i], b=states[i + 1]: lat.join(mk, a, b), _ids)
            fixed_point = states[-1]
            for retiring in retirements:
                event = dyn.RetirementEvent(retiring=frozenset(retiring), before=fixed_point)
                r = Request(f"{label} vacancy {'+'.join(retiring)}",
                            lambda mk=market, ev=event: dyn.vacancy_chain(mk, ev), _render_vacancy)
                yield r
                if r.value is None:
                    continue
                reduced, trace = r.value
                r = Request(f"{label} classify after {'+'.join(retiring)}",
                            lambda mk=reduced, Y=trace.fixed_point: cls.classify(mk, Y), _render_report)
                yield r
                if r.value is not None and not r.value.is_stable:
                    r.problem = "vacancy-chain fixed point does not classify as stable"


def _render_trace(trace) -> str:
    return json.dumps({"steps": [_ids(s.allocation) for s in trace.steps], "iterations": trace.iterations})


def _render_report(report) -> str:
    return json.dumps(
        {"allocation": report.is_allocation, "violations": list(report.violations), "ir": report.is_ir,
         "envy_free": report.is_envy_free, "stable": report.is_stable,
         "blocking": _ids(report.blocking), "envy": len(report.envy)}
    )


def _render_vacancy(result) -> str:
    reduced, trace = result
    return json.dumps({"contracts": len(reduced.contracts), "trace": _render_trace(trace)})


class IngestWorkload(Workload):
    """``validate`` and ``check`` through ``cli.main`` on contract-heavy doctors.

    Markets are written by this benchmark, not by the program's generator,
    so the size of the large doctor is exact.  Each market has one doctor
    ``d1`` with ``n`` own contracts, three responsive doctors with three
    each, and six hospitals.  ``d1`` is responsive, or a choice table
    tabulated from a responsive rule over every nonempty subset.  The cost
    of validating a doctor depends on ``n``, not on the seed.
    """

    name = "ingest"
    intended = frozenset({"serialize", "validate", "axiom"})
    # (n, copies, requests).  n = 10 is the exhaustive 4^n path-independence
    # sweep, n = 16 the largest exhaustive single-removal sweep, n = 20 sampled.
    # Many small markets give a pass over 100 requests; the few large ones
    # carry most of its time.
    RESPONSIVE = (
        (4, 7, ("validate", "check")), (5, 7, ("validate", "check")), (6, 7, ("validate", "check")),
        (7, 7, ("validate", "check")), (8, 7, ("validate", "check")), (9, 4, ("validate", "check")),
        (10, 1, ("validate",)), (11, 1, ("validate", "check")), (12, 1, ("validate", "check")),
        (13, 1, ("validate", "check")), (14, 1, ("validate", "check")), (16, 1, ("validate",)),
        (20, 1, ("validate",)),
    )
    TABLE = ((6, 1, ("validate", "check")), (8, 1, ("validate", "check")), (9, 1, ("validate", "check")),
             (11, 1, ("validate", "check")), (12, 1, ("validate", "check")))
    HOSPITALS = 6

    def setup(self) -> None:
        self.markets = []  # (label, path, check allocation, requests)
        for table, ladder in ((False, self.RESPONSIVE), (True, self.TABLE)):
            for n, copies, requests in ladder:
                for k in range(copies):
                    label = f"{'table' if table else 'resp'}{n}.{k}"
                    rng = random.Random(f"ingest:{self.seed}:{label}")
                    owners = [("d1", n), ("d2", 3), ("d3", 3), ("d4", 3)]
                    doc = market_doc(rng, owners, self.HOSPITALS, table_doctor="d1" if table else None)
                    allocation = ",".join(
                        sorted(c["id"] for c in doc["contracts"] if rng.random() < 0.3)
                    )
                    path = _write(os.path.join(self.workdir, f"{label}.json"), json.dumps(doc, indent=2) + "\n")
                    self.markets.append((label, path, allocation, requests))
        self.markets.append(("no_lad_demo", self.demo("no_lad_demo"), "x11,x23", ("validate", "check")))

    def requests(self):
        for label, path, allocation, kinds in self.markets:
            for kind in kinds:
                argv = ["validate", path] if kind == "validate" else ["check", path, "--allocation", allocation]
                r = cli_request(self.mods, f"{label} {kind}", argv)
                yield r
                if kind == "validate" and r.exit == 0:
                    report, end = json.JSONDecoder().raw_decode(r.out)
                    if not (report["ok"] and r.out[end:].startswith("\nok: ")):
                        r.problem = "market does not validate"


def market_doc(rng, owners, n_hospitals, acceptability=1.0, table_doctor=None) -> dict:
    """A market file with responsive hospitals and the given doctors.

    ``owners`` lists (doctor id, number of own contracts); each contract
    names a random hospital.  Each side ranks a random order of the
    contracts it finds acceptable, quotas are drawn from 1..3, and the
    table doctor's table is tabulated from its responsive rule.
    """
    hospitals = [f"h{j + 1}" for j in range(n_hospitals)]
    contracts = [
        {"id": f"x{d[1:]}_{k:02d}", "doctor": d, "hospital": rng.choice(hospitals)}
        for d, count in owners for k in range(count)
    ]
    hospital_of = {c["id"]: c["hospital"] for c in contracts}

    def ranking(side: str, agent: str) -> list[str]:
        kept = [c["id"] for c in contracts if c[side] == agent and rng.random() < acceptability]
        rng.shuffle(kept)
        return kept

    hospital_docs = [{"id": h, "quota": rng.randint(1, 3), "ranking": ranking("hospital", h)} for h in hospitals]
    doctor_docs = []
    for d, _ in owners:
        order, quota = ranking("doctor", d), rng.randint(1, 3)
        if d == table_doctor:
            own = sorted(c["id"] for c in contracts if c["doctor"] == d)
            rows = [
                {"given": list(given), "chosen": sorted(_responsive(order, quota, hospital_of, set(given)))}
                for size in range(1, len(own) + 1)
                for given in itertools.combinations(own, size)
            ]
            doctor_docs.append({"id": d, "kind": "table", "table": rows})
        else:
            doctor_docs.append({"id": d, "kind": "responsive", "quota": quota, "ranking": order})
    return {"contracts": contracts, "hospitals": hospital_docs, "doctors": doctor_docs}


def _responsive(ranking, quota, hospital_of, offered) -> list[str]:
    """Best offered contracts in ranking order, one per hospital, up to quota."""
    taken, used = [], set()
    for cid in ranking:
        if len(taken) == quota:
            break
        if cid in offered and hospital_of[cid] not in used:
            used.add(hospital_of[cid])
            taken.append(cid)
    return taken


WORKLOADS = {w.name: w for w in (LatticeWorkload, WalkWorkload, IngestWorkload)}
