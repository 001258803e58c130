"""Command-line interface.

Every command reads a market file, emits a machine-readable document on
stdout, and exits 0 on success, 1 on a domain refusal (failed
precondition, exceeded cap, axiom-violating input), or 2 on a parse or
fatal-validation failure.  Failure paths print a JSON error report
first, then a one-line human summary prefixed ``error:``.  Output is
byte-deterministic: the same invocation always prints the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import serialize
from .reconcile import (
    reconcile,
    reconciliation_to_json,
    reference_from_doc,
    render_reconciliation_text,
)
from .classify import CLASSES, classify, count_allocations, enumerate_allocations
from .dynamics import (
    RetirementEvent,
    tarski_fixed_point,
    vacancy_chain,
    verify_lad_predictions,
)
from .generate import GenParams, generate_responsive_market
from .lattice import graph_to_json, hasse, join, meet, to_dot
from .model import InvariantViolation, Market, MarketError
from .validate import validate_market


def _emit(doc) -> None:
    sys.stdout.write(serialize._json_text(doc) + "\n")


def _say(line: str) -> None:
    sys.stdout.write(line + "\n")


def _read_doc(path: str):
    """Read a market file and decode its JSON, once."""
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise serialize.ParseError(f"cannot read {path}: {exc.strerror}") from None
    return serialize.decode_json(text)


def _load_market(path: str) -> tuple[Market, dict]:
    doc = _read_doc(path)
    return serialize.market_from_doc(doc), doc


def cmd_validate(args) -> int:
    market = serialize.market_from_json(_read_doc(args.market))
    report = validate_market(market)
    _emit(serialize.validation_to_json(report))
    if report.ok:
        informative = [e for e in report.entries if not e.passed]
        note = f", {len(informative)} informative finding(s)" if informative else ""
        _say(f"ok: {len(report.entries)} checks{note}")
        return 0
    _say(f"error: {len(report.fatal)} fatal validation failure(s)")
    return 2


def cmd_check(args) -> int:
    market, _ = _load_market(args.market)
    Y = serialize.allocation_from_csv(market, args.allocation)
    report = classify(market, Y)
    _emit(serialize.classification_to_json(report))

    def mark(flag: bool) -> str:
        return "✓" if flag else "✗"

    blocking = "{" + ", ".join(sorted(report.blocking)) + "}"
    _say(
        f"allocation {mark(report.is_allocation)}, IR {mark(report.is_ir)}, "
        f"envy-free {mark(report.is_envy_free)}, stable {mark(report.is_stable)}, "
        f"blocking {blocking}"
    )
    return 0


def cmd_enumerate(args) -> int:
    market, _ = _load_market(args.market)
    if args.count_only:
        _emit({"class": args.kind, "count": count_allocations(market, args.kind)})
        return 0
    allocations = enumerate_allocations(market, args.kind)
    _emit({
        "class": args.kind,
        "count": len(allocations),
        "allocations": [serialize.allocation_to_list(Y) for Y in allocations],
    })
    return 0


def cmd_lattice(args) -> int:
    market, doc = _load_market(args.market)
    reference = reference_from_doc(doc, market)
    graph = hasse(market)
    if args.format == "dot":
        sys.stdout.write(to_dot(graph))
    else:
        _emit(graph_to_json(graph))
    if reference is not None:
        report = reconcile(market, reference, graph)
        sys.stderr.write(serialize._json_text(reconciliation_to_json(report)) + "\n")
        sys.stderr.write(render_reconciliation_text(report))
    return 0


def cmd_join(args) -> int:
    market, _ = _load_market(args.market)
    left = serialize.allocation_from_csv(market, args.left)
    right = serialize.allocation_from_csv(market, args.right)
    result = join(market, left, right)
    _emit({"join": serialize.allocation_to_list(result)})
    return 0


def cmd_meet(args) -> int:
    market, _ = _load_market(args.market)
    left = serialize.allocation_from_csv(market, args.left)
    right = serialize.allocation_from_csv(market, args.right)
    result = meet(market, left, right)
    _emit({"meet": serialize.allocation_to_list(result)})
    return 0


def cmd_tarski(args) -> int:
    market, _ = _load_market(args.market)
    start = serialize.allocation_from_csv(market, args.from_ids)
    trace = tarski_fixed_point(market, start)
    if args.trace:
        sys.stdout.write(serialize.render_trace_text(trace))
    else:
        _emit(
            {
                "fixed_point": serialize.allocation_to_list(trace.fixed_point),
                "iterations": trace.iterations,
            }
        )
    return 0


def cmd_vacancy_chain(args) -> int:
    market, _ = _load_market(args.market)
    before = serialize.allocation_from_csv(market, args.stable)
    retiring = serialize.doctor_ids_from_csv(market, args.retire)
    reduced, trace = vacancy_chain(market, RetirementEvent(retiring=retiring, before=before))
    if args.trace:
        _say("reduced market contracts: {" + ", ".join(sorted(c.id for c in reduced.contracts)) + "}")
        sys.stdout.write(serialize.render_trace_text(trace))
    else:
        _emit(
            {
                "reduced_contracts": sorted(c.id for c in reduced.contracts),
                "restriction": serialize.allocation_to_list(trace.steps[0].allocation),
                "fixed_point": serialize.allocation_to_list(trace.fixed_point),
                "iterations": trace.iterations,
            }
        )
    return 0


def cmd_random(args) -> int:
    params = GenParams(
        doctors=args.doctors,
        hospitals=args.hospitals,
        contracts=args.contracts,
        seed=args.seed,
    )
    market = generate_responsive_market(params)
    text = serialize.market_to_text(market)
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise MarketError(f"cannot write {args.out}: {exc.strerror}") from None
    _emit({"out": args.out, "contracts": len(market.contracts)})
    return 0


def cmd_verify_lad(args) -> int:
    market, _ = _load_market(args.market)
    start = serialize.allocation_from_csv(market, args.from_ids)
    report = verify_lad_predictions(market, start)
    _emit(serialize.theorem_report_to_json(report))
    return 0


# Built on first use and kept for the process: building costs more than
# most requests, and parsing leaves the parser unchanged.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="envylattice",
        description="Envy-free and stable allocations in matching markets with contracts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a market file")
    p.add_argument("market")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", help="classify one allocation")
    p.add_argument("market")
    p.add_argument("--allocation", required=True, help="comma-separated contract ids")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="enumerate allocations by class")
    p.add_argument("market")
    p.add_argument(
        "--class", dest="kind", required=True,
        choices=CLASSES,
    )
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("lattice", help="Hasse diagram of the envy-free set")
    p.add_argument("market")
    p.add_argument("--format", required=True, choices=["dot", "json"])
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("join", help="Blair join of two allocations")
    p.add_argument("market")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=cmd_join)

    p = sub.add_parser("meet", help="Blair meet within the envy-free set")
    p.add_argument("market")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=cmd_meet)

    p = sub.add_parser("tarski", help="iterate adjustment rounds to a fixed point")
    p.add_argument("market")
    p.add_argument("--from", dest="from_ids", required=True,
                   help="starting envy-free allocation, comma-separated ids")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_tarski)

    p = sub.add_parser("vacancy-chain", help="re-stabilize after doctor retirements")
    p.add_argument("market")
    p.add_argument("--stable", required=True, help="stable allocation before retirements")
    p.add_argument("--retire", required=True, help="comma-separated doctor ids")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_vacancy_chain)

    p = sub.add_parser("random", help="generate a seeded random market")
    p.add_argument("--doctors", type=int, required=True)
    p.add_argument("--hospitals", type=int, required=True)
    p.add_argument("--contracts", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("verify-lad", help="check aggregate-demand consequences at a start")
    p.add_argument("market")
    p.add_argument("--from", dest="from_ids", required=True)
    p.set_defaults(func=cmd_verify_lad)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except serialize.FatalValidationError as exc:
        _emit(
            {
                "error": {"type": "fatal-validation", "message": str(exc)},
                "report": serialize.validation_to_json(exc.report),
            }
        )
        _say(f"error: {exc}")
        return 2
    except serialize.ParseError as exc:
        _emit({"error": {"type": "parse", "message": str(exc)}})
        _say(f"error: {exc}")
        return 2
    except (MarketError, InvariantViolation) as exc:
        kind = "invariant" if isinstance(exc, InvariantViolation) else "refusal"
        _emit({"error": {"type": kind, "message": str(exc)}})
        _say(f"error: {exc}")
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
