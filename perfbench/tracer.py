"""Per-layer tracing from outside the program.

The tracer wraps public entry points of the ``envylattice`` modules and
rebinds each wrapped name in every module that holds it (module globals
and module-level dicts such as ``choice.CHECKERS``), so calls made from
one module into another are seen.  ``uninstall`` restores every binding.

Two kinds of wrapper exist:

* span wrappers record one span per call (name, layer, start, end,
  parent span, request id) and are used at layer boundaries that are
  crossed a handful of times per request;
* hot wrappers record only call counts and cumulative time, for
  predicates called up to millions of times per request.

Both kinds feed the same frame stack, so a frame's self time is its
duration minus the time of every wrapped call nested directly in it,
and the self times of all frames never add up to more than the wall
time they ran in.  Layers are the ``envylattice`` modules, except that
output rendering (``cli._emit``, ``lattice.to_dot``, ...) counts as
``serialize`` and file loading (``cli._load_market``) as parsing.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import defaultdict

SPAN, HOT = "span", "hot"

# (module, function, layer, kind, tags).  Tags name groups whose
# outermost calls are timed together: "point" is every classification
# predicate, "walk" every Tarski walk, and so on.
SPECS = (
    ("cli", "main", "cli", SPAN, ()),
    ("cli", "_load_market", "serialize", SPAN, ("parse",)),
    ("cli", "_emit", "serialize", SPAN, ("emit",)),
    ("serialize", "parse_market", "serialize", SPAN, ("parse",)),
    ("serialize", "market_from_json", "serialize", SPAN, ("parse",)),
    ("serialize", "allocation_from_csv", "serialize", SPAN, ("parse",)),
    ("serialize", "doctor_ids_from_csv", "serialize", SPAN, ("parse",)),
    ("reconcile", "reference_from_doc", "serialize", SPAN, ("parse",)),
    ("serialize", "validation_to_json", "serialize", SPAN, ("emit",)),
    ("serialize", "classification_to_json", "serialize", SPAN, ("emit",)),
    ("serialize", "theorem_report_to_json", "serialize", SPAN, ("emit",)),
    ("serialize", "render_trace_text", "serialize", SPAN, ("emit",)),
    ("serialize", "allocation_to_list", "serialize", HOT, ("emit",)),
    ("lattice", "graph_to_json", "serialize", SPAN, ("emit",)),
    ("lattice", "to_dot", "serialize", SPAN, ("emit",)),
    ("reconcile", "reconciliation_to_json", "serialize", SPAN, ("emit",)),
    ("reconcile", "render_reconciliation_text", "serialize", SPAN, ("emit",)),
    ("validate", "validate_market", "validate", SPAN, ()),
    ("choice", "check_distinct_hospitals", "choice", HOT, ("axiom",)),
    ("choice", "check_substitutable", "choice", HOT, ("axiom",)),
    ("choice", "check_consistency", "choice", HOT, ("axiom",)),
    ("choice", "check_path_independence", "choice", HOT, ("axiom",)),
    ("choice", "check_lad", "choice", HOT, ("axiom",)),
    ("choice", "doctor_choose", "choice", HOT, ()),
    ("choice", "hospital_choose", "choice", HOT, ()),
    ("classify", "enumerate_allocations", "classify", SPAN, ()),
    ("classify", "all_allocations", "classify", SPAN, ()),
    ("classify", "classify", "classify", HOT, ("point",)),
    ("classify", "is_individually_rational", "classify", HOT, ("point",)),
    ("classify", "is_envy_free", "classify", HOT, ("point",)),
    ("classify", "is_stable", "classify", HOT, ("point",)),
    ("classify", "blocking_contracts", "classify", HOT, ("point",)),
    ("classify", "justified_envy_witnesses", "classify", HOT, ("point",)),
    ("lattice", "hasse", "lattice", SPAN, ("hasse",)),
    ("lattice", "dominance_matrix", "lattice", SPAN, ("dominance",)),
    ("lattice", "blair_dominates", "lattice", HOT, ("dominance",)),
    ("lattice", "choice_join", "lattice", HOT, ()),
    ("lattice", "join", "lattice", HOT, ("join_meet",)),
    ("lattice", "meet", "lattice", SPAN, ("join_meet",)),
    ("lattice", "doctor_optimal", "lattice", SPAN, ("extremal",)),
    ("lattice", "hospital_optimal", "lattice", SPAN, ("extremal",)),
    ("dynamics", "tarski_fixed_point", "dynamics", SPAN, ("walk",)),
    ("dynamics", "tarski_step", "dynamics", SPAN, ()),
    ("dynamics", "star_blocking", "dynamics", HOT, ()),
    ("dynamics", "vacancy_chain", "dynamics", SPAN, ()),
    ("dynamics", "reduce_market", "dynamics", SPAN, ()),
    ("dynamics", "verify_lad_predictions", "dynamics", SPAN, ()),
    ("reconcile", "reconcile", "reconcile", SPAN, ()),
)

LAYERS = ("cli", "serialize", "validate", "choice", "classify", "lattice", "dynamics", "reconcile")

# Calls counted separately while a Tarski walk is running.
COUNTED_IN_WALK = ("classify.is_envy_free", "choice.doctor_choose", "choice.hospital_choose")

# (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    ("cli.requests", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("serialize.parse_s", "s", "lower"),
    ("serialize.emit_s", "s", "lower"),
    ("serialize.bytes_out", "bytes", "lower"),
    ("serialize.self_s", "s", "lower"),
    ("validate.self_s", "s", "lower"),
    ("validate.checks", "count", "lower"),
    ("validate.sampled_checks", "count", "lower"),
    ("choice.axiom_check_s", "s", "lower"),
    ("choice.doctor_choose_calls", "count", "lower"),
    ("choice.hospital_choose_calls", "count", "lower"),
    ("choice.distinct_menus", "count", "lower"),
    ("choice.hit_ratio", "ratio", "higher"),
    ("choice.self_s", "s", "lower"),
    ("classify.all_allocations_s", "s", "lower"),
    ("classify.leaves_visited", "count", "lower"),
    ("classify.filter_s", "s", "lower"),
    ("classify.yield_ratio", "ratio", "higher"),
    ("classify.point_calls", "count", "lower"),
    ("classify.point_s", "s", "lower"),
    ("classify.self_s", "s", "lower"),
    ("lattice.dominance_s", "s", "lower"),
    ("lattice.dominance_tests", "count", "lower"),
    ("lattice.hasse_self_s", "s", "lower"),
    ("lattice.nodes", "count", "higher"),
    ("lattice.covers", "count", "higher"),
    ("lattice.extremal_s", "s", "lower"),
    ("lattice.join_meet_s", "s", "lower"),
    ("lattice.self_s", "s", "lower"),
    ("dynamics.walk_s", "s", "lower"),
    ("dynamics.step_s", "s", "lower"),
    ("dynamics.rounds", "count", "lower"),
    ("dynamics.vacancy_s", "s", "lower"),
    ("dynamics.verify_lad_s", "s", "lower"),
    ("dynamics.envy_checks_per_round", "count/round", "lower"),
    ("dynamics.choice_calls_per_round", "count/round", "lower"),
    ("dynamics.self_s", "s", "lower"),
    ("reconcile.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.intended_share", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
)

# Counts that must repeat exactly across runs of the same seed.
PINNED_COUNTS = (
    "classify.leaves_visited",
    "lattice.nodes",
    "lattice.covers",
    "lattice.dominance_tests",
    "dynamics.rounds",
    "choice.distinct_menus",
    "validate.checks",
    "validate.sampled_checks",
)


class Tracer:
    """Installs wrappers, keeps spans and aggregates in memory."""

    def __init__(self, modules: dict, intended: frozenset):
        self.modules = modules  # short name -> module, e.g. "classify"
        self.intended = intended  # layers and tags that should dominate
        self.spans: list[tuple] = []
        self.request = None
        self.markets: list = []  # (weak reference to a market, its choice memo)
        self.menus = 0  # memo sizes of markets already gone
        self.bytes_out = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.cum: dict[str, float] = defaultdict(float)  # outermost calls, by key
        self.tag_cum: dict[str, float] = defaultdict(float)  # outermost calls, by tag
        self.tag_self: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.in_walk: dict[str, int] = defaultdict(int)
        self.extra: dict[str, int] = defaultdict(int)  # counts read off results
        self._depth: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._current_span = None
        self._bindings: list[tuple] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for mod_name, fn_name, layer, kind, tags in SPECS:
            original = getattr(self.modules[mod_name], fn_name)
            key = f"{mod_name}.{fn_name}"
            tags = tuple(tags)
            if layer in self.intended or self.intended.intersection(tags):
                tags += ("intended",)
            hook = _HOOKS.get(key)
            if kind == SPAN:
                wrapper = self._span_wrapper(original, key, layer, tags, hook)
            else:
                wrapper = self._hot_wrapper(original, key, layer, tags, hook)
            for module in self.modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, attr, original, False))
                        setattr(module, attr, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._bindings.append((value, k, original, True))
                                value[k] = wrapper

    def uninstall(self) -> None:
        for owner, name, original, is_dict in reversed(self._bindings):
            if is_dict:
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._bindings.clear()

    def _enter_tags(self, tags):
        depth = self._depth
        for t in tags:
            depth[t] += 1

    def _leave_tags(self, tags, d: float, s: float):
        depth = self._depth
        for t in tags:
            depth[t] -= 1
            if not depth[t]:
                self.tag_cum[t] += d
            self.tag_self[t] += s

    def _hot_wrapper(self, fn, key, layer, tags, hook):
        clock = time.perf_counter
        stack = self._stack
        calls = self.calls
        cum = self.cum
        depth = self._depth
        layer_self = self.layer_self
        in_walk = self.in_walk
        counted = key in COUNTED_IN_WALK
        tracer = self

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if counted and depth["walk"]:
                in_walk[key] += 1
            frame = [0.0]
            stack.append(frame)
            depth[key] += 1
            if tags:
                tracer._enter_tags(tags)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += d
                s = d - frame[0]
                layer_self[layer] += s
                depth[key] -= 1
                if not depth[key]:
                    cum[key] += d
                if tags:
                    tracer._leave_tags(tags, d, s)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def _span_wrapper(self, fn, key, layer, tags, hook):
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            frame = [0.0]
            stack.append(frame)
            tracer._depth[key] += 1
            tracer._enter_tags(tags)
            parent = tracer._current_span
            span_id = len(tracer.spans)
            tracer.spans.append(None)  # reserve the id
            tracer._current_span = span_id
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                d = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += d
                s = d - frame[0]
                tracer.layer_self[layer] += s
                tracer._depth[key] -= 1
                if not tracer._depth[key]:
                    tracer.cum[key] += d
                tracer._leave_tags(tags, d, s)
                tracer._current_span = parent
                tracer.spans[span_id] = (span_id, key, layer, t0, t1, parent, tracer.request, s)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    # -- results --------------------------------------------------------

    def track(self, market) -> None:
        """Count this market's choice memo once the market is gone.

        Only the memo is held, not the market, so a traced pass keeps no
        more objects alive than an untraced one.
        """
        self.markets.append((weakref.ref(market), market._choice_cache))

    def end_request(self) -> None:
        live = []
        for ref, memo in self.markets:
            if ref() is None:
                self.menus += len(memo)
            else:
                live.append((ref, memo))
        self.markets = live

    def distinct_menus(self) -> int:
        return self.menus + sum(len(memo) for _, memo in self.markets)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, key, layer, t0, t1, parent, request, s in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": key, "layer": layer, "start": t0, "end": t1,
                         "parent": parent, "request": request, "self_s": s}
                    )
                    + "\n"
                )

    def metrics(self, wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        """Per-layer figures; the wall times are the summed request latencies."""
        c, cum, tc, ts, ls, x = (
            self.calls, self.cum, self.tag_cum, self.tag_self, self.layer_self, self.extra
        )
        doctor_calls = c["choice.doctor_choose"]
        hospital_calls = c["choice.hospital_choose"]
        menus = self.distinct_menus()
        choose_calls = doctor_calls + hospital_calls
        rounds = c["dynamics.tarski_step"]
        leaves = x["leaves"]
        out = {
            "cli.requests": c["cli.main"],
            "cli.self_s": ls["cli"],
            "serialize.parse_s": ts["parse"],
            "serialize.emit_s": tc["emit"],
            "serialize.bytes_out": self.bytes_out,
            "serialize.self_s": ls["serialize"],
            "validate.self_s": ls["validate"],
            "validate.checks": x["checks"],
            "validate.sampled_checks": x["sampled_checks"],
            "choice.axiom_check_s": tc["axiom"],
            "choice.doctor_choose_calls": doctor_calls,
            "choice.hospital_choose_calls": hospital_calls,
            "choice.distinct_menus": menus,
            "choice.hit_ratio": 1 - menus / choose_calls if choose_calls else 0.0,
            "choice.self_s": ls["choice"],
            "classify.all_allocations_s": cum["classify.all_allocations"],
            "classify.leaves_visited": leaves,
            "classify.filter_s": cum["classify.enumerate_allocations"] - cum["classify.all_allocations"],
            "classify.yield_ratio": x["returned"] / leaves if leaves else 0.0,
            "classify.point_calls": sum(c[f"classify.{f}"] for f in _POINT_FUNCTIONS),
            "classify.point_s": tc["point"],
            "classify.self_s": ls["classify"],
            "lattice.dominance_s": tc["dominance"],
            "lattice.dominance_tests": x["dominance_tests"] + c["lattice.blair_dominates"],
            "lattice.hasse_self_s": ts["hasse"],
            "lattice.nodes": x["nodes"],
            "lattice.covers": x["covers"],
            "lattice.extremal_s": tc["extremal"],
            "lattice.join_meet_s": tc["join_meet"],
            "lattice.self_s": ls["lattice"],
            "dynamics.walk_s": tc["walk"],
            "dynamics.step_s": cum["dynamics.tarski_step"],
            "dynamics.rounds": rounds,
            "dynamics.vacancy_s": cum["dynamics.vacancy_chain"],
            "dynamics.verify_lad_s": cum["dynamics.verify_lad_predictions"],
            "dynamics.envy_checks_per_round": (
                self.in_walk["classify.is_envy_free"] / rounds if rounds else 0.0
            ),
            "dynamics.choice_calls_per_round": (
                (self.in_walk["choice.doctor_choose"] + self.in_walk["choice.hospital_choose"]) / rounds
                if rounds else 0.0
            ),
            "dynamics.self_s": ls["dynamics"],
            "reconcile.self_s": ls["reconcile"],
            "trace.overhead_ratio": wall_s / untraced_wall_s,
            "trace.wall_s": wall_s,
            "trace.self_sum_s": sum(ls[layer] for layer in LAYERS),
            "trace.intended_share": tc["intended"] / wall_s,
            "trace.spans": len(self.spans),
        }
        return out


_POINT_FUNCTIONS = (
    "classify", "is_individually_rational", "is_envy_free", "is_stable",
    "blocking_contracts", "justified_envy_witnesses",
)


def _on_check(tracer, args, outcome):
    if not tracer._depth["validate.validate_market"]:
        return  # verify-lad also runs check_lad; only validation counts here
    tracer.extra["checks"] += 1
    tracer.extra["sampled_checks"] += bool(outcome.sampled)


def _on_all_allocations(tracer, args, result):
    tracer.extra["leaves"] += len(result)


def _on_enumerate(tracer, args, result):
    tracer.extra["returned"] += len(result)


def _on_hasse(tracer, args, graph):
    tracer.extra["nodes"] += len(graph.nodes)
    tracer.extra["covers"] += len(graph.covers)


def _on_dominance_matrix(tracer, args, matrix):
    n = len(matrix)
    tracer.extra["dominance_tests"] += n * (n - 1)


def _on_market(tracer, args, market):
    tracer.track(market)


_HOOKS = {
    "choice.check_distinct_hospitals": _on_check,
    "choice.check_substitutable": _on_check,
    "choice.check_consistency": _on_check,
    "choice.check_path_independence": _on_check,
    "choice.check_lad": _on_check,
    "classify.all_allocations": _on_all_allocations,
    "classify.enumerate_allocations": _on_enumerate,
    "lattice.hasse": _on_hasse,
    "lattice.dominance_matrix": _on_dominance_matrix,
    "serialize.market_from_json": _on_market,
    "dynamics.reduce_market": _on_market,
}
