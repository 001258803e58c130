"""One workload run in a fresh interpreter; started by ``run.py``.

Modes:

* ``setup``: import the package, generate and write the markets, print
  the set-up time;
* ``timed``: set up, then run whole passes with tracing off until
  ``--seconds`` have passed, and at least ``MIN_PASSES``; print
  end-to-end figures over the ``MIN_REQUESTS`` or more requests of a pass,
  each at its fastest pass;
* ``traced``: set up, run one pass with tracing off and one with the
  tracer installed; print per-layer figures and write the spans.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

MIN_REQUESTS = 100  # distinct requests per pass, so p90 has ten beyond it
MIN_PASSES = 3
HERE = os.path.dirname(os.path.abspath(__file__))
PINNED = os.path.join(HERE, "pinned.json")
DEFAULT_SEED = 0
MODULES = (
    "choice", "classify", "cli", "dynamics", "generate", "lattice", "model", "reconcile",
    "serialize", "validate",
)


def import_package(root: str) -> dict:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    package = importlib.import_module("envylattice")
    if not os.path.abspath(package.__file__).startswith(src + os.sep):
        raise SystemExit(f"envylattice was imported from {package.__file__}, not from {src}")
    # import_module, because the package re-exports functions named like
    # their modules (``envylattice.classify`` is the function).
    return {name: importlib.import_module(f"envylattice.{name}") for name in MODULES}


def digest(r) -> str:
    parts = [str(r.exit), hashlib.sha256(r.out.encode()).hexdigest()]
    if r.with_stderr:
        parts.append(hashlib.sha256(r.err.encode()).hexdigest())
    return ":".join(parts)


class Runner:
    """Sends one pass at a time and checks every answer."""

    def __init__(self, workload, pinned: dict | None):
        self.workload = workload
        self.pinned = pinned  # request name -> digest, at the default seed only
        self.reference: dict[str, str] = {}  # digests of the first pass
        self.latencies: dict[str, list[float]] = {}  # request name -> one latency per pass
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, tracer=None) -> tuple[float, dict]:
        """Returns the pass's busy time (its summed request latencies) and
        the digest of every answer.

        A request is checked once the generator has moved past it, since
        checks spanning several answers are recorded on their last one;
        its answer is then dropped so the heap stays small.
        """
        digests: dict[str, str] = {}
        pending = None
        busy = 0.0
        for r in self.workload.requests():
            if pending is not None:
                self._check(pending, digests, tracer)
            gc.collect()
            if tracer is not None:
                tracer.request = r.name
            t0 = time.perf_counter()
            try:
                value = r.call()
            except Exception as exc:  # a crashing request is a failed request
                r.fail(exc)
            else:
                r.finish(value)
            latency = time.perf_counter() - t0
            self.latencies.setdefault(r.name, []).append(latency)
            busy += latency
            pending = r
            if tracer is not None:
                tracer.end_request()
        if pending is not None:
            self._check(pending, digests, tracer)
        if tracer is not None:
            tracer.request = None
        if self.pinned is not None and set(self.pinned) != set(digests):
            self.failed += 1
            self.problems.append("the pass sent other requests than the pinned default-seed pass")
        return busy, digests

    def _check(self, r, digests: dict, tracer) -> None:
        self.attempted += 1
        d = digest(r)
        problem = r.problem
        if r.name in digests:
            problem = "request name repeated within a pass"
        digests[r.name] = d
        if problem is None and r.exit != 0:
            problem = f"exit code {r.exit}: {r.out.strip()[-200:]}"
        if problem is None and self.reference.setdefault(r.name, d) != d:
            problem = "answer differs from the first pass"
        if problem is None and self.pinned is not None and self.pinned.get(r.name) != d:
            problem = "answer differs from the pinned default-seed digest"
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{r.name}: {problem}")
        if tracer is not None and r.render is None:
            tracer.bytes_out += len(r.out.encode())
        r.out = r.err = r.value = None


def load_pinned(workload: str, seed: int):
    if seed != DEFAULT_SEED or not os.path.exists(PINNED):
        return None
    with open(PINNED) as fh:
        return json.load(fh).get(workload, {}).get("digests")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--no-pin-check", action="store_true",
                        help="skip the pinned digests, for re-pinning")
    args = parser.parse_args()

    workdir = os.path.join(args.root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        t0 = time.perf_counter()
        mods = import_package(args.root)
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.root, args.seed, workdir, mods)
        workload.setup()
        setup_s = time.perf_counter() - t0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0

        gc.collect()
        gc.freeze()  # set-up objects stay out of the collections made per request
        pinned = None if args.no_pin_check else load_pinned(args.workload, args.seed)
        runner = Runner(workload, pinned)
        report = {"setup_s": setup_s}
        if args.mode == "timed":
            passes, start = 0, time.perf_counter()
            while passes < MIN_PASSES or time.perf_counter() - start < args.seconds:
                runner.run_pass()
                passes += 1
            # Each request's fastest pass: load from other tenants of a shared
            # machine only ever adds time, and comes and goes.
            typical = [min(v) for v in runner.latencies.values()]
            if len(typical) < MIN_REQUESTS:
                raise SystemExit(f"a pass has {len(typical)} requests, fewer than {MIN_REQUESTS}")
            report.update(
                passes=passes,
                samples=len(typical),
                ops_per_s=len(typical) / sum(typical),
                op_p50_ms=statistics.median(typical) * 1e3,
                op_p90_ms=statistics.quantiles(typical, n=10, method="inclusive")[8] * 1e3,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            )
        else:
            from tracer import Tracer

            untraced_busy, _ = runner.run_pass()
            tracer = Tracer(mods, workload.intended)
            workload.track = tracer.track
            tracer.install()
            try:
                traced_busy, digests = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            report["layers"] = tracer.metrics(traced_busy, untraced_busy)
            report["digests"] = digests
            out_dir = os.path.join(args.root, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
        report.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems)
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            os.rmdir(os.path.dirname(workdir))


if __name__ == "__main__":
    sys.exit(main())
