"""Benchmark entry point.

    python3 perfbench/run.py --workload lattice|walk|ingest --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src``.  Every workload run happens in a
fresh interpreter (``worker.py``), so peak memory and the per-market
choice memo never carry over between runs or workloads.  With
``--trace 0`` the last line of output holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of one traced pass.  Lines before it
print every metric by name and unit, the failed ratio, any failed
request, and the metrics a workload does not exercise (reported as 0).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import METRICS as LAYER_METRICS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 7  # set-up runs per benchmark run, the timed run included
TIME_LIMIT_S = 170
END_TO_END = (
    ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)


def child_env() -> dict:
    env = dict(os.environ)
    # The enumeration cap stays at the program's default.
    env.pop("ENVYLATTICE_ENUM_CAP", None)
    env.pop("PYTHONPATH", None)
    # Short-circuiting loops over frozensets follow hash order; a fixed hash
    # seed makes the work counts repeat exactly from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, seconds: float, mode: str, deadline: float,
               pin_check: bool = True) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
    ]
    if not pin_check:
        cmd.append("--no-pin-check")
    proc = subprocess.run(
        cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def missing_inputs() -> list[str]:
    needed = [
        os.path.join("src", "envylattice", "__init__.py"),
        os.path.join("markets", "lattice_demo.market.json"),
        os.path.join("markets", "no_lad_demo.market.json"),
    ]
    return [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = missing_inputs()
    if missing:
        print(f"error: not a checkout of the repository, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        run = (args.workload, args.seed, args.seconds)
        if args.trace:
            report = run_worker(*run, "traced", deadline)
        else:
            setups = [run_worker(*run, "setup", deadline)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
            report = run_worker(*run, "timed", deadline)
            setups.append(report["setup_s"])
            report["setup_s"] = statistics.median(setups)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} requests, failed_ratio {failed / attempted:.4f} ({failed}/{attempted})")
    for problem in report["problems"]:
        print(f"  failed: {problem}")
    if args.trace:
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in report["layers"].items()}
        absent = [name for name, value in report["layers"].items() if value == 0]
        if absent:
            print("absent (not exercised by this workload, reported as 0): " + " ".join(absent))
    else:
        print(f"samples: {report['samples']} requests per pass, {report['passes']} passes; "
              "each request's latency is its fastest pass")
        metrics = {name: {"value": report[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
