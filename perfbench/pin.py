"""Re-pin the default-seed answers and work counts.

    python3 perfbench/pin.py

Runs the traced pass of every workload twice at the default seed, with
the pinned digests ignored, and writes ``pinned.json``: the digest of
every answer (which later runs at the default seed must reproduce) and
the counts named in ``tracer.PINNED_COUNTS``, as the baseline that later
changes quote.  Refuses to pin if the two runs disagree on anything.
Only re-pin when the program's output is meant to change.
"""

from __future__ import annotations

import json
import sys
import time

from run import missing_inputs, run_worker
from tracer import PINNED_COUNTS
from worker import DEFAULT_SEED, PINNED
from workloads import WORKLOADS


def main() -> int:
    if missing_inputs():
        print("error: not a checkout of the repository", file=sys.stderr)
        return 2
    pinned = {}
    for name in WORKLOADS:
        runs = [
            run_worker(name, DEFAULT_SEED, 0, "traced", time.monotonic() + 600, pin_check=False)
            for _ in range(2)
        ]
        counts = [{k: r["layers"][k] for k in PINNED_COUNTS} for r in runs]
        if any(r["failed"] for r in runs) or runs[0]["digests"] != runs[1]["digests"] or counts[0] != counts[1]:
            print(f"error: {name}: the two runs disagree or failed", file=sys.stderr)
            return 1
        pinned[name] = {"counts": counts[0], "digests": runs[0]["digests"]}
        print(f"{name}: {len(runs[0]['digests'])} answers, counts {counts[0]}")
    with open(PINNED, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
