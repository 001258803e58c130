"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The traced runs take one to two minutes in all.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from run import HERE, ROOT, run_worker
from tracer import METRICS, PINNED_COUNTS, SPECS, Tracer
from worker import DEFAULT_SEED, MODULES, PINNED, import_package
from workloads import WORKLOADS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_pinned_counts_repeat_exactly(workload):
    runs = [run_worker(workload, DEFAULT_SEED, 0, "traced", time.monotonic() + 600) for _ in range(2)]
    for r in runs:
        assert r["failed"] == 0, r["problems"]  # includes the pinned digests
        assert list(r["layers"]) == [name for name, _, _ in METRICS]
    first, second = ({k: r["layers"][k] for k in PINNED_COUNTS} for r in runs)
    assert first == second
    with open(PINNED) as fh:
        assert set(json.load(fh)[workload]["digests"]) == set(runs[0]["digests"])


def test_tracer_restores_every_binding():
    mods = import_package(ROOT)
    before = {name: dict(vars(mod)) for name, mod in mods.items()}
    checkers = dict(mods["choice"].CHECKERS)
    tracer = Tracer(mods, frozenset())
    tracer.install()
    assert mods["classify"].all_allocations is not before["classify"]["all_allocations"]
    assert mods["validate"].CHECKERS["lad"] is not checkers["lad"]
    tracer.uninstall()
    for name, mod in mods.items():
        assert {k: v for k, v in vars(mod).items() if k in before[name]} == before[name]
    assert mods["choice"].CHECKERS == checkers
    assert importlib.import_module("envylattice").classify is before["classify"]["classify"]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_specs_wrap_only_imported_modules():
    assert {mod for mod, *_ in SPECS} <= set(MODULES)
