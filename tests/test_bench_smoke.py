"""The benchmark's smoke mode: every workload runs at tiny sizes, traced and
untraced, and every answer check passes. It catches a change that breaks a
workload's answers or a name the benchmark's tracer wraps.

The traced counts of the single-threaded workloads' smoke ops are pinned
too, so a change that claims to resolve the same goals the same way has to
show it. A change that moves a count on purpose updates the pin and says
why."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

COUNTED = (
    "machine.pred_calls",
    "machine.builtin_calls",
    "terms.unify_calls",
    "terms.copy_cells",
    "session.spawn_calls",
)
# the COUNTED metrics of one traced worker, seed 1, smoke size
PINNED = {
    "resolve": (211, 128, 82, 80, 6),
    "engines": (480, 547, 414, 364, 99),
    "clause_store": (141, 174, 148, 227, 23),
}


def test_bench_smoke_exits_zero():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_traced_smoke_counts_stay_pinned(workload):
    # the environment run.py gives its workers
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    args = ["--workload", workload, "--seed", "1", "--mode", "traced", "--size", "smoke"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert tuple(metrics[name] for name in COUNTED) == PINNED[workload]
