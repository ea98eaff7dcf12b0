"""The benchmark's smoke mode: every workload runs at tiny sizes, traced and
untraced, and every answer check passes. It catches a change that breaks a
workload's answers or a name the benchmark's tracer wraps.

The traced counts of the single-threaded workloads are pinned too, for the
smoke ops at seed 1 and for the full-size ops at seed 7, and so is the
number of their unifications that succeed, so a change that claims to
resolve the same goals the same way has to show it. A change that moves a
count on purpose updates the pin and says why."""

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
# the COUNTED metrics of one traced worker and how many of its unifications
# succeed (a change of walk order must not change which of them do): at
# smoke size, seed 1, and at full size, seed 7
PINNED = {
    "resolve": ((211, 128, 64, 80, 6), 64),
    "engines": ((452, 507, 351, 244, 85), 341),
    "clause_store": ((141, 174, 142, 227, 23), 93),
}
PINNED_FULL = {
    "resolve": ((65261, 11688, 7061, 9989, 80), 7061),
    "engines": ((21481, 27243, 16290, 10204, 4285), 15991),
    "clause_store": ((16391, 11792, 18497, 39143, 443), 4391),
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


def assert_traced_counts(workload, size, seed, pinned):
    # the environment run.py gives its workers
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    args = ["--workload", workload, "--seed", str(seed), "--mode", "traced", "--size", size]
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
    counted = tuple(metrics[name] for name in COUNTED)
    successes = round(metrics["terms.unify_success_ratio"] * metrics["terms.unify_calls"])
    assert (counted, successes) == pinned, (
        f"{workload} {size} seed {seed} counts moved. A change that moves a"
        " count on purpose updates the pins and says why (see this module's"
        " docstring).\n"
        f"  pinned:   {pinned!r}\n"
        f"  measured: {(counted, successes)!r}\n"
        f'  "{workload}": {(counted, successes)!r},'
    )


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_traced_smoke_counts_stay_pinned(workload):
    assert_traced_counts(workload, "smoke", 1, PINNED[workload])


@pytest.mark.parametrize("workload", sorted(PINNED_FULL))
def test_traced_full_size_counts_stay_pinned(workload):
    assert_traced_counts(workload, "full", 7, PINNED_FULL[workload])


def test_the_tracers_event_map_names_each_resume_outcome(monkeypatch):
    # the tracer counts machine.events_* by type(event); a name the package
    # no longer binds to the class resume returns would count nothing
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracing import EVENT_NAMES

    from hornlog import Session

    s = Session(prelude=False, text="f(a).")

    def named(goal, n):
        m = s.new_engine("X", goal)
        return [EVENT_NAMES[type(m.resume())] for _ in range(n)]

    assert named("f(X)", 2) == ["answer", "exhausted"]
    assert named("return(X)", 1) == ["yield"]
    assert named("g(X)", 1) == ["error"]
