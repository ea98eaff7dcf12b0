"""One benchmark process: runs one workload and prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode timed|traced [--size full|smoke]

It is started by run.py, with hornlog's `src` on PYTHONPATH, so that each
run gets a fresh interpreter and its own peak RSS.

timed   Repeats passes over the seeded op sequence until `--seconds` have
        passed, and times Session construction (setup_s) between passes.
        Each pass uses a fresh Session, so one pass's leaked engines cannot
        slow the next.
traced  Runs two untraced passes and then one traced pass over the same op
        sequence, and reports the per-layer metrics of the traced pass.

Timed runs scale every timing to a reference machine speed, measured by a
fixed probe loop between ops (see `Speed`); the unscaled figures are
reported beside.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import threading
import time
from array import array
from pathlib import Path

from hornlog import Session
from tracing import Tracer
from workloads import INCORRECT, OUTCOMES, RAISED, SIZES, WORKLOADS, check, outcome_of_exception

OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 60
TAIL_WINDOW = 1000  # samples in one window of op_us_tail
# the probe loop's time on the machine this benchmark was written on (a
# 2-vCPU Intel Xeon guest) while no other tenant slowed its CPU
PROBE_REF_NS = 600_000
PROBE_EVERY_S = 0.02


class _Cell:
    __slots__ = ("key", "link")

    def __init__(self, key, link):
        self.key = key
        self.link = link


def _walk(cell, depth):
    return depth if cell is None or depth == 8 else _walk(cell.link, depth + 1)


def probe_ns() -> int:
    """Time of one fixed loop in the style of hornlog's machine: small
    slotted objects, dict lookups, short recursive walks, a trail pushed
    and unwound. It does not use hornlog and runs with gc off, so no
    change to hornlog can change its time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        cells = {}
        trail = []
        for i in range(1500):
            cell = _Cell(i, cells.get((i * 7) & 255))
            cells[i & 255] = cell
            trail.append(cell)
            if i & 3 == 0:
                _walk(cell, 0)
        while trail:
            trail.pop().link = None
        return time.perf_counter_ns() - t0
    finally:
        if was_enabled:
            gc.enable()


class Speed:
    """The machine's speed now: PROBE_REF_NS over the probe's time.

    On a shared host each virtual CPU runs at about two speeds 1.9x apart
    as other tenants come and go, switching within milliseconds or staying
    slow for minutes; the thread's CPU time slows with it. The probe runs
    between ops, never inside one, at most PROBE_EVERY_S apart. A timing
    multiplied by the mean factor of the probes just before and just after
    it is the time it would have taken at the reference speed. A single
    scaled timing stays noisy when the speed switches faster than the
    probes, but the probes sample the run evenly, so sums and medians of
    scaled timings hold whatever share of the run was slow.
    """

    def __init__(self):
        self.factors: list[float] = []
        self._at = 0.0

    def mark(self, force: bool = False) -> int:
        """Probe if PROBE_EVERY_S has passed since the last probe, or if
        forced; return the index of the latest probe."""
        if force or not self.factors or time.perf_counter() - self._at >= PROBE_EVERY_S:
            self.factors.append(PROBE_REF_NS / probe_ns())
            self._at = time.perf_counter()
        return len(self.factors) - 1

    def scale(self, took_ns: int, before: int) -> int:
        """A timing that began after probe `before`, at reference speed."""
        return round(took_ns * (self.factors[before] + self.factors[before + 1]) / 2)


def make_ops(workload, seed: int, size: str):
    # a string seed is hashed by sha512, so generation does not depend on
    # PYTHONHASHSEED or on the process
    rng = random.Random(f"{workload.name}:{seed}")
    return workload.make_ops(rng, SIZES[size][workload.name])


def run_pass(workload, ops, tracer=None, speed=None) -> dict:
    """Construct a Session and run every op once, in order. With `speed`,
    each latency is also recorded at reference speed."""
    t_start = time.perf_counter_ns()
    errors: list[str] = []
    session = Session(text=workload.program, on_error=errors.append)
    ctx = workload.start(session)
    latencies = array("q")  # 8 bytes a sample, so bookkeeping barely moves peak RSS
    marks = array("q")  # the probe before each op
    outcomes = []
    unexpected: list[str] = []  # the first few exceptions no op is known to raise
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        if speed is not None:
            marks.append(speed.mark())
        t0 = time.perf_counter_ns()
        try:
            got = workload.run_op(session, ctx, op)
        except Exception as exc:  # an exception out of get is a failed op, not a stop
            t1 = time.perf_counter_ns()
            outcome = outcome_of_exception(op, exc)
            if outcome != RAISED and len(unexpected) < 5:
                unexpected.append(f"op {i} {op.kind}: {exc!r}"[:300])
        else:
            t1 = time.perf_counter_ns()
            outcome = check(op, got)
        latencies.append(t1 - t0)
        outcomes.append(outcome)
    t_end = time.perf_counter_ns()
    scaled = array("q")
    if speed is not None:
        speed.mark(force=True)
        scaled.extend(speed.scale(lat, k) for lat, k in zip(latencies, marks))
    if tracer is not None:
        tracer.op = None
    live_end = session.engine_count()
    workload.finish(session, ctx)
    return {
        "latencies_ns": latencies,
        "scaled_ns": scaled,
        "outcomes": outcomes,
        "unexpected_exceptions": unexpected,
        "pass_wall_s": (t_end - t_start) / 1e9,
        "live_engines_end": live_end,
        "engine_errors": len(errors),
    }


def tail(sorted_values) -> tuple[float, int]:
    """(percentile, value) of the highest nearest-rank percentile that has at
    least ten samples beyond it; the median when there are too few samples."""
    n = len(sorted_values)
    if n <= 10:
        return 50.0, sorted_values[(n - 1) // 2]
    return 100 * (n - 10) / n, sorted_values[n - 11]


def outcome_counts(outcomes) -> dict:
    counts = dict.fromkeys(OUTCOMES, 0)
    for outcome in outcomes:
        counts[outcome] += 1
    return counts


def answers_ok(counts: dict) -> bool:
    """No op gave a wrong answer, a missing one, or an exception no op is known to raise."""
    return not any(counts[k] for k in INCORRECT)


def windowed_tail(latencies) -> tuple[float, int, int]:
    """(percentile, value, window size) of op_us_tail.

    The samples, in the order taken, are cut into equal windows of at
    least TAIL_WINDOW samples (one window when there are fewer); each
    window gives its `tail`, and the median window's is reported. Over all
    samples of a long run the tail would be set by the host's rare
    multi-millisecond stalls, of which a run catches a varying number."""
    n = len(latencies)
    k = max(1, n // TAIL_WINDOW)
    tails = sorted((tail(sorted(latencies[i * n // k : (i + 1) * n // k])) for i in range(k)), key=lambda t: t[1])
    p, value = tails[(k - 1) // 2]
    return p, value, n // k


def time_setup(workload, setup: dict, count: int, speed: Speed) -> None:
    for _ in range(count):
        gc.collect()
        before = speed.mark(force=True)
        t0 = time.perf_counter_ns()
        Session(text=workload.program)
        took = time.perf_counter_ns() - t0
        speed.mark(force=True)
        setup["raw"].append(took)
        setup["scaled"].append(speed.scale(took, before))


def timed(workload, ops, seconds: float) -> dict:
    """Repeat passes for `seconds`, timing Session constructions between
    passes, spread evenly over the run. Every timing is scaled to the
    probe's reference speed (see `Speed`).

    ops_per_s is ops over their summed scaled latency and op_us_p50 the
    median scaled latency, both over every op of every pass. op_us_tail
    keeps the stalls (gc pauses, thread wake-ups): it is taken from every
    scaled latency of every pass, in windows (see `windowed_tail`).
    setup_s is the median of the scaled constructions. Unscaled figures
    are reported beside.
    """
    setup: dict[str, list[int]] = {"raw": [], "scaled": []}
    passes = []
    speed = Speed()
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        due = max(1, round(SETUP_REPEATS * min(elapsed / seconds, 1.0)))
        time_setup(workload, setup, due - len(setup["raw"]), speed)
        if passes and elapsed >= seconds:
            break
        passes.append(run_pass(workload, ops, speed=speed))
        gc.collect()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the statistics
    n = len(ops)
    scaled = [lat for p in passes for lat in p["scaled_ns"]]
    tail_p, tail_ns, tail_window = windowed_tail(scaled)
    samples = len(scaled)
    outcomes = [o for p in passes for o in p["outcomes"]]
    counts = outcome_counts(outcomes)
    by_kind: dict[str, list[int]] = {}
    for p in passes:
        for op, lat in zip(ops, p["scaled_ns"]):
            by_kind.setdefault(op.kind, []).append(lat)
    metrics = {
        "setup_s": statistics.median(setup["scaled"]) / 1e9,
        "ops_per_s": samples / (sum(scaled) / 1e9),
        "op_us_p50": statistics.median(scaled) / 1e3,
        "op_us_tail": tail_ns / 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    failed = len(outcomes) - counts["ok"]
    writes = by_kind.get("assertz", []) + by_kind.get("asserta", [])
    extra = {
        "fail_ratio": failed / len(outcomes),
        "unexpected_exceptions": [e for p in passes for e in p["unexpected_exceptions"]][:5],
        "op_us_tail_percentile": tail_p,
        "op_us_tail_window": tail_window,
        "op_us_tail_samples": samples,
        "ops_per_pass": n,
        "passes": len(passes),
        "setup_samples": len(setup["raw"]),
        "speed_factor_p50": statistics.median(speed.factors),
        "speed_probes": len(speed.factors),
        "raw_setup_s": statistics.median(setup["raw"]) / 1e9,
        "raw_ops_per_s": samples / (sum(sum(p["latencies_ns"]) for p in passes) / 1e9),
        "raw_op_us_p50": statistics.median(lat for p in passes for lat in p["latencies_ns"]) / 1e3,
        "live_engines_end": statistics.median(p["live_engines_end"] for p in passes),
        "engine_errors": sum(p["engine_errors"] for p in passes),
        "op_us_p50_by_kind": {k: statistics.median(v) / 1e3 for k, v in sorted(by_kind.items())},
    }
    if workload.name == "clause_store":
        extra["assert_us_p50"] = statistics.median(writes) / 1e3
        extra["query_us_p50"] = statistics.median(by_kind["read"]) / 1e3
    return {
        "metrics": metrics,
        "extra": extra,
        "attempted": len(outcomes),
        "failed": failed,
        "outcomes": counts,
        "answers_ok": answers_ok(counts),
    }


def traced(workload, ops, spans_path: Path) -> dict:
    # the faster of two untraced passes, so that the first pass's warm-up
    # does not count as tracing overhead
    untraced_wall_s = []
    for _ in range(2):
        untraced = run_pass(workload, ops)
        untraced_wall_s.append(untraced["pass_wall_s"])
        gc.collect()
    tracer = Tracer()
    tracer.install()
    try:
        result = run_pass(workload, ops, tracer)
    finally:
        tracer.uninstall()
    op_walls = dict(enumerate(result["latencies_ns"]))
    metrics = tracer.summary(op_walls, threading.get_ident())
    metrics["session.live_engines_end"] = result["live_engines_end"]
    metrics["trace.overhead_ratio"] = result["pass_wall_s"] / min(untraced_wall_s)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path)
    outcomes = result["outcomes"]
    counts = outcome_counts(outcomes)
    return {
        "metrics": metrics,
        "extra": {
            "untraced_outcomes": outcome_counts(untraced["outcomes"]),
            "unexpected_exceptions": result["unexpected_exceptions"],
            "spans": len(tracer.spans),
        },
        "attempted": len(outcomes),
        "failed": len(outcomes) - counts["ok"],
        "outcomes": counts,
        "answers_ok": answers_ok(counts),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", required=True, choices=("timed", "traced"))
    ap.add_argument("--size", default="full", choices=sorted(SIZES))
    ap.add_argument("--tag", default="a", help="distinguishes the span files of repeated traced runs")
    args = ap.parse_args(argv)
    # All threads of the run share one CPU, the one the probe measures; the
    # hubs echo thread then hands each term back without waking a second
    # virtual CPU, whose wake-up time the host varies far more than its speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    ops = make_ops(workload, args.seed, args.size)
    if args.mode == "timed":
        out = timed(workload, ops, args.seconds)
    else:
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{args.size}-{args.tag}.jsonl.gz"
        out = traced(workload, ops, spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
