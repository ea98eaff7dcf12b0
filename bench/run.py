"""hornlog's benchmark: four seeded engine workloads, checked answers, and a
per-module breakdown from one traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run it from the root of a checkout; it imports hornlog from `src/`.

--trace 0  Starts one worker process that measures the end-to-end metrics
           with tracing off: setup_s, ops_per_s, op_us_p50, op_us_tail and
           peak_rss_mb, every timing scaled to a reference machine speed
           (README.md says how each is taken). The lines before the result
           also give fail_ratio, the tail's percentile and sample count,
           the unscaled timings, and for clause_store assert_us_p50 and
           query_us_p50. --seconds defaults to run_seconds in
           BENCHMARK.json.
--trace 1  Starts the traced worker twice on the same seed and reports the
           per-module metrics of the first. On the single-threaded
           workloads the counts in EXACT_COUNTS must repeat exactly, or the
           result is marked incorrect.
--smoke    Runs every workload at tiny sizes in both modes and checks that
           every answer check passes, the counts repeat, and the worker
           reports exactly the metrics BENCHMARK.json lists. Exits 0 when
           all hold.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. `correct` is false when an op gave a wrong
answer, a NO where an answer was due, or raised an exception other than
the known defect it may run into (RecursionError from deeply nested get,
on the not_not and catch ops of `engines`). Every failed op, that one
included, counts in `failed` and fail_ratio. A full report, with
per-op-kind latencies, is written to bench/out/.

Workloads, sizes and references are in workloads.py, the tracer in
tracing.py, and the measuring process in worker.py.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = BENCH / "out"

WORKLOAD_NAMES = ("resolve", "engines", "clause_store", "hubs")
SINGLE_THREADED = ("resolve", "engines", "clause_store")
EXACT_COUNTS = ("machine.inferences", "terms.unify_calls", "terms.copy_cells", "session.spawn_calls")
# printed before the result line only: zero on some workloads, or measured
# on clause_store alone, so they cannot be bounded end-to-end metrics
EXTRA_UNITS = {"fail_ratio": "ratio", "assert_us_p50": "us", "query_us_p50": "us"}
# a timed worker may overrun --seconds by its last pass and its last
# Session constructions; each traced worker runs three passes
TIMED_MARGIN_S = 60
TRACED_TIMEOUT_S = 80


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(trace: int) -> dict[str, str]:
    """Names and units of the metrics BENCHMARK.json lists for a mode."""
    return {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}


def with_units(values: dict, trace: int) -> dict:
    """The metrics BENCHMARK.json lists, in its order; a missing one raises."""
    return {name: {"value": values[name], "unit": unit} for name, unit in metric_units(trace).items()}


def run_worker(args: list[str], timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # same string hashing in every run
    # subprocess.run kills and reaps the child if it overruns the timeout
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float, size: str) -> tuple[dict, dict]:
    res = run_worker(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--mode", "timed", "--size", size],
        seconds + TIMED_MARGIN_S,
    )
    result = {
        "correct": res["answers_ok"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": with_units(res["metrics"], 0),
    }
    return result, dict(res, worker_metrics=sorted(res["metrics"]))


def per_layer(workload: str, seed: int, size: str) -> tuple[dict, dict]:
    runs = [
        run_worker(
            ["--workload", workload, "--seed", str(seed), "--mode", "traced", "--size", size, "--tag", tag],
            TRACED_TIMEOUT_S,
        )
        for tag in ("a", "b")
    ]
    first, second = runs
    mismatched = []
    if workload in SINGLE_THREADED:
        mismatched = [k for k in EXACT_COUNTS if first["metrics"][k] != second["metrics"][k]]
    correct = not mismatched and all(r["answers_ok"] for r in runs)
    metrics = dict(first["metrics"])
    metrics["trace.overhead_ratio"] = (first["metrics"]["trace.overhead_ratio"] + second["metrics"]["trace.overhead_ratio"]) / 2
    result = {
        "correct": correct,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "metrics": with_units(metrics, 1),
    }
    report = {
        "runs": runs,
        "exact_counts_mismatched": mismatched,
        "worker_metrics": sorted(metrics),
        "extra": {"unexpected_exceptions": [e for r in runs for e in r["extra"]["unexpected_exceptions"]]},
    }
    return result, report


def print_lines(workload: str, seed: int, result: dict, report: dict) -> None:
    print(f"workload {workload}  seed {seed}  attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    extra = report.get("extra", {})
    for e in extra.get("unexpected_exceptions", []):
        print(f"  unexpected exception: {e}")
    for name in ("fail_ratio", "assert_us_p50", "query_us_p50"):
        if name in extra:
            print(f"  {name:28s} {extra[name]:.6g} {EXTRA_UNITS[name]}")
    if "passes" in extra:
        print(
            f"  {extra['passes']} passes of {extra['ops_per_pass']} ops;"
            f" op_us_tail: p{extra['op_us_tail_percentile']:.5g} of the median window of {extra['op_us_tail_window']}"
            f" of {extra['op_us_tail_samples']} samples; setup_s: median of {extra['setup_samples']} constructions"
        )
        print(
            f"  unscaled (median speed factor {extra['speed_factor_p50']:.4g} over {extra['speed_probes']} probes):"
            f" setup_s {extra['raw_setup_s']:.6g}, ops_per_s {extra['raw_ops_per_s']:.6g},"
            f" op_us_p50 {extra['raw_op_us_p50']:.6g}"
        )
    if report.get("exact_counts_mismatched"):
        print(f"  counts that did not repeat: {', '.join(report['exact_counts_mismatched'])}")


def measure(workload: str, seed: int, seconds: float, trace: int, size: str = "full") -> tuple[dict, dict]:
    if trace:
        result, report = per_layer(workload, seed, size)
    else:
        result, report = end_to_end(workload, seed, seconds, size)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-{size}-trace{trace}.json"
    path.write_text(json.dumps({"result": result, "report": report}, indent=1))
    print_lines(workload, seed, result, report)
    return result, report


def smoke() -> int:
    problems = []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            result, report = measure(workload, 1, 1, trace, size="smoke")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: answer checks failed")
            if report.get("exact_counts_mismatched"):
                problems.append(f"{workload} trace {trace}: counts did not repeat")
            unlisted = set(report["worker_metrics"]) - set(metric_units(trace))
            if unlisted:
                problems.append(f"{workload} trace {trace}: not in BENCHMARK.json: {sorted(unlisted)}")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, every workload and mode")
    args = ap.parse_args(argv)
    if not (SRC / "hornlog" / "__init__.py").is_file():
        print(f"bench: no hornlog sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")
    result, _ = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
