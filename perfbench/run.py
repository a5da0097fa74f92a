"""locfree benchmark: one workload per run, outputs checked, one JSON line out.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload {cancel,classset,quadclass,saturate}
                             --seed N --seconds S --trace {0,1}

With --trace 0 one worker process runs rounds of the workload's queries,
one at a time (a closed loop with one client), for about S seconds, and the
end-to-end metrics are reported.  With --trace 1 the first round runs twice,
in two fresh workers, untraced and then traced; the per-layer metrics come
from the traced worker, its stdout must equal the untraced worker's, and its
spans are written to perfbench/out/.  The checks run after the timed part.
The last line of stdout is the result object.

Times are stated at a reference machine speed.  This machine's speed swings
by up to 40% over seconds to minutes with load from outside the sandbox, so
raw wall times of the same work differ that much from run to run.  The
untraced worker samples its own speed every 50 ms of CPU time (worker.py);
an interval's time is its wall time less the time spent sampling, scaled by
REFERENCE_SAMPLE_S over the speed samples taken in it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER_TIMEOUT_S = 150
REFERENCE_SAMPLE_S = 0.001  # duration of one speed sample at reference speed

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def spawn_worker(rounds, seconds: float, trace_file: str | None = None) -> tuple[float, dict]:
    """Run a worker on the given rounds; returns (spawn time, its report)."""
    job = {"rounds": [[{"argv": q.argv, "probes": q.probes} for q in r] for r in rounds],
           "seconds": seconds, "trace": trace_file is not None, "trace_file": trace_file}
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(ROOT)],
                          input=json.dumps(job), capture_output=True, text=True,
                          cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()}")
    return spawned, json.loads(proc.stdout)


def query_faults(query, result, probes) -> tuple[bool, list[str]]:
    """(ran, faults): ran is False when the query exited non-zero or raised."""
    if result["rc"] != 0:
        return False, [f"{' '.join(query.argv)}: exit {result['rc']}: {result['err'].strip()[-300:]}"]
    try:
        doc = json.loads(result["out"])
        answers = {tuple(p): probes[json.dumps(p)] for p in query.probes}
        faults = checks.CHECKS[query.kind](query.params, doc, answers)
    except (ValueError, KeyError, TypeError, ArithmeticError) as e:
        faults = [f"output could not be checked: {type(e).__name__}: {e}"]
    return True, [f"{' '.join(query.argv)}: {f}" for f in faults]


def outcomes(rounds, report) -> list[tuple[bool, list[str]]]:
    """(ran, faults) for each query the worker ran, in order."""
    return [query_faults(query, result, report["probes"])
            for queries, results in zip(rounds, report["rounds"])
            for query, result in zip(queries, results)]


def tally(items) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, faults): a query with faults failed, and a
    query that ran to exit 0 with faults makes the run incorrect."""
    failed = sum(bool(faults) for _, faults in items)
    correct = not any(ran and faults for ran, faults in items)
    return len(items), failed, correct, [f for _, faults in items for f in faults]


def at_reference_speed(start: float, end: float, samples) -> float:
    """Seconds the work done in [start, end] takes at reference speed.

    Uses the speed samples taken inside the interval, or the nearest one
    when the interval is shorter than the sampling period.
    """
    inside = [(s, e) for s, e in samples if start <= s and e <= end]
    busy = end - start - sum(e - s for s, e in inside)
    basis = inside or [min(samples, key=lambda x: min(abs(x[0] - start), abs(x[1] - end)))]
    return busy * REFERENCE_SAMPLE_S * statistics.mean(1 / (e - s) for s, e in basis)


def round_times(report) -> tuple[list[float], list[float]]:
    """Per round: (first start to last end, slowest query), at reference speed."""
    speed = report["speed"]
    walls = [at_reference_speed(r[0]["start"], r[-1]["end"], speed) for r in report["rounds"]]
    slowest = [max(at_reference_speed(q["start"], q["end"], speed) for q in r)
               for r in report["rounds"]]
    return walls, slowest


def untraced_run(plan, seconds: float) -> tuple[int, int, bool, list[str], dict]:
    spawned, report = spawn_worker(plan.rounds, seconds)
    walls, slowest = round_times(report)
    setup = report["ready"] - spawned
    setup *= REFERENCE_SAMPLE_S * statistics.mean(1 / (e - s) for s, e in report["setup_speed"])
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "max_query_s": {"value": statistics.median(slowest), "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_kb"] / 1024, "unit": "MB"},
    }
    return (*tally(outcomes(plan.rounds, report)), metrics)


def traced_run(plan, workload: str, seed: int) -> tuple[int, int, bool, list[str], dict]:
    rounds = plan.rounds[:1]
    _, plain = spawn_worker(rounds, 0)
    trace_file = OUT / f"trace-{workload}-{seed}.json"
    _, traced = spawn_worker(rounds, 0, str(trace_file))
    items = outcomes(rounds, plain)
    for (ran, faults), query, a, b in zip(items, rounds[0], plain["rounds"][0], traced["rounds"][0]):
        if (a["rc"], a["out"]) != (b["rc"], b["out"]):
            faults.append(f"{' '.join(query.argv)}: traced stdout differs from untraced stdout")
    values = traced["trace"]
    values["trace.overhead_s"] = round_times(traced)[0][0] - round_times(plain)[0][0]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracing.metric_names()}
    return (*tally(items), metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "locfree" / "__init__.py").is_file():
        print(f"run.py: {ROOT} holds no locfree source tree (src/locfree)", file=sys.stderr)
        return 2
    plan = workloads.make_plan(args.workload, args.seed, str((OUT / "specs").relative_to(ROOT)))
    workloads.write_files(ROOT, plan)
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            attempted, failed, correct, faults, metrics = traced_run(plan, args.workload, args.seed)
        else:
            attempted, failed, correct, faults, metrics = untraced_run(plan, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    for fault in faults[:20]:
        print(f"FAULT {fault}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
