"""Worker process: import locfree from the checkout and run queries through it.

Usage: python3 worker.py ROOT < job.json

The job lists rounds of CLI argument lists.  The worker sends them one at a
time through locfree.cli.run, capturing each query's stdout and stderr, and
stops after a round once the next one would overrun the job's seconds.
Then, outside the timed part, it answers the job's probes (maximal orders
the checks re-verify) and prints one JSON object.  Times are
CLOCK_MONOTONIC readings, comparable with the parent's.

Workers also sample the machine's speed while they work: every
SPEED_EVERY_S of CPU time a profiling-timer signal runs a fixed loop of
standard-library arithmetic and records how long it took.  The parent uses
the samples to state times at one reference speed (see run.py).  A traced
worker leaves the samples out of the self time of the span they land in.
"""

import io
import json
import resource
import signal
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path


SPEED_LOOP = 240  # iterations of the speed sample, about 1 ms
SPEED_EVERY_S = 0.05  # CPU time between speed samples
SETUP_SAMPLES = 5  # speed samples taken right after set-up


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def speed_sample() -> tuple[float, float]:
    """Time a fixed mix of what locfree spends its time on, from the
    standard library only: Fraction arithmetic, small containers, int ops."""
    start = clock()
    x, acc, table, s = Fraction(3, 7), Fraction(0), {}, 0
    for i in range(SPEED_LOOP):
        acc = acc + x * i
        table[i] = [i, i * i % 13, str(i)]
        for j in range(27):
            s += j * i % 7
    return start, clock()


class SpeedSampler:
    """Takes a speed sample every SPEED_EVERY_S of CPU time while active,
    and reports each sample's duration to on_sample."""

    def __init__(self, on_sample=None):
        self.samples: list[tuple[float, float]] = []
        self.on_sample = on_sample

    def _on_timer(self, signum, frame):
        start, end = speed_sample()
        self.samples.append((start, end))
        if self.on_sample is not None:
            self.on_sample(end - start)

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, SPEED_EVERY_S, SPEED_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def run_rounds(cli, rounds, seconds, tracer):
    """Results per round run, and the peak resident size after the first.

    Later rounds add to the program's caches, and how many rounds fit in the
    time depends on the machine's speed at the moment, so only the first
    round's peak is comparable between runs.
    """
    done = []
    first_peak_kb = None
    for queries in rounds:
        results = []
        for query in queries:
            if tracer is not None:
                tracer.query += 1
            out, err = io.StringIO(), io.StringIO()
            start = clock()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = cli.run(query["argv"])
            except Exception:  # a query that raises fails; the run goes on
                rc = None
                err.write(traceback.format_exc())
            end = clock()
            results.append({"rc": rc, "out": out.getvalue(), "err": err.getvalue(),
                            "start": start, "end": end})
        done.append(results)
        if first_peak_kb is None:
            first_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = end - done[0][0]["start"]
        if elapsed + (end - results[0]["start"]) > seconds:
            break
    return done, first_peak_kb


def answer_probe(probe) -> dict:
    from locfree import QuaternionAlgebra, b_p_infinity, maximal_order

    if probe[0] == "bpinf":
        alg = b_p_infinity(probe[1])
    else:
        alg = QuaternionAlgebra(Fraction(probe[1]), Fraction(probe[2]))
    order = maximal_order(alg)
    return {"a": str(alg.a), "b": str(alg.b),
            "basis": [[str(x) for x in row] for row in order.lattice.basis()]}


def main() -> int:
    root = Path(sys.argv[1]).resolve()
    src = root / "src"
    if not (src / "locfree" / "__init__.py").is_file():
        print(f"worker: no locfree package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from locfree import cli

    ready = clock()
    setup_speed = [speed_sample() for _ in range(SETUP_SAMPLES)]
    import locfree

    if Path(locfree.__file__).resolve().parent != src / "locfree":
        print(f"worker: imported locfree from {locfree.__file__}, not {src}", file=sys.stderr)
        return 2
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    sampler = SpeedSampler(tracer.exclude if tracer is not None else None)
    with sampler:
        rounds, peak_rss_kb = run_rounds(cli, job["rounds"], job["seconds"], tracer)
    if tracer is not None:
        tracer.uninstall()
    probes = {}
    for queries in job["rounds"][:len(rounds)]:
        for query in queries:
            for probe in query["probes"]:
                probes[json.dumps(probe)] = answer_probe(probe)
    report = {"ready": ready, "rounds": rounds, "peak_rss_kb": peak_rss_kb, "probes": probes,
              "setup_speed": setup_speed, "speed": sampler.samples}
    if tracer is not None:
        report["trace"] = tracer.metrics()
        tracer.write_spans(job["trace_file"], rounds[0][0]["start"])
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
