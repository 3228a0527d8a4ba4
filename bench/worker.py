"""One workload in one fresh process: a closed loop of CLI jobs.

One client runs the job list back to back, in process, through
``availcsp.cli.main``, with no threads.  Whole passes over the list repeat
while the next pass is expected to end within ``--seconds`` (at least one
pass, at most ``--passes``).  A pass's wall time is the sum of its job
latencies.  Before each job, outside its timing, the worker times one call
of ``reference``, so that ``run.py`` can divide each latency by the
machine's speed at that moment.  The last line of standard output is a JSON
summary for ``run.py``; job output goes to in-memory buffers.

    python3 bench/worker.py --workload congruence --seed 1 --seconds 30 [--trace]
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_job(main, job):
    """(exit code or None when an exception escaped main, stdout, seconds,
    traceback text)."""
    out = io.StringIO()
    crash = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(job.argv))
    except SystemExit as exc:   # argparse and usage errors: a CLI exit code
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        crash = traceback.format_exc()
    return code, out.getvalue(), time.perf_counter() - start, crash


REFERENCE_ITEMS = 4000


def reference() -> int:
    """A fixed pure-Python computation that builds and probes a table of
    tuples and frozensets, the kind of work the engines do, and takes about
    3 ms.  It uses nothing from availcsp, so no change to the program moves
    its time; only the machine's speed does."""
    n = REFERENCE_ITEMS
    items = [(i % 6, i % 7, i % 11, i) for i in range(n)]
    index = {t: frozenset(t[:3]) for t in items}
    return sum(len(index[items[(k * 7919) % n]]) for k in range(0, n, 7))


def timed_reference() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def run(workload: str, seed: int, seconds: float, max_passes: int, tracer=None) -> dict:
    from availcsp import cli
    from workloads import jobs_for

    jobs = jobs_for(workload, seed)
    main = cli.main
    if tracer is not None:
        tracer.install()
        main = lambda argv: tracer.run_root(cli.main, argv)  # noqa: E731
    latencies = [[] for _ in jobs]
    refs = []       # refs[p][i]: the reference time taken before job i of pass p
    walls = []
    wrong, crashed = [], []
    # A CLI call starts with a fresh heap.  Collecting before each job, with
    # the start-up objects frozen out of the scan, keeps one job's garbage
    # from being collected inside the next.
    gc.collect()
    gc.freeze()
    begin = time.perf_counter()
    while True:
        wall = 0.0
        refs.append([])
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            gc.collect()
            refs[-1].append(timed_reference())
            code, out, elapsed, crash = run_job(main, job)
            latencies[i].append(elapsed)
            wall += elapsed
            if crash is not None:
                crashed.append({"job": job.key, "traceback": crash})
                continue
            why = job.mismatch(code, out)
            if why is not None:
                wrong.append({"job": job.key, "law": job.law, "why": why})
        walls.append(wall)
        spent = time.perf_counter() - begin
        if len(walls) >= max_passes or spent + spent / len(walls) > seconds:
            break
    return {
        "jobs": len(jobs),
        "passes": len(walls),
        "walls": walls,
        "latencies": latencies,
        "refs": refs,
        "attempted": len(jobs) * len(walls),
        "wrong": wrong,
        "crashed": crashed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--passes", type=int, default=1000)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    result = run(args.workload, args.seed, args.seconds, args.passes, tracer)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
