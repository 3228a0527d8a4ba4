"""The availcsp benchmark: CLI-job workloads with known answers.

    python3 bench/run.py --workload congruence --seed 1 --seconds 30 --trace 0

Untraced (``--trace 0``): runs the workload in a fresh child process for
``--seconds``, measures set-up time before and after it, and prints the
end-to-end metrics.
Traced (``--trace 1``): one untraced pass and one traced pass, each in its
own child, and prints the per-layer metrics plus the tracing overhead.

Every job's exit code and output are checked against its known answer.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the provenance row, also appended to
``.bench_out/results.jsonl``.  Exits 1 when a verdict is wrong or a job
crashed, and 2 when the availcsp sources are missing.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH)

from workloads import SPECS, WORKLOADS  # noqa: E402

SETUP_RUNS = 16
DEADLINE_S = 170          # every run ends well inside the 180 s limit
TAIL_MIN_BEYOND = 10

SETUP_CODE = (
    "import sys, availcsp.cli\n"
    "for path in sys.argv[1:]:\n"
    "    with open(path, encoding='utf-8') as fh:\n"
    "        availcsp.parse_spec(fh.read())\n"
)

# Layer groups whose time a workload was chosen to concentrate on: self
# times, except finalize, which counts with the kernel helpers it calls.
SPLIT = {
    "congruence": ("denotational.self_s", "healthiness.finalize_s",
                   "trace_algebra.self_s"),
    "closure": ("healthiness.membership_self_s", "healthiness.check_self_s",
                "kernel.self_s"),
    "verify": ("equivalence.witness_self_s", "healthiness.membership_self_s"),
}

END_TO_END = {"setup_s": "s", "wall_ref": "ref", "job_p50_ref": "ref",
              "job_tail_ref": "ref", "peak_rss_mb": "MB"}
REF_WINDOW = 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    # set iteration order steers exploration order; keep it fixed
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(workload: str, runs: int) -> list:
    """Wall times of fresh interpreters that import availcsp and parse the
    workload's spec files."""
    argv = [sys.executable, "-c", SETUP_CODE, *SPECS[workload]]
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                              stdout=subprocess.DEVNULL) as proc:
            # A wait with a timeout polls at intervals of up to 50 ms, which
            # would round every sample up to the next poll; wait blocking and
            # let a timer kill a child that hangs.
            watchdog = threading.Timer(60, proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
    return times


def run_worker(workload, seed, seconds, deadline, passes=None, trace=False) -> dict:
    argv = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    if passes is not None:
        argv += ["--passes", str(passes)]
    if trace:
        argv += ["--trace", "--spans",
                 os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")]
    done = subprocess.run(argv, cwd=ROOT, env=child_env(), check=True,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(done.stdout.splitlines()[-1])


def tail(values):
    """(percentile, value): the highest whole percentile whose nearest-rank
    value still has at least TAIL_MIN_BEYOND jobs above it."""
    n = len(values)
    if n <= TAIL_MIN_BEYOND:
        raise ValueError(f"{n} jobs leave no tail with {TAIL_MIN_BEYOND} beyond it")
    ordered = sorted(values)
    pct = 100 * (n - TAIL_MIN_BEYOND) // n
    while n - math.ceil(pct * n / 100) < TAIL_MIN_BEYOND:
        pct -= 1
    return pct, ordered[math.ceil(pct * n / 100) - 1]


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def relative_latencies(res: dict) -> list:
    """Each job's latency in reference units.  In each pass the job's time
    is divided by the median of the reference timings taken just around it
    (REF_WINDOW jobs on each side, in the same pass); the job's value is
    the median of those ratios over the passes."""
    out = []
    for i, lats in enumerate(res["latencies"]):
        ratios = [lat / statistics.median(
                      res["refs"][p][max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
                  for p, lat in enumerate(lats)]
        out.append(statistics.median(ratios))
    return out


def end_to_end(setup_s: float, res: dict):
    """End-to-end metrics, the tail percentile used, and the same figures in
    seconds for the provenance row.

    The speed of a shared machine drifts by up to 2x within seconds, and a
    whole run can fall in a slow stretch, so the bounded metrics are job
    latencies in reference units (see relative_latencies): each is the time
    a job takes as a multiple of a fixed pure-Python computation timed next
    to it.  wall_ref, the time to run the job list once, is their sum."""
    rel = relative_latencies(res)
    pct, tail_ref = tail(rel)
    values = {
        "setup_s": setup_s,
        "wall_ref": math.fsum(rel),
        "job_p50_ref": statistics.median(rel),
        "job_tail_ref": tail_ref,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    best = [min(lats) for lats in res["latencies"]]
    in_seconds = {
        "wall_s": math.fsum(best),
        "job_p50_s": statistics.median(best),
        "job_tail_s": tail(best)[1],
        "reference_s": statistics.median(r for refs in res["refs"] for r in refs),
    }
    return ({k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
            pct, in_seconds)


def per_layer(workload: str, untraced: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    job_s = layers["trace.job_s"]
    layers["trace.split_share"] = (
        sum(layers[k] for k in SPLIT[workload]) / job_s if job_s else 0.0)
    layers["trace.overhead_s"] = (
        statistics.median(traced["walls"]) - statistics.median(untraced["walls"]))
    return {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}


def unit_of(name: str) -> str:
    if name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    if name.endswith("_s") or ".self_s." in name:
        return "s"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="availcsp benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "availcsp", "cli.py")):
        print(f"bench: no availcsp sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)

    if args.trace:
        untraced = run_worker(args.workload, args.seed, args.seconds, deadline, passes=1)
        res = run_worker(args.workload, args.seed, args.seconds, deadline, passes=1,
                         trace=True)
        metrics = per_layer(args.workload, untraced, res)
        pct, in_seconds = None, None
        checked = (untraced, res)
    else:
        # half the set-up samples before the workload and half after it, so
        # the median spans the run; the first one only warms the file caches
        setup = measure_setup(args.workload, SETUP_RUNS // 2 + 1)[1:]
        res = run_worker(args.workload, args.seed, args.seconds, deadline)
        setup += measure_setup(args.workload, SETUP_RUNS - len(setup))
        metrics, pct, in_seconds = end_to_end(statistics.median(setup), res)
        checked = (res,)

    attempted = sum(r["attempted"] for r in checked)
    wrong = [w for r in checked for w in r["wrong"]]
    crashed = [c for r in checked for c in r["crashed"]]
    row = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "jobs": res["jobs"], "passes": res["passes"],
        "tail_percentile": pct, "wrong_verdicts": len(wrong),
        "failed_frac": len(crashed) / attempted,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": git_commit(),
        "metrics": {k: m["value"] for k, m in metrics.items()},
        "in_seconds": in_seconds,
    }
    with open(os.path.join(OUT, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")
    for item in wrong + crashed:
        print("bench: FAILED " + json.dumps(item), file=sys.stderr)
    correct = not wrong and not crashed
    print(json.dumps(row))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(crashed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
