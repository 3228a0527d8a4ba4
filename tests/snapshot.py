"""Write one JSON snapshot of the program's observable output.

The snapshot holds:

* exit code, stdout and stderr of every ``congruence``, ``closure`` and
  ``verify`` bench job at the given bench seed, each run in process through
  ``availcsp.cli.main``;
* the op and den cores of every corpus process (``tests/data``) at the six
  congruence points, at len 3 and 4;
* ``emit_script(to_simulation(...))`` of every corpus process at n=F,k=1 and
  n=F,k=F, which spells out the shape of its transition system;
* ``pretty_env`` of every spec file under ``tests/data`` and ``bench/data``;
* the ``-h`` text of the top-level parser and of every subcommand;
* exit code, stdout and stderr of a fixed list of bad invocations.

Two checkouts give byte-identical output when their snapshots do not
differ.  Run from any directory; the script re-runs itself with
``PYTHONHASHSEED=0`` so that set order cannot differ between runs, and with
``COLUMNS=80`` so that help text wraps the same way::

    python3 tests/snapshot.py --seed 5 --out before.json
    python3 tests/snapshot.py --seed 5 --out after.json   # on the change
    diff before.json after.json

Not collected by pytest.
"""
from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LENGTHS = (3, 4)
COMMANDS = ("traces", "equiv", "refine", "test", "health", "realize", "simulate",
            "distinguish", "congruence")
SPEC = os.path.join("tests", "data", "group_ab.csp")
BAD_INVOCATIONS = (
    ("traces", SPEC, "EXT", "--model", "m=1"),
    ("traces", SPEC, "EXT", "--model", "n=x,k=1"),
    ("distinguish", SPEC, "EXT", "CYCLE", "--grid", "n=1..3"),
    ("distinguish", SPEC, "EXT", "CYCLE", "--grid", "n=3..1,k=1"),
    ("traces", SPEC, "EXT", "--len", "-1"),
    ("traces", SPEC, "EXT", "--tau", "0"),
    ("traces", SPEC, "EXT", "--len", "3", "--internal-len", "2"),
    ("health", SPEC),
    ("test", SPEC, "EXT"),
    ("nosuch", SPEC, "EXT"),
    ("traces", "/no/such.csp", "EXT", "--model", "m=1"),
)


def run_cli(argv) -> dict:
    """Exit code, stdout and stderr of one in-process CLI call."""
    from availcsp.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "code": code,
            "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def run_jobs(seed: int) -> list:
    from workloads import WORKLOADS, jobs_for

    return [dict(run_cli(job.argv), workload=workload)
            for workload in WORKLOADS for job in jobs_for(workload, seed)]


def corpus_cores() -> dict:
    from availcsp import Bounds, avail_traces, denote_traces, show_trace
    from conftest import GROUP_NAMES, PARAM_POINTS, group_processes, load_group

    def shown(ts) -> list:
        return sorted(show_trace(t) for t in ts.canon)

    out = {}
    for group in GROUP_NAMES:
        env = load_group(group)
        for name, term in group_processes(env):
            for params in PARAM_POINTS:
                for length in LENGTHS:
                    bounds = Bounds(trace_len=length)
                    key = f"{group} {name} n={params.run_bound},k={params.set_bound} len={length}"
                    out[key] = {"op": shown(avail_traces(term, env, params, bounds)),
                                "den": shown(denote_traces(term, env, params, bounds))}
    return out


def simulation_scripts() -> dict:
    from availcsp import ModelParams, emit_script, to_simulation
    from conftest import GROUP_NAMES, group_processes, load_group

    out = {}
    for group in GROUP_NAMES:
        env = load_group(group)
        for name, term in group_processes(env):
            for k in (1, None):
                params = ModelParams(run_bound=None, set_bound=k)
                out[f"{group} {name} {params.show()}"] = emit_script(
                    to_simulation(term, env, params))
    return out


def spec_texts() -> dict:
    from availcsp import parse_spec, pretty_env

    out = {}
    paths = glob.glob(os.path.join("tests", "data", "**", "*.csp"), recursive=True)
    paths += glob.glob(os.path.join("bench", "data", "**", "*.csp"), recursive=True)
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            out[path] = pretty_env(parse_spec(fh.read()))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=5, help="bench seed of the job lists")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0" or os.environ.get("COLUMNS") != "80":
        env = dict(os.environ, PYTHONHASHSEED="0", COLUMNS="80")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    out_path = os.path.abspath(args.out)
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench"),
                    os.path.join(ROOT, "tests")]
    snapshot = {"seed": args.seed, "jobs": run_jobs(args.seed),
                "cores": corpus_cores(), "simulations": simulation_scripts(),
                "pretty": spec_texts(),
                "help": [run_cli(argv) for argv in [("-h",)] + [(c, "-h") for c in COMMANDS]],
                "usage_errors": [run_cli(argv) for argv in BAD_INVOCATIONS]}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
