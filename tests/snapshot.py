"""Write one JSON snapshot of the program's observable output.

The snapshot holds:

* exit code, stdout and stderr of every ``congruence``, ``closure`` and
  ``verify`` bench job at the given bench seed, each run in process through
  ``availcsp.cli.main``;
* the op and den cores of every corpus process (``tests/data``) at the six
  congruence points, at len 3 and 4, and the den cores of the ``congruence``
  tail processes (PUMPCHOICE, WEAVE, MIXPAR and MASKLOOP) at len 5, whose
  bench jobs print only whether the engines agree, of QUAD, WEAVE and
  MIXPAR at len 6, whose traces overflow the run or set bound most often
  in ``finalize``, of MASKLOOP at len 6, whose hiding raises den's
  evaluation length to 18, of QUAD at len 7, whose wide offers
  ``finalize`` resamples most, and of the interleaving
  ``ECHO ||| PUMPCHOICE`` at len 4 and the parallel RELAY at len 6, whose
  merges stop at the length and run bounds;
* the den cores of the processes of ``conftest.RECURSION_SPEC``, which
  recurse through every operator, at the six points, len 4;
* ``emit_script(to_simulation(...))`` of every corpus process at n=F,k=1 and
  n=F,k=F, which spells out the shape of its transition system;
* ``pretty_env`` of every spec file under ``tests/data`` and ``bench/data``;
* the ``-h`` text of the top-level parser and of every subcommand;
* exit code, stdout and stderr of a fixed list of bad invocations;
* exit code, stdout and stderr of ``simulate --check`` past the bench
  sizes: an input prefix and FANLOOP3 of ``bench/data/family.csp`` at
  n=F,k=2, len 5 and 4, FANLOOP4 at n=F,k=2, len 4, a loop whose decoded
  set has 35,581 traces, and FAN5 at n=F,k=F, len 3, a state with every
  subset of five events;
* exit code, stdout and stderr of ``health`` at len 5 of three processes
  with large cores, and of ``health --traces-file`` of a set that lacks a
  middle prefix (written to a temporary directory);
* exit code, stdout and stderr of ``traces`` over malformed spec files
  (written to a temporary directory) and of ``traces`` of malformed inline
  expressions, so that parse and spec errors are compared too;
* exit code, stdout and stderr of ``realize --check`` of seed files whose
  closure follows only through traces longer than ``--len``, and of one
  that is a ``traces --json`` dump (written to a temporary directory);
* exit code, stdout and stderr of ``equiv`` and ``traces`` of a process
  that takes 150 internal steps before its one visible event, and of a
  1,500-step ``test`` (the spec written to a temporary directory);
* exit code, stdout and stderr of ``test --json`` with readiness steps,
  given as literals (an empty and a repeated ``ready`` among them) and as
  traces, of ``equiv``, ``refine``, ``distinguish``, ``health`` and
  ``traces`` with ``--engine den``, and of ``congruence --json``.

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
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LENGTHS = (3, 4)
DEEP_CORES = (("group_ab", "PUMPCHOICE", 5), ("group_abc", "WEAVE", 5),
              ("group_abc", "MIXPAR", 5), ("group_abc", "MASKLOOP", 5),
              ("group_abcd", "QUAD", 6), ("group_abc", "WEAVE", 6), ("group_abc", "MIXPAR", 6),
              ("group_abc", "MASKLOOP", 6), ("group_abcd", "QUAD", 7),
              ("group_ab", "ECHO ||| PUMPCHOICE", 4), ("group_abc", "RELAY", 6))
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

FAMILY = os.path.join("bench", "data", "family.csp")
HEALTH_CHECKS = (
    ("health", FAMILY, "FANLOOP5", "--model", "n=F,k=1", "--len", "5"),
    ("health", FAMILY, "FANLOOP4", "--model", "n=2,k=2", "--len", "5"),
    ("health", os.path.join("tests", "data", "group_abcd.csp"), "QUAD",
     "--model", "n=F,k=2", "--len", "5"),
)
SIMULATE_CHECKS = (
    ("simulate", FAMILY, "? x : {b, c, e} -> x -> STOP", "--model", "n=F,k=2", "--len", "5",
     "--check"),
    ("simulate", FAMILY, "FANLOOP3", "--model", "n=F,k=2", "--len", "4", "--check"),
    ("simulate", FAMILY, "FANLOOP4", "--model", "n=F,k=2", "--len", "4", "--check"),
    ("simulate", FAMILY, "FAN5", "--model", "n=F,k=F", "--len", "3", "--check"),
)

# <a> is missing: the least failing member is <a, b>, not <a, b, a>
MISSING_MIDDLE_PREFIX = "<>\n<a, b>\n<a, b, a>\n"

# seeds whose closure follows only through traces one longer than len 3
REALIZE_SEEDS = (("<offer{a,b}, c>\n<offer{c}, a, b>\n", "n=F,k=2"),
                 ("<a, a, a>\n", "n=F,k=1"))
# a seed file in the JSON form, head line included, realized at its own model
JSON_DUMP = ("traces", SPEC, "EXT", "--model", "n=F,k=2", "--len", "3", "--json")

# 150 hidden events before b, and a process that repeats a
LONG_SPEC = "alphabet {a, b}\nLONGTAU = (" + "a -> " * 150 + "b -> STOP) \\ {a}\nP = a -> P\n"
LONG_RUNS = (
    ("equiv", "LONGTAU", "b -> STOP", "--len", "2"),
    ("traces", "LONGTAU", "--len", "2"),
    ("test", "P", "--test", "a . " * 1500 + "SUCCESS"),
)

TESTS_AND_DEN = (
    ("test", SPEC, "EXT", "--test", "ready {} & a . SUCCESS", "--json"),
    ("test", SPEC, "EXT", "--test", "ready {a} & ready {a} & ready {b,a} & b . SUCCESS",
     "--json"),
    ("test", SPEC, "INT", "--test", "ready {a,b} & SUCCESS", "--json"),
    ("test", SPEC, "SWAYA", "--from-trace", "<offer{a}, offer{b}, b>", "--json"),
    ("test", SPEC, "INT", "--from-trace", "<offer{a}, b>", "--json"),
    ("equiv", SPEC, "EXT", "INT", "--engine", "den", "--len", "3"),
    ("equiv", SPEC, "DOA", "MAYBE", "--engine", "den", "--len", "3", "--json"),
    ("refine", SPEC, "INT", "SWAYPAIR", "--engine", "den", "--len", "3"),
    ("refine", SPEC, "SWAYPAIR", "INT", "--engine", "den", "--len", "3", "--json"),
    ("distinguish", SPEC, "STAIR2", "STAIR3", "--engine", "den", "--len", "4",
     "--grid", "n=1..2,k=1,F"),
    ("distinguish", SPEC, "TWINOFFER", "TWINLOOP", "--engine", "den", "--len", "3", "--json"),
    ("health", SPEC, "CYCLE", "--engine", "den", "--len", "4"),
    ("health", SPEC, "PUMPCHOICE", "--engine", "den", "--len", "4", "--model", "n=2,k=2",
     "--json"),
    ("traces", SPEC, "SWAYPAIR", "--engine", "den", "--len", "3"),
    ("traces", SPEC, "ECHO", "--engine", "den", "--len", "3", "--model", "n=F,k=F", "--json"),
    ("congruence", SPEC, "PUMPCHOICE", "--len", "4", "--model", "n=2,k=2", "--json"),
)

MALFORMED_SPECS = (
    "P = a -> STOP $\n",
    "P = a -> STOP # c\n",
    "alphabet {a}\r\n# c\r\n\r\n  # c\r\nP = (a -> STOP\r\n",
    "P = a -> STOP STOP\n",
    "P = a -> STOP [] b -> STOP |~| STOP\n",
    "P = ? STOP : {a} -> STOP\n",
    "P = |~| x : {} @ x -> STOP\n",
    "mu = STOP\n",
    "alphabet {a} b\nP = a -> STOP\n",
    "alphabet {a}\nalphabet {a}\nP = a -> STOP\n",
    "P(x, x) = x -> STOP\n",
    "P = STOP\nP = a -> STOP\nQ = a -> ,\n",
    "P = STOP\nP = a -> STOP\n",
    "alphabet {a}\nP = c -> (mu X @ (b -> X) \\ {d})\n",
    "P = STOP\n",
    "P = a -> Q(a)\nQ = STOP\n",
    "P = (mu X @ a -> Z)\nQ = Y\n",
    "alphabet {a}\nP = Q [] (mu X @ b -> X)\n",
)
MALFORMED_EXPRESSIONS = (
    "a -> STOP $", "a ->", "(a -> STOP", "a -> STOP STOP", "? x {a} -> x -> STOP",
    "|~| x : {} @ x -> STOP", "UNKNOWN", "EXT(a)", "d -> STOP", "(mu X @ a -> Y)",
    "(mu X @ d -> X)", "(mu X @ BUF(a, b) [] X)", "a -> STOP # c\n  [] $",
    # two errors each: which one is reported depends on the order of the checks
    "UNKNOWN [] d -> STOP", "d -> STOP [] UNKNOWN", "UNKNOWN [] (mu X @ a -> Y)",
    "d -> (mu X @ e -> X)", "(mu X @ a -> Y) [] d -> STOP",
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


def health_checks() -> list:
    out = [run_cli(argv) for argv in HEALTH_CHECKS]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "traces.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(MISSING_MIDDLE_PREFIX)
        row = run_cli(("health", SPEC, "--traces-file", path, "--len", "3"))
    row["argv"] = [arg.replace(path, "traces.txt") for arg in row["argv"]]
    return out + [row]


def realizations() -> list:
    seeds = REALIZE_SEEDS + ((run_cli(JSON_DUMP)["stdout"], "n=F,k=2"),)
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "seeds.txt")
        for text, model in seeds:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            row = run_cli(("realize", os.path.join("tests", "data", "group_abc.csp"), path,
                           "--model", model, "--len", "3", "--check"))
            row["argv"] = [arg.replace(path, "seeds.txt") for arg in row["argv"]]
            out.append(dict(row, seeds=text))
    return out


def parse_errors() -> list:
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.csp")
        for text in MALFORMED_SPECS:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            row = run_cli(("traces", path, "P", "--len", "2"))
            row["argv"] = [arg.replace(path, "bad.csp") for arg in row["argv"]]
            out.append(dict(row, spec=text))
    return out + [run_cli(("traces", SPEC, expr, "--len", "2")) for expr in MALFORMED_EXPRESSIONS]


def long_runs() -> list:
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "long.csp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(LONG_SPEC)
        for command, *rest in LONG_RUNS:
            row = run_cli((command, path, *rest))
            row["argv"][1] = "long.csp"
            out.append(row)
    return out


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


def deep_cores() -> dict:
    from availcsp import Bounds, denote_traces, parse_process, show_trace
    from conftest import PARAM_POINTS, load_group

    out = {}
    for group, name, length in DEEP_CORES:
        env = load_group(group)
        term = parse_process(name, env)
        for params in PARAM_POINTS:
            ts = denote_traces(term, env, params, Bounds(trace_len=length))
            key = f"{group} {name} n={params.run_bound},k={params.set_bound} len={length}"
            out[key] = sorted(show_trace(t) for t in ts.canon)
    return out


def recursion_cores() -> dict:
    from availcsp import Bounds, denote_traces, parse_spec, show_trace
    from conftest import PARAM_POINTS, RECURSION_SPEC, group_processes

    env = parse_spec(RECURSION_SPEC)
    out = {}
    for name, term in group_processes(env):
        for params in PARAM_POINTS:
            ts = denote_traces(term, env, params, Bounds(trace_len=LENGTHS[-1]))
            key = f"{name} n={params.run_bound},k={params.set_bound} len={LENGTHS[-1]}"
            out[key] = sorted(show_trace(t) for t in ts.canon)
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


def pretty_env(env) -> str:
    """The alphabet and every definition of a spec, printed."""
    from availcsp import pretty

    lines = ["alphabet {" + ",".join(env.alphabet.events) + "}"]
    for name, d in env.definitions.items():
        head = name if not d.params else f"{name}({', '.join(d.params)})"
        lines.append(f"{head} = {pretty(d.body)}")
    return "\n".join(lines) + "\n"


def spec_texts() -> dict:
    from availcsp import parse_spec

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
                "cores": corpus_cores(), "deep_cores": deep_cores(),
                "recursion_cores": recursion_cores(),
                "simulations": simulation_scripts(),
                "pretty": spec_texts(),
                "help": [run_cli(argv) for argv in [("-h",)] + [(c, "-h") for c in COMMANDS]],
                "usage_errors": [run_cli(argv) for argv in BAD_INVOCATIONS],
                "simulate_checks": [run_cli(argv) for argv in SIMULATE_CHECKS],
                "health": health_checks(),
                "realize": realizations(),
                "parse_errors": parse_errors(),
                "long_runs": long_runs(),
                "tests_and_den": [run_cli(argv) for argv in TESTS_AND_DEN]}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
