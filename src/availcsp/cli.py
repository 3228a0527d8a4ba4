"""Command-line interface.

Exit codes: 0 when the queried property holds (equal, refined, may pass,
healthy, faithful round trip), 1 when it is refuted with a witness, and 2
for usage errors, verdicts cut short by an exploration budget, and crashes.
"""
from __future__ import annotations

import argparse
import json
import sys

from .denotational import denote_traces
from .equivalence import (
    DISTINGUISHED, EQUAL, REFINED, _trace_set, distinguish, equal_in, refine_in,
)
from .errors import AvailCspError
from .healthiness import check_healthy, close_healthy, covers_equal
from .kernel import (
    Bounds, ModelParams, check_universe, parse_trace, show_trace, trace_from_json,
)
from .operational import avail_traces, std_traces
from .parser import parse_process, parse_spec
from .process import Call, SpecEnv, pretty
from .simulation import decode_trace, emit_script, to_simulation
from .testing import may_pass, parse_test, realize, test_from_trace

USAGE_ERROR = 2

ENGINE_NAMES = {"op": "operational", "den": "denotational"}


def _usage(message: str):
    # SystemExit with a string exits with status 1; the contract is 2
    print(f"availcsp: {message}", file=sys.stderr)
    raise SystemExit(USAGE_ERROR)


def _parse_bound(text: str, flag: str) -> int | None:
    if text in ("F", "f"):
        return None
    try:
        value = int(text)
    except ValueError:
        _usage(f"bad {flag} value {text!r} (expected a number or F)")
    if value < 0:
        _usage(f"{flag} must not be negative")
    return value


def parse_model(text: str) -> ModelParams:
    """Parse a --model argument of the form ``n=F,k=1``."""
    parts = dict()
    for piece in text.split(","):
        if "=" not in piece:
            _usage(f"bad --model piece {piece!r}")
        key, _, val = piece.partition("=")
        key = key.strip()
        if key in parts:
            _usage(f"repeated --model key {key!r}")
        parts[key] = val.strip()
    unknown = set(parts) - {"n", "k"}
    if unknown:
        _usage(f"unknown --model keys {sorted(unknown)}")
    return ModelParams(
        run_bound=_parse_bound(parts.get("n", "F"), "n"),
        set_bound=_parse_bound(parts.get("k", "1"), "k"),
    )


def _parse_grid_axis(text: str, flag: str) -> list:
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        if ".." in piece:
            lo, _, hi = piece.partition("..")
            try:
                lo, hi = int(lo), int(hi)
            except ValueError:
                _usage(f"bad --grid {flag} range {piece!r}")
            if not 0 <= lo <= hi:
                _usage(f"empty or negative --grid {flag} range {piece!r} (expected 0 <= lo <= hi)")
            values.extend(range(lo, hi + 1))
        else:
            values.append(_parse_bound(piece, f"--grid {flag}"))
    return values


def parse_grid(text: str) -> list:
    """Parse a --grid argument of the form ``n=1..3,k=1..2`` (each axis a
    comma list of naturals, F, or lo..hi ranges)."""
    if not text.startswith("n="):
        _usage("--grid must start with n=")
    body = text[2:]
    if ",k=" not in body:
        _usage("--grid needs a k= part")
    n_part, _, k_part = body.partition(",k=")
    return [
        ModelParams(run_bound=n, set_bound=k)
        for n in _parse_grid_axis(n_part, "n")
        for k in _parse_grid_axis(k_part, "k")
    ]


def _resolve(expr: str, env: SpecEnv):
    """A process term for a CLI argument: a defined name from the spec
    file or an inline expression over its alphabet."""
    name = expr.strip()
    if name in env.definitions and not env.definitions[name].params:
        return Call(name, ())
    return parse_process(expr, env)


def _check_bounds(args) -> None:
    if args.len < 0:
        _usage("--len must not be negative")
    if args.tau < 1:
        _usage("--tau must be at least 1")
    if args.internal_len is not None and args.internal_len < args.len:
        _usage("--internal-len must not be below --len")


def _read_trace_lines(path: str, alphabet) -> list:
    traces = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("["):
                traces.append(trace_from_json(line, alphabet))
            elif line.startswith("{"):
                continue
            else:
                traces.append(parse_trace(line, alphabet))
    return traces


# The parser depends on nothing in argv, so it is built once, at import,
# from the ``_command`` declarations below.  Handlers call library
# functions through this module's globals at call time, never through
# objects stored with a declaration, so that a wrapper set on a global
# after import (as bench/tracer.py does) sees every call.
PARSER = argparse.ArgumentParser(
    prog="availcsp",
    description="Availability-trace semantics for CSP processes.",
)
_SUBCOMMANDS = PARSER.add_subparsers(dest="command", required=True)


def _arg(*names, **options):
    return names, options


_ENGINE = _arg("--engine", choices=("op", "den"), default="op",
               help="semantics used to compute trace sets")


def _command(name: str, help: str, *arguments, spec_help: str | None = None):
    """Declare the decorated handler as subcommand ``name``: the spec file,
    then ``arguments`` (each an ``_arg``), then the model, bound and output
    flags.  ``main`` calls ``handler(args, env, bounds)``."""
    def declare(handler):
        sub = _SUBCOMMANDS.add_parser(name, help=help)
        sub.add_argument("spec", help=spec_help)
        for names, options in arguments:
            sub.add_argument(*names, **options)
        sub.add_argument("--model", type=parse_model, default="n=F,k=1",
                         help="model parameters, e.g. n=F,k=2")
        sub.add_argument("--len", type=int, default=5, help="trace length bound")
        sub.add_argument("--tau", type=int, default=100, help="internal-step budget")
        sub.add_argument("--internal-len", type=int, default=None,
                         help="length bound under hiding (default: 3x --len)")
        sub.add_argument("--json", action="store_true", help="machine-readable output")
        sub.set_defaults(handler=handler)
        return handler
    return declare


@_command("traces", "dump the trace set of a process", _arg("process"), _ENGINE,
          spec_help="spec file declaring the alphabet and definitions")
def _cmd_traces(args, env: SpecEnv, bounds: Bounds) -> int:
    term = _resolve(args.process, env)
    ts = _trace_set(term, env, args.model, bounds, ENGINE_NAMES[args.engine])
    if args.json:
        for line in ts.json_lines(env.alphabet):
            print(line)
    else:
        flags = []
        if ts.meta.tau_budget_hit:
            flags.append("tau-budget-hit")
        if ts.meta.len_bound_hit:
            flags.append("length-bound-hit")
        note = (" [" + ", ".join(flags) + "]") if flags else ""
        print(f"# {ts.meta.engine} {args.model.show()} len={ts.len_bound} "
              f"count={len(ts)}{note}")
        for tr in ts.members_sorted(env.alphabet):
            print(show_trace(tr, env.alphabet))
    return 0


def _compare(args, env: SpecEnv, bounds: Bounds, check, holds: str, left: str, right: str) -> int:
    """Run ``check`` (``equal_in`` or ``refine_in``) on two process
    arguments; exit 0 on its holding verdict ``holds``."""
    lterm = _resolve(left, env)
    rterm = _resolve(right, env)
    result = check(lterm, rterm, env, args.model, bounds, ENGINE_NAMES[args.engine])
    if args.json:
        print(json.dumps(result.json_obj(env.alphabet), sort_keys=True))
    else:
        print(result.describe(env.alphabet))
    if result.verdict == holds:
        return 0
    if result.verdict == DISTINGUISHED:
        return 1
    return 2


@_command("equiv", "compare two processes for equality", _arg("left"), _arg("right"), _ENGINE)
def _cmd_equiv(args, env: SpecEnv, bounds: Bounds) -> int:
    return _compare(args, env, bounds, equal_in, EQUAL, args.left, args.right)


@_command("refine", "check that the second process refines the first",
          _arg("spec_process"), _arg("impl_process"), _ENGINE)
def _cmd_refine(args, env: SpecEnv, bounds: Bounds) -> int:
    return _compare(args, env, bounds, refine_in, REFINED, args.spec_process, args.impl_process)


@_command("test", "run a may test against a process", _arg("process"),
          _arg("--test", dest="test_literal",
               help="test literal, e.g. 'a . ready {b} & SUCCESS'"),
          _arg("--from-trace", dest="from_trace", help="derive the test from a trace literal"))
def _cmd_test(args, env: SpecEnv, bounds: Bounds) -> int:
    term = _resolve(args.process, env)
    if bool(args.test_literal) == bool(args.from_trace):
        _usage("give exactly one of --test or --from-trace")
    if args.test_literal:
        test = parse_test(args.test_literal, env.alphabet)
    else:
        test = test_from_trace(parse_trace(args.from_trace, env.alphabet))
    verdict = may_pass(term, test, env, args.tau)
    if args.json:
        print(json.dumps({
            "may": verdict.may,
            "complete": verdict.complete,
            "witness": verdict.witness,
            "test": test.show(),
        }, sort_keys=True))
    else:
        print(verdict.describe())
    if verdict.may:
        return 0
    return 1 if verdict.complete else 2


@_command("health", "verify the closure conditions", _arg("process", nargs="?"),
          _arg("--traces-file", help="explicit trace set, one literal or JSON trace per line"),
          _ENGINE)
def _cmd_health(args, env: SpecEnv, bounds: Bounds) -> int:
    if bool(args.process) == bool(args.traces_file):
        _usage("give exactly one of a process or --traces-file")
    if args.traces_file:
        subject = _read_trace_lines(args.traces_file, env.alphabet)
        for tr in subject:
            check_universe(tr, args.model, args.len, env.alphabet)
    else:
        term = _resolve(args.process, env)
        subject = _trace_set(term, env, args.model, bounds, ENGINE_NAMES[args.engine])
    report = check_healthy(subject, args.model, args.len)
    if args.json:
        print(json.dumps(report.json_objs(env.alphabet), sort_keys=True))
    else:
        for cond in report.conditions:
            line = f"{cond.condition}: {'pass' if cond.ok else 'fail'}"
            if not cond.ok and cond.witness is not None:
                line += f"  witness {show_trace(cond.witness, env.alphabet)}"
            print(line)
    return 0 if report.ok else 1


@_command("realize", "build a process from a trace set", _arg("traces_file"),
          _arg("--check", action="store_true", help="verify the realization round trip"),
          spec_help="spec file (the alphabet header is enough)")
def _cmd_realize(args, env: SpecEnv, bounds: Bounds) -> int:
    traces = _read_trace_lines(args.traces_file, env.alphabet)
    closed = close_healthy(traces, args.model, args.len, env.alphabet)
    term = realize(closed.canon)
    print(pretty(term))
    if args.check:
        back = avail_traces(term, SpecEnv(env.alphabet, {}), args.model, bounds)
        if covers_equal(back, closed):
            print("# round trip: exact")
        else:
            print("# round trip: MISMATCH")
            return 1
    return 0


@_command("simulate", "emit the offer-event simulation script", _arg("process"),
          _arg("--state-cap", type=int, default=4096),
          _arg("--check", action="store_true", help="verify the decoded round trip"))
def _cmd_simulate(args, env: SpecEnv, bounds: Bounds) -> int:
    term = _resolve(args.process, env)
    sim = to_simulation(term, env, args.model, args.state_cap)
    sys.stdout.write(emit_script(sim))
    if args.check:
        decoded = {
            decode_trace(tr)
            for tr in std_traces(sim.root_term(), sim.env, args.len, args.tau)
        }
        reference = avail_traces(
            term, env, ModelParams(run_bound=None, set_bound=args.model.set_bound), bounds
        )
        ok = all(
            reference.member(tr, env.alphabet) for tr in decoded
        ) and all(tr in decoded for tr in reference.canon)
        print(f"# round trip: {'exact' if ok else 'MISMATCH'}")
        return 0 if ok else 1
    return 0


@_command("distinguish", "compare two processes across a parameter grid",
          _arg("left"), _arg("right"),
          _arg("--grid", type=parse_grid, default="n=1..3,k=1..2", help="e.g. n=1..3,k=1,2,F"),
          _ENGINE)
def _cmd_distinguish(args, env: SpecEnv, bounds: Bounds) -> int:
    lterm = _resolve(args.left, env)
    rterm = _resolve(args.right, env)
    rows = distinguish(lterm, rterm, env, args.grid, bounds, ENGINE_NAMES[args.engine])
    if args.json:
        print(json.dumps([r.json_obj(env.alphabet) for r in rows], sort_keys=True))
    else:
        for r in rows:
            print(r.describe(env.alphabet))
    return 0 if all(r.verdict != DISTINGUISHED for r in rows) else 1


@_command("congruence", "compare the two semantic engines on one process", _arg("process"))
def _cmd_congruence(args, env: SpecEnv, bounds: Bounds) -> int:
    term = _resolve(args.process, env)
    op = avail_traces(term, env, args.model, bounds)
    den = denote_traces(term, env, args.model, bounds)
    agree = covers_equal(op, den)
    if args.json:
        print(json.dumps({
            "agree": agree,
            "operational_count": len(op),
            "denotational_count": len(den),
            "tau_budget_hit": op.meta.tau_budget_hit,
        }, sort_keys=True))
    else:
        note = " [tau-budget-hit]" if op.meta.tau_budget_hit else ""
        print(f"engines {'agree' if agree else 'DISAGREE'} at {args.model.show()} "
              f"len={args.len}{note}")
    if not agree:
        return 1
    return 2 if op.meta.tau_budget_hit else 0


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    _check_bounds(args)
    bounds = Bounds(trace_len=args.len, tau_budget=args.tau, internal_len=args.internal_len)
    try:
        with open(args.spec, encoding="utf-8") as fh:
            env = parse_spec(fh.read())
        return args.handler(args, env, bounds)
    except (AvailCspError, OSError) as exc:
        print(f"availcsp: {exc}", file=sys.stderr)
    except Exception as exc:
        # A crash must not read as a refutation (exit 1): a RecursionError
        # from deeply nested input, a MemoryError or a defect exits 2.
        detail = " ".join(str(exc).split()) or "no detail"
        print(f"availcsp: {type(exc).__name__}: {detail}", file=sys.stderr)
    return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
