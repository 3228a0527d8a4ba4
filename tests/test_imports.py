"""What a command-line call loads, and the record classes that replaced
dataclasses.

A CLI call pays for every module it imports: the package re-exports its
names lazily, and ``cli`` imports ``equivalence``, ``testing``,
``simulation`` and ``json`` only in the handlers that use them.  Each
check runs a fresh interpreter, since this suite has loaded everything.
"""
from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest

import availcsp
from availcsp import (
    Bounds, Call, CompareResult, Definition, Div, ExtChoice, IntChoice, ModelParams,
    Prefix, SpecEnv, Stop, Timeout, parse_spec,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(availcsp.__file__)))

# the package's names as they were when every module was imported eagerly
ALL = [
    "Alphabet", "AvailCspError", "Bounds", "BudgetError", "Call", "CompareResult",
    "Definition", "Div", "ExtChoice", "HealthReport", "Hide", "InputPrefix",
    "IntChoice", "Interleave", "MayVerdict", "ModelParams", "OutOfUniverseError",
    "Parallel", "ParseError", "Prefix", "Rename", "Simulation", "SpecEnv",
    "SpecError", "StepEngine", "Stop", "TAU", "Timeout", "TraceSet",
    "avail_traces", "build_lts", "check_healthy", "close_healthy", "covers_equal",
    "decode_trace", "denotational", "denote_traces", "distinguish", "emit_script",
    "equal_in", "equivalence", "errors", "healthiness", "is_event", "is_offer",
    "kernel", "may_pass", "merge_traces", "normalize_trace", "offer_event_name",
    "operational", "parse_process", "parse_spec", "parse_test", "parse_trace",
    "parser", "pretty", "pretty_env", "process", "process_from_trace", "realize",
    "refine_in", "show_trace", "simulation", "std_traces", "testing", "to_simulation",
    "trace_algebra", "trace_from_json", "trace_to_json",
]


def run_python(code: str, **env) -> bytes:
    """Standard output of ``code`` run in a fresh interpreter."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_by(statement: str) -> set:
    """The modules a fresh interpreter holds after ``statement``."""
    return set(run_python(f"import sys\n{statement}\nprint(*sys.modules)").decode().split())


def test_the_cli_loads_no_module_only_some_commands_use():
    loaded = loaded_by("import availcsp.cli")
    assert "availcsp.parser" in loaded
    unused = {"dataclasses", "json", "availcsp.equivalence", "availcsp.testing",
              "availcsp.simulation"}
    assert not loaded & unused


def test_the_package_alone_loads_no_submodule():
    loaded = loaded_by("import availcsp")
    assert sorted(m for m in loaded if m.startswith("availcsp")) == ["availcsp"]


def test_every_exported_name_resolves():
    assert availcsp.__all__ == ALL
    for name in ALL:
        assert getattr(availcsp, name) is not None
    with pytest.raises(AttributeError):
        availcsp.cli_helpers


# --- records ----------------------------------------------------------------


def test_terms_are_equal_within_one_class_only():
    p, q = Prefix("a", Stop()), Prefix("b", Stop())
    assert ExtChoice((p, q)) == ExtChoice((p, q))
    assert ExtChoice((p, q)) != IntChoice((p, q))
    assert len({ExtChoice((p, q)), IntChoice((p, q)), Timeout((p, q))}) == 3
    assert Call("P") == Call("P", ()) == Call(name="P", args=())


def test_a_term_hashes_as_the_tuple_of_its_fields():
    body = Prefix("b", Stop())
    assert hash(Stop()) == hash(())
    assert hash(Prefix("a", body)) == hash(("a", body))
    assert hash(ExtChoice((body,))) == hash(((body,),))
    assert hash(ModelParams(2, 1)) == hash((2, 1))


def test_deep_terms_built_apart_compare_without_recursing():
    def chain(last):
        t = last
        for _ in range(5000):
            t = Prefix("a", t)
        return t

    assert chain(Stop()) == chain(Stop())
    assert chain(Stop()) != chain(Div())        # equal hashes, unequal at the bottom
    assert chain(Stop()) != chain(Call("P"))
    wide = ExtChoice((chain(Stop()), chain(Call("P"))))
    assert wide == ExtChoice((chain(Stop()), chain(Call("P"))))
    assert wide != ExtChoice((chain(Call("P")), chain(Stop())))


def test_records_show_their_fields():
    assert repr(Prefix("a", Stop())) == "Prefix(event='a', body=Stop())"
    assert repr(ModelParams(None, 0)) == "ModelParams(run_bound=0, set_bound=1)"
    assert repr(Bounds(2)) == "Bounds(trace_len=2, internal_len=6)"
    assert repr(CompareResult("equal", ModelParams())) == (
        "CompareResult(verdict='equal', params=ModelParams(run_bound=None, set_bound=1), "
        "witness=None, witness_side=None)")


def test_a_choice_needs_a_branch():
    with pytest.raises(ValueError, match="IntChoice needs at least one branch"):
        IntChoice(())


def test_mutable_records_are_unhashable_and_own_their_defaults():
    env = parse_spec("alphabet {a}\nP = a -> STOP\n")
    bare = SpecEnv(env.alphabet)
    assert bare.definitions == {} and bare.definitions is not SpecEnv(env.alphabet).definitions
    with pytest.raises(TypeError):
        hash(bare)
    assert SpecEnv(env.alphabet, dict(env.definitions), dict(env.recursions)) == env


def test_a_term_unpickled_from_another_process_hashes_afresh():
    # a stored hash of a str differs between hash seeds, so unpickling
    # rebuilds the term through its constructor
    seed = str(int(os.environ.get("PYTHONHASHSEED") or 0) + 1)
    term = Definition(("x",), Prefix("x", Call("P", ("x",))))
    data = run_python("import pickle, sys\n"
                      "from availcsp import Call, Definition, Prefix\n"
                      f"sys.stdout.buffer.write(pickle.dumps({term!r}))",
                      PYTHONHASHSEED=seed)
    again = pickle.loads(data)
    assert again == term and hash(again) == hash(term)
    assert {again: 1}[term] == 1
