"""End-to-end exercises of the command surface via main(argv)."""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import pytest

from availcsp import ModelParams
from availcsp import cli
from availcsp.cli import main, parse_grid, parse_model

SPEC = os.path.join(os.path.dirname(__file__), "data", "group_ab.csp")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# 150 hidden events before b: a closure of 151 states, 150 steps deep
LONG_SPEC = "alphabet {a, b}\nLONGTAU = (" + "a -> " * 150 + "b -> STOP) \\ {a}\nP = a -> P\n"


@pytest.fixture
def long_spec(tmp_path):
    path = tmp_path / "long.csp"
    path.write_text(LONG_SPEC, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- argument parsing -------------------------------------------------------


def test_parse_model_forms():
    assert parse_model("n=F,k=1") == ModelParams(None, 1)
    assert parse_model("n=2,k=F") == ModelParams(2, None)
    assert parse_model("k=2") == ModelParams(None, 2)


def test_parse_model_rejects_junk(capsys):
    for bad in ("n=x,k=1", "m=1", "n=-1,k=1", "nonsense", "n=F,k=1,k=2"):
        with pytest.raises(SystemExit) as exc:
            parse_model(bad)
        assert exc.value.code == 2
    assert "repeated --model key 'k'" in capsys.readouterr().err


def test_parse_grid_forms():
    assert parse_grid("n=1..2,k=1") == [ModelParams(1, 1), ModelParams(2, 1)]
    assert parse_grid("n=F,k=1,2") == [ModelParams(None, 1), ModelParams(None, 2)]
    assert len(parse_grid("n=1..3,k=1..2")) == 6


def test_parse_grid_rejects_junk(capsys):
    for bad in ("k=1", "n=1", "n=a..b,k=1", "n=3..1,k=1", "n=-1..1,k=1"):
        with pytest.raises(SystemExit) as exc:
            parse_grid(bad)
        assert exc.value.code == 2
        assert "--grid" in capsys.readouterr().err, bad


# --- traces ------------------------------------------------------------------


def test_traces_text_output(capsys):
    code, out, _ = run(capsys, "traces", SPEC, "EXT", "--len", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# operational n=F,k=1 len=2")
    assert "<offer{a}, b>" in lines[1:]


def test_traces_denotational_engine(capsys):
    code, out, _ = run(capsys, "traces", SPEC, "EXT", "--len", "2",
                       "--engine", "den")
    assert code == 0
    assert out.splitlines()[0].startswith("# denotational")


def test_traces_json_output(capsys):
    code, out, _ = run(capsys, "traces", SPEC, "DOA", "--len", "2", "--json")
    assert code == 0
    lines = out.splitlines()
    head = json.loads(lines[0])
    assert head["len_bound"] == 2
    assert head["params"] == {"n": "F", "k": 1}
    assert head["count"] == len(lines) - 1
    for line in lines[1:]:
        for action in json.loads(line):
            assert set(action) in ({"ev"}, {"offer"})


def test_traces_accepts_inline_expressions(capsys):
    code, out, _ = run(capsys, "traces", SPEC, "a -> STOP [] b -> STOP",
                       "--len", "2")
    assert code == 0
    assert "<offer{a}, b>" in out.splitlines()


# --- equiv / refine ----------------------------------------------------------


def test_equiv_reports_the_separating_trace(capsys):
    code, out, _ = run(capsys, "equiv", SPEC, "EXT", "INT",
                       "--model", "n=F,k=1", "--len", "5", "--json")
    assert code == 1
    obj = json.loads(out)
    assert obj["verdict"] == "distinguished"
    assert obj["witness"] == "<offer{a}, b>"
    assert obj["witness_side"] == "left"


def test_equiv_equal_pair_exits_zero(capsys):
    code, out, _ = run(capsys, "equiv", SPEC, "DOA", "MAYBE")
    assert code == 0
    assert "equal" in out


def test_equiv_respects_engine_choice(capsys):
    for engine in ("op", "den"):
        code, out, _ = run(capsys, "equiv", SPEC, "EXT", "INT",
                           "--engine", engine)
        assert code == 1
        assert "offer{a}, b" in out


def test_refine_holds_and_fails(capsys):
    code, out, _ = run(capsys, "refine", SPEC, "EXT", "DOA")
    assert code == 0
    assert "refined" in out
    code, out, _ = run(capsys, "refine", SPEC, "DOA", "EXT")
    assert code == 1
    assert "<b>" in out


def test_equiv_sees_past_a_long_internal_chain(capsys, long_spec):
    # every internal step is explored: b is not mistaken for a left-only trace
    assert run(capsys, "equiv", long_spec, "LONGTAU", "b -> STOP", "--len", "2") == (
        0, "[n=F,k=1] equal\n", "")
    code, out, _ = run(capsys, "traces", long_spec, "LONGTAU", "--len", "2")
    assert code == 0
    assert out.splitlines() == ["# operational n=F,k=1 len=2 count=4",
                                "<>", "<b>", "<offer{b}>", "<offer{b}, b>"]


# --- test --------------------------------------------------------------------


def test_may_test_passes(capsys):
    code, out, _ = run(capsys, "test", SPEC, "EXT",
                       "--from-trace", "<offer{a}, b>")
    assert code == 0
    assert out.startswith("may pass")


def test_may_test_refuted(capsys):
    code, out, _ = run(capsys, "test", SPEC, "INT",
                       "--from-trace", "<offer{a}, b>")
    assert code == 1
    assert out.startswith("cannot pass")


def test_may_test_literal_and_json(capsys):
    code, out, _ = run(capsys, "test", SPEC, "EXT",
                       "--test", "a . SUCCESS", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["may"] is True


def test_a_long_may_test_does_not_recurse(capsys, long_spec):
    # 1,500 steps: reading, searching and printing the test all loop
    code, out, err = run(capsys, "test", long_spec, "P", "--test", "a . " * 1500 + "SUCCESS")
    assert (code, err) == (0, "")
    assert out == "may pass: " + " ".join(["tau a"] * 1500) + "\n"
    trace = "<" + ", ".join(["a"] * 1500) + ">"
    code, out, err = run(capsys, "test", long_spec, "P", "--from-trace", trace, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"may": True, "witness": ["tau", "a"] * 1500,
                               "test": "a . " * 1500 + "SUCCESS"}


def test_traces_at_a_long_length_do_not_recurse(capsys, long_spec):
    # op walks its (state, length left) keys with explicit stacks, and
    # keeps the suffixes of only the keys still to be used
    code, out, err = run(capsys, "traces", long_spec, "P", "--model", "n=0,k=1", "--len", "1000")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "# operational n=0,k=1 len=1000 count=1001"
    assert lines[1:] == ["<" + ", ".join(["a"] * i) + ">" for i in range(1001)]


def test_may_test_needs_exactly_one_source(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["test", SPEC, "EXT"])
    assert exc.value.code == 2
    capsys.readouterr()


# --- health ------------------------------------------------------------------


def test_health_on_engine_output(capsys):
    code, out, _ = run(capsys, "health", SPEC, "EXT", "--len", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines
    assert all(line.endswith("pass") for line in lines)


def test_health_on_explicit_traces(capsys, tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("<>\n<a>\n<offer{a}>\n<offer{a}, a>\n", encoding="utf-8")
    code, out, _ = run(capsys, "health", SPEC, "--traces-file", str(good),
                       "--model", "n=1,k=1")
    assert code == 0

    broken = tmp_path / "broken.txt"
    broken.write_text("<>\n<a>\n<offer{a}, a>\n", encoding="utf-8")
    code, out, _ = run(capsys, "health", SPEC, "--traces-file", str(broken),
                       "--model", "n=1,k=1")
    assert code == 1
    assert "fail" in out
    assert "witness" in out


def test_health_rejects_a_trace_file_outside_the_universe(capsys, tmp_path):
    # no trace of n=0 has an offer, as realize's closure also checks
    path = tmp_path / "offers.txt"
    path.write_text("<>\n<a>\n<offer{a}>\n<offer{a}, a>\n", encoding="utf-8")
    code, out, err = run(capsys, "health", SPEC, "--traces-file", str(path),
                         "--model", "n=0,k=1", "--len", "2")
    assert (code, out) == (2, "")
    assert err == "availcsp: trace has an offer run longer than the run bound 0\n"


def test_health_needs_exactly_one_subject(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["health", SPEC])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, err", [
    (["test", SPEC, "EXT", "--test", ""], "in test '': unexpected end"),
    (["test", SPEC, "EXT", "--from-trace", ""],
     "expected '<' in trace literal, got 'end of input'"),
    (["health", SPEC, ""], "line 1, col 0: expected a process"),
], ids=["test", "from-trace", "health"])
def test_an_empty_argument_is_given_and_fails_to_parse(capsys, argv, err):
    # an empty text is an argument given, not one left out
    assert run(capsys, *argv) == (2, "", f"availcsp: {err}\n")


# --- realize -----------------------------------------------------------------


def test_realize_emits_process_text(capsys, tmp_path):
    traces = tmp_path / "doa.txt"
    traces.write_text("<a>\n", encoding="utf-8")
    code, out, _ = run(capsys, "realize", SPEC, str(traces),
                       "--model", "n=1,k=1", "--len", "2", "--check")
    assert code == 0
    assert "->" in out
    assert "# round trip: exact" in out


def test_realize_round_trip_is_exact_past_the_length_bound(capsys, tmp_path):
    # the process shows <offer{c}, a, offer{b}>, a prefix of the overlong
    # <offer{c}, a, offer{b}, b>; the closure holds it too
    traces = tmp_path / "seeds.txt"
    traces.write_text("<offer{a,b}, c>\n<offer{c}, a, b>\n", encoding="utf-8")
    code, out, _ = run(capsys, "realize", os.path.join(ROOT, "tests", "data", "group_abc.csp"),
                       str(traces), "--model", "n=F,k=2", "--len", "3", "--check")
    assert code == 0
    assert out.endswith("# round trip: exact\n")


def test_realize_output_does_not_depend_on_the_hash_seed():
    # joint offers are frozensets, whose iteration order follows the
    # string-hash seed
    argv = [sys.executable, "-m", "availcsp.cli", "realize",
            os.path.join(ROOT, "bench", "data", "corpus", "group_abc.csp"),
            os.path.join(ROOT, "bench", "data", "seeds", "joint.tr"),
            "--model", "n=2,k=2", "--len", "4"]
    outs = []
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


# --- simulate ----------------------------------------------------------------


def test_simulate_emits_script(capsys):
    code, out, _ = run(capsys, "simulate", SPEC, "STOP")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "channel Offer : Set(Events)"
    assert lines[2] == "S0 = Offer.0 -> S0"


def test_simulate_check_round_trip(capsys):
    code, out, _ = run(capsys, "simulate", SPEC, "EXT",
                       "--len", "3", "--model", "n=F,k=2", "--check")
    assert code == 0
    assert "# round trip: exact" in out


@pytest.mark.parametrize("simulated", [
    "a -> STOP [] b -> STOP",   # decodes to traces a -> STOP does not cover
    "STOP",                     # its decoding lacks the core member <a>
])
def test_simulate_check_reports_a_mismatch_in_either_half(capsys, monkeypatch, simulated):
    from availcsp import parse_process, simulation

    real = simulation.to_simulation
    monkeypatch.setattr(simulation, "to_simulation", lambda term, env, params: real(
        parse_process(simulated, env), env, params))
    code, out, _ = run(capsys, "simulate", SPEC, "a -> STOP",
                       "--len", "3", "--model", "n=F,k=2", "--check")
    assert (code, out.splitlines()[-1]) == (1, "# round trip: MISMATCH")


@pytest.mark.parametrize("alphabet, event", [("a, Offer", "Offer"), ("a, b, a.b", "a.b")])
def test_simulate_refuses_an_event_that_clashes_with_offer_events(capsys, tmp_path,
                                                                  alphabet, event):
    # a dotted event would make Offer.a.b stand for both {a.b} and {a, b}
    path = tmp_path / "clash.csp"
    path.write_text(f"alphabet {{{alphabet}}}\nP = {event} -> STOP\n", encoding="utf-8")
    code, out, err = run(capsys, "simulate", str(path), "P",
                         "--model", "n=F,k=F", "--check", "--len", "3")
    assert (code, out) == (2, "")
    assert err == f"availcsp: alphabet event {event!r} clashes with simulation offer events\n"


# --- distinguish -------------------------------------------------------------


def test_distinguish_grid(capsys):
    code, out, _ = run(capsys, "distinguish", SPEC, "EXT", "CYCLE",
                       "--grid", "n=F,k=1..2", "--len", "4", "--json")
    assert code == 1
    rows = {row["k"]: row for row in json.loads(out)}
    assert rows[1]["verdict"] == "equal"
    assert rows[2]["verdict"] == "distinguished"
    assert rows[2]["witness"] == "<offer{a,b}>"


def test_distinguish_agreeing_pair_exits_zero(capsys):
    code, out, _ = run(capsys, "distinguish", SPEC, "DOA", "MAYBE",
                       "--grid", "n=1..2,k=1", "--len", "3")
    assert code == 0


# --- congruence --------------------------------------------------------------


def test_congruence_agrees(capsys):
    code, out, _ = run(capsys, "congruence", SPEC, "CYCLE", "--len", "3")
    assert code == 0
    assert "engines agree" in out


def test_traces_stops_at_the_instantiation_budget(capsys, tmp_path):
    # ROT reaches 7^3 = 343 instantiations, more than the engine keeps
    path = tmp_path / "rot.csp"
    path.write_text(
        "alphabet {a,b,c,d,e,f,g}\n"
        "ROT(x,y,z) = ? w : {a,b,c,d,e,f,g} -> ROT(y,z,w)\n"
        "START = ROT(a,a,a)\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "traces", str(path), "START", "--engine", "den", "--len", "1")
    assert code == 2
    assert err == "availcsp: more than 256 recursion instantiations\n"


@pytest.fixture
def u1_spec(tmp_path):
    # each unfolding of U1 doubles the interleaved copies, so its internal
    # steps reach ever more states
    path = tmp_path / "u1.csp"
    path.write_text("alphabet {a, b, c}\nU1 = (U1 ||| U1) |~| a -> STOP\n", encoding="utf-8")
    return str(path)


def test_traces_stops_at_the_closure_budget(capsys, u1_spec):
    code, out, err = run(capsys, "traces", u1_spec, "U1", "--len", "2")
    assert code == 2
    assert out == ""
    assert err == "availcsp: internal-step closure exceeds MAX_STATES (4096 states)\n"


def test_traces_at_length_zero_builds_no_closure(capsys, u1_spec):
    # no step fits at length 0, so U1's unbounded closure is never asked
    # for; one step is enough to ask for it
    code, out, err = run(capsys, "traces", u1_spec, "U1", "--len", "0")
    assert (code, out.splitlines()[1:], err) == (0, ["<>"], "")
    code, out, err = run(capsys, "traces", u1_spec, "U1", "--len", "1")
    assert code == 2
    assert err == "availcsp: internal-step closure exceeds MAX_STATES (4096 states)\n"


def test_may_test_stops_at_the_closure_budget(capsys, u1_spec):
    # the may-test search holds U1's growing internal-step states at one
    # test step, up to the same cap
    code, out, err = run(capsys, "test", u1_spec, "U1", "--test", "b . SUCCESS")
    assert code == 2
    assert out == ""
    assert err == ("availcsp: may-test search exceeds MAX_STATES (4096 states) "
                   "at one test step\n")


# --- error surfaces ----------------------------------------------------------


def test_missing_spec_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "traces", "/no/such/file.csp", "EXT")
    assert code == 2
    assert "availcsp:" in err


def test_bad_process_expression_is_reported(capsys):
    code, _, err = run(capsys, "traces", SPEC, "a -> [] b")
    assert code == 2
    assert "availcsp:" in err


def test_bad_model_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["traces", SPEC, "EXT", "--model", "m=1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "availcsp: unknown --model keys ['m']\n"


def test_bad_grid_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["distinguish", SPEC, "EXT", "CYCLE", "--grid", "n=1..3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "availcsp: --grid needs a k= part\n"


@pytest.mark.parametrize("flags, flag", [
    (["--len", "-1"], "--len"),
    (["--len", "3", "--internal-len", "2"], "--internal-len"),
])
def test_bad_bounds_are_usage_errors_naming_the_flag(capsys, flags, flag):
    with pytest.raises(SystemExit) as exc:
        main(["traces", SPEC, "EXT", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"availcsp: {flag} ") and "Error" not in err


# --- crashes exit 2, never 1 (which reads as "refuted") --------------------


@pytest.fixture
def wide_spec(tmp_path):
    path = tmp_path / "wide.csp"
    path.write_text("alphabet {a,b,c,d,e,f,g,h,i,j}\nP = a -> STOP\n", encoding="utf-8")
    return str(path)


def assert_crash_exit(code, out, err):
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("availcsp: RecursionError: "), err


WIDE_PREFIX = "? x : {a,b,c,d,e,f,g,h,i,j} -> STOP"


def test_simulate_prints_a_wide_input_prefix(capsys, wide_spec):
    # 1,024 subset offers and 10 events build one choice of 1,034 branches
    code, out, err = run(capsys, "simulate", wide_spec, WIDE_PREFIX, "--model", "n=F,k=F")
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[2].startswith("S0 = ") and lines[2].count(" [] ") + 1 == 1034
    assert lines[3] == "S1 = Offer.0 -> S1"


def test_simulate_check_of_a_wide_input_prefix_round_trips(capsys, wide_spec):
    # the wide choice is one flat node, so hashing it does not recurse deeply
    code, out, err = run(capsys, "simulate", wide_spec, WIDE_PREFIX, "--model", "n=F,k=F",
                         "--check", "--len", "1")
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[2].startswith("S0 = ") and lines[3] == "S1 = Offer.0 -> S1"
    assert lines[4] == "# round trip: exact"


CHAIN = "a -> " * 3000 + "STOP"


def test_op_traces_a_long_inline_prefix_chain_and_den_exits_two(capsys, wide_spec):
    # the parser reads the chain in a loop, and each term stores its hash,
    # so op's step cache hashes the 3,000-deep term at once; den's
    # ``denote`` still recurses once per prefix
    code, out, err = run(capsys, "traces", wide_spec, CHAIN, "--len", "3")
    assert code == 0, err
    assert out.splitlines()[0] == "# operational n=F,k=1 len=3 count=11"
    assert_crash_exit(*run(capsys, "traces", wide_spec, CHAIN, "--len", "3",
                           "--engine", "den"))


def test_traces_of_deeply_nested_parentheses_is_stop(capsys, wide_spec):
    nested = run(capsys, "traces", wide_spec, "(" * 500 + "STOP" + ")" * 500)
    assert nested == run(capsys, "traces", wide_spec, "STOP")
    code, out, err = nested
    assert code == 0, err
    assert out.splitlines()[1:] == ["<>"]


def test_op_traces_a_deep_spec_definition_and_den_exits_two(capsys, tmp_path):
    path = tmp_path / "deep.csp"
    path.write_text("alphabet {a}\nDEEP = " + CHAIN + "\n", encoding="utf-8")
    code, out, err = run(capsys, "traces", str(path), "DEEP", "--len", "3")
    assert code == 0, err
    assert out.splitlines()[0] == "# operational n=F,k=1 len=3 count=11"
    assert_crash_exit(*run(capsys, "traces", str(path), "DEEP", "--len", "3",
                           "--engine", "den"))


def test_op_traces_a_choice_of_two_equal_deep_definitions(capsys, tmp_path):
    # D1 and D2 are equal terms built apart, so op compares them 3,000
    # levels deep
    path = tmp_path / "twins.csp"
    path.write_text(f"alphabet {{a}}\nD1 = {CHAIN}\nD2 = {CHAIN}\nP = D1 [] D2\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "traces", str(path), "P", "--len", "3")
    assert code == 0, err
    assert out.splitlines()[0] == "# operational n=F,k=1 len=3 count=11"


# --- the parser ---------------------------------------------------------------

COMMON = {"model": (("--model",), "n=F,k=1"), "len": (("--len",), 5),
          "internal_len": (("--internal-len",), None), "json": (("--json",), False)}
ENGINE = {"engine": (("--engine",), "op")}
POSITIONAL = ((), None)

# each subcommand's arguments: dest -> (option strings, default)
SUBCOMMANDS = {
    "traces": {"spec": POSITIONAL, "process": POSITIONAL, **COMMON, **ENGINE},
    "equiv": {"spec": POSITIONAL, "left": POSITIONAL, "right": POSITIONAL,
              **COMMON, **ENGINE},
    "refine": {"spec": POSITIONAL, "spec_process": POSITIONAL, "impl_process": POSITIONAL,
               **COMMON, **ENGINE},
    "test": {"spec": POSITIONAL, "process": POSITIONAL,
             "test_literal": (("--test",), None), "from_trace": (("--from-trace",), None),
             **COMMON},
    "health": {"spec": POSITIONAL, "process": POSITIONAL,
               "traces_file": (("--traces-file",), None), **COMMON, **ENGINE},
    "realize": {"spec": POSITIONAL, "traces_file": POSITIONAL,
                "check": (("--check",), False), **COMMON},
    "simulate": {"spec": POSITIONAL, "process": POSITIONAL,
                 "check": (("--check",), False), **COMMON},
    "distinguish": {"spec": POSITIONAL, "left": POSITIONAL, "right": POSITIONAL,
                    "grid": (("--grid",), "n=1..3,k=1..2"), **COMMON, **ENGINE},
    "congruence": {"spec": POSITIONAL, "process": POSITIONAL, **COMMON},
}


def test_each_subcommand_has_exactly_its_arguments():
    [subs] = [a for a in cli.PARSER._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subs.choices) == list(SUBCOMMANDS)
    for name, sub in subs.choices.items():
        got = {a.dest: (tuple(a.option_strings), a.default) for a in sub._actions
               if not isinstance(a, argparse._HelpAction)}
        assert got == SUBCOMMANDS[name], name


def test_main_builds_no_parser(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("main built an argument parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    code, out, _ = run(capsys, "traces", SPEC, "EXT", "--len", "2")
    assert code == 0
    assert "<offer{a}, b>" in out.splitlines()
