"""Tests as programs: test literals, may-testing, and trace-set realization.

A test is the trace it probes for.  The central cross-check is the
membership correspondence: a process may pass a trace as a test exactly
when the trace belongs to its closed availability-trace set.
"""
from __future__ import annotations

import pytest

from availcsp import Alphabet, Bounds, ModelParams, parse_spec
from availcsp.denotational import denote_traces
from availcsp.errors import BudgetError, ParseError, SpecError
from availcsp.healthiness import close_healthy, covers_equal
from availcsp.operational import avail_traces
from availcsp.process import Call, Div, InputPrefix, Prefix, Stop, Timeout
from availcsp.testing import may_pass, parse_test, process_from_trace, realize, show_test
from oracle import enumerate_universe

AB = Alphabet(["a", "b"])
FA = frozenset("a")
FB = frozenset("b")
FAB = frozenset("ab")

SPEC = """
alphabet {a, b}
EXT = a -> STOP [] b -> STOP
INT = a -> STOP |~| b -> STOP
SWAY = a -> STOP [> b -> STOP
SLIDE = (a -> STOP |~| b -> STOP) [> SLIDE
"""


@pytest.fixture(scope="module")
def env():
    return parse_spec(SPEC)


def test_each_literal_reads_as_its_trace():
    # an event request is the event, a readiness check its offer; an empty
    # or repeated check stays one step
    assert parse_test("SUCCESS") == ()
    assert parse_test("a . SUCCESS") == ("a",)
    assert parse_test("ready {a} & b . SUCCESS") == (FA, "b")
    assert parse_test("ready {} & ready {b,a} & ready {a,b} & SUCCESS") == (
        frozenset(), FAB, FAB)


def test_literal_syntax_round_trips():
    # the last has 2,000 steps, read and printed without recursion
    for text in ("SUCCESS", "a . SUCCESS", "ready {a,b} & SUCCESS", "ready {} & SUCCESS",
                 "a . ready {b} & b . SUCCESS", "a . ready {a,b} & " * 1000 + "SUCCESS"):
        assert show_test(parse_test(text)) == text


def test_literal_syntax_errors():
    with pytest.raises(ParseError):
        parse_test("a .")
    with pytest.raises(ParseError):
        parse_test("ready a & SUCCESS")
    with pytest.raises(ParseError):
        parse_test("SUCCESS SUCCESS")
    with pytest.raises(ParseError):
        parse_test("c . SUCCESS", alphabet=frozenset("ab"))


def test_the_state_cap_holds_per_test_step(env):
    # 2,500 steps of a -> P hold two states each: 5,000 in all, past
    # MAX_STATES, yet the test passes
    pump = parse_spec("alphabet {a}\nP = a -> P\n")
    v = may_pass(Call("P", ()), ("a",) * 2500, pump)
    assert v.may and v.witness == ["tau", "a"] * 2500
    grow = parse_spec("alphabet {a, b}\nU1 = (U1 ||| U1) |~| a -> STOP\n")
    with pytest.raises(BudgetError, match="MAX_STATES"):
        may_pass(Call("U1", ()), ("b",), grow)


def test_may_pass_detects_the_offer_trace(env):
    probe = (FA, "b")
    assert may_pass(Call("EXT", ()), probe, env).may
    verdict = may_pass(Call("INT", ()), probe, env)
    assert not verdict.may


def test_may_pass_immediate_success(env):
    v = may_pass(Stop(), (), env)
    assert v.may and v.witness == []
    assert may_pass(Div(), (), env).may


def test_may_verdict_witness_replays_the_run(env):
    v = may_pass(Call("SWAY", ()), (FA, "b"), env)
    assert v.may
    assert v.witness is not None
    assert v.witness.count("b") == 1
    assert "ready{a}" in v.witness


@pytest.mark.parametrize("name", ["EXT", "INT", "SWAY", "SLIDE"])
def test_membership_correspondence(env, name):
    params = ModelParams(None, 1)
    bounds = Bounds(trace_len=2)
    traces = avail_traces(Call(name, ()), env, params, bounds)
    for tr in enumerate_universe(AB, params, 2):
        got = may_pass(Call(name, ()), tr, env)
        assert got.may == traces.member(tr, AB), tr


def test_probe_process_shapes():
    assert process_from_trace(()) == Stop()
    assert process_from_trace(("a",)) == Prefix("a", Stop())
    built = process_from_trace((FAB, "a"))
    assert built == Timeout((InputPrefix("x", FAB, Div()), Prefix("a", Stop())))


def test_realize_collapses_and_rejects(env):
    assert realize([()]) == Stop()
    with pytest.raises(SpecError):
        realize([])


@pytest.mark.parametrize("seed,L", [
    ([()], 2),
    ([(FA, "b")], 3),
    ([("a", "b")], 3),
    ([(FA,), ("b",)], 2),
])
def test_realized_processes_denote_their_closures(env, seed, L):
    params = ModelParams(None, 1)
    want = close_healthy(seed, params, L, AB)
    term = realize(want.canon)
    bounds = Bounds(trace_len=L)
    assert covers_equal(denote_traces(term, env, params, bounds), want)
    assert covers_equal(avail_traces(term, env, params, bounds), want)


def test_tight_bounds_let_probes_exceed_the_bounded_closure(env):
    params = ModelParams(None, 1)
    want = close_healthy([(FA, "b")], params, 2, AB)
    got = avail_traces(realize(want.canon), env, params, Bounds(trace_len=2))
    # <offer{a}, offer{b}> follows from <offer{a}, b> only through
    # <offer{a}, offer{b}, b>, one longer than the bound; the closure keeps it
    assert want.member((FA, FB), AB)
    assert covers_equal(got, want)


def test_realize_round_trips_a_process_set(env):
    params = ModelParams(None, 1)
    bounds = Bounds(trace_len=2)
    original = avail_traces(Call("EXT", ()), env, params, bounds)
    rebuilt = denote_traces(realize(original.canon), env, params, bounds)
    assert covers_equal(rebuilt, original)
