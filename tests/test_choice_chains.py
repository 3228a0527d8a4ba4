"""Chains of one choice operator are one n-ary node.

An unparenthesised chain ``P op Q op R`` parses to one node whose branches
are read left to right.  Each engine must give it the core of the
two-branch form nested down the left, which is how such a chain used to be
built, the two engines must agree on it, and printing must round-trip
through the parser.
"""
from __future__ import annotations

import functools

import pytest

from conftest import PARAM_POINTS

from availcsp import (
    Bounds, ExtChoice, IntChoice, Prefix, Stop, Timeout, avail_traces,
    covers_equal, denote_traces, parse_process, pretty,
)

OPS = {"[]": ExtChoice, "|~|": IntChoice, "[>": Timeout}

# corpus calls and small prefix terms, read from the front
OPERANDS = (
    ("a -> STOP", "EXT", "b -> a -> STOP", "CYCLE"),
    ("SWAYA", "b -> STOP", "INT", "PUMPCHOICE"),
    ("STOP", "TWINOFFER", "ECHO", "a -> STOP"),
)

CHAINS = [
    pytest.param(op, operands[:n], id=f"{op}-{i}-{n}")
    for op in OPS for i, operands in enumerate(OPERANDS) for n in (2, 3, 4)
]


def _nested(cls, terms):
    return functools.reduce(lambda acc, t: cls((acc, t)), terms[1:], terms[0])


@pytest.mark.parametrize("op, texts", CHAINS)
def test_flat_chain_has_the_cores_of_its_nested_form(ab, op, texts):
    flat = parse_process(f" {op} ".join(texts), ab)
    operands = tuple(parse_process(t, ab) for t in texts)
    assert flat == OPS[op](operands)
    nested = _nested(OPS[op], operands)
    bounds = Bounds(trace_len=3)
    for params in PARAM_POINTS:
        sets = {}
        for engine in (avail_traces, denote_traces):
            sets[engine] = engine(flat, ab, params, bounds)
            want = engine(nested, ab, params, bounds).canon
            assert sets[engine].canon == want, (engine.__name__, params)
        # the engines share no clause, so a fault common to both forms shows here
        assert covers_equal(sets[avail_traces], sets[denote_traces]), params


PRINTED = [
    "a -> STOP [] b -> STOP [] EXT",
    "a -> STOP |~| STOP |~| b -> a -> STOP |~| INT",
    "SWAYA [> b -> STOP [> STOP",
    "(a -> STOP [] b -> STOP) [] EXT",
    "a -> STOP [] (b -> STOP [] EXT)",
    "(a -> STOP [] b -> STOP) |~| (STOP [> b -> STOP) |~| EXT",
    "((a -> STOP |~| b -> STOP) [> STOP) [] (b -> STOP [> (STOP |~| EXT))",
    "a -> (b -> STOP [> (STOP |~| EXT))",
    "|~| x : {a, b} @ x -> STOP [] b -> STOP",
    "|~| x : {a} @ x -> STOP",
    "(|~| x : {a} @ x -> STOP) [] b -> STOP",
]


@pytest.mark.parametrize("text", PRINTED)
def test_printed_chains_read_back_to_the_same_text(ab, text):
    term = parse_process(text, ab)
    printed = pretty(term)
    assert pretty(parse_process(printed, ab)) == printed


@pytest.mark.parametrize("op", OPS)
def test_chain_text_keeps_its_grouping(ab, op):
    cls = OPS[op]
    a, b, c = Prefix("a", Stop()), Prefix("b", Stop()), Stop()
    for term in (cls((a, b, c)), _nested(cls, (a, b, c)), cls((a, cls((b, c))))):
        printed = pretty(term)
        assert parse_process(printed, ab) == term, printed
    assert pretty(cls((a, b, c))) == f"a -> STOP {op} b -> STOP {op} STOP"
    assert pretty(cls((a, cls((b, c))))) == f"a -> STOP {op} (b -> STOP {op} STOP)"


def test_one_event_indexed_choice_prints_as_its_branch(ab):
    term = parse_process("|~| x : {a} @ x -> STOP", ab)
    assert term == IntChoice((Prefix("a", Stop()),))
    assert pretty(term) == "a -> STOP"
    assert pretty(Prefix("b", term)) == "b -> a -> STOP"
