"""Process terms, the spec reader, and the pretty printer."""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from availcsp import (
    Call, Div, ExtChoice, Hide, InputPrefix, IntChoice,
    Interleave, Parallel, ParseError, Prefix, Rename, SpecError, Stop,
    parse_process, parse_spec, pretty,
)

SRC = """
alphabet {a, b, c}
P = a -> STOP [] b -> STOP
Q = a -> STOP |~| b -> STOP
LOOP = mu X @ a -> X
PAIR(x) = x -> PAIR(x)
"""


@pytest.fixture(scope="module")
def env():
    return parse_spec(SRC)


def test_definitions_and_alphabet(env):
    assert sorted(env.alphabet.events) == ["a", "b", "c"]
    assert set(env.definitions) == {"P", "Q", "LOOP", "PAIR"}
    assert env.definitions["PAIR"].params == ("x",)


def test_operator_shapes(env):
    p = env.definitions["P"].body
    assert isinstance(p, ExtChoice)
    assert isinstance(p.branches[0], Prefix) and p.branches[0].event == "a"
    q = env.definitions["Q"].body
    assert isinstance(q, IntChoice)
    # ``mu X @ a -> X`` is a call of a definition of its own, named by its
    # text, in whose body X is that same call
    loop = env.definitions["LOOP"].body
    assert loop == Call("mu X @ a -> X")
    assert env.lookup(loop.name).body == Prefix("a", loop)
    assert set(env.recursions) == {loop.name}


def test_precedence_prefix_binds_tighter_than_choice(env):
    p = parse_process("a -> b -> STOP [] c -> STOP", env)
    assert isinstance(p, ExtChoice)
    assert isinstance(p.branches[0], Prefix) and isinstance(p.branches[0].body, Prefix)


def test_parallel_binds_looser_than_choice(env):
    p = parse_process("a -> STOP [] b -> STOP ||| c -> STOP", env)
    assert isinstance(p, Interleave)
    assert isinstance(p.left, ExtChoice)


def test_mixed_choice_operators_need_parentheses(env):
    with pytest.raises(ParseError):
        parse_process("a -> STOP [] b -> STOP |~| c -> STOP", env)
    parse_process("(a -> STOP [] b -> STOP) |~| c -> STOP", env)


def test_input_prefix_and_indexed_choice(env):
    p = parse_process("? x : {a, b} -> x -> STOP", env)
    assert isinstance(p, InputPrefix)
    assert p.events == frozenset("ab")
    q = parse_process("|~| x : {a, b} @ x -> STOP", env)
    assert isinstance(q, IntChoice)
    assert len(q.branches) == 2


def test_static_operators(env):
    p = parse_process("(a -> STOP) [{a} || {b, c}] (b -> STOP)", env)
    assert isinstance(p, Parallel)
    assert p.left_events == frozenset("a") and p.right_events == frozenset("bc")
    h = parse_process("(a -> b -> STOP) \\ {a}", env)
    assert isinstance(h, Hide) and h.events == frozenset("a")
    r = parse_process("(a -> STOP) [[a <- b, a <- c]]", env)
    assert isinstance(r, Rename)
    assert set(r.pairs) == {("a", "b"), ("a", "c")}


def test_atoms(env):
    assert isinstance(parse_process("STOP", env), Stop)
    assert isinstance(parse_process("DIV", env), Div)
    call = parse_process("PAIR(a)", env)
    assert call == Call("PAIR", ("a",))


def test_parse_errors(env):
    for bad in (
        "a ->",
        "mu @ STOP",
        "|~| x : {} @ x -> STOP",
        "a -> STOP [] ",
        "UNKNOWN",
        "PAIR(a, b)",
    ):
        with pytest.raises((ParseError, SpecError)):
            parse_process(bad, env)


def test_reserved_words_rejected(env):
    with pytest.raises(ParseError):
        parse_process("STOP -> STOP", env)
    with pytest.raises(ParseError):
        parse_spec("mu = STOP\n")


def test_spec_errors():
    with pytest.raises(SpecError):
        parse_spec("alphabet {a}\nP = b -> STOP\n")
    with pytest.raises(ParseError):
        parse_spec("P = STOP\nP = DIV\n")
    with pytest.raises(SpecError):
        parse_spec("P = STOP\n")
    with pytest.raises(ParseError):
        parse_spec("alphabet {a}\nalphabet {b}\nP = a -> STOP\n")


def test_alphabet_may_be_inferred():
    env = parse_spec("P = a -> STOP\nQ = b -> P\n")
    assert sorted(env.alphabet.events) == ["a", "b"]


def test_channel_lines_are_ignored():
    env = parse_spec("channel Offer : Set(Events)\nP = a -> STOP\n")
    assert set(env.definitions) == {"P"}


def test_pretty_round_trips(env):
    cases = [
        "a -> STOP [] b -> STOP",
        "(a -> STOP |~| b -> STOP) [> c -> STOP",
        "? x : {a, b} -> x -> STOP",
        "mu X @ (a -> X [] b -> STOP)",
        "(a -> b -> STOP) [{a, b} || {b, c}] (b -> c -> STOP)",
        "(c -> a -> b -> STOP) \\ {a}",
        "(a -> STOP) [[a <- b, b <- a]]",
        "(a -> b -> STOP) ||| (c -> STOP)",
    ]
    for text in cases:
        term = parse_process(text, env)
        assert parse_process(pretty(term), env) == term


def _operand(text: str) -> str:
    return f"({text})"


@st.composite
def process_texts(draw, depth=3, rec_vars=(), binders=()):
    """Fully bracketed process text over {a, b, c}, so the parse fixes the
    structure and the printer alone decides where brackets go."""
    if depth == 0:
        return draw(st.sampled_from(("STOP", *rec_vars)))
    events = ("a", "b", "c", *binders)

    def sub(rec_vars=rec_vars, binders=binders):
        return draw(process_texts(depth - 1, rec_vars, binders))

    sets = st.sets(st.sampled_from(events), min_size=1, max_size=2).map(
        lambda es: "{" + ", ".join(sorted(es)) + "}")
    kind = draw(st.sampled_from(("prefix", "input", "choice", "hide", "rename",
                                 "interleave", "parallel", "mu", "mu")))
    if kind == "prefix":
        return f"{draw(st.sampled_from(events))} -> {_operand(sub())}"
    if kind == "input":
        x = draw(st.sampled_from(("x", "y")))
        return f"? {x} : {draw(sets)} -> {_operand(sub(binders=(*binders, x)))}"
    if kind == "choice":
        op = draw(st.sampled_from(("[]", "|~|", "[>")))
        n = draw(st.integers(2, 3))
        return f" {op} ".join(_operand(sub()) for _ in range(n))
    if kind == "hide":
        return f"{_operand(sub())} \\ {draw(sets)}"
    if kind == "rename":
        a, b = draw(st.sampled_from(events)), draw(st.sampled_from(events))
        return f"{_operand(sub())}[[{a} <- {b}]]"
    if kind == "interleave":
        return f"{_operand(sub())} ||| {_operand(sub())}"
    if kind == "parallel":
        return f"{_operand(sub())} [{draw(sets)} || {draw(sets)}] {_operand(sub())}"
    var = draw(st.sampled_from(("X", "Y")))
    return _operand(f"mu {var} @ {sub(rec_vars=(*rec_vars, var))}")


@settings(max_examples=300, deadline=None)
@given(process_texts())
@example("(mu X @ a -> X) [] b -> STOP")
@example("(mu X @ a -> X) ||| b -> STOP")
@example("a -> (mu X @ b -> X) [{a} || {b}] STOP")
@example("? x : {a, b} -> (mu X @ x -> ? x : {c} -> x -> X) [] c -> STOP")
def test_pretty_round_trips_generated_terms(env, text):
    term = parse_process(text, env)
    assert parse_process(pretty(term), env) == term
