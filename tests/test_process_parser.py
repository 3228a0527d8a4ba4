"""Process terms, the spec reader, and the pretty printer."""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from availcsp import (
    Call, Definition, Div, ExtChoice, Hide, InputPrefix, IntChoice,
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


# Malformed process expressions, each with the exact error it raises: the
# position is the column of the offending token, or 0 at the end of the line
# and for a reserved word read as an event.
PROCESS_ERRORS = (
    ("a -> STOP $", ParseError, "line 1, col 10: bad character '$'"),
    ("a -> 9", ParseError, "line 1, col 5: bad character '9'"),
    ("a -> STOP [{a} | {b}] STOP", ParseError, "line 1, col 15: bad character '|'"),
    # a comment ends with its line, and what follows is read
    ("a -> STOP#x\nb", ParseError, "line 1, col 13: trailing input after process expression"),
    ("  # x", ParseError, "line 1, col 0: expected a process"),
    ("", ParseError, "line 1, col 0: expected a process"),
    ("a ->", ParseError, "line 1, col 0: expected a process"),
    ("a -> STOP [] ", ParseError, "line 1, col 0: expected a process"),
    ("|~| x : {a, b} @", ParseError, "line 1, col 0: expected a process"),
    ("(a -> STOP", ParseError, "line 1, col 0: expected ')', got end of line"),
    ("(a -> STOP) \\ {a", ParseError, "line 1, col 0: expected '}', got end of line"),
    ("|~| x : {a} @ (x -> STOP", ParseError, "line 1, col 0: expected ')', got end of line"),
    ("a -> STOP STOP", ParseError, "line 1, col 11: trailing input after process expression"),
    ("STOP -> STOP", ParseError, "line 1, col 6: trailing input after process expression"),
    ("STOP \\ {a} ]", ParseError, "line 1, col 12: trailing input after process expression"),
    ("mu X @ a -> X )", ParseError, "line 1, col 15: trailing input after process expression"),
    ("a -> STOP [] b -> STOP |~| c -> STOP", ParseError,
     "line 1, col 24: mixing '[]' and '|~|' needs parentheses"),
    ("a -> STOP |~| b -> STOP [> c -> STOP", ParseError,
     "line 1, col 25: mixing '|~|' and '[>' needs parentheses"),
    ("a -> STOP [] b -> (STOP |~| c -> STOP [] STOP)", ParseError,
     "line 1, col 39: mixing '|~|' and '[]' needs parentheses"),
    ("? STOP : {a} -> STOP", ParseError, "line 1, col 0: 'STOP' is a reserved word"),
    ("(a -> STOP) \\ {mu}", ParseError, "line 1, col 0: 'mu' is a reserved word"),
    ("alphabet -> STOP", ParseError, "line 1, col 1: 'alphabet' is a reserved word"),
    ("mu -> STOP", ParseError, "line 1, col 4: expected recursion variable"),
    ("mu @ STOP", ParseError, "line 1, col 4: expected recursion variable"),
    ("|~| x : {} @ x -> STOP", ParseError,
     "line 1, col 1: indexed internal choice over an empty set"),
    # the set is found empty after the body is read, before what follows it
    ("|~| x : {} @ x -> STOP STOP", ParseError,
     "line 1, col 1: indexed internal choice over an empty set"),
    ("? x : {a} -> |~| y : {} @ y -> STOP [] x -> STOP", ParseError,
     "line 1, col 14: indexed internal choice over an empty set"),
    ("(a -> STOP)[[a b]]", ParseError, "line 1, col 16: expected '<-', got 'b'"),
    ("(a -> STOP) [[a <- b,]]", ParseError, "line 1, col 22: expected event name"),
    ("? x {a} -> x -> STOP", ParseError, "line 1, col 5: expected ':', got '{'"),
    ("mu X STOP", ParseError, "line 1, col 6: expected '@', got 'STOP'"),
    ("PAIR(", ParseError, "line 1, col 0: expected event name"),
    ("a -> STOP [{a} || {b} STOP", ParseError, "line 1, col 23: expected ']', got 'STOP'"),
    ("UNKNOWN", SpecError, "undefined process name: UNKNOWN"),
    ("PAIR(a, b)", SpecError, "PAIR takes 1 argument(s), got 2"),
    ("d -> STOP", SpecError, "event 'd' is not in the alphabet and not bound"),
    ("(mu X @ a -> Y)", SpecError, "undefined process name: Y"),
    ("? x : {a} -> (x -> STOP [] y -> STOP)", SpecError,
     "event 'y' is not in the alphabet and not bound"),
    # a mu's body is checked by the same walk as the expression around it
    ("(mu X @ d -> X)", SpecError, "event 'd' is not in the alphabet and not bound"),
    ("(mu X @ PAIR(a, b) [] X)", SpecError, "PAIR takes 1 argument(s), got 2"),
    # an expression is one line, so a column counts past its line ends
    ("a -> STOP # c\n  [] $", ParseError, "line 1, col 19: bad character '$'"),
    # two errors: an undeclared event comes before a bad call, wherever it
    # stands, and a bad call in the expression before one in a mu's body
    ("UNKNOWN [] d -> STOP", SpecError, "event 'd' is not in the alphabet and not bound"),
    ("d -> STOP [] UNKNOWN", SpecError, "event 'd' is not in the alphabet and not bound"),
    ("UNKNOWN [] (mu X @ a -> Y)", SpecError, "undefined process name: UNKNOWN"),
)


def test_parse_errors(env):
    for text, kind, message in PROCESS_ERRORS:
        with pytest.raises(kind) as err:
            parse_process(text, env)
        assert str(err.value) == message, text


@pytest.mark.parametrize("text", [
    "a -> STOP # x", "a -> STOP#x", "a -> # x\nSTOP", "  # x\r\na -> STOP # -> $",
    "a -> STOP # x\u2028",
])
def test_a_comment_ends_with_its_line(env, text):
    assert parse_process(text, env) == parse_process("a -> STOP", env)


def test_a_mu_takes_the_binders_its_body_mentions(env):
    term = parse_process("? x : {a} -> (mu X @ x -> X)", env)
    assert term.body == Call("mu X @ $0 -> X", ("x",))
    assert env.recursions["mu X @ $0 -> X"] == Definition(("$0",), Prefix("$0", Call(
        "mu X @ $0 -> X", ("$0",))))


def chain_end(term, event: str, depth: int):
    """The term after ``depth`` prefixes of ``event``, walked in a loop."""
    for _ in range(depth):
        assert type(term) is Prefix and term.event == event
        term = term.body
    return term


def test_a_long_prefix_chain_parses(env):
    term = parse_process("a -> " * 3000 + "STOP", env)
    assert type(chain_end(term, "a", 3000)) is Stop
    assert hash(term) == hash(("a", term.body))


def test_a_long_chain_under_an_indexed_choice_parses():
    # the choice's one branch is its body with x replaced by a, which
    # subst_events builds with a stack
    term = parse_process("|~| x : {a} @ " + "x -> " * 3000 + "STOP", parse_spec(SRC))
    assert type(term) is IntChoice and len(term.branches) == 1
    assert type(chain_end(term.branches[0], "a", 3000)) is Stop


def test_a_long_chain_under_a_mu_parses():
    # a recursion is named by its printed text, which pretty builds with a
    # stack, and its body ends with a call of that name; a spec of its own
    # keeps the deep definition out of the shared one
    env = parse_spec(SRC)
    text = "mu X @ " + "a -> " * 3000 + "X"
    term = parse_process(text, env)
    assert term == Call(text)
    assert pretty(term) == "(" + text + ")"
    assert chain_end(env.recursions[text].body, "a", 3000) == term


def test_deeply_nested_parentheses_parse(env):
    assert parse_process("(" * 500 + "STOP" + ")" * 500, env) == Stop()
    with pytest.raises(ParseError, match="line 1, col 0: expected '\\)', got end of line"):
        parse_process("(" * 500 + "STOP" + ")" * 499, env)


def test_reserved_words_rejected(env):
    with pytest.raises(ParseError):
        parse_process("STOP -> STOP", env)
    with pytest.raises(ParseError):
        parse_spec("mu = STOP\n")


# Malformed specs, each with the exact error it raises.  Every line is
# read before definitions are matched up, the alphabet is inferred or
# checked, and then names and arities are checked, definitions first.
SPEC_ERRORS = (
    ("P = a -> STOP\nQ = b -> $\n", ParseError, "line 2, col 9: bad character '$'"),
    ("P = a -> STOP\n  Q = ) $\n", ParseError, "line 2, col 8: bad character '$'"),
    ("P = a -> STOP # c\nQ = $\n", ParseError, "line 2, col 4: bad character '$'"),
    ("channel x : {1}\nP = a -> STOP\n", ParseError, "line 1, col 14: bad character '1'"),
    ("P = (a -> STOP\n) \n", ParseError, "line 1, col 0: expected ')', got end of line"),
    ("P = a -> STOP\n\n\n  # c\n\nQ = b -> ->\n", ParseError,
     "line 6, col 10: expected a process"),
    ("mu = STOP\n", ParseError, "line 1, col 1: expected a definition name"),
    ("= STOP\n", ParseError, "line 1, col 1: expected a definition name"),
    ("P(x = STOP\n", ParseError, "line 1, col 5: expected ')', got '='"),
    ("P(STOP) = a -> STOP\n", ParseError, "line 1, col 0: 'STOP' is a reserved word"),
    ("alphabet {a, STOP}\n", ParseError, "line 1, col 0: 'STOP' is a reserved word"),
    ("alphabet a\n", ParseError, "line 1, col 10: expected '{', got 'a'"),
    ("alphabet {a} b\nP = a -> STOP", ParseError,
     "line 1, col 14: trailing input after alphabet header"),
    ("alphabet {a}\nalphabet {b}\nP = a -> STOP\n", ParseError,
     "line 2, col 1: duplicate alphabet header"),
    ("P(x, x) = x -> STOP\n", ParseError, "line 1, col 1: duplicate parameter in P"),
    ("P = STOP\nP = DIV\n", ParseError, "line 2, col 1: duplicate definition of P"),
    ("P = STOP\nP = DIV\nQ = a -> $\n", ParseError, "line 3, col 9: bad character '$'"),
    ("alphabet {a}\nP = b -> STOP\n", SpecError,
     "events used but not declared in the alphabet: b"),
    # in order of first mention, a hidden set before the body it hides
    ("alphabet {a}\nP = c -> b -> STOP\n", SpecError,
     "events used but not declared in the alphabet: c, b"),
    ("alphabet {a}\nP = (c -> STOP) \\ {b}\n", SpecError,
     "events used but not declared in the alphabet: b, c"),
    ("P = ? x : {a} -> x -> STOP\nQ = x -> STOP\nalphabet {a}\n", SpecError,
     "events used but not declared in the alphabet: x"),
    ("P = STOP\n", SpecError,
     "empty alphabet: declare events in an alphabet header or use them"),
    ("P = a -> Q\n", SpecError, "undefined process name: Q"),
    ("P = a -> Q(a)\nQ = STOP\n", SpecError, "Q takes 0 argument(s), got 1"),
    ("P = a -> STOP\nQ = R\nR(x) = x -> STOP\n", SpecError, "R takes 1 argument(s), got 0"),
    # the definitions are checked before the recursions read from them
    ("P = (mu X @ a -> Z)\nQ = Y\n", SpecError, "undefined process name: Y"),
    ("P = (mu X @ a -> Z)\n", SpecError, "undefined process name: Z"),
    # a recursion is read where it is called, after a bad call before it
    ("alphabet {a}\nP = Q [] (mu X @ b -> X)\n", SpecError,
     "events used but not declared in the alphabet: b"),
)


def test_spec_errors():
    for text, kind, message in SPEC_ERRORS:
        with pytest.raises(kind) as err:
            parse_spec(text)
        assert str(err.value) == message, text


def test_alphabet_may_be_inferred():
    env = parse_spec("P = a -> STOP\nQ = b -> P\n")
    assert sorted(env.alphabet.events) == ["a", "b"]


def test_channel_lines_are_ignored():
    env = parse_spec("channel Offer : Set(Events)\nP = a -> STOP\n")
    assert set(env.definitions) == {"P"}


PLAIN = "alphabet {a, b}\nP = a -> STOP\nQ(x) = x -> Q(x) [] b -> P\n"


@pytest.mark.parametrize("text", [
    "alphabet {a, b}\r\nP = a -> STOP\r\nQ(x) = x -> Q(x) [] b -> P\r\n",
    "alphabet\t{a,b}\nP\t=\ta\t->\tSTOP\n\tQ(x)\t= x->Q(x)[]b->P",
    "alphabet {a, b}# header\nP = a -> STOP#x\nQ(x) = x -> Q(x) [] b -> P#\n",
    "alphabet {a, b} # header\nP = a -> STOP # x ->\nQ(x) = x -> Q(x) [] b -> P\t# $\n",
    "# head\n\n   \n  # indented $ ~\nalphabet {a, b}\n\t\nP = a -> STOP\n#\n"
    "Q(x) = x -> Q(x) [] b -> P\n",
    "channel Offer : Set(Events)\nalphabet {a, b}\nchannel Pick : Events\n"
    "P = a -> STOP\nchannel X\nQ(x) = x -> Q(x) [] b -> P\n",
])
def test_whole_spec_scanner_edges(text):
    """Line ends, tabs, comments and channel lines leave the same spec."""
    assert parse_spec(text) == parse_spec(PLAIN)


@pytest.mark.parametrize("text, message", [
    ("# c\r\n\r\n  # c\r\nP = a -> $\r\n", "line 4, col 9: bad character '$'"),
    ("P = a -> STOP\r\n\r\nQ = b -> ->\r\n", "line 3, col 10: expected a process"),
    ("\tP = a ->\tSTOP @\n", "line 1, col 16: trailing input after process expression"),
    ("P = a -> STOP\fQ = ,\n", "line 2, col 5: expected a process"),
    ("P = a -> STOP\rQ = b ->\n", "line 2, col 0: expected a process"),
    ("P = a ->#\n", "line 1, col 0: expected a process"),
    # a comment directly after a token ends the line, so P is defined twice
    ("P = STOP# x\nP = a -> STOP\n", "line 2, col 1: duplicate definition of P"),
])
def test_whole_spec_scanner_error_lines(text, message):
    """Blank and comment lines still count, and every str.splitlines line end
    ends a line."""
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    assert str(err.value) == message


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


_FILLER = st.sampled_from(("", "   ", "\t", "# note", "  # note $ ~",
                           "channel Offer : Set(Events)"))


@settings(max_examples=100, deadline=None)
@given(st.lists(process_texts(depth=2), min_size=1, max_size=4), st.data())
def test_spec_lines_read_as_process_texts(texts, data):
    """Each ``Dk = text`` line of a spec, among comments, blank lines and
    channel lines, defines what ``parse_process`` reads from the text."""
    ends = st.sampled_from(("", "#c", "  ", " # c $"))
    lines = [f"D{k} = {text}" + data.draw(ends) for k, text in enumerate(texts)]
    for _ in range(data.draw(st.integers(0, 4))):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(_FILLER))
    lines.insert(data.draw(st.integers(0, len(lines))), "alphabet {a, b, c}")
    spec = parse_spec(data.draw(st.sampled_from(("\n", "\r\n"))).join(lines))
    recursions = dict(spec.recursions)
    for k, text in enumerate(texts):
        assert spec.definitions[f"D{k}"] == Definition((), parse_process(text, spec))
    assert spec.recursions == recursions
