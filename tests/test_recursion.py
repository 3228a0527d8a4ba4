"""``mu X @ P`` as a call of a definition of its own: the transition systems
keep their shape, the engines agree, and the alphabet is inferred in the
order the text mentions events."""
from __future__ import annotations

import pytest
from conftest import PARAM_POINTS

from availcsp import (
    Bounds, Call, avail_traces, build_lts, covers_equal, denote_traces, parse_spec,
    pretty, std_traces,
)

SPEC = """
alphabet {a, b, c}
Q = ? x : {a, b} -> mu X @ c -> X
R = ? x : {a, b} -> mu X @ x -> X
S = |~| x : {a, b} @ mu X @ x -> X
NEST = mu X @ a -> mu Y @ (b -> X [] c -> Y)
LOOPY = mu X @ X
P(y) = mu X @ y -> X
PA = P(a)
"""

# (states, transitions) of build_lts, as when ``mu`` was a term of its own
# that took one internal step to its unfolding.  Q's recursion mentions no
# binder, so both inputs reach one state.
SHAPES = {"Q": (4, 5), "R": (6, 7), "S": (6, 7), "NEST": (5, 6), "LOOPY": (2, 2),
          "PA": (4, 4)}


@pytest.fixture(scope="module")
def env():
    return parse_spec(SPEC)


def test_lifting_keeps_the_transition_system_shape(env):
    for name, shape in SHAPES.items():
        states, transitions = build_lts(Call(name), env)
        assert (len(states), len(transitions)) == shape, name


def test_parameters_are_the_binders_the_body_mentions(env):
    assert env.recursions["mu X @ c -> X"].params == ()
    assert env.recursions["mu X @ $0 -> X"].params == ("$0",)
    assert env.definitions["R"].body.body == Call("mu X @ $0 -> X", ("x",))
    assert env.definitions["P"].body == Call("mu X @ $0 -> X", ("y",))
    assert set(env.definitions) == set(SHAPES) | {"P"}
    # an indexed choice instantiates the call, and the printer fills the holes
    assert pretty(env.definitions["S"].body) == "(mu X @ a -> X) |~| (mu X @ b -> X)"


@pytest.mark.parametrize("params", PARAM_POINTS, ids=lambda p: p.show())
def test_engines_agree_on_lifted_recursion(env, params):
    bounds = Bounds(trace_len=3)
    for name in SHAPES:
        op = avail_traces(Call(name), env, params, bounds)
        den = denote_traces(Call(name), env, params, bounds)
        assert covers_equal(op, den), name


def test_alphabet_is_inferred_where_the_mu_stood():
    env = parse_spec("P = b -> (mu X @ a -> X) [] c -> STOP\n")
    assert env.alphabet.events == ("b", "a", "c")


def test_a_binder_in_the_body_does_not_capture_the_recursions_parameter():
    # X passes the outer x, which the inner binder x must not capture
    env = parse_spec("alphabet {a, c}\nP = ? x : {a} -> mu X @ x -> ? x : {c} -> x -> X\n")
    traces = std_traces(Call("P"), env, 5)
    assert ("a", "a", "c", "c", "a") in traces
    assert ("a", "a", "c", "c", "c") not in traces
