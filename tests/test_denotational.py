"""Compositional trace-set evaluation and fixpoints.

Every clause is checked against hand-derived memberships and, where a
process is cheap to explore, against the operational extraction, which is
the independent route to the same sets.
"""
from __future__ import annotations

import pytest

from conftest import PARAM_POINTS

from availcsp import Alphabet, Bounds, ModelParams, denotational, parse_spec
from availcsp.denotational import DenotationalEngine, denote_traces, mentions_hiding
from availcsp.healthiness import close_healthy, covers_equal, restrict_params
from availcsp.operational import avail_traces
from availcsp.process import Call
from oracle import finalize_whole_oracle, prefix_clause_oracle, solve_rounds_oracle

AB = Alphabet(["a", "b"])
ABC = Alphabet(["a", "b", "c"])
FA = frozenset("a")
FB = frozenset("b")
FAB = frozenset("ab")

SPEC = """
alphabet {a, b}
EXT = a -> STOP [] b -> STOP
INT = a -> STOP |~| b -> STOP
SWAYPAIR = (a -> STOP [> b -> STOP) |~| (b -> STOP [> a -> STOP)
PUMP = mu X @ a -> X
LOOPY = mu X @ X
SLIDE = (a -> STOP |~| b -> STOP) [> SLIDE
TWIN = ? x : {a, b} -> STOP
SEQ = a -> b -> STOP
"""

HIDE_SPEC = """
alphabet {a, b, c}
MASK = (c -> a -> b -> STOP) \\ {a}
PLAIN = c -> b -> STOP
"""


@pytest.fixture(scope="module")
def env():
    return parse_spec(SPEC)


@pytest.fixture(scope="module")
def henv():
    return parse_spec(HIDE_SPEC)


def den(env, name, params, L):
    return denote_traces(Call(name, ()), env, params, Bounds(trace_len=L))


def parse_term(text, env):
    from availcsp.parser import parse_process

    return parse_process(text, env)


def test_stop_and_div_share_the_bottom_denotation(env):
    stop = denote_traces(parse_term("STOP", env), env, ModelParams(None, 1), Bounds(trace_len=3))
    div = denote_traces(parse_term("DIV", env), env, ModelParams(None, 1), Bounds(trace_len=3))
    want = close_healthy([()], ModelParams(None, 1), 3, AB)
    assert covers_equal(stop, want)
    assert covers_equal(div, want)


def test_external_choice_keeps_the_offer_then_other_event(env):
    ext = den(env, "EXT", ModelParams(None, 1), 2)
    assert ext.member((FA, "b"), AB)
    intc = den(env, "INT", ModelParams(None, 1), 2)
    assert not intc.member((FA, "b"), AB)


def test_sliding_pair_distinguished_from_internal_choice(env):
    sway = den(env, "SWAYPAIR", ModelParams(None, 1), 2)
    assert sway.member((FA, "b"), AB)
    intc = den(env, "INT", ModelParams(None, 1), 2)
    assert not intc.member((FA, "b"), AB)
    assert sway.member(("a",), AB) and intc.member(("a",), AB)


def test_joint_offer_only_at_k2(env):
    assert den(env, "EXT", ModelParams(None, 2), 2).member((FAB,), AB)
    assert not den(env, "INT", ModelParams(None, 2), 2).member((FAB,), AB)


def test_guarded_recursion_matches_operational(env):
    params = ModelParams(None, 1)
    got = den(env, "PUMP", params, 3)
    want = avail_traces(Call("PUMP", ()), env, params, Bounds(trace_len=3))
    assert covers_equal(got, want)
    assert got.member(("a", "a", "a"), AB)
    assert got.member((FA, "a", FA), AB)


def test_unguarded_recursion_is_bottom(env):
    got = den(env, "LOOPY", ModelParams(None, 1), 3)
    assert covers_equal(got, close_healthy([()], ModelParams(None, 1), 3, AB))


def test_sliding_loop_alternates_offers(env):
    got = den(env, "SLIDE", ModelParams(None, 1), 3)
    assert got.member((FA, FB, FA), AB)
    assert got.member((FA, FB, "a"), AB)
    assert got.member((FB, FA, "b"), AB)
    assert got.member((FA, "b"), AB)
    joint = den(env, "SLIDE", ModelParams(None, 2), 2)
    assert not joint.member((FAB,), AB)
    assert den(env, "EXT", ModelParams(None, 2), 2).member((FAB,), AB)


def test_internal_choice_laws(env):
    params = ModelParams(None, 1)
    bounds = Bounds(trace_len=3)
    p = parse_term("a -> STOP |~| b -> STOP", env)
    q = parse_term("b -> STOP |~| a -> STOP", env)
    pp = parse_term("(a -> STOP |~| b -> STOP) |~| (a -> STOP |~| b -> STOP)", env)
    assert covers_equal(
        denote_traces(p, env, params, bounds), denote_traces(q, env, params, bounds)
    )
    assert covers_equal(
        denote_traces(p, env, params, bounds), denote_traces(pp, env, params, bounds)
    )


@pytest.mark.parametrize("name", ["EXT", "INT", "SWAYPAIR", "TWIN", "SLIDE", "SEQ"])
@pytest.mark.parametrize("params", [ModelParams(None, 1), ModelParams(2, 2), ModelParams(1, 1)])
def test_congruence_with_operational(env, name, params):
    bounds = Bounds(trace_len=3)
    got = denote_traces(Call(name, ()), env, params, bounds)
    want = avail_traces(Call(name, ()), env, params, bounds)
    assert covers_equal(got, want)


def test_model_projection(env):
    wide = den(env, "SLIDE", ModelParams(None, 1), 3)
    narrow = den(env, "SLIDE", ModelParams(1, 1), 3)
    assert covers_equal(narrow, restrict_params(wide, ModelParams(1, 1)))
    wide_k = den(env, "TWIN", ModelParams(None, None), 2)
    narrow_k = den(env, "TWIN", ModelParams(None, 1), 2)
    assert covers_equal(narrow_k, restrict_params(wide_k, ModelParams(None, 1)))


def test_hiding_needs_the_internal_margin(henv):
    assert mentions_hiding(Call("MASK", ()), henv)
    assert not mentions_hiding(Call("PLAIN", ()), henv)
    params = ModelParams(None, 1)
    got = denote_traces(Call("MASK", ()), henv, params, Bounds(trace_len=2))
    assert got.member(("c", "b"), ABC)
    assert not got.member(("c", "a"), ABC)
    want = avail_traces(Call("MASK", ()), henv, params, Bounds(trace_len=2))
    assert covers_equal(got, want)


def test_hidden_offers_are_blocked(henv):
    params = ModelParams(None, 1)
    got = denote_traces(Call("MASK", ()), henv, params, Bounds(trace_len=3))
    assert got.member(("c", FB, "b"), ABC)
    assert not got.member(("c", FA), ABC)


@pytest.mark.parametrize(
    "params", [ModelParams(1, None), ModelParams(2, None)], ids=["n=1,k=F", "n=2,k=F"]
)
def test_engines_agree_with_bounded_runs_and_unbounded_offers(corpus, params):
    # conftest's PARAM_POINTS never pair a run bound with k=F
    bounds = Bounds(trace_len=4)
    for group, name, term, env in corpus:
        op = avail_traces(term, env, params, bounds)
        den = denote_traces(term, env, params, bounds)
        assert covers_equal(op, den), (group, name, params.show())


@pytest.mark.parametrize("params", PARAM_POINTS, ids=lambda p: p.show())
def test_worklist_fixpoint_matches_the_rounds_oracle(corpus, params, monkeypatch):
    # the corpus has parameterised (BUF(x)) and mutual (EVEN/ODD) recursion
    bounds = Bounds(trace_len=3)
    got = [denote_traces(term, env, params, bounds).canon for _, _, term, env in corpus]
    monkeypatch.setattr(DenotationalEngine, "solve", solve_rounds_oracle)
    for (group, name, term, env), core in zip(corpus, got):
        assert core == denote_traces(term, env, params, bounds).canon, (group, name)


class GrowingVector(dict):
    """An instantiation vector that counts overwrites and fails when one
    drops a trace."""
    overwrites = 0

    def __setitem__(self, key, value):
        if key in self:
            assert self[key] <= value, key
            GrowingVector.overwrites += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("params", PARAM_POINTS, ids=lambda p: p.show())
def test_every_re_evaluation_is_a_superset_of_the_last_value(corpus, params, monkeypatch):
    # solve stops when no value changed as a set, which is exact only
    # because a re-evaluation never loses a trace
    solve = DenotationalEngine.solve

    def checked(self, term):
        self.vector = GrowingVector()
        return solve(self, term)

    monkeypatch.setattr(DenotationalEngine, "solve", checked)
    monkeypatch.setattr(GrowingVector, "overwrites", 0)
    for _, _, term, env in corpus:
        denote_traces(term, env, params, Bounds(trace_len=3))
    assert GrowingVector.overwrites > 0


def test_a_definition_without_calls_is_denoted_once_per_solve(env, monkeypatch):
    body = env.lookup("SEQ").body
    seen = []
    denote = DenotationalEngine.denote

    def counting(self, term):
        if term is body:
            seen.append(term)
        return denote(self, term)

    monkeypatch.setattr(DenotationalEngine, "denote", counting)
    den(env, "SEQ", ModelParams(None, 1), 3)
    assert len(seen) == 1
    monkeypatch.setattr(DenotationalEngine, "solve", solve_rounds_oracle)
    seen.clear()
    den(env, "SEQ", ModelParams(None, 1), 3)
    assert len(seen) == 2


@pytest.mark.parametrize("params", PARAM_POINTS, ids=lambda p: p.show())
def test_delta_finalize_matches_whole_set_finalize(corpus, params, monkeypatch):
    cases = [(name, term, env, 3) for _, name, term, env in corpus]
    cases += [(name, term, env, 4) for name, term, env, _ in cases
              if name in ("MASKLOOP", "PUMPCHOICE")]
    got = [denote_traces(term, env, params, Bounds(trace_len=L)).canon
           for _, term, env, L in cases]
    monkeypatch.setattr(DenotationalEngine, "_finalize", finalize_whole_oracle)
    for (name, term, env, L), core in zip(cases, got):
        assert core == denote_traces(term, env, params, Bounds(trace_len=L)).canon, (name, L)


@pytest.mark.parametrize("params", PARAM_POINTS + (ModelParams(0, 1),), ids=lambda p: p.show())
def test_bound_free_prefix_clause_matches_bounded_clause(corpus, params, monkeypatch):
    # the prefix clause leaves every bound to finalize
    cases = [(name, term, env, 3) for _, name, term, env in corpus]
    cases += [(name, term, env, 4) for name, term, env, _ in cases
              if name in ("PUMPCHOICE", "WEAVE", "MIXPAR")]
    got = [denote_traces(term, env, params, Bounds(trace_len=L)).canon
           for _, term, env, L in cases]
    monkeypatch.setattr(DenotationalEngine, "_prefix_clause", prefix_clause_oracle)
    for (name, term, env, L), core in zip(cases, got):
        assert core == denote_traces(term, env, params, Bounds(trace_len=L)).canon, (name, L)


def test_fixpoint_rounds_finalize_only_the_traces_they_add(envs, monkeypatch):
    # each round of MASKLOOP's inline loop, (mu X @ a -> X) \ {a} at the
    # internal length, adds a few traces to a large set
    handed = []
    finalize = denotational.finalize

    def counting(traces, params, len_bound):
        handed.append(len(traces))
        return finalize(traces, params, len_bound)

    monkeypatch.setattr(denotational, "finalize", counting)
    den(envs["group_abc"], "MASKLOOP", ModelParams(2, 1), 4)
    assert sum(handed) <= 2_100    # 10,350 when every call finalizes its whole input
