"""Transition computation and bounded trace extraction.

Canonical extraction is cross-checked against the fully materialised
oracle-mode extractor, and stable failures against hand-derived refusals.
"""
from __future__ import annotations

import pytest

from availcsp import Alphabet, Bounds, ModelParams, parse_spec
from availcsp.errors import BudgetError
from availcsp.healthiness import close_healthy, covers_equal
from availcsp.kernel import TAU
from availcsp.operational import StepEngine, avail_traces, build_lts, std_traces
from availcsp.process import Call, ExtChoice, Hide, IntChoice, Prefix, Stop, Timeout
from oracle import avail_traces_full, expand_cover, is_divergent, stable_failures

AB = Alphabet(["a", "b"])
FA = frozenset("a")
FB = frozenset("b")
FAB = frozenset("ab")

SPEC = """
alphabet {a, b}
EXT = a -> STOP [] b -> STOP
INT = a -> STOP |~| b -> STOP
MAYBE = a -> STOP |~| STOP
DOA = a -> STOP
SEQ = a -> b -> STOP
SWAY = a -> STOP [> b -> STOP
TWIN = ? x : {a, b} -> STOP
PUMP = mu X @ a -> X
CYCLE = (a -> STOP |~| b -> STOP) [> CYCLE
MASKED = PUMP \\ {a}
"""


@pytest.fixture(scope="module")
def env():
    return parse_spec(SPEC)


def proc(env, name):
    return Call(name, ())


def test_step_rules_for_choices_and_timeout(env):
    eng = StepEngine(env)
    stop = Stop()
    ext = ExtChoice((Prefix("a", stop), Prefix("b", stop)))
    assert set(eng.steps(ext)) == {("a", stop), ("b", stop)}
    intc = IntChoice((Prefix("a", stop), Prefix("b", stop)))
    assert set(eng.steps(intc)) == {(TAU, Prefix("a", stop)), (TAU, Prefix("b", stop))}
    sway = Timeout((Prefix("a", stop), stop))
    assert set(eng.steps(sway)) == {("a", stop), (TAU, stop)}


def test_initials_are_visible_labels_only(env):
    eng = StepEngine(env)
    stop = Stop()
    assert eng.initials(ExtChoice((Prefix("a", stop), Prefix("b", stop)))) == ["a", "b"]
    assert eng.initials(IntChoice((Prefix("a", stop), Prefix("b", stop)))) == []
    assert eng.initials(stop) == []


def test_external_choice_has_the_joint_offer_trace(env):
    bounds = Bounds(trace_len=2)
    ext = avail_traces(proc(env, "EXT"), env, ModelParams(None, 1), bounds)
    assert ext.member((FA, "b"), AB)
    intc = avail_traces(proc(env, "INT"), env, ModelParams(None, 1), bounds)
    assert not intc.member((FA, "b"), AB)


def test_joint_offers_appear_at_k2(env):
    bounds = Bounds(trace_len=2)
    ext = avail_traces(proc(env, "EXT"), env, ModelParams(None, 2), bounds)
    for tr in ((FA,), (FB,), (FAB,)):
        assert ext.member(tr, AB)
    intc = avail_traces(proc(env, "INT"), env, ModelParams(None, 2), bounds)
    assert not intc.member((FAB,), AB)


def test_stop_denotes_the_closure_of_the_empty_trace(env):
    got = avail_traces(Stop(), env, ModelParams(None, 1), Bounds(trace_len=3))
    assert covers_equal(got, close_healthy([()], ModelParams(None, 1), 3, AB))


def has_failure(fails, trace, refused):
    return any(refused <= r for r in fails.get(trace, ()))


def test_stable_failures_distinguish_maybe_from_doa(env):
    maybe = stable_failures(proc(env, "MAYBE"), env, 2)
    doa = stable_failures(proc(env, "DOA"), env, 2)
    assert has_failure(maybe, (), FA)
    assert not has_failure(doa, (), FA)
    stop = stable_failures(Stop(), env, 2)
    assert stop == {(): frozenset({FAB})}


def test_stable_failures_skip_unstable_states(env):
    sway = stable_failures(proc(env, "SWAY"), env, 2)
    assert () in sway
    assert not has_failure(sway, (), FB)
    assert has_failure(sway, ("b",), FAB)


def test_std_traces(env):
    assert std_traces(proc(env, "SEQ"), env, 3) == frozenset(
        {(), ("a",), ("a", "b")}
    )
    assert std_traces(proc(env, "PUMP"), env, 2) == frozenset(
        {(), ("a",), ("a", "a")}
    )


def test_tau_cycles_saturate_without_budget_exhaustion(env):
    got = avail_traces(proc(env, "MASKED"), env, ModelParams(None, 1), Bounds(trace_len=2))
    assert covers_equal(got, close_healthy([()], ModelParams(None, 1), 2, AB))


def test_tau_closure_follows_a_long_internal_chain(env):
    # 150 hidden events in a row: every state of the chain is reached
    term = Prefix("b", Stop())
    for _ in range(150):
        term = Prefix("a", term)
    term = Hide(term, FA)
    assert len(StepEngine(env).tau_closure(term)) == 151
    got = avail_traces(term, env, ModelParams(None, 1), Bounds(trace_len=2))
    assert got.member(("b",), AB) and got.member((FB, "b"), AB)


def test_length_cutoff_is_reported(env):
    got = avail_traces(proc(env, "SEQ"), env, ModelParams(None, 1), Bounds(trace_len=1))
    assert got.len_bound == 1
    assert got.member(("a",), AB)
    assert not any(len(tr) > 1 for tr in got.canon)


@pytest.mark.parametrize("name", ["EXT", "INT", "SWAY", "TWIN", "SEQ", "CYCLE"])
@pytest.mark.parametrize("params", [ModelParams(None, 1), ModelParams(2, 2)])
def test_canonical_extraction_matches_full_materialisation(env, name, params):
    bounds = Bounds(trace_len=3)
    fast = avail_traces(proc(env, name), env, params, bounds)
    assert expand_cover(fast, AB) == avail_traces_full(proc(env, name), env, params, bounds)


@pytest.mark.parametrize("name", ["EXT", "SWAY", "PUMP"])
def test_longer_bounds_only_add_traces(env, name):
    params = ModelParams(None, 1)
    small = avail_traces(proc(env, name), env, params, Bounds(trace_len=2))
    big = avail_traces(proc(env, name), env, params, Bounds(trace_len=3))
    for tr in small.canon:
        assert big.member(tr, AB)


def test_build_lts_and_state_cap(env):
    states, transitions = build_lts(proc(env, "PUMP"), env)
    assert states[0] == proc(env, "PUMP")
    assert all(lab is TAU or isinstance(lab, str) for _, lab, _ in transitions)
    # each a forks another copy, so the states never stop growing
    fork = parse_spec("alphabet {a}\nP = a -> (P ||| P)\n")
    with pytest.raises(BudgetError, match="MAX_STATES"):
        build_lts(Call("P", ()), fork)


def test_divergence_detection(env):
    assert is_divergent(proc(env, "MASKED"), env)
    assert is_divergent(proc(env, "CYCLE"), env)
    assert not is_divergent(proc(env, "SEQ"), env)
    assert not is_divergent(proc(env, "PUMP"), env)


@pytest.mark.parametrize("last, divergent", [("a -> STOP", False), ("P0", True)])
def test_divergence_on_a_long_internal_chain(last, divergent):
    # 2,000 internal steps in a row, deeper than the interpreter's stack
    lines = ["alphabet {a}"] + [f"P{i} = P{i + 1}" for i in range(2000)]
    env = parse_spec("\n".join(lines + [f"P2000 = {last}"]) + "\n")
    assert is_divergent(Call("P0", ()), env) is divergent
