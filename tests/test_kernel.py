"""Trace representation, model parameters, and literal formats."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from availcsp import (
    Alphabet, Bounds, ModelParams, OutOfUniverseError, ParseError,
    is_event, is_offer, normalize_trace, parse_trace, show_trace,
    trace_from_json, trace_to_json,
)
from availcsp.kernel import (
    check_universe, compose, decompose, in_obs, offer_runs,
)

AB = Alphabet(["a", "b"])
FA = frozenset("a")
FB = frozenset("b")
FAB = frozenset("ab")

events = st.sampled_from(["a", "b"])
offers = st.frozensets(events, max_size=2)
actions = st.one_of(events, offers)
traces = st.lists(actions, max_size=6).map(tuple)


def test_action_predicates():
    assert is_event("a") and not is_offer("a")
    assert is_offer(FA) and not is_event(FA)
    assert is_offer(frozenset())


def test_model_params_defaults_and_show():
    p = ModelParams()
    assert p.run_bound is None and p.set_bound == 1
    assert p.show() == "n=F,k=1"
    assert ModelParams(2, None).show() == "n=2,k=F"
    assert ModelParams(2, None).json_obj() == {"n": 2, "k": "F"}


def test_model_params_zero_set_bound_degenerates():
    p = ModelParams(run_bound=None, set_bound=0)
    assert p.run_bound == 0 and p.set_bound == 1


def test_model_params_rejects_negatives():
    with pytest.raises(ValueError):
        ModelParams(run_bound=-1)
    with pytest.raises(ValueError):
        ModelParams(set_bound=-2)


def test_bounds_internal_default_is_three_times():
    b = Bounds(trace_len=4)
    assert b.internal_len == 12
    assert Bounds(trace_len=4, internal_len=4).internal_len == 4
    with pytest.raises(ValueError):
        Bounds(trace_len=4, internal_len=3)
    with pytest.raises(ValueError):
        Bounds(trace_len=-1)


def test_normalize_drops_empty_and_adjacent_duplicate_offers():
    assert normalize_trace((frozenset(), "a")) == ("a",)
    assert normalize_trace((FA, FA, "a")) == (FA, "a")
    assert normalize_trace((FA, FB, FA)) == (FA, FB, FA)
    assert normalize_trace((FA, "a", FA)) == (FA, "a", FA)


@given(traces)
def test_normalize_idempotent(tr):
    once = normalize_trace(tr)
    assert normalize_trace(once) == once


@given(traces)
def test_decompose_compose_inverse(tr):
    runs, evs = decompose(tr)
    assert len(runs) == len(evs) + 1
    assert compose(runs, evs) == tr


def test_offer_runs_and_obs():
    assert offer_runs(()) == [0]
    assert offer_runs((FA, FB, "a", FA)) == [2, 1]
    assert in_obs((FA, FB, "a"), 2)
    assert not in_obs((FA, FB, "a"), 1)
    assert in_obs((FA, FB, "a"), None)


def test_check_universe_rejections():
    p = ModelParams(run_bound=1, set_bound=1)
    with pytest.raises(OutOfUniverseError):
        check_universe(("a",) * 3, p, 2)
    with pytest.raises(OutOfUniverseError):
        check_universe((FA, FB), p, 5)
    with pytest.raises(OutOfUniverseError):
        check_universe((FAB,), p, 5)
    with pytest.raises(OutOfUniverseError):
        check_universe(("c",), p, 5, AB)
    check_universe((FA, "a"), p, 5, AB)


def test_trace_key_orders_events_before_offers_and_by_length():
    key = AB.trace_key
    assert key(("a",)) < key(("b",))
    assert key(("b",)) < key((FA,))
    assert key((FA,)) < key((FAB,))
    assert key((FAB,)) < key(("a", "b"))


def test_trace_literals():
    assert parse_trace("<>", AB) == ()
    assert parse_trace("<offer{a}, b>", AB) == (FA, "b")
    assert parse_trace("<offer{a,b}>", AB) == (FAB,)
    assert parse_trace("<offer{}>", AB) == (frozenset(),)
    assert show_trace((FA, "b"), AB) == "<offer{a}, b>"
    assert show_trace(()) == "<>"


def test_trace_literal_errors():
    with pytest.raises(ParseError):
        parse_trace("<c>", AB)
    with pytest.raises(ParseError):
        parse_trace("<a", AB)
    with pytest.raises(ParseError):
        parse_trace("<a> x", AB)
    for truncated in ("<a,", "<offer{", "<offer{a"):
        with pytest.raises(ParseError, match="end of input"):
            parse_trace(truncated, AB)


@given(traces)
def test_show_parse_round_trip(tr):
    assert parse_trace(show_trace(tr, AB), AB) == tr


@given(traces)
def test_json_round_trip(tr):
    text = trace_to_json(tr)
    json.loads(text)
    assert trace_from_json(text, AB) == tr
