"""Trace-level operators: merging, hiding, renaming, restriction.

Interleavings are pinned against ``oracle.shuffle_oracle``, and merges of
whole sets against ``oracle.merge_oracle``, a recursion over one pair of
traces at a time; merge behaviour that only makes sense up to closure
(offer skipping, prefixing) is compared via ``close_healthy`` rather than
literal set equality.  Bounds are applied the way the denotational engine
applies them, by ``finalize``.
"""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from availcsp import Alphabet, ModelParams
from availcsp.healthiness import TraceSet, close_healthy, covers_equal, finalize
from availcsp.kernel import check_universe, in_obs, is_event, normalize_trace
from availcsp.trace_algebra import (
    concat_traces, hide_set, hide_trace, merge_offer, merge_sets, merge_traces,
    offers_only, rename_trace, restrict_trace, split_first_event,
)
from oracle import merge_oracle, shuffle_oracle

AB = Alphabet(["a", "b"])
FA = frozenset("a")
FB = frozenset("b")
FC = frozenset("c")
FAB = frozenset("ab")
FBC = frozenset("bc")

SINGLE = ModelParams(run_bound=None, set_bound=1)
SETS2 = ModelParams(run_bound=None, set_bound=2)


def test_interleave_examples():
    assert shuffle_oracle(("a",), ("b",)) == frozenset({("a", "b"), ("b", "a")})
    assert shuffle_oracle((), (FA, "a")) == frozenset({(FA, "a")})
    assert shuffle_oracle((FA,), ("b",)) == frozenset({(FA, "b"), ("b", FA)})


small_actions = st.sampled_from(["a", "b", FA, FB, FAB])
small_traces = st.lists(small_actions, max_size=3).map(tuple)


@settings(max_examples=80, deadline=None)
@given(small_traces, small_traces)
def test_interleave_matches_brute_force_and_is_symmetric(t1, t2):
    out = shuffle_oracle(t1, t2)
    assert out == shuffle_oracle(t2, t1)
    # every interleaving, offers taken one side at a time, is a free merge
    assert {normalize_trace(tr) for tr in out} <= merge_traces(t1, t2, frozenset())


def test_merge_offer_formula():
    assert merge_offer(FAB, FBC, frozenset("b")) == frozenset("abc")
    assert merge_offer(FA, FB, frozenset()) == FAB
    assert merge_offer(FA, FA, FA) == FA
    assert merge_offer(FA, frozenset(), FA) == frozenset()


@settings(max_examples=60, deadline=None)
@given(
    st.frozensets(st.sampled_from("abc"), max_size=3),
    st.frozensets(st.sampled_from("abc"), max_size=3),
    st.frozensets(st.sampled_from("abc"), max_size=3),
)
def test_merge_offer_laws(o1, o2, sync):
    joint = merge_offer(o1, o2, sync)
    assert joint <= o1 | o2
    assert merge_offer(o1, frozenset(), sync) == o1 - sync
    assert merge_offer(o1, o2, sync) == merge_offer(o2, o1, sync)


def test_sync_merge_blocks_lone_synchronised_offers():
    both = merge_traces((FA,), (FA,), frozenset("a"))
    assert (FA,) in both
    alone = merge_traces((FA,), (), frozenset("a"))
    assert alone == frozenset({()})


def test_sync_merge_unions_free_offers_at_k2():
    out = merge_traces((FA,), (FB,), frozenset())
    assert (FAB,) in out
    capped = finalize(out, SINGLE, 2)
    assert (FAB,) not in capped
    assert (FA, FB) in capped


def test_sync_merge_forces_shared_events():
    assert merge_traces(("a",), ("a",), frozenset("a")) == frozenset({("a",)})
    assert merge_traces(("a",), (), frozenset("a")) == frozenset()


@settings(max_examples=60, deadline=None)
@given(small_traces, small_traces, st.frozensets(st.sampled_from("ab"), max_size=2))
def test_merge_is_symmetric(t1, t2, sync):
    assert merge_traces(t1, t2, sync) == merge_traces(t2, t1, sync)


@settings(max_examples=60, deadline=None)
@given(small_traces, small_traces, st.frozensets(st.sampled_from("ab"), max_size=2))
def test_sync_merge_results_respect_params(t1, t2, sync):
    for params in (SINGLE, ModelParams(2, 2)):
        for tr in finalize(merge_traces(t1, t2, sync), params, 6):
            check_universe(tr, params, 6)


@st.composite
def trace_sets(draw):
    """Up to four traces over a, b, c and four offers, closed under
    prefixes in half the draws: a semi-naive delta is not."""
    traces = draw(st.lists(
        st.lists(st.sampled_from(["a", "b", "c", FA, FB, FAB, FBC]), max_size=4).map(tuple),
        max_size=4))
    if draw(st.booleans()):
        traces = [tr[:i] for tr in traces for i in range(len(tr) + 1)]
    return frozenset(traces)


@settings(max_examples=300, deadline=None)
@given(trace_sets(), trace_sets(), st.frozensets(st.sampled_from("abc")),
       st.none() | st.integers(0, 6), st.none() | st.integers(0, 2))
# the offer {a} joined with the right side's {a}, while only the right side
# moves on, must stay the left side's next action: the right side's {b}
# branch then has nothing to merge with
@example(frozenset({(), (FA,)}), frozenset({(), (FA,), (FB,)}), FA, None, None)
def test_merge_sets_is_the_union_of_pair_merges_within_the_bounds(
        left, right, sync, len_bound, run_bound):
    want = {tr for t1 in left for t2 in right for tr in merge_oracle(t1, t2, sync)
            if (len_bound is None or len(tr) <= len_bound) and in_obs(tr, run_bound)}
    assert merge_sets(left, right, sync, len_bound, run_bound) == want


event_traces = st.lists(st.sampled_from("ab"), max_size=3).map(tuple)


@settings(max_examples=60, deadline=None)
@given(event_traces, event_traces)
def test_free_merge_of_event_traces_is_interleaving(t1, t2):
    assert merge_traces(t1, t2, frozenset()) == shuffle_oracle(t1, t2)


def test_free_merge_of_offer_traces_is_interleaving_up_to_closure():
    merged = [
        tr for tr in merge_traces((FA, "a"), (FB,), frozenset())
        if all(is_event(a) or len(a) == 1 for a in tr)
    ]
    shuffled = shuffle_oracle((FA, "a"), (FB,))
    left = close_healthy(merged, SINGLE, 3, AB)
    right = close_healthy(shuffled, SINGLE, 3, AB)
    assert covers_equal(left, right)


def test_restrict_drops_outside_events_and_narrows_offers():
    assert restrict_trace(("a", "b"), frozenset("a")) is None
    assert restrict_trace((FAB, "a"), frozenset("a")) == (FA, "a")
    assert restrict_trace((FB,), frozenset("a")) == ()


def test_hide_trace_deletes_events_and_shrinks_offers():
    assert hide_trace(("a", "b"), frozenset("a")) == ("b",)
    assert hide_trace((FAB, "a"), frozenset("a")) == (FB,)
    assert hide_trace((FA,), frozenset("a")) == ()
    assert hide_set({("a",), ("b",)}, frozenset("a")) == {(), ("b",)}


def hide_closed(ts, hidden):
    """Hiding lifted to a closed set the way the denotational clause does
    it: hide every core member, then re-establish the universe."""
    core = finalize(hide_set(ts.canon, hidden), ts.params, ts.len_bound)
    return TraceSet(core, ts.params, ts.len_bound)


def test_hide_trace_set_excludes_offers_of_hidden_events():
    t = close_healthy([(FA, "a")], SINGLE, 3, AB)
    hidden = hide_closed(t, frozenset("a"))
    assert covers_equal(hidden, close_healthy([()], SINGLE, 3, AB))


def test_hide_trace_set_identity_and_untouched_offers():
    t = close_healthy([(FB, "a")], SINGLE, 3, AB)
    assert covers_equal(hide_closed(t, frozenset()), t)
    hidden = hide_closed(t, frozenset("a"))
    assert hidden.member((FB,), AB)
    assert not hidden.member(("a",), AB)


def test_rename_event_and_offer_images():
    assert rename_trace(("a",), [("a", "b")]) == {("b",)}
    assert rename_trace(("a",), []) == set()
    maximal = rename_trace((FA,), [("a", "b"), ("a", "c")])
    assert maximal == {(FBC,)}
    # the subsets of the image are members by covering
    images = TraceSet({(), (FBC,)}, SETS2, 1)
    for tr in ((FBC,), (FB,), (FC,), ()):
        assert images.member(tr)


def test_rename_filters_by_params():
    capped = finalize(rename_trace((FA,), [("a", "b"), ("a", "c")]), SINGLE, 1)
    assert capped == {(FB,), (FC,), ()}
    tight = finalize(rename_trace(("a", "a"), [("a", "b")]), ModelParams(0, 1), 2)
    assert tight == {("b", "b")}


def test_concat_normalises_junction():
    assert concat_traces(("a", FA), (FA, "b")) == ("a", FA, "b")
    assert concat_traces((), (FB,)) == (FB,)


def test_offers_only_and_split_first_event():
    canon = {(), (FA,), (FA, "a"), ("a",)}
    assert sorted(offers_only(canon), key=len) == [(), (FA,)]
    assert split_first_event((FA, "a", FB)) == ((FA,), "a", (FB,))
    assert split_first_event((FA, FB)) is None
