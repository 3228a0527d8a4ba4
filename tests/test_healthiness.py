"""Closure computation, closure-aware membership, and condition checking.

The fast path stores canonical cores and answers membership by covering;
every behaviour here is pinned against ``oracle.closure_oracle``, which
applies the literal closure rules to a materialised set.
"""
from __future__ import annotations

import os

import pytest
from conftest import DATA_DIR, PARAM_POINTS
from hypothesis import example, given, settings, strategies as st

from availcsp import (
    Alphabet, Bounds, Call, ModelParams, OutOfUniverseError, parse_process, show_trace,
    trace_to_json,
)
from availcsp.denotational import denote_traces
from availcsp.healthiness import (
    _CONDITIONS, TraceSet, _resample_run, _uncovered, check_healthy, close_healthy,
    cond4_reduce, covered, covers_equal, finalize,
    max_offers,
)
from availcsp.kernel import decompose, in_obs, is_offer, normalize_trace, parse_trace
from availcsp.operational import avail_traces
from oracle import (
    check_healthy_oracle, close_prefixes_and_deletions, closure_oracle, enumerate_universe,
    expand_cover, finalize_oracle, resample_oracle, restrict_params,
)

AB = Alphabet(["a", "b"])
ABC = Alphabet(["a", "b", "c"])
FA = frozenset("a")
FB = frozenset("b")
FC = frozenset("c")
FAB = frozenset("ab")
FBC = frozenset("bc")
FABC = frozenset("abc")

SINGLE = ModelParams(run_bound=None, set_bound=1)
SETS2 = ModelParams(run_bound=None, set_bound=2)


def test_cond4_reduce_deletes_self_offers():
    assert cond4_reduce((FA, "a")) == ("a",)
    assert cond4_reduce((FA, "b")) == (FA, "b")
    assert cond4_reduce((FAB, "a")) == (FAB, "a")
    assert cond4_reduce((FB, FA, "a", "b")) == (FB, "a", "b")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", FA, FB, FAB, frozenset()]), max_size=8))
def test_cond4_reduce_is_one_pass_on_normalised_traces(actions):
    tr = normalize_trace(tuple(actions))
    red = cond4_reduce(tr)
    assert normalize_trace(red) == red
    assert not any(
        isinstance(a, frozenset) and len(a) == 1 and b in a for a, b in zip(red, red[1:])
    )
    assert cond4_reduce(red) == red


def test_covered_requires_same_events_and_embedded_runs():
    def runs(tr):
        return decompose(tr)[0]

    assert covered(runs((FA, "a")), runs((FAB, "a")))
    assert covered(runs((FA, FB)), runs((FAB,)))
    assert not covered(runs((FA, "a")), runs(("a",)))
    assert not covered(runs((FB, FA)), runs((FA, FB)))
    # covering only compares traces with the same events
    ts = TraceSet({(), ("b",)}, SINGLE, 1)
    assert ts.member(("b",), AB)
    assert not ts.member(("a",), AB)


def test_member_duplication_and_subset_and_miss():
    t = close_healthy([(FA, "a")], SINGLE, 3, AB)
    assert t.member((FA, FA, "a"), AB)
    s = close_healthy([(FAB,)], SETS2, 3, AB)
    assert s.member((FA,), AB)
    assert not t.member(("b",), AB)


def test_member_out_of_universe_is_an_error_not_false():
    t = close_healthy([(FA, "a")], ModelParams(1, 1), 2, AB)
    with pytest.raises(OutOfUniverseError):
        t.member(("a",) * 3, AB)
    with pytest.raises(OutOfUniverseError):
        t.member((FA, FB, "a"), AB)
    with pytest.raises(OutOfUniverseError):
        t.member((FAB,), AB)


def test_close_healthy_spec_cases():
    t = close_healthy([(FA,)], SINGLE, 3, AB)
    assert t.member(("a",), AB)
    u = close_healthy([("a",)], SINGLE, 3, AB)
    assert u.member((FA, "a"), AB)
    v = close_healthy([()], SINGLE, 3, AB)
    assert v.canon == frozenset({()})


def test_max_offers():
    assert max_offers(frozenset(), 1) == []
    assert max_offers(FAB, None) == [FAB]
    assert max_offers(FABC, 2) == [FAB, frozenset("ac"), FBC]
    assert max_offers(FA, 2) == [FA]


def test_cap_offers_expands_runs_not_positions():
    # A stored three-event offer at k=2 must cover a run of two different
    # two-event subsets, so capping expands into runs, not just subsets.
    caps = finalize(close_prefixes_and_deletions({(FABC,)}), SETS2, 4)
    assert (FAB, FBC) in caps
    assert () in caps
    closed = close_healthy([(FABC,)], ModelParams(None, None), 4, ABC)
    t = TraceSet(finalize(closed.canon, SETS2, 4), SETS2, 4)
    assert t.member((FAB, FBC), ABC)
    assert t.member((frozenset("ac"), FB, "b"), ABC)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from([FA, FB, FAB, FABC]), min_size=1, max_size=3),
             max_size=3),
    st.one_of(st.none(), st.integers(0, 3)),
    st.integers(0, 4),
)
def test_resample_run_matches_brute_force(choices, run_bound, len_bound):
    # offer capping and the witness search share it
    want = resample_oracle(choices, run_bound, len_bound)
    assert _resample_run(choices, run_bound, len_bound) == want


# finalize's worst case while it trimmed overlong variants: the variant
# product held 97,196 traces at k=1, nearly all too long
BASELINE_CALL = (FABC, "a", FABC, "b", FBC)


@pytest.mark.parametrize("k", [1, 2])
def test_finalize_of_the_baseline_call_matches_its_pinned_image(k):
    # finalize takes a closed set: the call's trace with its prefixes and
    # offer deletions, 14 traces.  The pinned sets were checked against
    # finalize_oracle once: it takes about 10 s at k=2 and 70 s at k=1
    path = os.path.join(DATA_DIR, f"finalize_baseline_k{k}.txt")
    with open(path, encoding="utf-8") as fh:
        pinned = {parse_trace(line, ABC) for line in fh.read().splitlines()
                  if not line.startswith("#")}
    assert len(pinned) == {1: 498, 2: 454}[k]
    closed = close_prefixes_and_deletions({BASELINE_CALL})
    assert len(closed) == 14
    assert finalize(closed, ModelParams(run_bound=None, set_bound=k), 5) == pinned


def test_finalize_clips_runs_and_length():
    p = ModelParams(run_bound=1, set_bound=1)
    out = finalize(close_prefixes_and_deletions({(FA, FB, "a")}), p, 3)
    assert (FA, "a") in out and (FB, "a") in out
    assert all(len(tr) <= 2 or tr == ("a",) for tr in out) or ("a",) in out
    long = finalize(close_prefixes_and_deletions({("a", "b", "a", "b")}), SINGLE, 2)
    assert ("a", "b") in long
    assert all(len(tr) <= 2 for tr in long)


# offers of up to three events overflow k=1 and k=2; seven actions overflow
# every run and length bound drawn
wide_traces = st.lists(st.sampled_from(["a", "b", "c", FA, FB, FAB, FBC, FABC]),
                       max_size=7).map(normalize_trace)
bound_or_free = st.sampled_from([1, 2, None])


@settings(max_examples=200, deadline=None)
@given(st.frozensets(wide_traces, max_size=3), st.frozensets(wide_traces, max_size=3),
       bound_or_free, bound_or_free, st.integers(0, 5))
@example(frozenset({BASELINE_CALL}), frozenset({(FABC,)}), None, 1, 5)
def test_finalize_is_a_union_of_per_trace_images(a, b, n, k, len_bound):
    # the denotational engine finalizes only what a fixpoint round added
    p = ModelParams(run_bound=n, set_bound=k)
    assert finalize(a | b, p, len_bound) == finalize(a, p, len_bound) | finalize(b, p, len_bound)


# raw traces whose offers overflow k and whose runs overflow n; dropping
# every c joins the runs on either side of it, as hiding does.  A run with
# a three-event offer resamples into about a hundred runs at n=F, L=5 and
# the variants multiply across runs, so a trace holds at most two offers of
# more than one event.
raw_traces = st.lists(st.sampled_from(["a", "b", "c", FA, FB, FAB, FBC, FABC, frozenset()]),
                      max_size=6).map(tuple).filter(
    lambda tr: sum(is_offer(a) and len(a) > 1 for a in tr) <= 2)
joined_traces = raw_traces.map(lambda tr: tuple(x for x in tr if x != "c"))
any_bound = st.sampled_from([0, 1, 2, None])


@settings(max_examples=300, deadline=None)
@given(st.frozensets(st.one_of(raw_traces, joined_traces), max_size=3),
       any_bound, any_bound, st.integers(0, 5))
@example(frozenset({(FA, FB, FA)}), 2, 1, 2)     # clipping makes two offers adjacent
@example(frozenset({(FA, FAB, FAB, "a"), (frozenset(), FB)}), None, None, 4)  # repeated, empty
@example(frozenset({(FA, FB, FA, "a", FB, FAB)}), 1, None, 5)                # runs longer than n
@example(frozenset({(FABC, FA, FB, "b", FAB)}), 2, 2, 5)                     # ... and wider than k
def test_finalize_matches_three_pass_oracle(traces, n, k, len_bound):
    # finalize drops a trace that is overlong, holds an empty or a repeated
    # offer, or has a run longer than n, where the oracle trims, normalises
    # or clips it: each image the oracle makes of it is an image of a trace
    # made from it by taking a prefix and deleting offers, no longer than
    # the image, which a set closed under prefixes and offer deletion
    # already holds and finalize keeps or caps
    closed = close_prefixes_and_deletions(traces)
    p = ModelParams(run_bound=n, set_bound=k)
    assert finalize(closed, p, len_bound) == finalize_oracle(closed, p, len_bound)


# up to six actions, two more than the longest bound the lemma is checked at
closable_traces = st.lists(st.sampled_from(["a", "b", "c", FA, FB, FAB, FBC, FABC]),
                           max_size=6).map(normalize_trace)


@settings(max_examples=320, deadline=None)
@given(st.lists(closable_traces, min_size=1, max_size=3))
def test_finalize_of_a_closed_set_needs_only_its_short_traces(drawn):
    # the lemma finalize rests on: each image the oracle makes of an
    # overlong trace by trimming is already an image of one of the closed
    # set's short traces, so finalize may drop the overlong ones unseen
    closed = close_prefixes_and_deletions(drawn)
    for p in PARAM_POINTS + (ModelParams(run_bound=0, set_bound=1),):
        for len_bound in range(5):
            short = [tr for tr in closed if len(tr) <= len_bound]
            assert finalize_oracle(closed, p, len_bound) == finalize(short, p, len_bound)


SEED_CASES = [
    ([(FA, "a")], SINGLE, 3),
    ([(FA, "a")], ModelParams(1, 1), 3),
    ([(FA, "a", FB)], ModelParams(2, 1), 4),
    ([(FAB, "a")], SETS2, 3),
    ([(FAB, "b"), ("a", "a")], ModelParams(2, 2), 4),
    ([(FAB,)], ModelParams(None, None), 3),
    ([("a", "b")], SINGLE, 4),
]


@pytest.mark.parametrize("seed,params,len_bound", SEED_CASES)
def test_closure_matches_rule_application_oracle(seed, params, len_bound):
    t = close_healthy(seed, params, len_bound, AB)
    want = closure_oracle(seed, params, len_bound)
    got = expand_cover(t, AB)
    assert got == want
    for tr in enumerate_universe(AB, params, len_bound):
        assert t.member(tr, AB) == (tr in want)


def truncated_closure(seeds, params, len_bound):
    """The closure of some seeds cut to the bound: ``closure_oracle`` one
    length further, where the longer traces the short ones follow from
    lie, also closed under following a final offer by one of its events.
    Duplicating the offer and then performing one of its events gives
    that trace, but a run already at the run bound has no room for the
    duplicate, so the oracle's rules miss it; yet any state that offers
    a set can go on to perform one of its events, so every process that
    shows the offer shows the trace."""
    longer = len_bound + 1
    closed = closure_oracle(seeds, params, longer)
    while True:
        follow = {tr + (e,) for tr in closed if tr and is_offer(tr[-1]) and len(tr) < longer
                  for e in tr[-1]} - closed
        if not follow:
            return frozenset(tr for tr in closed if len(tr) <= len_bound)
        closed = closure_oracle(closed | follow, params, longer)


def seed_lists(params: ModelParams, len_bound: int):
    """1-3 normalised seeds over {a, b, c} inside the universe of a point."""
    actions = ["a", "b", "c"]
    if params.run_bound != 0:
        actions += [o for o in (FA, FB, FC, FAB, FBC, FABC) if params.fits_offer(o)]
    seed = st.lists(st.sampled_from(actions), max_size=len_bound).map(normalize_trace)
    return st.lists(seed.filter(lambda tr: in_obs(tr, params.run_bound)),
                    min_size=1, max_size=3)


@st.composite
def seeded_points(draw):
    """1-3 normalised seeds over {a, b, c} inside the universe of one of
    the six points or n=0, at len 0-4."""
    params = draw(st.sampled_from(PARAM_POINTS + (ModelParams(run_bound=0, set_bound=None),)))
    len_bound = draw(st.integers(0, 4))
    return draw(seed_lists(params, len_bound)), params, len_bound


@settings(max_examples=150, deadline=None)
@given(seeded_points())
@example(([(FAB, "c"), (FC, "a", "b")], ModelParams(None, 2), 3))
@example(([("a", "a", "a")], ModelParams(None, 1), 3))
def test_close_healthy_is_the_truncated_closure(case):
    # the closure inside the length bound misses what follows only
    # through a longer trace; the realization's traces do not
    seeds, params, len_bound = case
    t = close_healthy(seeds, params, len_bound, ABC)
    assert expand_cover(t, ABC) == truncated_closure(seeds, params, len_bound)


def test_a_full_run_may_still_perform_an_event_of_its_offer(ab):
    # <offer{a,b}> at n=1 leaves no room to duplicate the offer, so the
    # oracle's rules never reach <offer{a,b}, a>; a process that offers
    # {a, b} can perform a next, and the closure keeps it
    p = ModelParams(run_bound=1, set_bound=2)
    assert (FAB, "a") not in closure_oracle([(FAB,)], p, 5)
    assert close_healthy([(FAB,)], p, 2, AB).member((FAB, "a"), AB)
    ext = avail_traces(parse_process("a -> STOP [] b -> STOP", ab), ab, p, Bounds(trace_len=2))
    assert ext.member((FAB, "a"), AB)


universe_traces = st.lists(
    st.one_of(
        st.sampled_from(["a", "b"]),
        st.frozensets(st.sampled_from(["a", "b"]), max_size=2),
    ),
    max_size=3,
).map(tuple)


@settings(max_examples=40, deadline=None)
@given(st.lists(universe_traces, min_size=1, max_size=3))
def test_closure_laws_random_seeds(seeds):
    t = close_healthy(seeds, SETS2, 3, AB)
    for tr in seeds:
        assert t.member(tr, AB)
    again = close_healthy(t.canon, SETS2, 3, AB)
    assert covers_equal(t, again)
    assert expand_cover(t, AB) == truncated_closure(seeds, SETS2, 3)


@settings(max_examples=150, deadline=None)
@given(seeded_points(), st.data())
def test_uncovered_is_the_core_members_the_other_set_does_not_cover(ab, case, data):
    # each side the closure of drawn seeds or op's core of a group_ab
    # process, so that equal, nested and unrelated cores all occur
    seeds, params, len_bound = case
    names = sorted(name for name, d in ab.definitions.items() if not d.params)

    def drawn_set():
        if data.draw(st.booleans()):
            return close_healthy(data.draw(seed_lists(params, len_bound)), params, len_bound, ABC)
        term = Call(data.draw(st.sampled_from(names)), ())
        return avail_traces(term, ab, params, Bounds(trace_len=len_bound))

    a = close_healthy(seeds, params, len_bound, ABC)
    for b in (a, drawn_set(), drawn_set()):
        for x, y in ((a, b), (b, a)):
            got = list(_uncovered(x, y))
            assert len(got) == len(set(got))
            assert set(got) == {tr for tr in x.canon if not y._member_normalized(tr)}


def test_closure_monotone():
    small = close_healthy([(FA, "a")], SETS2, 3, AB)
    large = close_healthy([(FA, "a"), (FB, "b")], SETS2, 3, AB)
    assert expand_cover(small, AB) < expand_cover(large, AB)


def test_covers_equal_rejects_mismatched_parameters():
    t = close_healthy([("a",)], SINGLE, 3, AB)
    u = close_healthy([("a",)], SINGLE, 4, AB)
    with pytest.raises(ValueError):
        covers_equal(t, u)


def test_restrict_params_projects_membership():
    t = close_healthy([(FA, FB, "a")], ModelParams(2, 1), 4, AB)
    r = restrict_params(t, ModelParams(1, 1))
    assert r.member((FA, "a"), AB)
    assert t.member((FA, FB, "a"), AB)
    with pytest.raises(OutOfUniverseError):
        r.member((FA, FB, "a"), AB)


def test_condition_names_depend_on_set_bound():
    def names(params):
        return [c.condition for c in check_healthy({()}, params, 2).conditions]

    assert names(SINGLE) == [
        "nonempty-prefix-closed", "offer-remove-duplicate",
        "offer-implies-event", "event-implies-offer",
    ]
    assert names(SETS2)[-2:] == [
        "offer-subset-closed", "empty-offer-free",
    ]


def report_by_name(report):
    return {c.condition: c for c in report.conditions}


def test_check_healthy_passes_on_closures():
    t = close_healthy([(FAB, "a"), ("b", "b")], SETS2, 3, AB)
    report = check_healthy(t, SETS2, 3)
    assert report.ok, [c.condition for c in report.conditions if not c.ok]
    raw = expand_cover(t, AB)
    assert check_healthy(raw, SETS2, 3).ok


def test_mutant_missing_event_fails_offer_implies_event():
    # Keep the duplication rule out of reach with a run bound of one, so
    # exactly the offer-implies-event condition trips.
    report = check_healthy([(), (FA,)], ModelParams(1, 1), 2)
    by = report_by_name(report)
    assert not by["offer-implies-event"].ok
    assert by["offer-implies-event"].witness == (FA,)
    assert by["nonempty-prefix-closed"].ok
    assert by["offer-remove-duplicate"].ok
    assert by["event-implies-offer"].ok


def test_mutant_missing_offer_fails_event_implies_offer():
    report = check_healthy([(), ("a",)], ModelParams(1, 1), 2)
    by = report_by_name(report)
    assert not by["event-implies-offer"].ok
    assert by["event-implies-offer"].witness == ("a",)
    assert by["nonempty-prefix-closed"].ok


def test_mutant_missing_prefix_fails_prefix_closure():
    report = check_healthy([(), ("a", "b")], ModelParams(0, 1), 2)
    by = report_by_name(report)
    assert not by["nonempty-prefix-closed"].ok
    assert by["nonempty-prefix-closed"].witness == ("a", "b")
    # <a, b, a>'s prefixes are asked only down to its core prefix <a, b>,
    # which fails as the shorter member
    traces = [(), ("a", "b"), ("a", "b", "a")]
    for given_as in (TraceSet(traces, ModelParams(0, 1), 3), traces):
        by = report_by_name(check_healthy(given_as, ModelParams(0, 1), 3))
        assert by["nonempty-prefix-closed"].witness == ("a", "b")


def test_mutant_empty_set_fails_nonempty():
    report = check_healthy([], SINGLE, 2)
    assert not report_by_name(report)["nonempty-prefix-closed"].ok


def test_mutant_missing_duplicate_fails_removal_duplication():
    full = closure_oracle([(FA, "a")], ModelParams(2, 1), 3)
    mutated = [tr for tr in full if tr != (FA, FA)]
    report = check_healthy(mutated, ModelParams(2, 1), 3)
    by = report_by_name(report)
    assert not by["offer-remove-duplicate"].ok
    assert by["offer-remove-duplicate"].witness == (FA,)


def test_mutant_missing_subset_fails_subset_closure():
    report = check_healthy(
        [(), (frozenset(),), (FAB,), ("a",), ("b",)], ModelParams(1, 2), 1
    )
    by = report_by_name(report)
    assert not by["offer-subset-closed"].ok
    assert by["offer-subset-closed"].witness == (FAB,)
    assert by["empty-offer-free"].ok
    assert by["offer-implies-event"].ok


def test_mutant_missing_empty_offer_fails_empty_insertion():
    report = check_healthy([(), ("a",)], ModelParams(1, 2), 1)
    by = report_by_name(report)
    assert not by["empty-offer-free"].ok
    assert by["empty-offer-free"].witness == ()
    assert by["offer-subset-closed"].ok


def test_trace_set_json_lines_shape():
    t = close_healthy([("a",)], SINGLE, 2, AB)
    lines = t.json_lines(AB)
    import json

    head = json.loads(lines[0])
    assert head["count"] == len(t.canon)
    assert head["params"] == {"n": "F", "k": 1}
    assert json.loads(lines[1]) == []


def test_output_lines_render_each_member_as_show_trace_and_trace_to_json(abcd):
    # each distinct action is ranked and rendered once for the whole set;
    # the order and text must be those of the per-trace functions
    alphabet = Alphabet(["d", "c", "b", "a"])      # not the sorted order
    ts = avail_traces(Call("QUAD", ()), abcd, SETS2, Bounds(trace_len=3))
    members = sorted(ts.canon, key=alphabet.trace_key)
    assert ts.members_sorted(alphabet) == members
    assert ts.text_lines(alphabet) == [show_trace(tr, alphabet) for tr in members]
    assert ts.json_lines(alphabet)[1:] == [trace_to_json(tr) for tr in members]


# --- check_healthy against the enumerating oracle --------------------------


def report_rows(report):
    return [(c.condition, c.ok, c.witness) for c in report.conditions]


def test_check_healthy_matches_oracle_on_engine_sets(corpus):
    for group, name, term, env in corpus:
        for params in PARAM_POINTS:
            for engine in (avail_traces, denote_traces):
                ts = engine(term, env, params, Bounds(trace_len=3))
                assert report_rows(check_healthy(ts, params, 3)) == report_rows(
                    check_healthy_oracle(ts, params, 3)), (group, name, params.show())


ABC_ACTIONS = ["a", "b", "c", frozenset(), FA, FB, FC, FAB, FBC, FABC]


@st.composite
def health_subjects(draw):
    """0-6 traces over {a,b,c}, normalised or raw, at a drawn (n, k, len):
    in half the draws some traces may be two actions longer than the
    bound."""
    len_bound = draw(st.integers(0, 4))
    params = ModelParams(run_bound=draw(bound_or_free), set_bound=draw(bound_or_free))
    longest = len_bound + draw(st.sampled_from([0, 2]))
    traces = draw(st.lists(
        st.lists(st.sampled_from(ABC_ACTIONS), max_size=longest).map(tuple), max_size=6))
    if draw(st.booleans()):
        traces = [normalize_trace(tr) for tr in traces]
    return traces, params, len_bound


@settings(max_examples=400, deadline=None)
@given(health_subjects())
# <a> is a core member but longer than the bound, so the literal probe
# must not pass <a, a>'s prefix condition
@example(([(), ("a",), ("a", "a")], ModelParams(run_bound=1, set_bound=1), 0))
def test_check_healthy_matches_oracle_on_generated_sets(subject):
    traces, params, len_bound = subject
    for given_as in (TraceSet(traces, params, len_bound), traces):
        assert report_rows(check_healthy(given_as, params, len_bound)) == report_rows(
            check_healthy_oracle(given_as, params, len_bound))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(ABC_ACTIONS), max_size=5).map(tuple), st.booleans(),
       bound_or_free, st.integers(0, 2))
def test_absorbed_requirements_are_covered_by_their_member(tr, normalise, n, slack):
    # the covering lemma check_healthy relies on, for a member that fits
    if normalise:
        tr = normalize_trace(tr)
    len_bound = len(tr) + slack
    runs, events = decompose(tr)

    def within(r) -> bool:
        return len(r) <= len_bound and in_obs(r, n)

    for name, required, absorbed in _CONDITIONS:
        for r in required(tr, within) if absorbed else ():
            qruns, qevents = decompose(cond4_reduce(normalize_trace(r)))
            assert len(r) <= len_bound, name
            assert qevents == events, name
            assert covered(qruns, runs), name


@st.composite
def closed_mutants(draw):
    """The closure of 1-3 seeds over {a,b,c}, fitted to a drawn (n, k) and
    len 1-4, with one drawn member of its core removed: a set that lacks
    one trace its other members may require, such as a middle prefix."""
    len_bound = draw(st.integers(1, 4))
    params = ModelParams(run_bound=draw(bound_or_free), set_bound=draw(bound_or_free))
    seeds = draw(st.lists(
        st.lists(st.sampled_from(ABC_ACTIONS), max_size=len_bound).map(tuple),
        min_size=1, max_size=3))
    canon = close_healthy(finalize(seeds, params, len_bound), params, len_bound, ABC).canon
    removed = draw(st.sampled_from(sorted(canon, key=ABC.trace_key)))
    return [tr for tr in canon if tr != removed], params, len_bound


@settings(max_examples=300, deadline=None)
@given(closed_mutants())
def test_check_healthy_matches_oracle_on_one_trace_mutants(subject):
    traces, params, len_bound = subject
    for given_as in (TraceSet(traces, params, len_bound), traces):
        assert report_rows(check_healthy(given_as, params, len_bound)) == report_rows(
            check_healthy_oracle(given_as, params, len_bound))


def test_check_healthy_rejects_a_set_computed_at_other_bounds(ab):
    ts = avail_traces(parse_process("EXT", ab), ab, ModelParams(None, None), Bounds(trace_len=3))
    assert (FAB, "a") in ts.canon
    with pytest.raises(ValueError):
        check_healthy(ts, ModelParams(0, 1), 3)
    with pytest.raises(ValueError):
        check_healthy(ts, ModelParams(None, None), 2)
    assert check_healthy(ts, ModelParams(None, None), 3).ok


@pytest.fixture
def member_queries(monkeypatch):
    """Every closure-aware membership query asked from here on."""
    asked = []
    ask = TraceSet._member_normalized

    def counting(self, trace):
        asked.append(trace)
        return ask(self, trace)

    monkeypatch.setattr(TraceSet, "_member_normalized", counting)
    return asked


def test_check_healthy_on_quad_asks_no_absorbed_condition(abcd, member_queries):
    # enumerating every condition asks about 209,000 membership queries;
    # the covering lemma absorbs four conditions and the core answers the
    # other two by literal probes
    params = ModelParams(None, 2)
    ts = avail_traces(parse_process("QUAD", abcd), abcd, params, Bounds(trace_len=5))
    member_queries.clear()
    assert check_healthy(ts, params, 5).ok
    assert member_queries == []


def test_check_healthy_on_engine_cores_asks_no_membership_query(corpus, member_queries):
    subjects = [(engine(term, env, params, Bounds(trace_len=3)), params)
                for group, name, term, env in corpus for params in PARAM_POINTS
                for engine in (avail_traces, denote_traces)]
    member_queries.clear()
    for ts, params in subjects:
        assert check_healthy(ts, params, 3).ok
    assert member_queries == []
