"""Model-indexed comparison verdicts, witnesses, and the simulation order.

Witness assertions pin both the verdict and the exact minimal trace, since
diagnostic reproducibility is part of the contract.
"""
from __future__ import annotations

import itertools

import pytest
from conftest import PARAM_POINTS, group_processes

from availcsp import Bounds, ModelParams, parse_process, parse_spec
from availcsp.denotational import denote_traces
from availcsp.equivalence import _minimal_witness, distinguish, equal_in, refine_in
from availcsp.healthiness import TraceSet, _uncovered
from availcsp.operational import avail_traces
from availcsp.process import Call, ExtChoice, Prefix, Stop
from oracle import (
    INDETERMINATE, NOT_SIMILAR, SIMILAR, minimal_witness_oracle, mutually_similar,
    sim_preorder,
)

FA = frozenset("a")
FB = frozenset("b")
FAB = frozenset("ab")
FXY = frozenset(["x", "y"])

K1 = ModelParams(None, 1)
K2 = ModelParams(None, 2)
L4 = Bounds(trace_len=4)


def P(name):
    return Call(name, ())


def test_internal_stop_choice_is_trace_equal(ab):
    got = equal_in(P("DOA"), P("MAYBE"), ab, K1, L4)
    assert got.verdict == "equal"
    assert got.witness is None


def test_choice_styles_distinguished_by_the_offer_witness(ab):
    got = equal_in(P("EXT"), P("INT"), ab, K1, L4)
    assert got.verdict == "distinguished"
    assert got.witness == (FA, "b")
    assert got.witness_side == "left"


def test_witness_side_follows_the_argument_order(ab):
    got = equal_in(P("INT"), P("EXT"), ab, K1, L4)
    assert got.witness == (FA, "b")
    assert got.witness_side == "right"


def test_refinement_directions(ab):
    assert refine_in(P("INT"), P("DOA"), ab, K1, L4).verdict == "refined"
    got = refine_in(P("DOA"), P("INT"), ab, K1, L4)
    assert got.verdict == "distinguished"
    assert got.witness == ("b",)
    assert got.witness_side == "right"
    assert refine_in(P("EXT"), P("EXT"), ab, K1, L4).verdict == "refined"


@pytest.mark.parametrize("name", ["DEADLOCK", "EXT", "INT", "SWAYPAIR", "CYCLE", "QPRIME"])
def test_reflexivity(ab, name):
    for params in (K1, K2, ModelParams(2, 2)):
        assert equal_in(P(name), P(name), ab, params, L4).verdict == "equal"


def test_run_depth_ladder_separates_at_n2_not_n1(ab):
    deep = equal_in(P("STAIR2"), P("STAIR3"), ab, ModelParams(2, 1), L4)
    assert deep.verdict == "distinguished"
    assert deep.witness == (FA, FB, "a")
    assert deep.witness_side == "right"
    shallow = equal_in(P("STAIR2"), P("STAIR3"), ab, ModelParams(1, 1), L4)
    assert shallow.verdict == "equal"


def test_joint_offer_separates_at_k2_not_k1(ab):
    fine = equal_in(P("EXT"), P("CYCLE"), ab, K2, L4)
    assert fine.verdict == "distinguished"
    assert fine.witness == (FAB,)
    assert fine.witness_side == "left"
    coarse = equal_in(P("EXT"), P("CYCLE"), ab, K1, L4)
    assert coarse.verdict == "equal"


def test_full_offer_versus_all_proper_subsets(xyz):
    got = equal_in(P("FULLSET"), P("PARTSET"), xyz, ModelParams(1, 2), Bounds(trace_len=3))
    assert got.verdict == "distinguished"
    assert got.witness == (FXY, "z")
    assert got.witness_side == "left"
    same = equal_in(P("FULLSET"), P("PARTSET"), xyz, ModelParams(1, 1), Bounds(trace_len=3))
    assert same.verdict == "equal"


def test_one_at_a_time_loop_matches_joint_offer_only_at_k1(ab):
    assert equal_in(P("TWINOFFER"), P("TWINLOOP"), ab, K1, L4).verdict == "equal"
    got = equal_in(P("TWINOFFER"), P("TWINLOOP"), ab, K2, L4)
    assert got.verdict == "distinguished"
    assert got.witness == (FAB,)


def test_distinguish_grid_rows(xyz):
    grid = [ModelParams(1, 1), ModelParams(1, 2)]
    rows = distinguish(P("FULLSET"), P("PARTSET"), xyz, grid, Bounds(trace_len=3))
    assert [r.verdict for r in rows] == ["equal", "distinguished"]
    obj = rows[1].json_obj(xyz.alphabet.events and None)
    assert obj["verdict"] == "distinguished"
    assert obj["n"] == 1 and obj["k"] == 2
    assert obj["witness"] == "<offer{x,y}, z>"
    assert obj["witness_side"] == "left"


def test_engines_agree_on_verdicts(ab):
    for pair in (("EXT", "INT"), ("DOA", "MAYBE")):
        op = equal_in(P(pair[0]), P(pair[1]), ab, K1, L4)
        den = equal_in(P(pair[0]), P(pair[1]), ab, K1, L4, engine=denote_traces)
        assert op.verdict == den.verdict
        assert op.witness == den.witness


def test_model_monotonicity_on_sample_pairs(ab):
    pairs = (("EXT", "INT"), ("DOA", "MAYBE"), ("TWINOFFER", "TWINLOOP"),
             ("STAIR2", "STAIR3"), ("SWAYPAIR", "INT"))
    fine_points = (ModelParams(2, 2), ModelParams(None, 2))
    coarse_points = (ModelParams(1, 1), ModelParams(None, 1))
    for a, b in pairs:
        for fine in fine_points:
            if equal_in(P(a), P(b), ab, fine, L4).verdict != "equal":
                continue
            for coarse in coarse_points:
                assert equal_in(P(a), P(b), ab, coarse, L4).verdict == "equal", (a, b)


def test_simulation_order_examples(ab):
    stop = Stop()
    doa = Prefix("a", stop)
    ext = ExtChoice((Prefix("a", stop), Prefix("b", stop)))
    assert sim_preorder(doa, ext, ab) == SIMILAR
    assert sim_preorder(ext, doa, ab) == NOT_SIMILAR
    assert sim_preorder(P("CYCLE"), P("CYCLE"), ab) == SIMILAR


def test_early_versus_late_branching_is_sim_asymmetric(abcd):
    assert sim_preorder(P("FORK"), P("FUNNEL"), abcd) == SIMILAR
    assert sim_preorder(P("FUNNEL"), P("FORK"), abcd) == NOT_SIMILAR
    assert mutually_similar(P("FORK"), P("FUNNEL"), abcd) == NOT_SIMILAR


def test_sim_asymmetric_pair_is_availability_equal(abcd):
    got = equal_in(P("FORK"), P("FUNNEL"), abcd, ModelParams(None, None), L4)
    assert got.verdict == "equal"


def test_state_cap_yields_indeterminate(ab):
    # each a forks another copy, past MAX_STATES states
    fork = parse_spec("alphabet {a}\nP = a -> (P ||| P)\n")
    assert sim_preorder(P("P"), P("P"), fork) == INDETERMINATE
    assert mutually_similar(P("P"), P("P"), fork) == INDETERMINATE


def _witness(env, tp, tq):
    return _minimal_witness(env.alphabet, tp, tq, list(_uncovered(tp, tq)),
                            list(_uncovered(tq, tp)))


def test_minimal_witness_matches_the_brute_force_oracle(envs):
    """Every disagreeing pair of corpus processes, at the six points and
    n=0: the shortest-first search finds the least separating universe
    trace, on the same side."""
    pairs = 0
    for group, length in (("group_ab", 3), ("group_abc", 2), ("group_xyz", 2)):
        env = envs[group]
        for params in PARAM_POINTS + (ModelParams(0, 1),):
            sets = [avail_traces(term, env, params, Bounds(trace_len=length))
                    for _, term in group_processes(env)]
            for tp, tq in itertools.combinations(sets, 2):
                want = minimal_witness_oracle(env.alphabet, tp, tq)
                if want == (None, None):
                    continue
                pairs += 1
                assert _witness(env, tp, tq) == want, (group, params.show())
    assert pairs > 1000


def test_witness_can_be_the_empty_trace(ab):
    params = ModelParams(None, 1)
    empty = TraceSet(frozenset(), params, 2)
    doa = avail_traces(P("DOA"), ab, params, Bounds(trace_len=2))
    assert _witness(ab, empty, doa) == ((), "right")
    assert minimal_witness_oracle(ab.alphabet, empty, doa) == ((), "right")


def test_witness_search_stops_at_the_first_separating_length(envs, monkeypatch):
    """An input prefix against an internal choice at k=2, len 4: the witness
    is a single offer, so the search stops at length 1.  The disagreeing
    members share their variants (over four events 1,680 members share 30,
    which took 16,620 queries when asked per member), so each side asks
    about each variant once."""
    params = ModelParams(None, 2)
    queries = 0
    member = TraceSet._member_normalized

    def counted(self, trace):
        nonlocal queries
        queries += 1
        return member(self, trace)

    for group, events in (("group_abc", "a, b, c"), ("group_abcd", "a, b, c, d")):
        env = envs[group]
        tp, tq = (avail_traces(parse_process(text, env), env, params, Bounds(trace_len=4))
                  for text in (f"? x : {{{events}}} -> STOP",
                               f"|~| x : {{{events}}} @ x -> STOP"))
        only_p, only_q = list(_uncovered(tp, tq)), list(_uncovered(tq, tp))
        queries = 0
        monkeypatch.setattr(TraceSet, "_member_normalized", counted)
        assert _minimal_witness(env.alphabet, tp, tq, only_p, only_q) == \
            ((frozenset("ab"),), "left")
        monkeypatch.undo()
        assert queries <= 100, group
