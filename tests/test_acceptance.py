"""Acceptance gate.

Each test covers one published criterion end to end and prints a single
visible PASS or FAIL line, so a test run doubles as a checklist.
"""
from __future__ import annotations

import itertools

import pytest

from conftest import PARAM_POINTS, group_processes

from availcsp import Bounds, ModelParams
from availcsp.denotational import denote_traces
from availcsp.equivalence import DISTINGUISHED, EQUAL, equal_in
from availcsp.healthiness import check_healthy, close_healthy, covers_equal, finalize
from availcsp.kernel import in_obs
from availcsp.operational import avail_traces, std_traces
from availcsp.process import Call, SpecEnv
from availcsp.simulation import decode_trace, to_simulation
from availcsp.testing import may_pass, realize
from oracle import (
    NOT_SIMILAR, SIMILAR, avail_traces_full, closure_gaps, enumerate_universe, expand_cover,
    is_divergent, sim_preorder, stable_failures,
)

FA = frozenset({"a"})
FB = frozenset({"b"})
FAB = frozenset({"a", "b"})
FXY = frozenset({"x", "y"})

L5 = Bounds(trace_len=5)
L4 = Bounds(trace_len=4)
L3 = Bounds(trace_len=3)

MODEL_A = ModelParams(None, 1)
FULL = ModelParams(None, None)


def report(capsys, number, name, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {name}: PASS")


@pytest.fixture(scope="module")
def engine_sets(corpus):
    """Both engines' trace sets for every corpus process at every
    parameter point, trace length five."""
    out = {}
    for group, name, term, env in corpus:
        for params in PARAM_POINTS:
            out[(group, name, params)] = (
                avail_traces(term, env, params, L5),
                denote_traces(term, env, params, L5),
            )
    return out


def test_01_engine_congruence(capsys, corpus, engine_sets):
    def body():
        assert len(corpus) >= 30
        mismatches = []
        for group, name, term, env in corpus:
            for params in PARAM_POINTS:
                op, den = engine_sets[(group, name, params)]
                if not covers_equal(op, den):
                    mismatches.append((group, name, params.show()))
        assert mismatches == []

    report(capsys, 1, "engine congruence across the corpus", body)


def test_02_offer_then_switch_separates_the_choices(capsys, ab):
    def body():
        for engine in (avail_traces, denote_traces):
            ext = engine(Call("EXT", ()), ab, MODEL_A, L5)
            intc = engine(Call("INT", ()), ab, MODEL_A, L5)
            assert ext.member((FA, "b"), ab.alphabet)
            assert not intc.member((FA, "b"), ab.alphabet)

    report(capsys, 2, "offer-then-switch separates the choices", body)


def test_03_availability_and_stable_failures_pull_apart(capsys, ab):
    def body():
        doa, maybe = Call("DOA", ()), Call("MAYBE", ())
        for engine in (avail_traces, denote_traces):
            assert equal_in(doa, maybe, ab, MODEL_A, L5, engine).verdict == EQUAL
        doa_fails = stable_failures(doa, ab, 5)
        maybe_fails = stable_failures(maybe, ab, 5)

        def refuses(fails, tr, blocked):
            return any(blocked <= r for r in fails.get(tr, ()))

        assert refuses(maybe_fails, (), {"a"})
        assert not refuses(doa_fails, (), {"a"})

        sway, intc = Call("SWAYPAIR", ()), Call("INT", ())
        assert stable_failures(sway, ab, 5) == stable_failures(intc, ab, 5)
        for engine in (avail_traces, denote_traces):
            res = equal_in(sway, intc, ab, MODEL_A, L5, engine)
            assert res.verdict == DISTINGUISHED
            assert res.witness == (FA, "b")

    report(capsys, 3, "availability and stable failures pull apart", body)


def test_04_run_bound_two_separates_the_ladder(capsys, ab):
    def body():
        p2, p3 = Call("STAIR2", ()), Call("STAIR3", ())
        res = equal_in(p2, p3, ab, ModelParams(2, 1), L4)
        assert res.verdict == DISTINGUISHED
        assert res.witness == (FA, FB, "a")
        assert equal_in(p2, p3, ab, ModelParams(1, 1), L4).verdict == EQUAL

    report(capsys, 4, "run bound two separates the sliding ladder", body)


def test_05_set_bound_two_separates_joint_offers(capsys, ab):
    def body():
        ext = Call("EXT", ())
        for other in ("CYCLE", "QPRIME"):
            res = equal_in(ext, Call(other, ()), ab, ModelParams(None, 2), L4)
            assert res.verdict == DISTINGUISHED, other
            assert res.witness == (FAB,), other
            res = equal_in(ext, Call(other, ()), ab, ModelParams(None, 1), L4)
            assert res.verdict == EQUAL, other

    report(capsys, 5, "set bound two separates joint offers", body)


def test_06_three_event_joint_offer(capsys, xyz):
    def body():
        full, part = Call("FULLSET", ()), Call("PARTSET", ())
        res = equal_in(full, part, xyz, ModelParams(1, 2), L3)
        assert res.verdict == DISTINGUISHED
        assert res.witness == (FXY, "z")
        assert equal_in(full, part, xyz, ModelParams(1, 1), L3).verdict == EQUAL

    report(capsys, 6, "three-event joint offer needs set bound two", body)


def test_07_closure_conditions_and_mutants(capsys, corpus, engine_sets):
    def body():
        for group, name, term, env in corpus:
            for params in PARAM_POINTS:
                for ts in engine_sets[(group, name, params)]:
                    rep = check_healthy(ts, params, 5)
                    assert rep.ok, (group, name, params.show())

        p11 = ModelParams(1, 1)

        def failing(traces, params, condition):
            rep = check_healthy(traces, params, 5 if params.set_bound == 1 else 1)
            by_name = {c.condition: c for c in rep.conditions}
            assert not by_name[condition].ok, condition
            return by_name[condition].witness

        base = {(), ("a",), (FA,), (FA, "a")}
        w = failing(base - {(FA,)}, p11, "nonempty-prefix-closed")
        assert any(w[:i] not in base - {(FA,)} for i in range(len(w)))
        w = failing(base - {("a",)}, p11, "offer-implies-event")
        assert w == (FA,)
        w = failing(base - {(FA, "a")}, p11, "event-implies-offer")
        assert w == ("a",)

        pair = {(), ("a",), ("b",), (FA,), (FB,), (FA, "b")}
        w = failing(pair - {("b",)}, p11, "offer-remove-duplicate")
        assert w == (FA, "b")

        EMPTY = frozenset()
        wide = {(), (EMPTY,), ("a",), ("b",), (FA,), (FB,), (FAB,)}
        p12 = ModelParams(1, 2)
        w = failing(wide - {(FA,)}, p12, "offer-subset-closed")
        assert w == (FAB,)
        w = failing(wide - {(EMPTY,)}, p12, "empty-offer-free")
        assert w == ()

    report(capsys, 7, "closure conditions hold and mutants are caught", body)


@pytest.fixture(scope="module")
def probe_universes(envs):
    """Every length-four availability trace over each group's alphabet at
    set bound one, sorted for stable verdict vectors."""
    return {
        gname: sorted(
            enumerate_universe(env.alphabet, MODEL_A, 4),
            key=env.alphabet.trace_key,
        )
        for gname, env in envs.items()
    }


def test_08_testing_matches_membership(capsys, corpus, probe_universes):
    def body():
        p11 = ModelParams(1, 1)
        vectors, n1_vectors, sets4, n1_sets = {}, {}, {}, {}
        for group, name, term, env in corpus:
            uni = probe_universes[group]
            ts = avail_traces(term, env, MODEL_A, L4)
            vec = tuple(may_pass(term, tr, env).may for tr in uni)
            for tr, may in zip(uni, vec):
                assert may == ts.member(tr, env.alphabet), (name, tr)
            sets4[(group, name)] = ts
            vectors[(group, name)] = vec
            # test verdicts do not depend on the model, so the run-bounded
            # family is the same vector restricted to short offer runs
            n1_sets[(group, name)] = avail_traces(term, env, p11, L4)
            n1_vectors[(group, name)] = tuple(
                may for tr, may in zip(uni, vec) if in_obs(tr, 1)
            )

        for (g1, n1), (g2, n2) in itertools.combinations(sorted(sets4), 2):
            if g1 != g2:
                continue
            assert covers_equal(sets4[(g1, n1)], sets4[(g2, n2)]) == (
                vectors[(g1, n1)] == vectors[(g2, n2)]
            ), (n1, n2)
            assert covers_equal(n1_sets[(g1, n1)], n1_sets[(g2, n2)]) == (
                n1_vectors[(g1, n1)] == n1_vectors[(g2, n2)]
            ), (n1, n2, "run bound one")

    report(capsys, 8, "may testing matches membership and verdict vectors", body)


def test_09_realized_sets_denote_themselves(capsys, ab):
    def body():
        cases = []
        for name, params, length in (
            ("DOA", MODEL_A, 3),
            ("MAYBE", MODEL_A, 3),
            ("EXT", MODEL_A, 3),
            ("INT", MODEL_A, 3),
            ("SWAYA", MODEL_A, 3),
            ("SEQ", MODEL_A, 3),
            ("STAIR2", ModelParams(2, 1), 3),
            ("PICKY", ModelParams(1, 1), 3),
            ("EXT", ModelParams(None, 2), 3),
            ("TWINOFFER", ModelParams(None, 2), 2),
        ):
            ts = avail_traces(Call(name, ()), ab, params, Bounds(trace_len=length))
            cases.append((f"{name}@{params.show()}", ts, params, length))
        for seed, params, length in (
            ([(FA, "b")], MODEL_A, 3),
            ([("a", "b")], MODEL_A, 3),
            ([(FA,), ("b",)], MODEL_A, 2),
            ([()], MODEL_A, 2),
        ):
            ts = close_healthy(seed, params, length, ab.alphabet)
            cases.append((f"closure of {seed}", ts, params, length))
        assert len(cases) >= 10

        bare = SpecEnv(ab.alphabet, {})
        for label, ts, params, length in cases:
            term = realize(ts.canon)
            back = denote_traces(term, bare, params, Bounds(trace_len=length))
            assert covers_equal(back, ts), label

    report(capsys, 9, "realized trace sets denote themselves", body)


def test_10_simulation_transform_round_trip(capsys, corpus):
    def body():
        for group, name, term, env in corpus:
            for k in (1, 2):
                params = ModelParams(None, k)
                ts = avail_traces(term, env, params, L4)
                sim = to_simulation(term, env, params)
                decoded = {
                    decode_trace(t)
                    for t in std_traces(sim.root_term(), sim.env, 4)
                }
                assert all(
                    ts.member(tr, env.alphabet) for tr in decoded
                ), (name, k)
                assert all(tr in decoded for tr in ts.canon), (name, k)

    report(capsys, 10, "offer-event simulation decodes exactly", body)


def test_11_mutual_similarity_implies_equality(capsys, corpus, engine_sets, abcd):
    def body():
        rows = {}
        for group, name, term, env in corpus:
            rows.setdefault(group, []).append((name, term, env))
        witnessed = 0
        for group, members in rows.items():
            for (n1, t1, env), (n2, t2, _) in itertools.combinations(members, 2):
                if (
                    sim_preorder(t1, t2, env) == SIMILAR
                    and sim_preorder(t2, t1, env) == SIMILAR
                ):
                    op1, _ = engine_sets[(group, n1, FULL)]
                    op2, _ = engine_sets[(group, n2, FULL)]
                    assert covers_equal(op1, op2), (n1, n2)
                    witnessed += 1
        assert witnessed >= 1

        fork, funnel = Call("FORK", ()), Call("FUNNEL", ())
        assert equal_in(fork, funnel, abcd, FULL, L5).verdict == EQUAL
        assert sim_preorder(fork, funnel, abcd) == SIMILAR
        assert sim_preorder(funnel, fork, abcd) == NOT_SIMILAR

    report(capsys, 11, "mutual similarity implies trace equality", body)


def test_12_singleton_equality_extends_upward(capsys, corpus, engine_sets):
    def body():
        rows = {}
        for group, name, term, env in corpus:
            if not is_divergent(term, env):
                rows.setdefault(group, []).append(name)
        antecedents = 0
        for group, names in rows.items():
            for n1, n2 in itertools.combinations(names, 2):
                a1, _ = engine_sets[(group, n1, MODEL_A)]
                a2, _ = engine_sets[(group, n2, MODEL_A)]
                if covers_equal(a1, a2):
                    antecedents += 1
                    f1, _ = engine_sets[(group, n1, FULL)]
                    f2, _ = engine_sets[(group, n2, FULL)]
                    assert covers_equal(f1, f2), (group, n1, n2)
        assert antecedents >= 1

    report(capsys, 12, "singleton equality extends to larger offers", body)


def test_13_canonical_representation_matches_materialization(capsys, envs):
    def body():
        for gname, length in (("group_ab", 4), ("group_xyz", 4), ("group_abc", 3)):
            env = envs[gname]
            bounds = Bounds(trace_len=length)
            for name, term in group_processes(env):
                for params in PARAM_POINTS:
                    ts = avail_traces(term, env, params, bounds)
                    full = avail_traces_full(term, env, params, bounds)
                    assert expand_cover(ts, env.alphabet) == full, (
                        gname, name, params.show(),
                    )

    report(capsys, 13, "canonical representation matches materialization", body)


def test_14_projection_lemma(capsys, corpus, engine_sets):
    # every (n, k) core is the (F, F) core finalized into the (n, k) universe
    def body():
        for group, name, term, env in corpus:
            for params in PARAM_POINTS:
                if params == FULL:
                    continue
                for engine in (0, 1):
                    full = engine_sets[(group, name, FULL)][engine]
                    got = finalize(full.canon, params, full.len_bound)
                    assert got == engine_sets[(group, name, params)][engine].canon, (
                        group, name, params.show(), engine)

    report(capsys, 14, "each (n, k) core is a projection of the (F, F) core", body)


def test_15_cores_are_closed_under_prefixes_and_offer_deletion(capsys, corpus, engine_sets):
    # finalize takes closed sets only, and den hands it clause outputs of these
    def body():
        for group, name, term, env in corpus:
            for params in PARAM_POINTS:
                for engine in engine_sets[(group, name, params)]:
                    assert closure_gaps(engine.canon) == set(), (
                        group, name, params.show(), engine.engine)

    report(capsys, 15, "every core is closed under prefixes and offer deletion", body)
