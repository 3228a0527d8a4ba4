"""Offer-event simulation: encoding, emission, and the decode round trip."""
from __future__ import annotations

import os

import pytest
from conftest import DATA_DIR, GROUP_NAMES, group_processes, load_group

from availcsp import Bounds, ModelParams, parse_spec
from availcsp.errors import SpecError
from availcsp.operational import avail_traces, std_traces
from availcsp.process import Call, IntChoice, Prefix, Stop, Timeout
from availcsp.simulation import (
    decode_offer_event, decode_trace, decode_traces, emit_script, offer_event_name,
    to_simulation,
)

FA = frozenset({"a"})
FB = frozenset({"b"})
FAB = frozenset({"a", "b"})


def test_offer_event_names():
    assert offer_event_name(frozenset()) == "Offer.0"
    assert offer_event_name(FA) == "Offer.a"
    assert offer_event_name(FAB) == "Offer.a.b"
    assert offer_event_name(frozenset({"b", "a"})) == "Offer.a.b"


def test_offer_event_decoding():
    assert decode_offer_event("Offer.0") == frozenset()
    assert decode_offer_event("Offer.a") == FA
    assert decode_offer_event("Offer.a.b") == FAB
    assert decode_offer_event("a") is None
    assert decode_offer_event("OfferX") is None


def test_decode_trace_normalizes():
    assert decode_trace(("Offer.a.b", "a")) == (FAB, "a")
    assert decode_trace(("Offer.0", "a", "Offer.0")) == ("a",)
    assert decode_trace(("Offer.a", "Offer.a")) == (FA,)
    assert decode_trace(()) == ()


FAMILY = os.path.join(os.path.dirname(os.path.dirname(DATA_DIR)), "bench", "data", "family.csp")
# At len 4 the simulations of FAN5 and FANLOOP5 at k=F have 1.26 and 1.93
# million event traces (offers are every subset of five events), which
# take most of a minute and hundreds of MB to decode one by one.
WIDE_AT_F = ("FAN5", "FANLOOP5")


@pytest.mark.parametrize("k", (1, 2, None))
@pytest.mark.parametrize("group", GROUP_NAMES + ("family",))
def test_decode_traces_decodes_each_trace_as_decode_trace_does(group, k):
    if group == "family":
        with open(FAMILY, encoding="utf-8") as fh:
            env = parse_spec(fh.read())
    else:
        env = load_group(group)
    for name, term in group_processes(env):
        sim = to_simulation(term, env, ModelParams(None, k))
        length = 3 if k is None and name in WIDE_AT_F else 4
        raw = std_traces(sim.root_term(), sim.env, length)
        assert decode_traces(raw) == {decode_trace(t) for t in raw}, name


def test_decode_traces_decodes_a_trace_without_its_parent_on_its_own():
    # no trace's parent is present but those of the second and the last,
    # which are decoded from their parents' images
    raw = {
        ("a", "Offer.a", "Offer.a"),        # not the image of its last event
        ("Offer.a.b", "a", "Offer.0"),
        ("Offer.a.b", "a"),
        ("b", "Offer.b", "Offer.b", "b"),
        ("b", "Offer.b", "Offer.b", "b", "b"),
    }
    assert decode_traces(raw) == {decode_trace(t) for t in raw} == {
        ("a", FA), (FAB, "a"), ("b", FB, "b"), ("b", FB, "b", "b"),
    }


def test_stop_simulation_is_the_empty_offer_loop(ab):
    sim = to_simulation(Stop(), ab, ModelParams(None, 1))
    assert sim.state_count == 1
    assert sim.env.definitions[sim.root].body == Prefix(
        "Offer.0", Call(sim.root, ())
    )
    raw = std_traces(sim.root_term(), sim.env, 3)
    assert raw == {(), ("Offer.0",), ("Offer.0",) * 2, ("Offer.0",) * 3}
    assert {decode_trace(t) for t in raw} == {()}


def test_stop_script_is_stable_text(ab):
    sim = to_simulation(Stop(), ab, ModelParams(None, 1))
    assert emit_script(sim) == (
        "channel Offer : Set(Events)\n"
        "alphabet {a, b, Offer.0}\n"
        "S0 = Offer.0 -> S0\n"
    )


def test_choice_state_offers_every_subset_within_bound(ab):
    first = {t[0] for t in std_traces(
        to_simulation(Call("EXT", ()), ab, ModelParams(None, 2)).root_term(),
        to_simulation(Call("EXT", ()), ab, ModelParams(None, 2)).env, 1,
    ) if t}
    assert first == {"Offer.0", "Offer.a", "Offer.b", "Offer.a.b", "a", "b"}


def test_set_bound_caps_the_offer_events(ab):
    sim = to_simulation(Call("EXT", ()), ab, ModelParams(None, 1))
    first = {t[0] for t in std_traces(sim.root_term(), sim.env, 1) if t}
    assert first == {"Offer.0", "Offer.a", "Offer.b", "a", "b"}
    assert "Offer.a.b" not in sim.env.alphabet


def test_internal_moves_become_timeouts(ab):
    sim = to_simulation(Call("INT", ()), ab, ModelParams(None, 1))
    bodies = [d.body for d in sim.env.definitions.values()]
    assert any(isinstance(b, Timeout) for b in bodies)
    # the |~| state has two internal successors, so its continuation is an
    # internal choice between the state calls
    assert any(
        isinstance(b, Timeout) and isinstance(b.branches[-1], IntChoice)
        for b in bodies
    )


def test_fresh_name_collision_is_rejected():
    env = parse_spec("D = Offer.x -> STOP")
    with pytest.raises(SpecError):
        to_simulation(Call("D", ()), env, ModelParams(None, 1))
    env = parse_spec("D = Offer -> STOP")
    with pytest.raises(SpecError):
        to_simulation(Call("D", ()), env, ModelParams(None, 1))


def test_states_are_named_in_discovery_order(ab):
    sim = to_simulation(Call("SEQ", ()), ab, ModelParams(None, 1))
    names = list(sim.env.definitions)
    assert names == [f"S{i}" for i in range(sim.state_count)]
    lines = emit_script(sim).splitlines()
    assert lines[0] == "channel Offer : Set(Events)"
    assert lines[1].startswith("alphabet {")
    assert [ln.split(" ", 1)[0] for ln in lines[2:]] == names


def test_emission_is_deterministic(ab):
    def build():
        sim = to_simulation(Call("CYCLE", ()), ab, ModelParams(None, 2))
        return emit_script(sim)

    assert build() == build()


def test_emitted_script_reparses_to_the_same_semantics(ab):
    for name, k in (("EXT", 2), ("INT", 1), ("CYCLE", 2)):
        sim = to_simulation(Call(name, ()), ab, ModelParams(None, k))
        reread = parse_spec(emit_script(sim))
        for length in (1, 2, 3):
            assert std_traces(Call(sim.root, ()), reread, length) == std_traces(
                sim.root_term(), sim.env, length
            )


ROUND_TRIP_NAMES = (
    "DEADLOCK", "CHURN", "DOA", "MAYBE", "EXT", "INT", "SWAYA", "CYCLE",
    "PUMP", "SEQ", "ECHO", "TWINOFFER", "UNGUARDED",
)


@pytest.mark.parametrize("k", (1, 2))
@pytest.mark.parametrize("name", ROUND_TRIP_NAMES)
def test_decoded_simulation_traces_match_availability(ab, name, k):
    """The defining property: ordinary traces of the transformed process,
    with offer events read back as offers, are exactly the availability
    traces of the original."""
    params = ModelParams(run_bound=None, set_bound=k)
    term = Call(name, ())
    length = 3
    ts = avail_traces(term, ab, params, Bounds(trace_len=length))
    sim = to_simulation(term, ab, params)
    decoded = {decode_trace(t) for t in std_traces(sim.root_term(), sim.env, length)}
    assert all(ts.member(tr, ab.alphabet) for tr in decoded)
    assert all(tr in decoded for tr in ts.canon)
