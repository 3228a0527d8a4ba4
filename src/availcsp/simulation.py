"""Simulating availability observation with ordinary events.

The transform explores a process's transition system and rebuilds it as a
plain process whose states additionally carry a self-loop event for every
observable offer (every subset of the enabled events within the set
bound, the empty one included).  Offer events are flat dotted names:
``Offer.a.b`` for the offer {a,b} and ``Offer.0`` for the empty offer
(event names cannot start with a digit, so this cannot collide).  No
alphabet event may be ``Offer`` or hold a dot, or names would clash.  The
ordinary event traces of the result decode back to the availability
traces of the original.

Those traces hold every subset offer as an event, so checking the round
trip reads them from ``widest_offers`` of a simulation, which drops each
offer branch ``Offer.X -> T`` of an external choice that also has a
branch ``Offer.Y -> T`` with X a strict subset of Y.  That keeps the
closure of the decoded set, for any simulation, right or wrong (the twin
lemma): a standard trace through a dropped branch has a twin through a
widest such sibling, with the same source state, the same target and
the same rest of the trace, so the same events; the twin's decoding
covers the dropped trace's run by run, pointwise by subset (the offers
it shows only grow), and the twin is a trace of the pruned simulation
once every dropped branch it takes is swapped so.  Covering is one of
the closure rules and it composes, so both decoded sets have the same
closure, and ``covers_equal`` gives the same verdict on either.
"""
from __future__ import annotations

from .errors import SpecError
from .healthiness import _subsets
from .kernel import TAU, Alphabet, ModelParams, Record, normalize_trace
from .operational import build_lts
from .process import (
    Call, Definition, ExtChoice, IntChoice, Prefix, SpecEnv, Timeout, pretty,
)

OFFER_PREFIX = "Offer."
EMPTY_OFFER_EVENT = "Offer.0"


def offer_event_name(offer: frozenset) -> str:
    if not offer:
        return EMPTY_OFFER_EVENT
    return OFFER_PREFIX + ".".join(sorted(offer))


def decode_offer_event(name: str):
    """The offer a simulation event stands for, or None for an ordinary
    event."""
    if not name.startswith(OFFER_PREFIX):
        return None
    rest = name[len(OFFER_PREFIX):]
    if rest == "0":
        return frozenset()
    return frozenset(rest.split("."))


def decode_trace(event_trace) -> tuple:
    """Availability trace encoded by a simulation event trace."""
    out = []
    for e in event_trace:
        offer = decode_offer_event(e)
        out.append(e if offer is None else offer)
    return normalize_trace(tuple(out))


def decode_traces(event_traces) -> set:
    """``{decode_trace(t) for t in event_traces}``, one step per trace.

    Each distinct event name is decoded once, and a trace whose parent
    (the trace without its last event) is in the set is decoded from the
    parent's image, shortest first: normalising only appends, so the image
    of t.e is t's image with e's action appended, unless that action is
    the empty offer or an offer equal to the image's last action, which
    append nothing.  A trace whose parent is absent is decoded on its own.
    """
    actions = {}            # event name -> the action it stands for
    image = {}
    for tr in sorted(event_traces, key=len):
        parent = image.get(tr[:-1]) if tr else None
        if parent is None:
            image[tr] = decode_trace(tr)
            continue
        e = tr[-1]
        a = actions.get(e)
        if a is None:
            offer = decode_offer_event(e)
            a = actions[e] = e if offer is None else offer
        if isinstance(a, frozenset) and (not a or (parent and parent[-1] == a)):
            image[tr] = parent
        else:
            image[tr] = parent + (a,)
    return set(image.values())


class Simulation(Record):
    __slots__ = ("env", "root", "state_count")

    def __init__(self, env: SpecEnv, root: str, state_count: int):
        self.env = env
        self.root = root
        self.state_count = state_count

    def root_term(self) -> Call:
        return Call(self.root, ())


def _state_name(i: int) -> str:
    return f"S{i}"


def to_simulation(term, env: SpecEnv, params: ModelParams) -> Simulation:
    """Rebuild a process over ordinary events whose traces spell out the
    availability observations of the original at the given set bound."""
    for e in env.alphabet.events:
        if e == "Offer" or "." in e:
            raise SpecError(
                f"alphabet event {e!r} clashes with simulation offer events"
            )
    states, transitions = build_lts(term, env)

    visible: dict = {}          # state -> {(event, target)}
    internal: dict = {}         # state -> {target: None}, in first-seen order
    for i, lab, j in transitions:
        if lab is TAU:
            internal.setdefault(i, {})[j] = None
        else:
            visible.setdefault(i, set()).add((lab, j))

    offer_names = set()
    definitions = {}
    for i, state in enumerate(states):
        branches = []
        for offer in _subsets({lab for lab, _ in visible.get(i, ())}, 0, params.set_bound):
            name = offer_event_name(offer)
            offer_names.add(name)
            branches.append(Prefix(name, Call(_state_name(i), ())))
        for lab, j in sorted(visible.get(i, ())):
            branches.append(Prefix(lab, Call(_state_name(j), ())))
        body = branches[0] if len(branches) == 1 else ExtChoice(tuple(branches))
        targets = [Call(_state_name(j), ()) for j in internal.get(i, ())]
        if targets:
            cont = targets[0] if len(targets) == 1 else IntChoice(tuple(targets))
            body = Timeout((body, cont))
        definitions[_state_name(i)] = Definition((), body)

    events = list(env.alphabet.events) + sorted(offer_names)
    sim_alphabet = Alphabet(events)
    sim_env = SpecEnv(sim_alphabet, definitions)
    return Simulation(sim_env, _state_name(0), len(states))


def _widest(branches: tuple) -> tuple:
    """The branches of one external choice, without each offer branch that
    a sibling offer branch with the same target and a strictly wider offer
    dominates.  Offers are visited widest first, so every dominated one has
    a strict superset among those already kept."""
    widest: dict = {}           # target -> the kept offers into it
    dropped = set()
    offers = [(decode_offer_event(b.event), i) for i, b in enumerate(branches)
              if isinstance(b, Prefix) and b.event.startswith(OFFER_PREFIX)]
    for offer, i in sorted(offers, key=lambda o: -len(o[0])):
        into = widest.setdefault(branches[i].body, [])
        if any(offer < w for w in into):
            dropped.add(i)
        else:
            into.append(offer)
    return tuple(b for i, b in enumerate(branches) if i not in dropped)


def _without_dominated(body):
    if isinstance(body, Timeout):
        return Timeout((_without_dominated(body.branches[0]),) + body.branches[1:])
    if isinstance(body, ExtChoice):
        return ExtChoice(_widest(body.branches))
    return body


def widest_offers(sim: Simulation) -> Simulation:
    """``sim`` with each dominated offer branch dropped from its external
    choices; event branches, internal choices and every other branch stay.
    Its decoded standard traces have the closure of ``sim``'s (see the
    module docstring)."""
    definitions = {name: Definition(d.params, _without_dominated(d.body))
                   for name, d in sim.env.definitions.items()}
    return Simulation(SpecEnv(sim.env.alphabet, definitions), sim.root, sim.state_count)


def emit_script(sim: Simulation) -> str:
    """Stable textual form of a simulation: a channel declaration for the
    offer events, the alphabet, and one definition per explored state."""
    lines = ["channel Offer : Set(Events)"]
    lines.append(
        "alphabet {" + ", ".join(sim.env.alphabet.events) + "}"
    )
    for i in range(len(sim.env.definitions)):
        name = _state_name(i)
        body = sim.env.definitions[name].body
        lines.append(f"{name} = {pretty(body)}")
    return "\n".join(lines) + "\n"
