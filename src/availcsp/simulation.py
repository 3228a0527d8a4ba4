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

    visible: dict = {}
    internal: dict = {}
    for i, lab, j in transitions:
        if lab is TAU:
            internal.setdefault(i, [])
            if j not in internal[i]:
                internal[i].append(j)
        else:
            visible.setdefault(i, [])
            if (lab, j) not in visible[i]:
                visible[i].append((lab, j))

    offer_names = set()
    definitions = {}
    for i, state in enumerate(states):
        branches = []
        for offer in _subsets({lab for lab, _ in visible.get(i, ())}, 0, params.set_bound):
            name = offer_event_name(offer)
            offer_names.add(name)
            branches.append(Prefix(name, Call(_state_name(i), ())))
        for lab, j in sorted(visible.get(i, ()), key=lambda e: (e[0], e[1])):
            branches.append(Prefix(lab, Call(_state_name(j), ())))
        body = branches[0] if len(branches) == 1 else ExtChoice(tuple(branches))
        targets = [Call(_state_name(j), ()) for j in internal.get(i, [])]
        if targets:
            cont = targets[0] if len(targets) == 1 else IntChoice(tuple(targets))
            body = Timeout((body, cont))
        definitions[_state_name(i)] = Definition((), body)

    events = list(env.alphabet.events) + sorted(offer_names)
    sim_alphabet = Alphabet(events)
    sim_env = SpecEnv(sim_alphabet, definitions)
    return Simulation(sim_env, _state_name(0), len(states))


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
