"""Process terms, environments, substitution, and pretty-printing.

Terms are immutable dataclasses compared structurally; the operational
engine uses them directly as states.  Two kinds of name occur inside terms:

* process names, called by ``Call``: a spec's definitions and the
  definitions the parser makes of ``mu`` terms, so recursion has one form,
* event variables, bound by ``InputPrefix`` binders or definition
  parameters, standing in any position where an event name may appear.

Event variables are instantiated by textual substitution before a term is
ever executed, so the semantic engines only see concrete event names.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .errors import SpecError
from .kernel import Alphabet


@dataclass(frozen=True)
class Stop:
    pass


@dataclass(frozen=True)
class Div:
    pass


@dataclass(frozen=True)
class Prefix:
    event: str
    body: "Process"


@dataclass(frozen=True)
class InputPrefix:
    """``? x : {a,b} -> body`` offers the whole event set from one state and
    binds the chosen event to ``x`` inside the body.  An empty event set is
    allowed and deadlocks."""

    binder: str
    events: frozenset
    body: "Process"


@dataclass(frozen=True)
class _Choice:
    """A chain of one choice operator, its operands left to right.  A
    parenthesised operand of the same operator stays its own node."""

    branches: tuple

    def __post_init__(self):
        if not self.branches:
            raise ValueError(f"{type(self).__name__} needs at least one branch")


@dataclass(frozen=True)
class ExtChoice(_Choice):
    pass


@dataclass(frozen=True)
class IntChoice(_Choice):
    """Internal choice: a ``|~|`` chain, or an indexed choice instantiated
    to one branch per event."""


@dataclass(frozen=True)
class Timeout(_Choice):
    """``P [> Q [> R``: each branch may be left for the chain after it."""


@dataclass(frozen=True)
class Parallel:
    left: "Process"
    left_events: frozenset
    right_events: frozenset
    right: "Process"


@dataclass(frozen=True)
class Interleave:
    left: "Process"
    right: "Process"


@dataclass(frozen=True)
class Hide:
    body: "Process"
    events: frozenset


@dataclass(frozen=True)
class Rename:
    """Relational renaming: the process performs b whenever the body performs
    a with (a, b) in the relation.  Events without an image are blocked; list
    identity pairs explicitly to pass events through."""

    body: "Process"
    pairs: frozenset  # of (from_event, to_event)


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple = ()


Process = (
    Stop | Div | Prefix | InputPrefix | ExtChoice | IntChoice | Timeout
    | Parallel | Interleave | Hide | Rename | Call
)


@dataclass(frozen=True)
class Definition:
    params: tuple
    body: "Process"


@dataclass
class SpecEnv:
    """A parsed spec: an alphabet plus named (possibly parameterised,
    possibly mutually recursive) definitions, and apart from them the
    definitions the parser made of ``mu`` terms, named by their text."""

    alphabet: Alphabet
    definitions: dict = field(default_factory=dict)
    recursions: dict = field(default_factory=dict)

    def lookup(self, name: str) -> Definition:
        d = self.definitions.get(name) or self.recursions.get(name)
        if d is None:
            raise SpecError(f"undefined process name: {name}")
        return d

    def instantiate(self, name: str, args=()) -> "Process":
        d = self.lookup(name)
        if len(args) != len(d.params):
            raise SpecError(
                f"{name} takes {len(d.params)} argument(s), got {len(args)}"
            )
        if not d.params:
            return d.body
        return subst_events(d.body, dict(zip(d.params, args)))


def _children(p) -> tuple:
    """The direct subterms of a term, left to right."""
    if isinstance(p, _Choice):
        return p.branches
    if isinstance(p, (Parallel, Interleave)):
        return (p.left, p.right)
    if isinstance(p, (Prefix, InputPrefix, Hide, Rename)):
        return (p.body,)
    return ()


def _map_children(p, f) -> "Process":
    """The term with ``f`` applied to each direct subterm, left to right."""
    if isinstance(p, _Choice):
        return type(p)(tuple(map(f, p.branches)))
    if isinstance(p, (Parallel, Interleave)):
        return replace(p, left=f(p.left), right=f(p.right))
    if isinstance(p, (Prefix, InputPrefix, Hide, Rename)):
        return replace(p, body=f(p.body))
    return p


def _subst_ev(name: str, mapping: dict) -> str:
    return mapping.get(name, name)


def subst_events(p, mapping: dict) -> "Process":
    """Replace event variables by concrete events everywhere events appear."""
    if not mapping:
        return p
    if isinstance(p, Prefix):
        return Prefix(_subst_ev(p.event, mapping), subst_events(p.body, mapping))
    if isinstance(p, InputPrefix):
        events = frozenset(_subst_ev(e, mapping) for e in p.events)
        inner = {k: v for k, v in mapping.items() if k != p.binder}
        return InputPrefix(p.binder, events, subst_events(p.body, inner))
    if isinstance(p, Parallel):
        return Parallel(
            subst_events(p.left, mapping),
            frozenset(_subst_ev(e, mapping) for e in p.left_events),
            frozenset(_subst_ev(e, mapping) for e in p.right_events),
            subst_events(p.right, mapping),
        )
    if isinstance(p, Hide):
        return Hide(subst_events(p.body, mapping), frozenset(_subst_ev(e, mapping) for e in p.events))
    if isinstance(p, Rename):
        pairs = frozenset((_subst_ev(a, mapping), _subst_ev(b, mapping)) for a, b in p.pairs)
        return Rename(subst_events(p.body, mapping), pairs)
    if isinstance(p, Call):
        return Call(p.name, tuple(_subst_ev(a, mapping) for a in p.args))
    return _map_children(p, lambda c: subst_events(c, mapping))


# --- pretty printing ------------------------------------------------------
#
# Levels: 0 atoms, 1 postfix (hide, rename), 2 prefixing, 3 choice,
# 4 parallel/interleave.  Mixed choice operators always get parentheses,
# matching the parser, which rejects unparenthesised mixed choice.

_CHOICE_OPS = {ExtChoice: "[]", IntChoice: "|~|", Timeout: "[>"}


def _ev_set(events) -> str:
    members = sorted(events)
    return "{" + ",".join(members) + "}"


def pretty(p, level: int = 4) -> str:
    text, my_level = _pretty(p)
    if my_level > level:
        return "(" + text + ")"
    return text


def _pretty(p):
    if isinstance(p, Stop):
        return "STOP", 0
    if isinstance(p, Div):
        return "DIV", 0
    if isinstance(p, Call):
        if p.name.startswith("mu "):
            # a recursion's text with its parameters as holes; its body
            # extends to the end of its context, so it is always bracketed
            return "(" + re.sub(r"\$(\d+)", lambda m: p.args[int(m[1])], p.name) + ")", 0
        if p.args:
            return f"{p.name}({', '.join(p.args)})", 0
        return p.name, 0
    if isinstance(p, Hide):
        return f"{pretty(p.body, 1)} \\ {_ev_set(p.events)}", 1
    if isinstance(p, Rename):
        pairs = ", ".join(f"{a} <- {b}" for a, b in sorted(p.pairs))
        return f"{pretty(p.body, 1)}[[{pairs}]]", 1
    if isinstance(p, Prefix):
        return f"{p.event} -> {pretty(p.body, 2)}", 2
    if isinstance(p, InputPrefix):
        return f"? {p.binder} : {_ev_set(p.events)} -> {pretty(p.body, 2)}", 2
    if isinstance(p, _Choice):
        # a one-event indexed choice prints as its one branch; a branch that
        # is itself a choice node was parenthesised in the source, so every
        # choice-level branch is printed in parentheses
        if len(p.branches) == 1:
            return _pretty(p.branches[0])
        parts = [pretty(b, 2) for b in p.branches]
        return f" {_CHOICE_OPS[type(p)]} ".join(parts), 3
    if isinstance(p, Interleave):
        return f"{pretty(p.left)} ||| {pretty(p.right, 3)}", 4
    if isinstance(p, Parallel):
        left = pretty(p.left)
        sync = f"[{_ev_set(p.left_events)} || {_ev_set(p.right_events)}]"
        return f"{left} {sync} {pretty(p.right, 3)}", 4
    raise TypeError(f"not a process: {p!r}")


def pretty_env(env: SpecEnv) -> str:
    lines = ["alphabet {" + ",".join(env.alphabet.events) + "}"]
    for name, d in env.definitions.items():
        head = name if not d.params else f"{name}({', '.join(d.params)})"
        lines.append(f"{head} = {pretty(d.body)}")
    return "\n".join(lines) + "\n"

