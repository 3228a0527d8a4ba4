"""Process terms, environments, substitution, and pretty-printing.

Terms are immutable records (``kernel.Value``) compared structurally; the
operational engine uses them directly as states.  Each constructor stores
its term's hash, computed from its children's stored hashes, so hashing a
term, however deep, costs one attribute read.  Two kinds of name occur
inside terms:

* process names, called by ``Call``: a spec's definitions and the
  definitions the parser makes of ``mu`` terms, so recursion has one form,
* event variables, bound by ``InputPrefix`` binders or definition
  parameters, standing in any position where an event name may appear.

Event variables are instantiated by textual substitution before a term is
ever executed, so the semantic engines only see concrete event names.
Substitution and printing walk a term with an explicit stack, as the
parser does, so a deep term costs no Python frame per level.
"""
from __future__ import annotations

import re

from .errors import SpecError
from .kernel import Alphabet, Record, Value


class Stop(Value):
    __slots__ = ()

    def __init__(self):
        self._hash = hash(())


class Div(Value):
    __slots__ = ()

    def __init__(self):
        self._hash = hash(())


class Prefix(Value):
    __slots__ = ("event", "body")

    def __init__(self, event: str, body: "Process"):
        self.event = event
        self.body = body
        self._hash = hash((event, body))


class InputPrefix(Value):
    """``? x : {a,b} -> body`` offers the whole event set from one state and
    binds the chosen event to ``x`` inside the body.  An empty event set is
    allowed and deadlocks."""

    __slots__ = ("binder", "events", "body")

    def __init__(self, binder: str, events: frozenset, body: "Process"):
        self.binder = binder
        self.events = events
        self.body = body
        self._hash = hash((binder, events, body))


class _Choice(Value):
    """A chain of one choice operator, its operands left to right.  A
    parenthesised operand of the same operator stays its own node."""

    __slots__ = ("branches",)

    def __init__(self, branches: tuple):
        if not branches:
            raise ValueError(f"{type(self).__name__} needs at least one branch")
        self.branches = branches
        self._hash = hash((branches,))


class ExtChoice(_Choice):
    __slots__ = ()


class IntChoice(_Choice):
    """Internal choice: a ``|~|`` chain, or an indexed choice instantiated
    to one branch per event."""

    __slots__ = ()


class Timeout(_Choice):
    """``P [> Q [> R``: each branch may be left for the chain after it."""

    __slots__ = ()


class Parallel(Value):
    __slots__ = ("left", "left_events", "right_events", "right")

    def __init__(self, left: "Process", left_events: frozenset,
                 right_events: frozenset, right: "Process"):
        self.left = left
        self.left_events = left_events
        self.right_events = right_events
        self.right = right
        self._hash = hash((left, left_events, right_events, right))


class Interleave(Value):
    __slots__ = ("left", "right")

    def __init__(self, left: "Process", right: "Process"):
        self.left = left
        self.right = right
        self._hash = hash((left, right))


class Hide(Value):
    __slots__ = ("body", "events")

    def __init__(self, body: "Process", events: frozenset):
        self.body = body
        self.events = events
        self._hash = hash((body, events))


class Rename(Value):
    """Relational renaming: the process performs b whenever the body performs
    a with (a, b) in the relation.  Events without an image are blocked; list
    identity pairs explicitly to pass events through."""

    __slots__ = ("body", "pairs")   # pairs: a frozenset of (from_event, to_event)

    def __init__(self, body: "Process", pairs: frozenset):
        self.body = body
        self.pairs = pairs
        self._hash = hash((body, pairs))


class Call(Value):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple = ()):
        self.name = name
        self.args = args
        self._hash = hash((name, args))


Process = (
    Stop | Div | Prefix | InputPrefix | ExtChoice | IntChoice | Timeout
    | Parallel | Interleave | Hide | Rename | Call
)


class Definition(Value):
    __slots__ = ("params", "body")

    def __init__(self, params: tuple, body: "Process"):
        self.params = params
        self.body = body
        self._hash = hash((params, body))


class SpecEnv(Record):
    """A parsed spec: an alphabet plus named (possibly parameterised,
    possibly mutually recursive) definitions, and apart from them the
    definitions the parser made of ``mu`` terms, named by their text."""

    __slots__ = ("alphabet", "definitions", "recursions")

    def __init__(self, alphabet: Alphabet, definitions: dict | None = None,
                 recursions: dict | None = None):
        self.alphabet = alphabet
        self.definitions = {} if definitions is None else definitions
        self.recursions = {} if recursions is None else recursions

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


def subst_events(p, mapping: dict) -> "Process":
    """Replace event variables by concrete events everywhere events appear.
    A term is rebuilt once its children are, from the last of ``done``; an
    entry on the stack that lists the children is a term to rebuild."""
    if not mapping:
        return p
    done = []
    stack = [(p, mapping, None)]
    while stack:
        t, m, kids = stack.pop()
        kind = type(t)
        if kids is None:
            kids = _children(t)
            if kids:
                stack.append((t, m, kids))
                if kind is InputPrefix:
                    m = {k: v for k, v in m.items() if k != t.binder}
                    if not m:
                        done.append(t.body)
                        continue
                for c in reversed(kids):
                    stack.append((c, m, None))
                continue
            if kind is Call:
                t = Call(t.name, tuple(m.get(a, a) for a in t.args))
            done.append(t)
            continue
        if kind is Prefix:
            t = Prefix(m.get(t.event, t.event), done.pop())
        elif kind is InputPrefix:
            t = InputPrefix(t.binder, _subst_set(t.events, m), done.pop())
        elif kind is Hide:
            t = Hide(done.pop(), _subst_set(t.events, m))
        elif kind is Rename:
            t = Rename(done.pop(), frozenset((m.get(a, a), m.get(b, b)) for a, b in t.pairs))
        else:
            new = done[len(done) - len(kids):]
            del done[len(done) - len(kids):]
            if kind is Parallel:
                t = Parallel(new[0], _subst_set(t.left_events, m),
                             _subst_set(t.right_events, m), new[1])
            elif kind is Interleave:
                t = Interleave(new[0], new[1])
            else:
                t = kind(tuple(new))
        done.append(t)
    return done[0]


def _subst_set(events, mapping: dict) -> frozenset:
    return frozenset(mapping.get(e, e) for e in events)


# --- pretty printing ------------------------------------------------------
#
# Levels: 0 atoms, 1 postfix (hide, rename), 2 prefixing, 3 choice,
# 4 parallel/interleave.  Mixed choice operators always get parentheses,
# matching the parser, which rejects unparenthesised mixed choice.

_CHOICE_OPS = {ExtChoice: "[]", IntChoice: "|~|", Timeout: "[>"}
_LEVELS = {Stop: 0, Div: 0, Call: 0, Hide: 1, Rename: 1, Prefix: 2, InputPrefix: 2,
           ExtChoice: 3, IntChoice: 3, Timeout: 3, Interleave: 4, Parallel: 4}


def _ev_set(events) -> str:
    members = sorted(events)
    return "{" + ",".join(members) + "}"


def pretty(p) -> str:
    """The text of a term: written left to right from a stack of texts and
    of (term, context level) pairs still to write, starting at the loosest
    level 4, so a deep term costs no Python frame."""
    out = []
    stack = [(p, 4)]
    write = out.append
    while stack:
        item = stack.pop()
        if type(item) is str:
            write(item)
            continue
        t, context = item
        kind = type(t)
        while kind in _CHOICE_OPS and len(t.branches) == 1:
            # a one-event indexed choice prints as its one branch
            t = t.branches[0]
            kind = type(t)
        if _LEVELS.get(kind, 0) > context:
            stack += (")", (t, 4), "(")
        elif kind is Prefix:
            stack += ((t.body, 2), f"{t.event} -> ")
        elif kind is Stop:
            write("STOP")
        elif kind is Call:
            if t.name.startswith("mu "):
                # a recursion's text with its parameters as holes; its body
                # extends to the end of its context, so it is always bracketed
                write("(" + re.sub(r"\$(\d+)", lambda m: t.args[int(m[1])], t.name) + ")")
            elif t.args:
                write(f"{t.name}({', '.join(t.args)})")
            else:
                write(t.name)
        elif kind in _CHOICE_OPS:
            # a branch that is itself a choice node was parenthesised in
            # the source, so every choice-level branch is bracketed
            sep = f" {_CHOICE_OPS[kind]} "
            for b in reversed(t.branches[1:]):
                stack += ((b, 2), sep)
            stack.append((t.branches[0], 2))
        elif kind is InputPrefix:
            stack += ((t.body, 2), f"? {t.binder} : {_ev_set(t.events)} -> ")
        elif kind is Hide:
            stack += (f" \\ {_ev_set(t.events)}", (t.body, 1))
        elif kind is Rename:
            pairs = ", ".join(f"{a} <- {b}" for a, b in sorted(t.pairs))
            stack += (f"[[{pairs}]]", (t.body, 1))
        elif kind is Interleave:
            stack += ((t.right, 3), " ||| ", (t.left, 4))
        elif kind is Parallel:
            sync = f"[{_ev_set(t.left_events)} || {_ev_set(t.right_events)}]"
            stack += ((t.right, 3), f" {sync} ", (t.left, 4))
        elif kind is Div:
            write("DIV")
        else:
            raise TypeError(f"not a process: {t!r}")
    return "".join(out)
