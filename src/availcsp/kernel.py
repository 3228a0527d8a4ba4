"""Core vocabulary: alphabets, actions, availability traces, model parameters.

An availability trace records, alongside performed events, which sets of
events a process was observed to offer between performances.  Actions are
represented without wrapper classes:

* a performed event is a plain ``str`` (its name),
* an offer is a ``frozenset`` of event names (possibly empty),
* the internal action used by transition relations is the ``TAU`` sentinel
  and never appears inside a trace.

A trace is a tuple of actions.  Model parameters bound how many consecutive
offers a trace may contain (``run_bound``) and how large each offered set
may be (``set_bound``); ``None`` means unbounded.
"""
from __future__ import annotations

import re
from operator import attrgetter

from .errors import OutOfUniverseError, ParseError

Event = str
OfferSet = frozenset
Action = "Event | OfferSet"
AvailTrace = tuple

EVENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_.]*")


class _Tau:
    __slots__ = ()

    def __repr__(self) -> str:
        return "tau"


TAU = _Tau()


def is_offer(action) -> bool:
    return isinstance(action, frozenset)


def is_event(action) -> bool:
    return isinstance(action, str)


class Alphabet:
    """A finite ordered set of event names.

    Declaration order is preserved and gives the canonical ordering used for
    witnesses, rendering, and deterministic iteration.
    """

    def __init__(self, events):
        events = tuple(events)
        seen = {}
        for e in events:
            if not EVENT_RE.fullmatch(e):
                raise ValueError(f"bad event name: {e!r}")
            if e in seen:
                raise ValueError(f"duplicate event in alphabet: {e}")
            seen[e] = len(seen)
        self.events = events
        self._index = seen

    def __contains__(self, event) -> bool:
        return event in self._index

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.events)!r})"

    def index(self, event: str) -> int:
        try:
            return self._index[event]
        except KeyError:
            raise KeyError(f"event {event!r} not in alphabet") from None

    def sort_events(self, events) -> tuple:
        return tuple(sorted(events, key=self.index))

    def action_key(self, action):
        """Total order on actions: events first (alphabet order), then offers."""
        if is_event(action):
            return (0, self.index(action))
        return (1, tuple(sorted(self.index(e) for e in action)))

    def trace_key(self, trace):
        return (len(trace), tuple(self.action_key(a) for a in trace))


class Record:
    """Base of the package's record classes: a class names its fields in
    ``__slots__`` (names that begin with ``_`` are not fields) and assigns
    them in its own ``__init__``.  Two records are equal when they are of
    one exact class and their fields are equal, and a record's repr names
    its fields.  A record is unhashable unless it is a ``Value``."""

    __slots__ = ()
    _fields = ()
    _key = staticmethod(lambda r: ())       # the fields equality compares
    _hash = None                            # a Value's slot stores its hash

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(f for f in vars(cls).get("__slots__", ()) if not f.startswith("_"))
        if fields:
            cls._fields += fields
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        """Field by field, with a stack of pairs still to compare, so two
        deep records built apart cost no Python frame per level.  Unequal
        stored hashes settle a pair of values at once, and a pair that is
        one object is skipped."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if isinstance(a, Record):
                if a.__class__ is not b.__class__ or a._hash != b._hash:
                    return False
                stack.append((a._key(a), b._key(b)))
            elif type(a) is tuple and type(b) is tuple and len(a) == len(b):
                stack.extend(zip(a, b))
            elif a != b:
                return False
        return True

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"


class Value(Record):
    """An immutable record: its ``__init__`` stores ``hash`` of the tuple of
    its fields in ``_hash`` once, so hashing never walks the fields again.
    Fields are not reassigned after ``__init__``."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__, so the hash is that of the new process
        return type(self), tuple(getattr(self, f) for f in self._fields)


class ModelParams(Value):
    """Selects a model from the hierarchy.

    ``run_bound`` limits the length of each maximal run of consecutive offers
    (None = unbounded).  ``set_bound`` limits the size of each offered set
    (None = unbounded, which in practice caps at the alphabet size; 1 selects
    the singleton-offer model).  A ``set_bound`` of 0 is normalised to
    ``run_bound=0, set_bound=1`` since forbidding all offers degenerates to
    the plain traces model either way.
    """

    __slots__ = ("run_bound", "set_bound")

    def __init__(self, run_bound: int | None = None, set_bound: int | None = 1):
        for v in (run_bound, set_bound):
            if v is not None and (not isinstance(v, int) or v < 0):
                raise ValueError(f"bad bound: {v!r}")
        if set_bound == 0:
            run_bound, set_bound = 0, 1
        self.run_bound = run_bound
        self.set_bound = set_bound
        self._hash = hash((run_bound, set_bound))

    def fits_offer(self, offer: frozenset) -> bool:
        return self.set_bound is None or len(offer) <= self.set_bound

    def show(self) -> str:
        n = "F" if self.run_bound is None else str(self.run_bound)
        k = "F" if self.set_bound is None else str(self.set_bound)
        return f"n={n},k={k}"

    def json_obj(self) -> dict:
        return {
            "n": "F" if self.run_bound is None else self.run_bound,
            "k": "F" if self.set_bound is None else self.set_bound,
        }


class Bounds(Value):
    """Length bounds shared by both engines.

    ``trace_len`` is the observable-trace length bound and ``internal_len``
    the longer length used for evaluation underneath hiding (hiding shortens
    traces, so pre-hiding material longer than the final bound still
    matters).
    """

    __slots__ = ("trace_len", "internal_len")

    def __init__(self, trace_len: int = 5, internal_len: int | None = None):
        if trace_len < 0:
            raise ValueError("bad bounds")
        if internal_len is None:
            internal_len = 3 * trace_len
        if internal_len < trace_len:
            raise ValueError("internal_len must be >= trace_len")
        self.trace_len = trace_len
        self.internal_len = internal_len
        self._hash = hash((trace_len, internal_len))


def offer_runs(trace):
    """Lengths of the maximal runs of consecutive offers, including the
    (possibly empty) runs before the first and after the last event."""
    runs = [0]
    for a in trace:
        if is_offer(a):
            runs[-1] += 1
        else:
            runs.append(0)
    return runs


def in_obs(trace, run_bound: int | None) -> bool:
    if run_bound is None:
        return True
    return max(offer_runs(trace)) <= run_bound


def decompose(trace):
    """Split a trace into its offer runs and its events.

    Returns ``(runs, events)`` with ``len(runs) == len(events) + 1``; run i
    sits before event i.
    """
    runs = [[]]
    events = []
    for a in trace:
        if is_offer(a):
            runs[-1].append(a)
        else:
            events.append(a)
            runs.append([])
    return tuple(tuple(r) for r in runs), tuple(events)


def compose(runs, events):
    out = []
    for i, run in enumerate(runs):
        out.extend(run)
        if i < len(events):
            out.append(events[i])
    return tuple(out)


def normalize_trace(trace):
    """Drop empty offers and collapse adjacent equal offers."""
    out = []
    for a in trace:
        if is_offer(a):
            if not a:
                continue
            if out and out[-1] == a:
                continue
        out.append(a)
    return tuple(out)


def check_universe(trace, params: ModelParams, len_bound: int, alphabet: Alphabet | None = None):
    """Raise OutOfUniverseError unless ``trace`` lies inside the bounded universe."""
    if len(trace) > len_bound:
        raise OutOfUniverseError(
            f"trace of length {len(trace)} exceeds length bound {len_bound}"
        )
    if not in_obs(trace, params.run_bound):
        raise OutOfUniverseError(
            f"trace has an offer run longer than the run bound {params.run_bound}"
        )
    for a in trace:
        if is_offer(a):
            if not params.fits_offer(a):
                raise OutOfUniverseError(
                    f"offer of size {len(a)} exceeds the set bound {params.set_bound}"
                )
            if alphabet is not None:
                for e in a:
                    if e not in alphabet:
                        raise OutOfUniverseError(f"event {e!r} not in alphabet")
        elif alphabet is not None and a not in alphabet:
            raise OutOfUniverseError(f"event {a!r} not in alphabet")


# --- textual trace literals ----------------------------------------------
#
#   trace  := "<" (action ("," action)*)? ">"
#   action := EVENT | "offer" "{" (EVENT ("," EVENT)*)? "}"
#
# "offer" is a keyword only when immediately followed by "{".

_TRACE_TOKEN = re.compile(r"\s*(<|>|\{|\}|,|[A-Za-z][A-Za-z0-9_.]*)")


def parse_trace(text: str, alphabet: Alphabet) -> AvailTrace:
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TRACE_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"bad character in trace literal: {text[pos:].strip()[0]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()

    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else "end of input"

    def expect(tok):
        nonlocal i
        if peek() != tok:
            raise ParseError(f"expected {tok!r} in trace literal, got {peek()!r}")
        i += 1

    def event():
        nonlocal i
        if not EVENT_RE.fullmatch(peek()):
            raise ParseError(f"expected event name in trace literal, got {peek()!r}")
        name = tokens[i]
        if name not in alphabet:
            raise ParseError(f"unknown event {name!r} in trace literal")
        i += 1
        return name

    def action():
        nonlocal i
        if peek() == "offer" and i + 1 < len(tokens) and tokens[i + 1] == "{":
            i += 2
            members = []
            if peek() != "}":
                members.append(event())
                while peek() == ",":
                    i += 1
                    members.append(event())
            expect("}")
            return frozenset(members)
        return event()

    expect("<")
    actions = []
    if i < len(tokens) and tokens[i] != ">":
        actions.append(action())
        while peek() == ",":
            i += 1
            actions.append(action())
    expect(">")
    if i != len(tokens):
        raise ParseError(f"trailing input after trace literal: {tokens[i]!r}")
    return tuple(actions)


def show_action(action, alphabet: Alphabet | None = None) -> str:
    if is_event(action):
        return action
    members = sorted(action) if alphabet is None else alphabet.sort_events(action)
    return "offer{" + ",".join(members) + "}"


def show_trace(trace, alphabet: Alphabet | None = None) -> str:
    return "<" + ", ".join(show_action(a, alphabet) for a in trace) + ">"


# --- JSON wire format -----------------------------------------------------
#
# A trace is an array of action objects: {"ev": "a"} for a performed event,
# {"offer": ["a", "b"]} for an offer (member list sorted ascending).


def trace_to_json(trace) -> str:
    import json

    items = []
    for a in trace:
        if is_event(a):
            items.append({"ev": a})
        else:
            items.append({"offer": sorted(a)})
    return json.dumps(items, separators=(", ", ": "))


def trace_from_json(text: str, alphabet: Alphabet | None = None) -> AvailTrace:
    import json

    try:
        items = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON trace: {exc}") from None
    if not isinstance(items, list):
        raise ParseError("JSON trace must be an array")
    out = []
    for item in items:
        if not isinstance(item, dict) or len(item) != 1:
            raise ParseError(f"bad JSON trace action: {item!r}")
        if "ev" in item:
            ev = item["ev"]
            if not isinstance(ev, str):
                raise ParseError(f"bad JSON event: {ev!r}")
            if alphabet is not None and ev not in alphabet:
                raise ParseError(f"unknown event {ev!r} in JSON trace")
            out.append(ev)
        elif "offer" in item:
            members = item["offer"]
            if not isinstance(members, list) or not all(isinstance(e, str) for e in members):
                raise ParseError(f"bad JSON offer: {members!r}")
            if alphabet is not None:
                for e in members:
                    if e not in alphabet:
                        raise ParseError(f"unknown event {e!r} in JSON trace")
            out.append(frozenset(members))
        else:
            raise ParseError(f"bad JSON trace action: {item!r}")
    return tuple(out)
