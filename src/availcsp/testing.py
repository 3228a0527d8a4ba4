"""May-testing: experiments that watch a process and report success.

A test either succeeds, asks the process to perform an event, or checks
that a set of events is currently on offer (an empty set trivially is).
A process may pass a test when some resolution of internal choices drives
the test to success.  The search is exact; it stops with a BudgetError when
the states it holds for one test step pass MAX_STATES.
"""
from __future__ import annotations

import heapq
import re

from .errors import BudgetError, ParseError, SpecError
from .kernel import TAU, Record, Value, is_event, is_offer, show_trace
from .operational import MAX_STATES, StepEngine
from .process import Div, InputPrefix, IntChoice, Prefix, SpecEnv, Stop, Timeout


class _Test(Value):
    __slots__ = ()

    def show(self) -> str:
        return "".join(t.head() for t in _chain(self)) + "SUCCESS"


def _chain(test):
    """The steps of a test in order, each followed by the rest in
    ``cont``, up to its SUCCESS: a loop, as a test may be thousands of
    steps long."""
    while not isinstance(test, TestSuccess):
        yield test
        test = test.cont


class TestSuccess(_Test):
    __slots__ = ()

    def __init__(self):
        self._hash = hash(())


class TestEvent(_Test):
    __slots__ = ("event", "cont")

    def __init__(self, event: str, cont):
        self.event = event
        self.cont = cont
        self._hash = hash((event, cont))

    def head(self) -> str:
        return f"{self.event} . "


class TestReady(_Test):
    __slots__ = ("offer", "cont")

    def __init__(self, offer: frozenset, cont):
        self.offer = offer
        self.cont = cont
        self._hash = hash((offer, cont))

    def head(self) -> str:
        return "ready {" + ",".join(sorted(self.offer)) + "} & "


SUCCESS = TestSuccess()

_TEST_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9_.]*|[{},.&]|$)")


def _fold(steps):
    """The test of (step class, argument) pairs in order, then SUCCESS."""
    t = SUCCESS
    for cls, arg in reversed(steps):
        t = cls(arg, t)
    return t


def parse_test(text: str, alphabet=None):
    """Parse a test literal such as ``a . ready {b,c} & SUCCESS``."""
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TEST_TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError(f"bad test syntax near {text[pos:pos + 10]!r}")
        if m.group(1):
            tokens.append(m.group(1))
        pos = m.end()
    tokens.reverse()  # the next token is the last

    def fail(msg):
        raise ParseError(f"in test {text!r}: {msg}")

    def expect(tok):
        if not tokens or tokens[-1] != tok:
            fail(f"expected {tok!r}")
        tokens.pop()

    def event(name):
        if alphabet is not None and name not in alphabet:
            fail(f"unknown event {name!r}")
        return name

    steps = []
    while True:
        if not tokens:
            fail("unexpected end")
        head = tokens.pop()
        if head == "SUCCESS":
            break
        if head == "ready":
            expect("{")
            names = set()
            while tokens and tokens[-1] != "}":
                names.add(event(tokens.pop()))
                if tokens and tokens[-1] == ",":
                    tokens.pop()
            expect("}")
            expect("&")
            steps.append((TestReady, frozenset(names)))
        elif head in {"{", "}", ",", ".", "&"}:
            fail(f"unexpected {head!r}")
        else:
            expect(".")
            steps.append((TestEvent, event(head)))
    if tokens:
        fail(f"trailing input {tokens[-1]!r}")
    return _fold(steps)


def test_from_trace(trace) -> object:
    """The test that probes for one availability trace: events are asked
    for in order and offers become readiness checks."""
    return _fold([(TestEvent if is_event(a) else TestReady, a) for a in trace])


class MayVerdict(Record):
    __slots__ = ("may", "witness")

    def __init__(self, may: bool, witness: list | None = None):
        self.may = may
        self.witness = witness

    def describe(self) -> str:
        if self.may:
            return "may pass: " + (" ".join(self.witness) if self.witness else "(immediate)")
        return "cannot pass: search exhausted"


def may_pass(term, test, env: SpecEnv) -> MayVerdict:
    """Search for an experiment run driving the test to success.

    States pair a position in the test (the steps it has made) with the
    process term; the cost of a state is the internal steps taken since the
    test last progressed, and the cheapest state is expanded first.  Raises
    BudgetError when the states held for one position pass MAX_STATES.
    """
    engine = StepEngine(env)
    chain = list(_chain(test))
    held = [0] * (len(chain) + 1)
    best = {}
    heap = []
    counter = 0

    def push(state, new_gap, path):
        nonlocal counter
        old = best.get(state)
        if old is None:
            held[state[0]] += 1
            if held[state[0]] > MAX_STATES:
                raise BudgetError(
                    f"may-test search exceeds MAX_STATES ({MAX_STATES} states) at one test step")
        elif new_gap >= old:
            return
        best[state] = new_gap
        heapq.heappush(heap, (new_gap, counter, state, path))
        counter += 1

    # a path is a (label, previous path) pair, so a push copies nothing
    push((0, term), 0, None)
    while heap:
        gap, _, state, path = heapq.heappop(heap)
        if gap > best[state]:
            continue
        pos, p = state
        if pos == len(chain):
            labels = []
            while path is not None:
                label, path = path
                labels.append(label)
            return MayVerdict(True, labels[::-1])
        t = chain[pos]
        for lab, succ in engine.steps(p):
            if lab is TAU:
                push((pos, succ), gap + 1, ("tau", path))
            elif isinstance(t, TestEvent) and lab == t.event:
                push((pos + 1, succ), 0, (lab, path))
        if isinstance(t, TestReady) and t.offer <= frozenset(engine.initials(p)):
            label = "ready{" + ",".join(sorted(t.offer)) + "}"
            push((pos + 1, p), 0, (label, path))
    return MayVerdict(False)


def process_from_trace(trace):
    """The most nondeterministic-free process exhibiting exactly the
    closure of one availability trace: events are performed in order and
    each offer is held open (deviating into its events leads nowhere)
    until an internal timeout moves on."""
    p = Stop()
    for a in reversed(trace):
        if is_event(a):
            p = Prefix(a, p)
        elif is_offer(a):
            p = Timeout((InputPrefix("x", a, Div()), p))
        else:
            raise SpecError(f"not a trace action: {a!r}")
    return p


def realize(traces):
    """A process whose availability traces are exactly the closure of the
    given canonical traces: the internal choice of their probes, shortest
    first and then by their text."""
    members = sorted(traces, key=lambda t: (len(t), show_trace(t)))
    if not members:
        raise SpecError("cannot realize an empty trace collection")
    branches = tuple(process_from_trace(tr) for tr in members)
    return branches[0] if len(branches) == 1 else IntChoice(branches)
