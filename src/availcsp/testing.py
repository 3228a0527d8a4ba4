"""May-testing: experiments that watch a process and report success.

A test either succeeds, asks the process to perform an event, or checks
that a set of events is currently on offer (an empty set trivially is).
A process may pass a test when some resolution of internal choices drives
the test to success.  The search is exact up to an internal-step budget
per test step: exceeding it yields an honest "not found within budget"
rather than a refusal.
"""
from __future__ import annotations

import heapq
import re
from dataclasses import dataclass

from .errors import ParseError, SpecError
from .kernel import TAU, is_event, is_offer, show_trace
from .operational import StepEngine
from .process import Div, InputPrefix, IntChoice, Prefix, SpecEnv, Stop, Timeout


@dataclass(frozen=True)
class TestSuccess:
    def show(self) -> str:
        return "SUCCESS"


@dataclass(frozen=True)
class TestEvent:
    event: str
    cont: object

    def show(self) -> str:
        return f"{self.event} . {self.cont.show()}"


@dataclass(frozen=True)
class TestReady:
    offer: frozenset
    cont: object

    def show(self) -> str:
        inner = ",".join(sorted(self.offer))
        return f"ready {{{inner}}} & {self.cont.show()}"


SUCCESS = TestSuccess()

_TEST_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9_.]*|[{},.&]|$)")


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

    def fail(msg):
        raise ParseError(f"in test {text!r}: {msg}")

    def expect(tok):
        if not tokens or tokens[0] != tok:
            fail(f"expected {tok!r}")
        tokens.pop(0)

    def event(name):
        if alphabet is not None and name not in alphabet:
            fail(f"unknown event {name!r}")
        return name

    def parse():
        if not tokens:
            fail("unexpected end")
        head = tokens.pop(0)
        if head == "SUCCESS":
            return SUCCESS
        if head == "ready":
            expect("{")
            names = set()
            while tokens and tokens[0] != "}":
                names.add(event(tokens.pop(0)))
                if tokens and tokens[0] == ",":
                    tokens.pop(0)
            expect("}")
            expect("&")
            return TestReady(frozenset(names), parse())
        if head in {"{", "}", ",", ".", "&"}:
            fail(f"unexpected {head!r}")
        expect(".")
        return TestEvent(event(head), parse())

    t = parse()
    if tokens:
        fail(f"trailing input {tokens[0]!r}")
    return t


def test_from_trace(trace) -> object:
    """The test that probes for one availability trace: events are asked
    for in order and offers become readiness checks."""
    t = SUCCESS
    for a in reversed(trace):
        if is_event(a):
            t = TestEvent(a, t)
        else:
            t = TestReady(a, t)
    return t


@dataclass
class MayVerdict:
    may: bool
    witness: list | None = None
    complete: bool = True

    def describe(self) -> str:
        if self.may:
            return "may pass: " + (" ".join(self.witness) if self.witness else "(immediate)")
        if self.complete:
            return "cannot pass: search exhausted"
        return "not found within the internal-step budget"


def may_pass(term, test, env: SpecEnv, tau_budget: int = 100,
             engine: StepEngine | None = None) -> MayVerdict:
    """Search for an experiment run driving the test to success.

    States pair the remaining test with the process term; the cost of a
    state is the internal steps taken since the test last progressed, and
    expansion past the budget is pruned (recorded in ``complete``).
    """
    if engine is None:
        engine = StepEngine(env, tau_budget)
    start = (test, term)
    best = {start: 0}
    heap = [(0, 0, start, ())]
    counter = 1
    complete = True
    while heap:
        gap, _, (t, p), path = heapq.heappop(heap)
        if gap > best.get((t, p), gap):
            continue
        if isinstance(t, TestSuccess):
            return MayVerdict(True, list(path), complete)

        def push(state, new_gap, step_label):
            nonlocal counter, complete
            if new_gap > tau_budget:
                complete = False
                return
            if new_gap < best.get(state, new_gap + 1):
                best[state] = new_gap
                heapq.heappush(heap, (new_gap, counter, state, path + (step_label,)))
                counter += 1

        for lab, succ in engine.steps(p):
            if lab is TAU:
                push((t, succ), gap + 1, "tau")
            elif isinstance(t, TestEvent) and lab == t.event:
                push((t.cont, succ), 0, lab)
        if isinstance(t, TestReady):
            if t.offer <= frozenset(engine.initials(p)):
                label = "ready{" + ",".join(sorted(t.offer)) + "}"
                push((t.cont, p), 0, label)
    return MayVerdict(False, None, complete)


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
