"""May-testing: experiments that watch a process and report success.

A test is the availability trace it probes for: each event asks the
process to perform it, and each offer checks that its events are currently
on offer (an empty offer trivially is); after its last step the test
succeeds.  A process may pass a test when some resolution of internal
choices drives the test to success.  The search is exact; it stops with a
BudgetError when the states it holds for one test step pass MAX_STATES.
"""
from __future__ import annotations

import heapq
import re

from .errors import BudgetError, ParseError, SpecError
from .kernel import TAU, Record, is_event, is_offer, show_trace
from .operational import MAX_STATES, StepEngine
from .process import Div, InputPrefix, IntChoice, Prefix, SpecEnv, Stop, Timeout


_TEST_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9_.]*|[{},.&]|$)")


def parse_test(text: str, alphabet=None) -> tuple:
    """Parse a test literal such as ``a . ready {b,c} & SUCCESS`` into the
    trace it probes for: ``a .`` reads as the event ``a`` and
    ``ready {..} &`` as that offer.  Steps are kept as written, so an empty
    or repeated readiness check stays one step."""
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
            steps.append(frozenset(names))
        elif head in {"{", "}", ",", ".", "&"}:
            fail(f"unexpected {head!r}")
        else:
            expect(".")
            steps.append(event(head))
    if tokens:
        fail(f"trailing input {tokens[-1]!r}")
    return tuple(steps)


def show_test(test) -> str:
    """The literal of a test, the inverse of ``parse_test``."""
    return "".join("ready {" + ",".join(sorted(a)) + "} & " if is_offer(a) else f"{a} . "
                   for a in test) + "SUCCESS"


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
    """Search for an experiment run driving the test, a trace, to success.

    States pair a position in the test (the steps it has made) with the
    process term; the cost of a state is the internal steps taken since the
    test last progressed, and the cheapest state is expanded first.  Raises
    BudgetError when the states held for one position pass MAX_STATES.
    """
    engine = StepEngine(env)
    held = [0] * (len(test) + 1)
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
        if pos == len(test):
            labels = []
            while path is not None:
                label, path = path
                labels.append(label)
            return MayVerdict(True, labels[::-1])
        step = test[pos]
        ready = is_offer(step)
        for lab, succ in engine.steps(p):
            if lab is TAU:
                push((pos, succ), gap + 1, ("tau", path))
            elif not ready and lab == step:
                push((pos + 1, succ), 0, (lab, path))
        if ready and step <= frozenset(engine.initials(p)):
            label = "ready{" + ",".join(sorted(step)) + "}"
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
