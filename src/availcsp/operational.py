"""Operational semantics: transition steps and trace extraction.

Availability traces are read off the standard labelled transition system:
a state offers a set of events when every member of the set is enabled
there, so offers appear as self-loops and an observation alternates freely
between transitions taken and offers noticed.  Extraction explores the
transition system directly, emitting only canonical traces (maximal
offers, no adjacent duplicates, no empty offers); the full closed set is
recovered by covering.
"""
from __future__ import annotations

from .errors import BudgetError, SpecError
from .healthiness import TraceSet, max_offers
from .kernel import TAU, Bounds, ModelParams
from .process import (
    Call, Div, ExtChoice, Hide, InputPrefix, IntChoice, Interleave,
    Parallel, Prefix, Rename, Stop, SpecEnv, Timeout, subst_events,
)

# the most states one internal-step closure, or one transition system, holds
MAX_STATES = 4096


class StepEngine:
    """Memoised transition computation over process terms."""

    def __init__(self, env: SpecEnv):
        self.env = env
        self._steps: dict = {}
        self._closure: dict = {}

    def steps(self, term):
        """All transitions of a term as (label, successor) pairs, where the
        label is an event name or the internal action."""
        cached = self._steps.get(term)
        if cached is None:
            cached = tuple(self._compute(term))
            self._steps[term] = cached
        return cached

    def _compute(self, term):
        if isinstance(term, Stop):
            return
        elif isinstance(term, Div):
            yield (TAU, term)
        elif isinstance(term, Prefix):
            yield (term.event, term.body)
        elif isinstance(term, InputPrefix):
            for a in sorted(term.events):
                yield (a, subst_events(term.body, {term.binder: a}))
        elif isinstance(term, ExtChoice):
            # an internal step of one branch leaves the choice unresolved
            branches = term.branches
            for i, branch in enumerate(branches):
                for lab, succ in self.steps(branch):
                    if lab is TAU:
                        yield (TAU, ExtChoice(branches[:i] + (succ,) + branches[i + 1:]))
                    else:
                        yield (lab, succ)
        elif isinstance(term, IntChoice):
            for b in term.branches:
                yield (TAU, b)
        elif isinstance(term, Timeout):
            # the first branch runs until it performs an event or the chain
            # times out to a later branch, itself a timeout to those after it
            first, rest = term.branches[0], term.branches[1:]
            for lab, succ in self.steps(first):
                if lab is TAU:
                    yield (TAU, Timeout((succ,) + rest))
                else:
                    yield (lab, succ)
            for i in range(1, len(term.branches)):
                suffix = term.branches[i:]
                yield (TAU, Timeout(suffix) if len(suffix) > 1 else suffix[0])
        elif isinstance(term, Parallel):
            la, ra = term.left_events, term.right_events
            sync = la & ra
            rsteps = self.steps(term.right)
            for lab, succ in self.steps(term.left):
                if lab is TAU:
                    yield (TAU, Parallel(succ, la, ra, term.right))
                elif lab in la:
                    if lab in sync:
                        for rlab, rsucc in rsteps:
                            if rlab == lab:
                                yield (lab, Parallel(succ, la, ra, rsucc))
                    else:
                        yield (lab, Parallel(succ, la, ra, term.right))
            for lab, succ in rsteps:
                if lab is TAU:
                    yield (TAU, Parallel(term.left, la, ra, succ))
                elif lab in ra and lab not in sync:
                    yield (lab, Parallel(term.left, la, ra, succ))
        elif isinstance(term, Interleave):
            for lab, succ in self.steps(term.left):
                yield (lab, Interleave(succ, term.right))
            for lab, succ in self.steps(term.right):
                yield (lab, Interleave(term.left, succ))
        elif isinstance(term, Hide):
            for lab, succ in self.steps(term.body):
                if lab is not TAU and lab in term.events:
                    yield (TAU, Hide(succ, term.events))
                else:
                    yield (lab, Hide(succ, term.events))
        elif isinstance(term, Rename):
            for lab, succ in self.steps(term.body):
                if lab is TAU:
                    yield (TAU, Rename(succ, term.pairs))
                else:
                    for frm, to in sorted(term.pairs):
                        if frm == lab:
                            yield (to, Rename(succ, term.pairs))
        elif isinstance(term, Call):
            yield (TAU, self.env.instantiate(term.name, term.args))
        else:
            raise SpecError(f"unknown process construct {type(term).__name__}")

    def initials(self, term):
        return sorted({lab for lab, _ in self.steps(term) if lab is not TAU})

    def tau_closure(self, term):
        """States reachable by internal steps.  Raises BudgetError when
        they pass MAX_STATES."""
        cached = self._closure.get(term)
        if cached is None:
            seen = {term}
            frontier = [term]
            while frontier:
                nxt = []
                for t in frontier:
                    for lab, succ in self.steps(t):
                        if lab is TAU and succ not in seen:
                            seen.add(succ)
                            nxt.append(succ)
                    if len(seen) > MAX_STATES:
                        raise BudgetError(
                            f"internal-step closure exceeds MAX_STATES ({MAX_STATES} states)")
                frontier = nxt
            cached = frozenset(seen)
            self._closure[term] = cached
        return cached


def avail_traces(term, env: SpecEnv, params: ModelParams, bounds: Bounds) -> TraceSet:
    """Canonical availability-trace set extracted from the transition
    system, bounded in length, run length, and offer size.

    What a trace may do next depends only on the key it reaches: (state,
    run left, last offer).  Every step, an event or an offer, takes one
    length, so one forward pass keeps, per key, the traces that reach it
    at the current length, extends each by every step the key takes, and
    adds each level to the result: a loop, however long the length.  A
    state's maximal offers are worked out once a call."""
    engine = StepEngine(env)
    n, k = params.run_bound, params.set_bound
    out = {()}
    level = {(term, n, None): {()}}     # key -> the traces reaching it
    offers = {}                         # state -> its maximal offers
    for _ in range(bounds.trace_len):
        nxt = {}
        for (state, run_left, last_offer), traces in level.items():
            moves = []
            for t in engine.tau_closure(state):
                for lab, succ in engine.steps(t):
                    if lab is not TAU:
                        moves.append((lab, (succ, n, None)))
                if run_left is None or run_left > 0:
                    nxt_run = None if run_left is None else run_left - 1
                    maximal = offers.get(t)
                    if maximal is None:
                        maximal = offers[t] = max_offers(engine.initials(t), k)
                    for offer in maximal:
                        if offer != last_offer:
                            moves.append((offer, (t, nxt_run, offer)))
            for a, key in moves:
                reached = nxt.get(key)
                if reached is None:
                    nxt[key] = {tr + (a,) for tr in traces}
                else:
                    reached.update(tr + (a,) for tr in traces)
        for traces in nxt.values():
            out.update(traces)
        level = nxt
    return TraceSet(out, params, bounds.trace_len, "operational")


def std_traces(term, env: SpecEnv, max_len: int) -> frozenset:
    """Ordinary event traces up to a length bound: the availability traces
    of the model that records no offers."""
    return avail_traces(term, env, ModelParams(run_bound=0), Bounds(max_len)).canon


def build_lts(term, env: SpecEnv):
    """Reachable transition system by breadth-first exploration.

    Returns (states, transitions) with states in discovery order and
    transitions as a list of (source index, label, target index) triples.
    Raises BudgetError when the states pass MAX_STATES.
    """
    engine = StepEngine(env)
    index = {term: 0}
    states = [term]
    transitions = []
    frontier = [term]
    while frontier:
        nxt = []
        for state in frontier:
            for lab, succ in engine.steps(state):
                j = index.get(succ)
                if j is None:
                    if len(states) >= MAX_STATES:
                        raise BudgetError(
                            f"transition system exceeds MAX_STATES ({MAX_STATES} states)")
                    j = len(states)
                    index[succ] = j
                    states.append(succ)
                    nxt.append(succ)
                transitions.append((index[state], lab, j))
        frontier = nxt
    return states, transitions
