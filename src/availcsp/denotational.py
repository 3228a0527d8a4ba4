"""Denotational semantics: compositional trace-set evaluation.

``CLAUSES`` gives each operator its clause: a pure function of the node,
the length and run bounds and its operands' cores that builds the
composite trace set with no regard to the set bound (a prefix offers all
its events as one run, and merging may widen offers).  Only the parallel
and interleaving clauses read the bounds: they stop a merge once it is
longer than the length bound or its last run longer than n, where
``finalize`` would drop it, so they build nothing it discards.
``finalize``, the one place traces are fitted to the (n, k, len) bounds,
makes the clause's output a canonical core.
Every clause, like ``finalize``, is a union of per-trace images: of each
operand trace for prefixing, internal choice, hiding and renaming
(linear), of each pair of traces, one per operand, for external choice,
timeout and both parallels (bilinear).  So each clause node records the
operand cores it last saw and its output, and a fixpoint round that hands
it supersets of those builds and finalizes only the images of what the
round added (semi-naive evaluation).

Recursion is solved by iteration from the least trace set {⟨⟩}, over a
vector of reachable instantiations of named definitions (the parser makes
each ``mu`` term one), with a worklist: an instantiation is evaluated when
it is first called and again only when the value of one of its callees
changed.  This converges because the bounded universe is finite and every
clause is monotone.  Recursion bodies and input-prefix branches are built
once per engine, so every round meets the same nodes.

Hiding consumes performed events, so when a term can reach a hiding
operator the evaluation runs at the longer internal length bound, and the
result's traces longer than the requested bound are dropped at the end.

``finalize`` drops each trace that is overlong, not normal or has a run
longer than n, which one lemma in its docstring shows is enough for a
closed input.  Three premises make every input den hands it closed:

1. each clause maps closed operand cores to a closed set: a merge clause
   to the part of one within both bounds, which is closed, since a prefix
   or an offer deletion of a trace is no longer and has no longer run;
2. every core is closed: ⟨⟩ is, and ``finalize`` maps a closed set to a
   closed core;
3. ``finalize`` is a union of per-trace images, so the semi-naive rounds
   of a clause together fit its whole output, which is closed.

So a core trimmed to a shorter bound is its traces within that bound.
``tests/test_healthiness.py`` checks ``finalize`` against the three-pass
oracle on random closed sets, ``tests/test_clauses.py`` premise 1 over
op's cores and ``tests/test_acceptance.py`` premise 2 over both engines'
cores.
"""
from __future__ import annotations

from functools import partial

from .errors import BudgetError, SpecError
from .healthiness import TraceSet, finalize
from .kernel import Bounds, ModelParams
from .process import (
    Call, Div, ExtChoice, Hide, InputPrefix, IntChoice, Interleave,
    Parallel, Prefix, Rename, Stop, SpecEnv, Timeout, _children,
    subst_events,
)
from .trace_algebra import (
    concat_traces, hide_set, merge_sets, merge_traces, offers_only,
    rename_set, restrict_set, split_first_event,
)

BOTTOM = frozenset({()})

MAX_INSTANTIATIONS = 256
MAX_ROUNDS = 10_000


def mentions_hiding(term, env: SpecEnv) -> bool:
    """Whether the term reaches a hiding operator, also through the
    definitions it calls.  Iterative, to stay within the recursion limit."""
    seen = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Hide):
            return True
        if isinstance(t, Call):
            if t.name not in seen:
                seen.add(t.name)
                stack.append(env.lookup(t.name).body)
        else:
            stack.extend(_children(t))
    return False


def _prefix(node, fit, *conts) -> set:
    """Composite of a prefix, ``conts`` in the order of its events: the
    stable state offers all its events as one run, which ``finalize``
    resamples into the runs the model can observe (offers capped, repeats
    up to the run bound)."""
    events = sorted(node.events) if type(node) is InputPrefix else (node.event,)
    offer = (frozenset(events),)
    out = {(), offer}
    for a, cont in zip(events, conts):
        for t in cont:
            out.add((a,) + t)
            out.add(offer + (a,) + t)
    return out


def _ext_choice(node, fit, left: frozenset, right: frozenset) -> set:
    """Composite of an external choice: both sides' offers accumulate
    until the first performed event resolves it.  Each side's members are
    grouped by the offers before their first event, and each pair of
    offer-only traces, one from each side, is merged once: a merge without
    synchronisation is symmetric, so the left one goes first."""
    merged = {}
    out = set()
    for mine, others, flip in ((left, offers_only(right), False),
                               (right, offers_only(left), True)):
        starts = {}     # leading offers -> the rests that follow them
        for m in mine:
            parts = split_first_event(m)
            pre, rest = (m, ()) if parts is None else (parts[0], (parts[1],) + parts[2])
            starts.setdefault(pre, []).append(rest)
        for pre, rests in starts.items():
            for q in others:
                pair = (q, pre) if flip else (pre, q)
                pms = merged.get(pair)
                if pms is None:
                    pms = merged[pair] = merge_traces(*pair, frozenset())
                out.update(pm + r for pm in pms for r in rests)
    return out


def _timeout(node, fit, left: frozenset, right: frozenset) -> set:
    """Composite of a timeout: the left side's traces, and each of its
    offer-only traces followed by a trace of the right side."""
    out = set(left)
    for p in offers_only(left):
        for q in right:
            out.add(concat_traces(p, q))
    return out


# constructor -> (clause, whether it is bilinear); ``Stop``, ``Div`` and
# ``Call`` have none.  A clause takes its node, ``fit`` and its operands'
# cores.  ``fit`` is (len_bound, run_bound), the bounds ``finalize`` fits
# the output at: the parallel and interleaving merges stop where it would
# drop (premise 1 in the module docstring), and the other clauses ignore
# it.  An input prefix's operands are its body substituted with each of
# its events, in order; any other node's are its children.
CLAUSES = {
    Prefix: (_prefix, False),
    InputPrefix: (_prefix, False),
    IntChoice: (lambda node, fit, *branches: set().union(*branches), False),
    ExtChoice: (_ext_choice, True),
    Timeout: (_timeout, True),
    Parallel: (lambda node, fit, left, right: merge_sets(
        restrict_set(left, node.left_events), restrict_set(right, node.right_events),
        node.left_events & node.right_events, *fit), True),
    Interleave: (lambda node, fit, left, right: merge_sets(left, right, frozenset(), *fit),
                 True),
    Hide: (lambda node, fit, body: hide_set(body, node.events), False),
    Rename: (lambda node, fit, body: rename_set(body, node.pairs), False),
}


class DenotationalEngine:
    def __init__(self, env: SpecEnv, params: ModelParams, eval_len: int):
        self.env = env
        self.params = params
        self.eval_len = eval_len
        self.vector: dict = {}
        self.calls: list = []
        self.records: dict = {}
        self.bodies: dict = {}

    def _clause(self, term, operands: tuple, build, bilinear=False, step=0) -> frozenset:
        """``finalize`` of ``build(*operands)``, the clause of ``term`` (for a
        choice chain, of its ``step``-th fold).  The clause's record, keyed by
        the term and the step, holds the operands last seen and the output;
        equal terms share it, as they have one clause.  When each operand is
        a superset of the recorded one, only the added traces Δ are built:
        build(Δ…) if linear, build(ΔL, R′) ∪ build(L, ΔR) if bilinear.  Of
        those, the ones already output are dropped, since ``finalize`` maps
        each trace of its output to itself."""
        key = (term, step)
        rec = self.records.get(key)
        if rec is None or not all(
                old is new or old <= new for old, new in zip(rec[0], operands)):
            out = finalize(build(*operands), self.params, self.eval_len)
        else:
            seen, out = rec
            deltas = [() if old is new else new - old for old, new in zip(seen, operands)]
            if not bilinear:
                raw = build(*deltas) if any(deltas) else set()
            else:
                raw = (build(deltas[0], operands[1]) if deltas[0] else set()) | (
                    build(seen[0], deltas[1]) if deltas[1] else set())
            raw = [t for t in raw if t not in out]
            if raw:
                out = out | finalize(raw, self.params, self.eval_len)
        self.records[key] = (operands, out)
        return out

    def _evaluate(self, term):
        """Denote a closed term; also return the instantiations it called."""
        self.calls = []
        return self.denote(term), self.calls

    def solve(self, term) -> frozenset:
        """Evaluate a closed term at the least fixpoint of the instantiation
        vector of named definitions.  The term is evaluated once to find the
        instantiations it calls.  A worklist then evaluates each of those,
        and each one they call, when it is first found, and again whenever
        a callee's value changed, latest added first, so that a recursion
        settles before the callers it changes are evaluated again.  Every
        clause and ``finalize`` is a union of per-trace images and every
        value holds ⟨⟩, so a re-evaluation returns a superset of the last
        value, and set inequality says exactly that it grew.  The term is
        evaluated once more on the stable vector, unless it called nothing.
        Each instantiation is evaluated at most MAX_ROUNDS times."""
        result, calls = self._evaluate(term)
        if not calls:
            return result
        callers = {key: {} for key in calls}    # callee -> its callers, in order
        work = dict.fromkeys(calls)             # an ordered set
        evaluations = {}
        while work:
            key, _ = work.popitem()
            evaluations[key] = evaluations.get(key, 0) + 1
            if evaluations[key] > MAX_ROUNDS:
                raise BudgetError("recursion failed to stabilise within the round limit")
            old = self.vector[key]
            if key not in self.bodies:
                self.bodies[key] = self.env.instantiate(*key)
            self.vector[key], calls = self._evaluate(self.bodies[key])
            for callee in calls:
                if callee not in callers:
                    callers[callee] = {}
                    work[callee] = None
                callers[callee][key] = None
            if old != self.vector[key]:
                work.update(callers[key])
        return self._evaluate(term)[0]

    def denote(self, term) -> frozenset:
        kind = type(term)
        if kind is Call:
            key = (term.name, term.args)
            self.calls.append(key)
            if key not in self.vector:
                if len(self.vector) >= MAX_INSTANTIATIONS:
                    raise BudgetError(f"more than {MAX_INSTANTIATIONS} recursion instantiations")
                self.vector[key] = BOTTOM
            return self.vector[key]
        if kind is Stop or kind is Div:
            return BOTTOM
        entry = CLAUSES.get(kind)
        if entry is None:
            raise SpecError(f"unknown process construct {kind.__name__}")
        clause, bilinear = entry
        if kind is InputPrefix:
            operands = self.bodies.get(term)
            if operands is None:
                operands = self.bodies[term] = [
                    subst_events(term.body, {term.binder: a}) for a in sorted(term.events)]
        else:
            operands = _children(term)
        cores = tuple(map(self.denote, operands))
        build = partial(clause, term, (self.eval_len, self.params.run_bound))
        if not bilinear:
            return self._clause(term, cores, build)
        # a chain folds the binary clause left to right, as its nesting
        # down the left would; each step keeps its own record
        acc = cores[0]
        for step, core in enumerate(cores[1:]):
            acc = self._clause(term, (acc, core), build, True, step)
        return acc


def denote_traces(term, env: SpecEnv, params: ModelParams, bounds: Bounds) -> TraceSet:
    """Denotational trace set of a term, trimmed to the requested length:
    the core fits and is closed, so trimming keeps its short traces."""
    length = bounds.trace_len
    eval_len = max(length, bounds.internal_len) if mentions_hiding(term, env) else length
    engine = DenotationalEngine(env, params, eval_len)
    canon = engine.solve(term)
    if eval_len != length:
        canon = frozenset(t for t in canon if len(t) <= length)
    return TraceSet(canon, params, length, "denotational")
