"""Denotational semantics: compositional trace-set evaluation.

Each operator clause builds the composite trace set from the cores of its
arguments with no regard to the run and set bounds: a prefix offers all
its events as one run, and merging may widen offers and join runs.  The
clause's output then passes through ``finalize``, the one place the
(n, k, len) bounds are applied, which makes it a canonical core.
Recursion is solved by iteration from the least trace set {⟨⟩}, over a
vector of reachable instantiations of named definitions (the parser makes
each ``mu`` term one), with a worklist: an instantiation is evaluated when
it is first called and again only when the value of one of its callees
changed, so one that calls no other is evaluated once.  This converges
because the bounded universe is finite and every clause is monotone.

Re-establishing the universe (``finalize``) maps each trace on its own and
unions the images, so finalize(S ∪ D) = finalize(S) ∪ finalize(D).  Every
clause's term node keeps a record of its last input and that input's
finalized output; a fixpoint round that hands the node a superset of that
input finalizes only the traces the round added (semi-naive evaluation).

Hiding consumes performed events, so when a term can reach a hiding
operator the evaluation runs at the longer internal length bound and the
result is trimmed back at the end.
"""
from __future__ import annotations

from .errors import BudgetError, SpecError
from .healthiness import EvalMeta, TraceSet, finalize
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
    seen = set()

    def walk(t) -> bool:
        if isinstance(t, Hide):
            return True
        if isinstance(t, Call):
            if t.name in seen:
                return False
            seen.add(t.name)
            if walk(env.lookup(t.name).body):
                return True
        return any(walk(c) for c in _children(t))

    return walk(term)


class DenotationalEngine:
    def __init__(self, env: SpecEnv, params: ModelParams, eval_len: int):
        self.env = env
        self.params = params
        self.eval_len = eval_len
        self.vector: dict = {}
        self.calls: list = []
        self.finalized: dict = {}

    def _finalize(self, term, traces, step: int = 0) -> frozenset:
        """``finalize`` at this engine's bounds, for the clause of ``term``
        (for a choice chain, of its ``step``-th fold).  ``finalize`` is a
        union of per-trace images, so for S ⊆ T,
        finalize(T) = finalize(S) ∪ finalize(T − S).  Each clause keeps one
        record, keyed by the node's identity and the step: the node itself,
        so that no other node takes its id while the record lives, its last
        input, and that input's finalized output.  When a later call at the
        clause gets a superset of that input, as fixpoint rounds do, only
        the traces it added are finalized; otherwise the whole input is,
        and the record is replaced."""
        key = (id(term), step)
        rec = self.finalized.get(key)
        if rec is not None and rec[0] is term and rec[1] <= traces:
            out = rec[2] | finalize(traces - rec[1], self.params, self.eval_len)
        else:
            out = finalize(traces, self.params, self.eval_len)
        self.finalized[key] = (term, traces, out)
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
            self.vector[key], calls = self._evaluate(self.env.instantiate(*key))
            for callee in calls:
                if callee not in callers:
                    callers[callee] = {}
                    work[callee] = None
                callers[callee][key] = None
            if old != self.vector[key]:
                work.update(callers[key])
        return self._evaluate(term)[0]

    def denote(self, term) -> frozenset:
        if isinstance(term, Stop) or isinstance(term, Div):
            return BOTTOM
        if isinstance(term, Prefix):
            return self._prefix_clause(
                term, [term.event], {term.event: self.denote(term.body)}
            )
        if isinstance(term, InputPrefix):
            events = sorted(term.events)
            conts = {
                a: self.denote(subst_events(term.body, {term.binder: a}))
                for a in events
            }
            return self._prefix_clause(term, events, conts)
        if isinstance(term, IntChoice):
            out = set()
            for b in term.branches:
                out |= self.denote(b)
            return self._finalize(term, out)
        if isinstance(term, (ExtChoice, Timeout)):
            # a chain folds the binary clause left to right, as its nesting
            # down the left would; each step keeps its own finalize record
            clause = self._ext_clause if isinstance(term, ExtChoice) else self._timeout_clause
            acc = self.denote(term.branches[0])
            for step, b in enumerate(term.branches[1:]):
                acc = self._finalize(term, clause(acc, self.denote(b)), step)
            return acc
        if isinstance(term, Parallel):
            left = restrict_set(self.denote(term.left), term.left_events)
            right = restrict_set(self.denote(term.right), term.right_events)
            sync = term.left_events & term.right_events
            return self._finalize(term, merge_sets(left, right, sync))
        if isinstance(term, Interleave):
            return self._finalize(
                term,
                merge_sets(
                    self.denote(term.left),
                    self.denote(term.right),
                    frozenset(),
                )
            )
        if isinstance(term, Hide):
            return self._finalize(term, hide_set(self.denote(term.body), term.events))
        if isinstance(term, Rename):
            return self._finalize(term, rename_set(self.denote(term.body), term.pairs))
        if isinstance(term, Call):
            key = (term.name, term.args)
            self.calls.append(key)
            val = self.vector.get(key)
            if val is None:
                if len(self.vector) >= MAX_INSTANTIATIONS:
                    raise BudgetError(
                        f"more than {MAX_INSTANTIATIONS} recursion instantiations"
                    )
                self.vector[key] = BOTTOM
                val = BOTTOM
            return val
        raise SpecError(f"unknown process construct {type(term).__name__}")

    def _prefix_clause(self, term, events, conts: dict) -> frozenset:
        """Composite of a prefix: the stable state offers all its events
        as one run, which ``_finalize`` resamples into the runs the model
        can observe (offers capped, repeats up to the run bound)."""
        offer = (frozenset(events),)
        out = {(), offer}
        for a, cont in conts.items():
            for t in cont:
                out.add((a,) + t)
                out.add(offer + (a,) + t)
        return self._finalize(term, out)

    def _timeout_clause(self, left: frozenset, right: frozenset) -> set:
        """Composite of a timeout: the left side's traces, and each of its
        offer-only traces followed by a trace of the right side."""
        out = set(left)
        for p in offers_only(left):
            for q in right:
                out.add(concat_traces(p, q))
        return out

    def _ext_clause(self, left: frozenset, right: frozenset) -> set:
        """Composite of an external choice: both sides' offers accumulate
        until the first performed event resolves it."""
        lofs = offers_only(left)
        rofs = offers_only(right)
        out = set()
        for p in lofs:
            for q in rofs:
                out.update(merge_traces(p, q, frozenset()))
        for canon, other in ((left, rofs), (right, lofs)):
            for m in canon:
                parts = split_first_event(m)
                if parts is None:
                    continue
                pre, a, suf = parts
                for q in other:
                    for pm in merge_traces(pre, q, frozenset()):
                        out.add(pm + (a,) + suf)
        return out


def denote_traces(term, env: SpecEnv, params: ModelParams, bounds: Bounds) -> TraceSet:
    """Denotational trace set of a term, trimmed to the requested length."""
    length = bounds.trace_len
    eval_len = max(length, bounds.internal_len) if mentions_hiding(term, env) else length
    engine = DenotationalEngine(env, params, eval_len)
    canon = engine.solve(term)
    if eval_len != length:
        canon = finalize(canon, params, length)
    return TraceSet(canon, params, length, EvalMeta(engine="denotational"))
